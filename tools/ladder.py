"""The bench ladder's slice, desk, export, large, capped, extreme and enumeration tiers: wall time, peak RSS, and stage times or output digests per tree.

    python tools/ladder.py --tree parent=<checkout>/src --tree change=src --out BENCH_24.json
    python tools/ladder.py --tier export --tree parent=<checkout>/src --tree change=src --out BENCH_29.json
    python tools/ladder.py --tier large slice --tree parent=<checkout>/src --tree change=src --out BENCH_30.json
    python tools/ladder.py --tier slice export large capped --tree parent=<checkout>/src --tree change=src \
        --out BENCH_31.json
    python tools/ladder.py --tier capped large slice --tree parent=<checkout>/src --tree change=src --out BENCH_32.json
    python tools/ladder.py --tier slice capped extreme --tree parent=<checkout>/src --tree change=src \
        --out BENCH_34.json
    python tools/ladder.py --tier export extreme --tree parent=<checkout>/src --tree change=src --out BENCH_35.json
    python tools/ladder.py --tier export extreme --tree parent=<checkout>/src --tree change=src --out BENCH_36.json
    python tools/ladder.py --tier enumeration extreme --tree parent=<checkout>/src --tree change=src \
        --out BENCH_37.json
    python tools/ladder.py --tier desk slice --tree parent=<checkout>/src --tree change=src --out BENCH_38.json

Each `--tree NAME=PATH` names a `src` directory holding the `gact` package.
For every instance, tree and repeat the script starts one fresh wrapper
process (this script with `--run`), and the wrapper starts
`python -m gact.cli ...` as its only child, under a timeout.  The
wrapper reads the child's wall clock and its peak RSS, from RUSAGE_CHILDREN,
which then holds that child alone.  A run past the timeout is killed and
recorded as `"status": "timeout"`.  The slice tier runs `verify`; its stage
times come from a second fresh child per repeat (`--stages`): it builds the
matrix at n in-process and times `connectivity` and `simplify_presentation`
on it, as `verify.slice_order` calls them.  The export tier runs the text and
JSON exports, each to a temporary `--output` file, and records the file's
sha256; the large tier runs `squares` at large n and records the sha256 of
its stdout.  The capped tier runs the frontier's instances that stopped at a
cap; each run is recorded as whatever it does, its stdout hashed and its
wall clock and peak RSS kept whatever its exit code (a timeout excepted).
The desk tier runs `verify` on the test suite's main cases and on Q8 and
A4 at (5, 3), from table files written into the run's temporary directory;
the extreme tier runs `verify` at rank n-1 and at r = 1 with large n, and
the enumeration tier `verify` at n = r+2, where Todd-Coxeter decides; each
records the sha256 of its stdout.
`same_output` says whether every run of every tree gave the same exit status
and the same bytes.  Given several tiers, the script writes a list of their
reports.
Repeats alternate the trees, so drift falls on both alike;
each series reports its median and its spread, (max - min) / median.
Every tree gets its own bytecode cache (PYTHONPYCACHEPREFIX) in one
temporary directory, with bytecode writing on, and one untimed child
compiles the tree's modules, and the standard modules they import, into
it before the first repeat: a tree that ships a `__pycache__` and a fresh
checkout then both load every module from bytecode.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (group, n, r): the slice route, from desk scale to the frontier
SLICE_TIER = [("S3", 6, 3), ("Z2", 8, 4), ("Z2", 8, 3), ("Z3", 8, 4), ("Z4", 7, 3), ("S3", 7, 4)]
# the test suite's main cases, then two table groups that are neither cyclic nor symmetric;
# {tables} is the run's temporary directory, which holds TABLES
DESK_TIER = [f"verify --group {g} --n {n} --r {r}" for g, n, r in
             [("trivial", 4, 1), ("trivial", 4, 2), ("trivial", 5, 2), ("trivial", 5, 3), ("trivial", 6, 4),
              ("Z2", 4, 1), ("Z2", 4, 2), ("Z2", 5, 2), ("Z3", 5, 2), ("Z2", 5, 3)]]
DESK_TIER += ["verify --group table:{tables}/q8.txt --n 5 --r 3", "verify --group table:{tables}/a4.txt --n 5 --r 3"]
# the write path: the gr presentation's text and its JSON, the sandwich's text and its JSON
EXPORT_TIER = [f"presentation --kind gr --group {g} --n {n} --r {r}" for g, n, r in
               [("trivial", 8, 5), ("Z2", 6, 3), ("Z3", 6, 3)]]
EXPORT_TIER += ["presentation --kind gr --group Z3 --n 6 --r 3 --json"]
EXPORT_TIER += [f"sandwich --group {g} --n {n} --r {r}" for g, n, r in [("Z2", 7, 3), ("Z2", 8, 3), ("S3", 6, 3)]]
EXPORT_TIER += ["sandwich --group Z2 --n 8 --r 3 --json"]
# large n: the squares count at every rank, which walks every column pair
LARGE_TIER = ["squares --group Z2 --n 7", "squares --group Z2 --n 8"]
# the frontier's once-capped rows, recorded as whatever they do: exit 3 at the
# 10M-cell entries cap when this tier was added, while the cap still counted
# rows times columns; Z4 8 4 is the next row out
CAPPED_TIER = [f"verify --group {g} --n {n} --r {r}" for g, n, r in
               [("Z2", 9, 3), ("Z2", 9, 4), ("Z2", 9, 5), ("Z3", 8, 3), ("S3", 7, 3), ("trivial", 10, 5),
                ("Z4", 8, 4)]]
CAPPED_TIER += ["squares --group Z2 --n 9", "squares --group Z2 --n 10"]
# the extreme ranks: n - 1, where the sandwich has C(n, 2) partitions of n - 1 blocks, and 1 at large n
EXTREME_TIER = [f"verify --group trivial --n {n} --r {r}" for n, r in [(100, 99), (200, 199), (100000, 1)]]
EXTREME_TIER += ["verify --group Z3 --n 60 --r 59"]  # rank n - 1 with |G| > 1
# n = r + 2, where Todd-Coxeter decides, from desk scale to the frontier: S3 7 5 runs past the timeout
ENUMERATION_TIER = [f"verify --group {g} --n {n} --r {r}" for g, n, r in
                    [("Z2", 8, 6), ("S3", 6, 4), ("Z3", 7, 5), ("Z4", 7, 5), ("Z3", 8, 6), ("Z2", 9, 7),
                     ("S3", 7, 5), ("S4", 5, 3)]]
TIERS = {"slice": SLICE_TIER, "desk": DESK_TIER, "export": EXPORT_TIER, "large": LARGE_TIER, "capped": CAPPED_TIER,
         "extreme": EXTREME_TIER, "enumeration": ENUMERATION_TIER}
TIMEOUT_S = 150
REPEATS = 3
# imports every module of the tree, which compiles it and the standard modules it imports into the cache
COMPILE_CODE = ("import importlib, pkgutil, gact\n"
                "for mod in pkgutil.iter_modules(gact.__path__):\n    importlib.import_module('gact.' + mod.name)\n")


def _table_text(elements: list, mul) -> str:
    """The table file of a group listed identity first: `order m`, then row x holding the index of x*y per y."""
    rows = [" ".join(str(elements.index(mul(x, y))) for y in elements) for x in elements]
    return f"order {len(elements)}\n" + "\n".join(rows) + "\n"


def _hamilton(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


# Q8: the units +-1, +-i, +-j, +-k under the Hamilton product, 1 first; A4: the even
# permutations of 4 points in one-line order, composed left to right as gact's S<k> is
_EVEN = [p for p in itertools.permutations(range(4))
         if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
TABLES = {"q8.txt": _table_text([tuple(s * (k == u) for k in range(4)) for u in range(4) for s in (1, -1)],
                                _hamilton),
          "a4.txt": _table_text(_EVEN, lambda p, q: tuple(q[v] for v in p))}


def _env(src: str, cache: str) -> dict:
    """The caller's environment with the tree on the path and its own bytecode cache, written to."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(args: list[str], timeout: float, to_file: bool = False) -> dict:
    """Inside a fresh wrapper, in a tree's environment: one `gact.cli ARGS` child, its wall clock, peak RSS and stdout.

    With to_file the child writes to a temporary `--output` file, whose sha256 is recorded after a
    successful run; else its stdout's is, after any run that finished.
    """
    with tempfile.TemporaryDirectory(prefix="ladder-out-") as scratch:
        target = os.path.join(scratch, "out")
        argv = [sys.executable, "-m", "gact.cli", *args] + (["--output", target] if to_file else [])
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
            try:
                out, err = child.communicate(timeout=timeout)
                status = "ok" if child.returncode == 0 else f"exit {child.returncode}"
            except subprocess.TimeoutExpired:
                child.kill()
                out, err = child.communicate()
                status = "timeout"
        wall = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        done = {"status": status, "wall_s": round(wall, 3), "maxrss_mb": round(rss, 1),
                "stdout": out.strip(), "stderr": err.strip()[-200:]}
        if status != "timeout" and (status == "ok" or not to_file):
            done["sha256"] = hashlib.sha256(Path(target).read_bytes() if to_file else out.encode()).hexdigest()
    return done


def stage_times(group: str, n: int, r: int) -> dict:
    """Inside a fresh child whose path holds the tree: connectivity and simplification at n."""
    from gact import build_sandwich, connectivity, make_group, simplify_presentation
    from gact.presentation import Presentation, value_gen_name

    m = build_sandwich(make_group(group), n, r)
    start = time.perf_counter()
    pg = connectivity(m)
    mid = time.perf_counter()
    blank = Presentation([value_gen_name(v) for v in m.values], [], [], gen_keys=m.values)
    log: list = []
    simplify_presentation(blank, m, pg, log)
    end = time.perf_counter()
    return {"connectivity_s": round(mid - start, 4), "simplify_s": round(end - mid, 4), "merges": len(log)}


def _child(args: list[str], env: dict, timeout: float | None = None) -> dict:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), *args], env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout)


def _series(values: list[float]) -> dict:
    median = statistics.median(values)
    return {"runs": values, "median": round(median, 4),
            "spread": round((max(values) - min(values)) / median, 3) if median else 0.0}


def ladder(trees: dict[str, str], instances, repeats: int = REPEATS, timeout: float = TIMEOUT_S,
           tier: str = "slice") -> list[dict]:
    """One row per instance: each tree's statuses, stdouts, timeouts and series.

    Slice instances are (group, n, r) of a verify run, the other tiers'
    instances the argument string of a run, in which {tables} names the
    temporary directory that holds TABLES; their rows also give each tree's
    output digests and whether all runs agree on them and on their status.
    Series cover the successful runs, and in the capped tier every run that
    finished.
    """
    with tempfile.TemporaryDirectory(prefix="ladder-") as caches:
        for name, text in TABLES.items():
            Path(caches, name).write_text(text, encoding="utf-8")
        envs = {name: _env(src, os.path.join(caches, str(idx))) for idx, (name, src) in enumerate(trees.items())}
        for env in envs.values():  # untimed: the first repeat then reads bytecode too
            subprocess.run([sys.executable, "-c", COMPILE_CODE], env=env, check=True, timeout=TIMEOUT_S)
        rows = []
        for instance in instances:
            if tier == "slice":
                group, n, r = instance
                args, label = ["verify", "--group", group, "--n", str(n), "--r", str(r)], f"verify {group} {n} {r}"
            else:
                args, label = instance.format(tables=caches).split(), instance
            runs = {name: [] for name in trees}
            staged = {name: [] for name in trees}
            for _ in range(repeats):
                for name, env in envs.items():
                    runs[name].append(_child(["--run", tier, str(timeout), *args], env))
                    if tier == "slice" and runs[name][-1]["status"] == "ok":
                        staged[name].append(_child(["--stages", group, str(n), str(r)], env, 2 * timeout))
                    print(label, name, runs[name][-1]["status"], runs[name][-1]["wall_s"], file=sys.stderr)
            row: dict = {"instance": label, "tier": tier}
            for name, done in runs.items():
                kept = [d for d in done if d["status"] == "ok" or tier == "capped" and d["status"] != "timeout"]
                entry: dict = {"status": sorted({d["status"] for d in done}),
                               "stdout": sorted({d["stdout"] for d in done}),
                               "timeouts": sum(d["status"] == "timeout" for d in done)}
                if kept:
                    entry["wall_s"] = _series([d["wall_s"] for d in kept])
                    entry["maxrss_mb"] = _series([d["maxrss_mb"] for d in kept])
                if tier != "slice":
                    entry["sha256"] = sorted({d["sha256"] for d in kept})
                if staged[name]:
                    entry["connectivity_s"] = _series([s["connectivity_s"] for s in staged[name]])
                    entry["simplify_s"] = _series([s["simplify_s"] for s in staged[name]])
                    entry["merges"] = staged[name][0]["merges"]
                row[name] = entry
            if tier != "slice":  # every run of every tree ran and gave one and the same status and output
                finished = [(d["status"], d.get("sha256")) for done in runs.values() for d in done]
                row["same_output"] = all(digest for _, digest in finished) and len(set(finished)) == 1
            rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", default=[], metavar="NAME=PATH",
                    help="a src directory holding gact, by name; repeatable")
    ap.add_argument("--tier", choices=TIERS, nargs="+", default=["slice"], help="the instances to run")
    ap.add_argument("--out", help="write the ladder JSON here (default: stdout)")
    ap.add_argument("--run", nargs=argparse.REMAINDER, metavar="TIER TIMEOUT ARGS", help=argparse.SUPPRESS)
    ap.add_argument("--stages", nargs=3, metavar=("GROUP", "N", "R"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run:
        tier, timeout, *cli_args = args.run
        print(json.dumps(run_once(cli_args, float(timeout), to_file=tier == "export")))
        return 0
    if args.stages:
        group, n, r = args.stages
        print(json.dumps(stage_times(group, int(n), int(r))))
        return 0
    if not all("=" in spec for spec in args.tree) or not args.tree:
        ap.error("give each source tree as --tree NAME=PATH")
    trees = dict(spec.split("=", 1) for spec in args.tree)
    what = {"slice": "`gact.cli verify` child", "desk": "`gact.cli verify` child",
            "export": "`gact.cli` export child, to a temporary --output file,", "large": "`gact.cli squares` child",
            "capped": "`gact.cli` child", "extreme": "`gact.cli verify` child",
            "enumeration": "`gact.cli verify` child"}
    after = {"slice": "stage times are in-process, one fresh child per repeat",
             "desk": "each run's stdout is hashed (sha256) after the child exits; the table files are written "
                     "into the run's temporary directory",
             "export": "each run's output file is hashed (sha256) after the child exits",
             "large": "each run's stdout is hashed (sha256) after the child exits",
             "capped": "each run's stdout is hashed (sha256) after the child exits, and its series kept, "
                       "whatever its exit code",
             "extreme": "each run's stdout is hashed (sha256) after the child exits",
             "enumeration": "each run's stdout is hashed (sha256) after the child exits, and each timeout "
                            "recorded"}
    reports = [{
        "method": (f"{tier} tier; per instance, tree and repeat one fresh wrapper process runs one "
                   f"{what[tier]} under a {TIMEOUT_S} s timeout and reads its wall clock "
                   f"and its peak RSS (RUSAGE_CHILDREN); each tree has its own bytecode cache, "
                   f"compiled untimed before the first repeat; {after[tier]}; "
                   f"{REPEATS} repeats, trees alternating; spread = (max - min) / median"),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timeout_s": TIMEOUT_S,
        "repeats": REPEATS,
        "trees": list(trees),
        "instances": ladder(trees, TIERS[tier], tier=tier),
    } for tier in args.tier]
    text = json.dumps(reports[0] if len(reports) == 1 else reports, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
