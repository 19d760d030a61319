import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def test_traced_layer_calls_exist(monkeypatch):
    # the benchmark's tracer wraps these by name; a rename must fail here,
    # not silently in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import LAYER_CALLS

    for module, func, _ in LAYER_CALLS:
        assert callable(getattr(importlib.import_module(f"gact.{module}"), func, None)), (module, func)
    # the simplify counter hook binds the call's arguments by these names
    from gact.reduction import simplify_presentation

    assert list(inspect.signature(simplify_presentation).parameters)[:4] == ["p", "m", "pg", "witness_log"]


@pytest.mark.parametrize("command, n, r, kind, spans", [
    ("squares", 3, None, None, {"biorder.squares_report"}),
    ("verify", 4, 2, None, {"reduction.connectivity", "fpgroup.todd_coxeter"}),
    ("presentation", 4, 2, "gr", {"presentation.schreier_build"}),
])
def test_tracer_wraps_the_lazily_registered_stages(tmp_path, command, n, r, kind, spans):
    # the stage modules load after the tracer has wrapped them, and gact.cli
    # and gact.verify call them module-qualified, so their spans are recorded
    fields = {"command": command, "group": "Z2", "n": n, "r": r, "kind": kind, "extra": [], "expect": None}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), json.dumps(fields), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0, result["stderr"]
    assert spans <= {s["name"] for s in result["spans"]}


# span name -> count per traced verify run, recorded while the proof's stages
# were called from gact.cli, which the tracer instruments before any run
VERIFY_SPANS = {
    (4, 2): {"instance": 1, "groups.make_group": 1, "rees.build_sandwich": 1, "reduction.connectivity": 1,
             "reduction.simplify": 1, "fpgroup.todd_coxeter": 1, "fpgroup.lavers_tc": 1},
    (4, 3): {"instance": 1, "groups.make_group": 1, "rees.build_sandwich": 1, "presentation.schreier_build": 1,
             "presentation.build_gr": 1, "fpgroup.abelianization": 1},
    (6, 2): {"instance": 1, "groups.make_group": 1, "rees.build_sandwich": 2, "reduction.connectivity": 2,
             "reduction.simplify": 2, "fpgroup.todd_coxeter": 1, "fpgroup.lavers_tc": 1},
}


@pytest.mark.parametrize("n, r", list(VERIFY_SPANS))
def test_tracer_records_every_verify_stage(tmp_path, n, r):
    # gact.verify loads inside the run, after the tracer has wrapped the stage
    # modules; it calls each traced stage through its module, so none is missed
    fields = {"command": "verify", "group": "Z2", "n": n, "r": r, "kind": None, "extra": [], "expect": None}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), json.dumps(fields), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0, result["stderr"]
    assert Counter(s["name"] for s in result["spans"]) == VERIFY_SPANS[n, r]


def test_ladder_runs_each_instance_in_a_fresh_wrapper(monkeypatch):
    # the slice-tier ladder: per tree and repeat, one wrapper and one verify
    # child (its own peak RSS), plus one in-process stage child; a run past
    # the timeout is recorded, not raised
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    [row] = ladder.ladder({"change": str(SRC)}, [("Z2", 6, 3)], repeats=2)
    entry = row["change"]
    assert row["instance"] == "verify Z2 6 3" and entry["status"] == ["ok"] and entry["timeouts"] == 0
    assert entry["stdout"] == ["order=48 expected=48 OK"]
    assert len(entry["wall_s"]["runs"]) == len(entry["simplify_s"]["runs"]) == 2
    assert 0 < entry["maxrss_mb"]["median"] < 200 and entry["merges"] == 24
    [late] = ladder.ladder({"change": str(SRC)}, [("Z2", 6, 3)], repeats=1, timeout=0.001)
    assert late["change"]["status"] == ["timeout"] and late["change"]["timeouts"] == 1
    assert "wall_s" not in late["change"] and "simplify_s" not in late["change"]


def test_ladder_gives_each_tree_its_own_bytecode_cache(monkeypatch):
    # the caller's PYTHONDONTWRITEBYTECODE reaches no child: each tree's
    # compile step, wrappers (whose verify children inherit their environment)
    # and stage children share one cache of their own, filled before the first repeat
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    calls = []  # (argv, env) of each child, in order
    real_run = subprocess.run

    def run(argv, **kw):
        calls.append((argv, kw["env"]))
        done = real_run(argv, **kw)
        if argv[1] == "-c":
            assert list(Path(kw["env"]["PYTHONPYCACHEPREFIX"]).rglob("rees.*.pyc"))
        return done

    monkeypatch.setattr(subprocess, "run", run)
    [row] = ladder.ladder({"a": str(SRC), "b": str(SRC)}, [("Z2", 4, 2)], repeats=1)
    assert row["a"]["status"] == row["b"]["status"] == ["ok"]
    assert [argv[1:2] for argv, _ in calls[:2]] == [["-c"], ["-c"]]  # both compiled before any run
    assert all("PYTHONDONTWRITEBYTECODE" not in env and env["PYTHONPATH"] == str(SRC) for _, env in calls)
    prefixes = [env["PYTHONPYCACHEPREFIX"] for _, env in calls]
    assert len(calls) == 6 and prefixes[0] != prefixes[1]
    assert prefixes[2:] == [prefixes[0]] * 2 + [prefixes[1]] * 2  # a's run and stages, then b's


def test_ladder_export_tier_hashes_each_output(monkeypatch):
    # the export tier writes each run to a temporary --output file and records
    # its sha256, which here must match the text form built in-process
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    from gact import build_sandwich, make_group
    from gact.rees import matrix_to_text

    want = hashlib.sha256(matrix_to_text(build_sandwich(make_group("Z2"), 4, 2)).encode()).hexdigest()
    [row] = ladder.ladder({"a": str(SRC), "b": str(SRC)}, ["sandwich --group Z2 --n 4 --r 2"], repeats=2,
                          tier="export")
    assert row["instance"] == "sandwich --group Z2 --n 4 --r 2" and row["tier"] == "export"
    assert row["a"]["sha256"] == row["b"]["sha256"] == [want] and row["same_output"]
    assert row["a"]["stdout"] == [""] and len(row["a"]["wall_s"]["runs"]) == 2 and "simplify_s" not in row["a"]


def test_ladder_large_tier_hashes_each_stdout(monkeypatch, tmp_path):
    # the large tier runs squares at large n and records the sha256 of each
    # run's stdout; given two tiers, the script writes a list of two reports
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    assert ladder.LARGE_TIER == ["squares --group Z2 --n 7", "squares --group Z2 --n 8"]
    out = subprocess.run([sys.executable, "-m", "gact.cli", "squares", "--group", "Z2", "--n", "3"], check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True).stdout
    monkeypatch.setattr(ladder, "TIERS", {"large": ["squares --group Z2 --n 3"], "slice": [("Z2", 4, 2)]})
    path = tmp_path / "ladder.json"
    assert ladder.main(["--tier", "large", "slice", "--tree", f"a={SRC}", "--out", str(path)]) == 0
    large, sliced = json.loads(path.read_text())
    assert large["method"].startswith("large tier") and sliced["method"].startswith("slice tier")
    [row] = large["instances"]
    assert row["instance"] == "squares --group Z2 --n 3" and row["tier"] == "large" and row["same_output"]
    assert row["a"]["sha256"] == [hashlib.sha256(out).hexdigest()] and row["a"]["stdout"] == [out.decode().strip()]
    [row] = sliced["instances"]
    assert row["instance"] == "verify Z2 4 2" and "sha256" not in row["a"] and "same_output" not in row


def test_ladder_extreme_tier_hashes_each_stdout(monkeypatch, tmp_path):
    # the extreme tier holds the CI's extreme-rank verify runs, rank n - 1 (G
    # trivial and Z3) and r = 1 at large n, and records the sha256 of each run's stdout
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    assert ladder.EXTREME_TIER == ["verify --group trivial --n 100 --r 99", "verify --group trivial --n 200 --r 199",
                                   "verify --group trivial --n 100000 --r 1", "verify --group Z3 --n 60 --r 59"]
    monkeypatch.setattr(ladder, "TIERS", {"extreme": ["verify --group trivial --n 5 --r 4"]})
    path = tmp_path / "ladder.json"
    assert ladder.main(["--tier", "extreme", "--tree", f"a={SRC}", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["method"].startswith("extreme tier")
    [row] = report["instances"]
    out = "r3-relators=0 expected=0 OK free-rank=6 torsion=none"
    assert row["tier"] == "extreme" and row["same_output"] and row["a"]["stdout"] == [out]
    assert row["a"]["sha256"] == [hashlib.sha256(out.encode() + b"\n").hexdigest()]


def test_ladder_enumeration_tier_hashes_each_stdout(monkeypatch, tmp_path):
    # the enumeration tier holds verify at n = r + 2, where Todd-Coxeter
    # decides, from desk scale to the frontier, and records the sha256 of each run's stdout
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    assert ladder.ENUMERATION_TIER == [
        "verify --group Z2 --n 8 --r 6", "verify --group S3 --n 6 --r 4", "verify --group Z3 --n 7 --r 5",
        "verify --group Z4 --n 7 --r 5", "verify --group Z3 --n 8 --r 6", "verify --group Z2 --n 9 --r 7",
        "verify --group S3 --n 7 --r 5", "verify --group S4 --n 5 --r 3"]
    monkeypatch.setattr(ladder, "TIERS", {"enumeration": ["verify --group Z2 --n 4 --r 2"]})
    path = tmp_path / "ladder.json"
    assert ladder.main(["--tier", "enumeration", "--tree", f"a={SRC}", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["method"].startswith("enumeration tier") and "each timeout recorded" in report["method"]
    [row] = report["instances"]
    out = "order=8 expected=8 OK"
    assert row["tier"] == "enumeration" and row["same_output"] and row["a"]["stdout"] == [out]
    assert row["a"]["sha256"] == [hashlib.sha256(out.encode() + b"\n").hexdigest()] and row["a"]["timeouts"] == 0


def test_ladder_capped_tier_records_each_exit(monkeypatch, tmp_path):
    # the capped tier holds the frontier's capped rows and records each run
    # as whatever it does: an exit 3 at the entries cap keeps its wall clock,
    # peak RSS and (empty) stdout digest, as a successful run does
    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder

    assert ladder.CAPPED_TIER == [
        "verify --group Z2 --n 9 --r 3", "verify --group Z2 --n 9 --r 4", "verify --group Z2 --n 9 --r 5",
        "verify --group Z3 --n 8 --r 3", "verify --group S3 --n 7 --r 3", "verify --group trivial --n 10 --r 5",
        "verify --group Z4 --n 8 --r 4", "squares --group Z2 --n 9", "squares --group Z2 --n 10"]
    instances = ["verify --group Z2 --n 10 --r 4", "squares --group Z2 --n 3"]
    monkeypatch.setattr(ladder, "TIERS", {"capped": instances})
    path = tmp_path / "ladder.json"
    assert ladder.main(["--tier", "capped", "--tree", f"a={SRC}", "--tree", f"b={SRC}", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["method"].startswith("capped tier") and report["trees"] == ["a", "b"]
    capped, counted = report["instances"]
    assert capped["tier"] == "capped" and capped["same_output"]
    for name in "ab":
        assert capped[name]["status"] == ["exit 3"] and capped[name]["stdout"] == [""]
        assert capped[name]["sha256"] == [hashlib.sha256(b"").hexdigest()]
        assert len(capped[name]["wall_s"]["runs"]) == len(capped[name]["maxrss_mb"]["runs"]) == ladder.REPEATS
        assert counted[name]["status"] == ["ok"] and counted[name]["stdout"][0].startswith("rank=1 ")
    assert counted["same_output"]
    # a run past the timeout keeps no series, and its row does not give the same output
    [row] = ladder.ladder({"a": str(SRC)}, ["verify --group Z2 --n 9 --r 3"], repeats=1, timeout=0.001, tier="capped")
    assert row["a"]["status"] == ["timeout"] and "wall_s" not in row["a"] and not row["same_output"]


def test_ladder_desk_tier_covers_the_main_cases(monkeypatch):
    # the desk tier runs verify on every main case and on Q8 and A4 at (5, 3),
    # from table files written into the run's temporary directory, and
    # records the sha256 of each run's stdout
    import itertools

    monkeypatch.syspath_prepend(str(PERFBENCH.parent / "tools"))
    import ladder
    from helpers import MAIN_CASES, quaternion_group

    from gact import group_from_text, symmetric_group

    main = [f"verify --group {spec} --n {n} --r {r}" for n, spec, r, _ in MAIN_CASES]
    assert ladder.DESK_TIER == main + ["verify --group table:{tables}/q8.txt --n 5 --r 3",
                                       "verify --group table:{tables}/a4.txt --n 5 --r 3"]
    assert group_from_text(ladder.TABLES["q8.txt"]).table == quaternion_group().table
    # A4 is S4's multiplication restricted to its even permutations, in S4's order
    s4 = symmetric_group(4)
    even = [x for x, p in enumerate(itertools.permutations(range(4)))
            if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    assert group_from_text(ladder.TABLES["a4.txt"]).table == tuple(
        tuple(even.index(s4.table[x][y]) for y in even) for x in even)
    instances = ["verify --group table:{tables}/q8.txt --n 4 --r 2", "verify --group table:{tables}/a4.txt --n 4 --r 2"]
    rows = ladder.ladder({"a": str(SRC)}, instances, repeats=1, tier="desk")
    for row, instance, out in zip(rows, instances, ["order=128 expected=128 OK", "order=288 expected=288 OK"]):
        assert row["instance"] == instance and row["tier"] == "desk" and row["same_output"]
        assert row["a"]["stdout"] == [out] and row["a"]["sha256"] == [hashlib.sha256(out.encode() + b"\n").hexdigest()]
