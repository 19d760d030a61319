"""Benchmark of the `gact` command line.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program is imported from ./src, and
scratch files go to ./.bench_build/perfbench.  Each instance is a fresh
`python -m gact.cli` process, started only after the previous one exited
(a closed loop with one client).  Every verdict and output is checked
against a known answer after its process has ended, outside the timed
span.  The last line of stdout is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import DESK, WORKLOADS, Instance, check_output, known_answer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_instance_s": "s",
    "peak_rss_mb": "MB",
    "decided_share": "share",
}
SETUP_REPEATS = 7
SETUP_CODE = "import sys, gact\nfor spec in sys.argv[1:]:\n    gact.make_group(spec)\n"
# A fixed pure-Python program that does not touch gact.  Run between the
# instances, its time tracks how fast the shared machine runs Python at that
# moment; the end-to-end times are scaled by PROBE_REF_S / (mean probe time).
PROBE_CODE = (
    "d = {}\nacc = []\nfor i in range(75_000):\n    k = (i * 7919) & 65535\n"
    "    t = (k, i & 7, k ^ i)\n    d[t] = d.get(t, 0) + 1\n    if i & 3 == 0:\n"
    "        acc.append(t)\nacc.sort()\n"
)
PROBE_REF_S = 0.14  # mean probe time on the reference machine (2-vCPU Xeon, Python 3.11)
PROBE_SPACING_S = 1.0  # after an instance, one more probe per this many seconds it took
DEADLINE_S = 160  # a run stops starting instances after this long


class DeadlineExceeded(Exception):
    pass


class Runner:
    """Starts one child at a time and reads its rusage with wait4."""

    def __init__(self, deadline_s: float = DEADLINE_S):
        # one CPU for this process and every child, so probes and instances
        # see the same CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.work = ROOT / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("GACT_")}
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.deadline = time.monotonic() + deadline_s

    def child(self, cmd: list[str]) -> tuple[int, float, float, str, str]:
        """Run cmd to its end: (exit code, seconds, peak RSS in MB, stdout, stderr)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"no time left to start {cmd[1:]}")
        out_file, err_file = self.work / "stdout", self.work / "stderr"
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (code, seconds, usage.ru_maxrss / 1024,
                out_file.read_text(errors="replace"), err_file.read_text(errors="replace"))

    def probe(self) -> float:
        code, seconds, _, _, stderr = self.child([sys.executable, "-c", PROBE_CODE])
        if code != 0:
            raise RuntimeError(f"speed probe failed: {stderr.strip()}")
        return seconds

    def run(self, inst: Instance, traced: bool = False) -> dict:
        """One instance, classified as ok, cap or error."""
        out_path = self.work / "export.txt"
        out_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   json.dumps(dataclasses.asdict(inst)), str(out_path)]
        else:
            cmd = [sys.executable, "-m", "gact.cli", *inst.argv(out_path)]
        code, seconds, rss, stdout, stderr = self.child(cmd)
        rec = {"instance": inst.label, "seconds": seconds, "maxrss_mb": rss}
        spans = []
        if traced:
            try:
                child = json.loads(stdout.splitlines()[-1])
            except (IndexError, ValueError):  # the tracer itself failed
                child = {"exit": -1, "stdout": "", "stderr": stderr}
            code, stdout, stderr = child["exit"], child["stdout"], child["stderr"]
            spans = child.get("spans", [])
        rec["exit"] = code
        rec["status"], rec["detail"] = classify(inst, code, stdout, stderr, out_path)
        if traced and rec["status"] == "ok" and inst.command == "verify":
            want = known_answer(inst).get("order")
            problem = want is not None and tracer.lavers_problem(spans, want)
            if problem:
                rec["status"], rec["detail"] = "error", problem
        rec["spans"] = spans
        out_path.unlink(missing_ok=True)
        return rec


def classify(inst: Instance, code: int, stdout: str, stderr: str, out_path: Path):
    """(status, detail): exit 3 is a cap and names it; exit 0 must match the known answer."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if code == 3:
        return "cap", last.removeprefix("error: ")
    if code == 0:
        problem = check_output(inst, stdout, out_path)
        return ("error", problem) if problem else ("ok", None)
    if code == 1:
        return "error", "verification mismatch (exit 1)"
    return "error", f"exit {code}: {last}"


def measure_setup(runner: Runner, groups: list[str], repeats: int):
    """Fresh interpreters that import gact and build the workload's groups, each after a probe."""
    times, probes = [], []
    for _ in range(repeats):
        probes.append(runner.probe())
        code, seconds, _, _, stderr = runner.child([sys.executable, "-c", SETUP_CODE, *groups])
        if code != 0:
            raise RuntimeError(f"set-up failed: {stderr.strip()}")
        times.append(seconds)
    return times, probes


def run_passes(runner: Runner, instances: list[Instance], rng: random.Random, seconds: float):
    """Whole passes over the instances, in a seeded order, while they fit in `seconds`.

    Speed probes run before each instance and after it, one more per
    PROBE_SPACING_S seconds the instance took.
    """
    passes, probes = [], []
    start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        order = list(instances)
        rng.shuffle(order)
        began = time.perf_counter()
        records = []
        probes.append(runner.probe())
        for inst in order:
            records.append(runner.run(inst))
            extra = int(records[-1]["seconds"] // PROBE_SPACING_S)
            probes += [runner.probe() for _ in range(1 + extra)]
        passes.append(records)
        longest = max(longest, time.perf_counter() - began)
    return passes, probes


def end_to_end(setup: list[float], passes: list[list[dict]], probes: list[float]) -> dict:
    """Times are medians scaled to reference speed; see PROBE_CODE."""
    records = [rec for p in passes for rec in p]
    decided = sum(1 for rec in records if rec["exit"] in (0, 1))
    scale = PROBE_REF_S / statistics.fmean(probes)
    values = {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(sum(rec["seconds"] for rec in p) for p in passes) * scale,
        "slowest_instance_s":
            statistics.median(max(rec["seconds"] for rec in p) for p in passes) * scale,
        "peak_rss_mb": max(rec["maxrss_mb"] for rec in records),
        "decided_share": decided / len(records),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def run_workload(name: str, instances: list[Instance], seed: int, seconds: float,
                 trace: bool, runner: Runner) -> dict:
    rng = random.Random(seed)
    if trace:
        # one untraced pass, the same pass traced, then the desk instances traced
        order = list(instances)
        rng.shuffle(order)
        plain = [runner.run(inst) for inst in order]
        traced = [runner.run(inst, traced=True) for inst in order]
        desk = [runner.run(inst, traced=True) for inst in DESK]
        for mode, recs in (("plain", plain), ("traced", traced), ("desk", desk)):
            for rec in recs:
                rec["mode"] = mode
        records = plain + traced + desk
        metrics = tracer.layer_metrics([rec["spans"] for rec in traced + desk])
        overhead = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in plain)
        metrics["trace.overhead_s"] = (overhead, "s")
        passes, probes = [traced], []
    else:
        groups = sorted({inst.group for inst in instances})
        runner.child([sys.executable, "-c", SETUP_CODE, *groups])  # warm the bytecode cache
        setup, probes = measure_setup(runner, groups, SETUP_REPEATS)
        passes, pass_probes = run_passes(runner, instances, rng, seconds)
        probes += pass_probes
        records = [rec for p in passes for rec in p]
        metrics = end_to_end(setup, passes, probes)
    failed = sum(1 for rec in records if rec["status"] == "error")
    return {
        "workload": name, "seed": seed, "trace": trace, "passes": len(passes),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "probes": probes, "records": records, "metrics": metrics,
        "attempted": len(records), "failed": failed,
    }


def print_report(report: dict):
    print(f"# workload={report['workload']} seed={report['seed']} trace={int(report['trace'])} "
          f"passes={report['passes']} nproc={report['nproc']} python={report['python']}")
    for rec in report["records"]:
        detail = f"  [{rec['detail']}]" if rec["detail"] else ""
        mode = f"{rec['mode']:<6} " if "mode" in rec else ""
        print(f"  {mode}{rec['status']:<5} exit={rec['exit']} {rec['seconds']:8.3f} s "
              f"{rec['maxrss_mb']:8.1f} MB  {rec['instance']}{detail}")
    if report["probes"]:
        mean = statistics.fmean(report["probes"])
        print(f"  speed probe: mean {mean:.4f} s over {len(report['probes'])} probes; "
              f"times below are scaled by {PROBE_REF_S} / {mean:.4f}")
    for metric, (value, unit) in report["metrics"].items():
        print(f"  {metric} = {value} {unit}")
    print(f"  error_share = {report['failed'] / report['attempted']} share")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gact" / "__init__.py").is_file():
        print(f"error: no gact sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(DEADLINE_S * len(names))
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), runner))
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
        (runner.work / f"report-{report['workload']}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1) + "\n")
    prefix = len(reports) > 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{r['workload']}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for r in reports for metric, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
