"""Fast self-test of the benchmark harness on desk-scale instances.

    python3 perfbench/selftest.py

Checks that the metric names and units the harness emits are the ones
BENCHMARK.json declares, that the known-answer checks pass on the
acceptance suite's MAIN_CASES, that a planted wrong answer raises
error_share, that a cap is recorded as undecided with the cap named, and
that the program's square counts at n = 3 agree with a plain-Python count
from the definitions.  Takes a few seconds; exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import json
import sys

import run
from workloads import DESK, WORKLOADS, known_answer, squares, verify

# (n, group, r) from tests/test_acceptance.py
MAIN_CASES = [
    (4, "trivial", 1), (4, "trivial", 2), (5, "trivial", 2), (5, "trivial", 3),
    (6, "trivial", 4), (4, "Z2", 1), (4, "Z2", 2), (5, "Z2", 2), (5, "Z3", 2), (5, "Z2", 3),
]


def require(ok: bool, what: str):
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"PASS {what}")


def group_table(spec: str) -> list[list[int]]:
    if spec == "trivial":
        return [[0]]
    if spec[0] == "Z":
        m = int(spec[1:])
        return [[(a + b) % m for b in range(m)] for a in range(m)]
    perms = list(itertools.permutations(range(int(spec[1:]))))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]


def plain_square_counts(spec: str, n: int) -> list[dict]:
    """Idempotents, E-squares and singular squares per rank, from the definitions.

    An endomorphism sends generator j to weight w_j times generator t_j.
    Its image is the set of targets; its kernel is fixed by the pairs
    (i, j, w_j * w_i^-1) with t_i = t_j.  R is equal kernel, L equal image;
    a square on rows K1, K2 and columns I1, I2 is singular when e*g = f.
    """
    mul = group_table(spec)
    identity = next(x for x in range(len(mul)) if mul[x][x] == x)
    inv = [row.index(identity) for row in mul]

    def compose(a, b):  # a then b
        (ta, wa), (tb, wb) = a, b
        return (tuple(tb[t] for t in ta), tuple(mul[w][wb[t]] for w, t in zip(wa, ta)))

    def kernel(a):
        t, w = a
        return frozenset((i, j, mul[w[j]][inv[w[i]]])
                         for i in range(n) for j in range(n) if t[i] == t[j])

    idem: dict[int, dict[tuple, object]] = {}
    order = len(mul)
    for t in itertools.product(range(n), repeat=n):
        for w in itertools.product(range(order), repeat=n):
            e = (t, w)
            if compose(e, e) == e:
                idem.setdefault(len(set(t)), {})[(kernel(e), frozenset(t))] = e
    rows = []
    for r in range(1, n + 1):
        at = idem[r]
        kernels = sorted({k for k, _ in at}, key=sorted)
        images = sorted({i for _, i in at}, key=sorted)
        n_squares = n_singular = 0
        for k1, k2 in itertools.combinations(kernels, 2):
            for i1, i2 in itertools.combinations(images, 2):
                corners = [at.get(key) for key in ((k1, i1), (k1, i2), (k2, i2), (k2, i1))]
                if None in corners:
                    continue
                e, f, g, _ = corners
                n_squares += 1
                n_singular += compose(e, g) == f
        rows.append({"rank": r, "idempotents": len(at), "squares": n_squares, "singular": n_singular})
    return rows


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def declared(kind: str) -> dict[str, str]:
        return {m["name"]: m["unit"] for m in bench[kind]}

    require(set(WORKLOADS) == {w["name"] for w in bench["workloads"]},
            "workload names match BENCHMARK.json")
    runner = run.Runner()

    desk = [verify(group, n, r) for n, group, r in MAIN_CASES]
    report = run.run_workload("desk", desk, 0, 0, False, runner)
    got = {name: unit for name, (_, unit) in report["metrics"].items()}
    require(got == declared("end_to_end"), "end-to-end metric names and units match BENCHMARK.json")
    require(report["failed"] == 0 and report["attempted"] == len(MAIN_CASES),
            f"MAIN_CASES pass their known answers ({report['attempted']} instances)")

    planted = [verify("Z2", 4, 2), verify("Z2", 4, 2, expect={"order": 9})]
    report = run.run_workload("planted", planted, 0, 0, False, runner)
    require(report["failed"] == 1 and report["failed"] / report["attempted"] == 0.5,
            "a planted wrong answer raises error_share to 1/2")

    capped = [verify("Z2", 4, 2), verify("Z2", 4, 2, extra=("--max-relators", "5"))]
    report = run.run_workload("capped", capped, 0, 0, False, runner)
    capped = [rec for rec in report["records"] if rec["status"] == "cap"]
    require(report["failed"] == 0 and len(capped) == 1
            and capped[0]["detail"] == "relators exceeds the cap 5"
            and report["metrics"]["decided_share"][0] == 0.5,
            "a capped instance is kept, named and counted undecided")

    for spec in ("trivial", "Z2", "Z3", "S3"):
        plain = plain_square_counts(spec, 3)
        rec = runner.run(squares(spec, 3, expect=plain))
        require(rec["status"] == "ok", f"squares {spec} n=3 matches the plain-Python count")
    require(plain_square_counts("Z2", 3) == known_answer(squares("Z2", 3)),
            "pinned squares for Z2 n=3 match the plain-Python count")

    report = run.run_workload("desk only", [], 0, 0, True, runner)
    require(report["failed"] == 0 and report["attempted"] == len(DESK),
            "traced desk instances pass")
    metrics = report["metrics"]
    got = {name: unit for name, (_, unit) in metrics.items()}
    require(got == declared("per_layer"), "per-layer metric names and units match BENCHMARK.json")
    require(all(value > 0 for name, (value, _) in metrics.items() if name.endswith("_s")
                and name != "trace.overhead_s"),
            "the desk instances give every traced layer a nonzero time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
