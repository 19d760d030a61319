"""The benchmark's instances and the known answer for each of them.

Every instance is one `gact` command line.  Its answer is either a closed
form (wreath order, rank-n-1 freeness, idempotent counts) or a value pinned
from the reference run and recorded here (square counts, export digests),
so a check never trusts the program's own `ok` flag.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path


@dataclass(frozen=True)
class Instance:
    command: str  # verify | squares | sandwich | presentation
    group: str
    n: int
    r: int | None = None
    kind: str | None = None  # presentation kind: gr | lavers
    extra: tuple[str, ...] = ()  # extra CLI flags, e.g. a cap
    expect: object = None  # replaces the known answer; the self-test plants wrong ones

    @property
    def label(self) -> str:
        parts = [self.command]
        if self.kind:
            parts.append(self.kind)
        parts += [self.group, f"n={self.n}"]
        if self.r is not None:
            parts.append(f"r={self.r}")
        return " ".join(parts + list(self.extra))

    @property
    def writes_file(self) -> bool:
        return self.command in ("sandwich", "presentation")

    def argv(self, out_path: Path) -> list[str]:
        args = [self.command, "--group", self.group, "--n", str(self.n)]
        if self.r is not None:
            args += ["--r", str(self.r)]
        if self.kind:
            args += ["--kind", self.kind]
        if self.writes_file:
            args += ["--output", str(out_path)]
        else:
            args.append("--json")
        return args + list(self.extra)


def verify(group, n, r, **kw):
    return Instance("verify", group, n, r, **kw)


def squares(group, n, **kw):
    return Instance("squares", group, n, **kw)


def export_gr(group, n, r):
    return Instance("presentation", group, n, r, kind="gr")


def export_lavers(group, r):
    return Instance("presentation", group, r, r, kind="lavers")


def export_sandwich(group, n, r):
    return Instance("sandwich", group, n, r)


WORKLOADS = {
    # Position-level R3 emission and simplification dominate; Z2 7 2 hits
    # the default 5M relator cap and is kept as the undecided frontier.
    "verify-relators": [
        verify("Z2", 6, 2), verify("Z2", 6, 3), verify("Z4", 5, 2),
        verify("trivial", 8, 5), verify("S3", 4, 2),
        verify("Z2", 6, 5), verify("trivial", 8, 7), verify("Z3", 5, 4),
        verify("Z2", 7, 2),
    ],
    # Small presentations whose Todd-Coxeter run dominates.
    "verify-enum": [
        verify("Z2", 6, 4), verify("trivial", 8, 6), verify("Z4", 5, 3),
        verify("Z3", 5, 3), verify("Z3", 5, 5),
    ],
    # Sandwich at every rank plus the row-pair/column-pair square count.
    "squares": [squares("Z3", 5), squares("S3", 4)],
    # The write path: presentation_to_text, matrix_to_text, on-demand gr.
    "export": [
        export_gr("Z2", 6, 3), export_gr("trivial", 8, 5),
        export_sandwich("Z2", 7, 3), export_lavers("S3", 4),
    ],
}

# Desk-scale instances run inside every traced run, so each traced layer
# records at least one call whatever the workload.
DESK = [
    verify("Z2", 4, 2), verify("Z2", 4, 3), squares("Z2", 3),
    export_gr("Z2", 4, 2), export_sandwich("Z2", 4, 2),
]

# (rank, squares, singular) per rank, recorded from the reference run.
PINNED_SQUARES = {
    ("Z3", 5): [(1, 32400, 10530), (2, 260010, 60750), (3, 12825, 3240), (4, 30, 0), (5, 0, 0)],
    ("S3", 4): [(1, 139320, 22680), (2, 38340, 4752), (3, 90, 0), (4, 0, 0)],
    ("Z2", 3): [(1, 18, 6), (2, 3, 0), (3, 0, 0)],
}

# sha256 of the exported file, recorded from the reference run.
PINNED_DIGESTS = {
    "presentation gr Z2 n=6 r=3": "9389e6e633c226f945bcf8c3bf291373177825f402a2a7203455b7e76d133a97",
    "presentation gr trivial n=8 r=5": "7e5300cc8e7359c1d2eac71ed22e1ab843a2758552a7153595538f63661e0019",
    "sandwich Z2 n=7 r=3": "cba49d1174f71ee34f649c181fbe52d2512774bbc431c9c0faf2682e7922beb2",
    "presentation lavers S3 n=4 r=4": "7d7e5d205e7d77f48cee902d92e8f93ab231948dafa25aaf1a80869cbef8ca23",
    "presentation gr Z2 n=4 r=2": "fe13099ce5f7d078a28f252c0f2e8712d06f5f4ff4ac48ce690f31cf73a9acfa",
    "sandwich Z2 n=4 r=2": "fea5a9db3ba3baf852a6037efb86cc25b551d3da616075d14287b26fd211e791",
}


def group_order(spec: str) -> int:
    if spec == "trivial":
        return 1
    if spec[0] == "Z":
        return int(spec[1:])
    if spec[0] == "S":
        return factorial(int(spec[1:]))
    raise ValueError(f"no closed-form order for group {spec!r}")


def idempotents_of_rank(order: int, n: int, r: int) -> int:
    """C(n, r) * (r*|G|)^(n-r): idempotents of rank r, one per nonzero sandwich entry."""
    return comb(n, r) * (r * order) ** (n - r)


def known_answer(inst: Instance):
    """The answer the instance must produce, independent of the program."""
    if inst.expect is not None:
        return inst.expect
    order = group_order(inst.group)
    if inst.command == "verify":
        n, r = inst.n, inst.r
        if r == n - 1:
            return {"r3_relators": 0, "torsion": []}
        return {"order": 1 if r == n else order ** r * factorial(r)}
    if inst.command == "squares":
        pinned = PINNED_SQUARES[(inst.group, inst.n)]
        return [
            {"rank": r, "idempotents": idempotents_of_rank(order, inst.n, r),
             "squares": sq, "singular": sing}
            for r, sq, sing in pinned
        ]
    answer = {"sha256": PINNED_DIGESTS[inst.label]}
    if inst.command == "sandwich":
        answer["records"] = idempotents_of_rank(order, inst.n, inst.r)
    return answer


def check_output(inst: Instance, stdout: str, out_path: Path) -> str | None:
    """None when the output matches the known answer, else what differs."""
    want = known_answer(inst)
    if inst.command == "verify":
        try:
            report = json.loads(stdout)
        except ValueError:
            return f"unparsable verify report {stdout[:80]!r}"
        if "order" in want:
            got = {"order": report.get("computed_order")}
        else:
            ab = report.get("abelianization") or {}
            got = {"r3_relators": report.get("r3_relators"), "torsion": ab.get("torsion")}
    elif inst.command == "squares":
        try:
            got = json.loads(stdout)
        except ValueError:
            return f"unparsable squares report {stdout[:80]!r}"
    else:
        try:
            data = out_path.read_bytes()
        except OSError as exc:
            return f"no export file: {exc}"
        got = {"sha256": hashlib.sha256(data).hexdigest()}
        if "records" in want:
            got["records"] = sum(1 for line in data.splitlines() if line.startswith(b"lambda="))
    if got != want:
        return f"got {got} want {want}"
    return None
