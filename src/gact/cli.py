"""Command-line front end.

Exit codes: 0 success (and verified), 1 verification mismatch, 2 usage or
input errors, 3 a resource cap was hit (the message names the cap).
Text exports stream line by line.  A regular `--output` file is replaced only
once complete, so a capped run leaves it untouched; stdout may get a prefix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from math import factorial

from .biorder import squares_report
from .endo import parse_wreath, wreath_to_text
from .errors import Capped, GactError, ParseError, ResourceLimit
from .fpgroup import DEFAULT_MAX_COSETS, abelianization, todd_coxeter
from .groups import Group, make_group
from .presentation import (
    DEFAULT_MAX_RELATORS,
    build_gr_presentation,
    build_quotient_presentation,
    eliminate_generators,
    gr_grids,
    gr_relators,
    lavers_presentation,
    position_gen_name,
    presentation_lines,
    schreier_build,
)
from .reduction import (
    connectivity,
    decompose,
    rising_point,
    simplify_presentation,
    value_component_counts,
)
from .rees import DEFAULT_MAX_ENTRIES, build_sandwich, matrix_lines

ENV_CAPS = {
    "max_entries": "GACT_MAX_ENTRIES",
    "max_relators": "GACT_MAX_RELATORS",
    "max_cosets": "GACT_MAX_COSETS",
}
DEFAULT_CAPS = {
    "max_entries": DEFAULT_MAX_ENTRIES,
    "max_relators": DEFAULT_MAX_RELATORS,
    "max_cosets": DEFAULT_MAX_COSETS,
}


def _cap(args, name: str) -> int:
    value = getattr(args, name, None)
    if value is not None:
        return value
    env = os.environ.get(ENV_CAPS[name])
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"{ENV_CAPS[name]}={env!r} is not an integer") from None
    return DEFAULT_CAPS[name]


def _add_common(sub, need_n=True, need_r=True):
    sub.add_argument("--group", required=True, help="trivial | Z<m> | S<k> | table:<path>")
    if need_n:
        sub.add_argument("--n", type=int, required=True, help="act rank, at least 3")
    if need_r:
        sub.add_argument("--r", type=int, required=True, help="slice rank")
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    sub.add_argument("--max-entries", dest="max_entries", type=int)
    sub.add_argument("--max-relators", dest="max_relators", type=int)
    sub.add_argument("--max-cosets", dest="max_cosets", type=int)


def _build_parser():
    ap = argparse.ArgumentParser(prog="gact")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("sandwich", help="emit the nonzero sandwich entries")
    _add_common(s)
    s.add_argument("--output", help="write to this path instead of stdout")

    s = sp.add_parser("presentation", help="emit a presentation file")
    _add_common(s)
    s.add_argument("--kind", choices=("gr", "quotient", "lavers"), default="gr")
    s.add_argument("--output", help="write to this path instead of stdout")

    s = sp.add_parser("verify", help="check the presented group against the wreath order")
    _add_common(s)

    s = sp.add_parser("rising-point", help="rising point of a rank-r map")
    _add_common(s, need_n=False)
    s.add_argument("--alpha", required=True, help="r entries t:g separated by ;")

    s = sp.add_parser("decompose", help="split off a simple form")
    _add_common(s, need_n=False)
    s.add_argument("--alpha", required=True, help="r entries t:g separated by ;")

    s = sp.add_parser("connectivity", help="per-value position and component counts")
    _add_common(s)

    s = sp.add_parser("squares", help="idempotent and singular-square counts per rank")
    _add_common(s, need_r=False)

    s = sp.add_parser("occurrences", help="positions of one value in the matrix")
    _add_common(s)
    s.add_argument("--alpha", required=True, help="r entries t:g separated by ;")
    return ap


def _check_ranks(args) -> str | None:
    n = getattr(args, "n", None)
    r = getattr(args, "r", None)
    if n is not None and n < 3:
        return f"act rank n={n} is below the minimum 3"
    if r is not None and r < 1:
        return f"rank r={r} must be at least 1"
    if n is not None and r is not None and r > n:
        return f"rank r={r} exceeds act rank n={n}"
    return None


def _emit(args, lines):
    output = getattr(args, "output", None)
    if not output:
        sys.stdout.writelines(lines)
    elif os.path.exists(output) and not os.path.isfile(output):  # a device or pipe
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:  # a sibling temporary file, renamed over the target through any symlink
        target = os.path.realpath(output)
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
            os.replace(tmp, target)
        except BaseException as exc:
            if os.path.exists(tmp):
                os.remove(tmp)
            if isinstance(exc, OSError) and exc.filename == tmp:
                exc.filename = output  # report the path the user gave
            raise


def run_verify(g: Group, n: int, r: int, caps: dict) -> dict:
    """Build, simplify, Tietze-reduce and enumerate; returns the report fields."""
    m = build_sandwich(g, n, r, caps["max_entries"])
    report: dict = {"n": n, "r": r, "group_order": g.order}
    if r == n - 1:
        # the rank-free claim is about the position presentation itself:
        # it has no R3 relators, and its abelianization gives the free rank
        p = build_gr_presentation(m, schreier_build(g, n, r), caps["max_relators"])
        ab = abelianization(p)
        report.update(
            mode="rank-free",
            r3_relators=p.tag_count("R3"),
            expected_r3=0,
            abelianization={"torsion": list(ab.torsion), "free_rank": ab.free_rank},
            ok=p.tag_count("R3") == 0,
        )
        return report
    expected = 1 if r == n else (g.order ** r) * factorial(r)
    p = build_quotient_presentation(m, caps["max_relators"])
    pg = connectivity(m)
    log: list = []
    q, _ = eliminate_generators(simplify_presentation(p, m, pg, log))
    table = todd_coxeter(q, max_cosets=caps["max_cosets"])
    report.update(
        mode="order",
        computed_order=table.order,
        expected_order=expected,
        merges=len(log),
        ok=table.order == expected,
    )
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    problem = _check_ranks(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except (ResourceLimit, Capped) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    g = make_group(args.group)
    caps = {name: _cap(args, name) for name in DEFAULT_CAPS}
    if args.command in ("sandwich", "presentation", "connectivity", "occurrences") and (
        getattr(args, "kind", None) != "lavers"
    ):
        m = build_sandwich(g, args.n, args.r, caps["max_entries"])

    if args.command == "sandwich":
        if args.json:
            entries = [
                {
                    "lambda": list(m.lambdas[l_idx]),
                    "kernel": i,
                    "perm": list(m.entries[l_idx][i].perm),
                    "weights": list(m.entries[l_idx][i].weights),
                }
                for i, l_idx in m.nonzero_positions()
            ]
            _emit(args, [json.dumps({
                "n": args.n, "r": args.r, "group_order": g.order,
                "lambdas": len(m.lambdas), "kernels": len(m.kernels),
                "entries": entries,
            }) + "\n"])
        else:
            _emit(args, matrix_lines(m))
        return 0

    if args.command == "presentation":
        if args.kind == "gr" and not args.json:
            grids = gr_grids(m, lambda _, i, l: (name := position_gen_name(m, i, l), name + "'"))
            names = [grids[0][i][l] for i, cols in enumerate(grids[3]) for l in cols]
            relators = gr_relators(m, schreier_build(g, args.n, args.r), caps["max_relators"], grids)
            rels = ("rel " + " ".join(letters) + "\n" for letters, _ in relators)
            _emit(args, chain(presentation_lines(names, ()), rels))
            return 0
        if args.kind == "lavers":
            p = lavers_presentation(g, args.r, caps["max_relators"])
        elif args.kind == "gr":
            p = build_gr_presentation(m, schreier_build(g, args.n, args.r), caps["max_relators"])
        else:
            p = build_quotient_presentation(m, caps["max_relators"])
        if args.json:
            _emit(args, [json.dumps({
                "generators": p.generators,
                "relators": [list(w) for w in p.relators],
                "tags": p.tags,
            }) + "\n"])
        else:
            _emit(args, presentation_lines(p.generators, p.relators))
        return 0

    if args.command == "verify":
        report = run_verify(g, args.n, args.r, caps)
        if args.json:
            print(json.dumps(report))
        elif report["mode"] == "rank-free":
            ab = report["abelianization"]
            torsion = ",".join(str(d) for d in ab["torsion"]) or "none"
            print(
                f"r3-relators={report['r3_relators']} expected=0 "
                f"{'OK' if report['ok'] else 'MISMATCH'} "
                f"free-rank={ab['free_rank']} torsion={torsion}"
            )
        else:
            print(
                f"order={report['computed_order']} expected={report['expected_order']} "
                f"{'OK' if report['ok'] else 'MISMATCH'}"
            )
        return 0 if report["ok"] else 1

    if args.command == "rising-point":
        phi = parse_wreath(g, args.r, args.alpha)
        value = rising_point(phi)
        print(json.dumps({"rising_point": value}) if args.json else value)
        return 0

    if args.command == "decompose":
        phi = parse_wreath(g, args.r, args.alpha)
        beta, gamma = decompose(g, phi)
        if args.json:
            print(json.dumps({"beta": wreath_to_text(beta), "gamma": wreath_to_text(gamma)}))
        else:
            print(f"beta={wreath_to_text(beta)} gamma={wreath_to_text(gamma)}")
        return 0

    if args.command == "connectivity":
        rows = [(wreath_to_text(v), *c) for v, c in value_component_counts(connectivity(m)).items()]
        if args.json:
            print(json.dumps([
                {"value": v, "positions": npos, "components": ncomp}
                for v, npos, ncomp in rows
            ]))
        else:
            for v, npos, ncomp in rows:
                print(f"value={v} positions={npos} components={ncomp}")
        return 0

    if args.command == "squares":
        report = squares_report(g, args.n, caps["max_entries"])
        if args.json:
            print(json.dumps(report))
        else:
            for row in report:
                print(
                    f"rank={row['rank']} idempotents={row['idempotents']} "
                    f"squares={row['squares']} singular={row['singular']}"
                )
        return 0

    if args.command == "occurrences":
        phi = parse_wreath(g, args.r, args.alpha)
        found = m.positions_of(phi)
        if args.json:
            print(json.dumps([
                {
                    "kernel": i,
                    "district": list(m.districts[i]),
                    "lambda": list(m.lambdas[l_idx]),
                }
                for i, l_idx in found
            ]))
        else:
            print(f"count={len(found)}")
            for i, l_idx in found:
                d = ".".join(str(x) for x in m.districts[i])
                lam = ".".join(str(x) for x in m.lambdas[l_idx])
                print(f"kernel={i} district={d} lambda={lam}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
