"""Command-line front end, driven by one table.

`COMMANDS` gives each subcommand its handler, its help and the flags it takes,
whose argparse specs `FLAGS` holds once; `main` resolves only the caps the
subcommand takes, and `_emit` writes the lines every handler returns.
Exit codes: 0 success (and verified), 1 verification mismatch, 2 usage or
input errors, 3 a resource cap was hit (the message names the cap) or memory
ran out.
Text exports stream line by line, the gr text one row of relators at a time.
A regular `--output` file is replaced only once complete, so a capped run leaves
it untouched; stdout may get a prefix, exactly the relators under the cap.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from itertools import chain, takewhile
from math import factorial

from .endo import parse_wreath, wreath_identity, wreath_inv, wreath_order, wreath_to_text
from .errors import DEFAULT_MAX_COSETS, DEFAULT_MAX_RELATORS, Capped, GactError, ParseError, ResourceLimit
from .groups import Group, make_group
from .rees import DEFAULT_MAX_ENTRIES, build_sandwich, column_pairs, extended_rows, matrix_lines, square_condition


def _lazy(name: str):
    """gact.<name>, executed on its first attribute read; the module itself if already imported."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# the stage modules, which not every subcommand calls: each executes on its first attribute read
biorder, fpgroup, presentation, reduction = map(_lazy, ("biorder", "fpgroup", "presentation", "reduction"))

DEFAULT_CAPS = {
    "max_entries": DEFAULT_MAX_ENTRIES,
    "max_relators": DEFAULT_MAX_RELATORS,
    "max_cosets": DEFAULT_MAX_COSETS,
}


def _cap(args, name: str) -> int:
    """The flag's value, else the GACT_<NAME> variable's, else the default; none may be negative."""
    value, var = getattr(args, name), "GACT_" + name.upper()
    source = f"--{name.replace('_', '-')} {value}"
    if value is None and var in os.environ:
        source = f"{var}={os.environ[var]!r}"
        try:
            value = int(os.environ[var])
        except ValueError:
            raise ParseError(f"{source} is not an integer") from None
    if value is not None and value < 0:
        raise ParseError(f"{source} is negative")
    return DEFAULT_CAPS[name] if value is None else value


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
    """Decide the maximal subgroup at (n, r); returns the report fields.

    At rank n-1 the position presentation's R3 count and abelianization are
    reported.  At r = n and n = r+2 the order comes from `enumerate_order`.
    At n > r+2 the order comes from the (r+2, r) slice by `slice_order`, and
    the report gains method ("slice", or "enumerate" when a check of the
    route fails and `enumerate_order` at n decides), slice_n, pairs_walked
    and closure_relators.  Every check runs under the same caps.
    """
    m = build_sandwich(g, n, r, caps["max_entries"])
    report: dict = {"n": n, "r": r, "group_order": g.order}
    if r == n - 1:
        # the rank-free claim is about the position presentation itself:
        # it has no R3 relators, and its abelianization gives the free rank
        p = presentation.build_gr_presentation(m, presentation.schreier_build(g, n, r), caps["max_relators"])
        ab = fpgroup.abelianization(p)
        report.update(
            mode="rank-free",
            r3_relators=p.tag_count("R3"),
            expected_r3=0,
            abelianization={"torsion": list(ab.torsion), "free_rank": ab.free_rank},
            ok=p.tag_count("R3") == 0,
        )
        return report
    expected = 1 if r == n else (g.order ** r) * factorial(r)
    route: dict = {}
    decided = None
    if n > r + 2:
        route = {"method": "slice", "slice_n": r + 2, "pairs_walked": 0, "closure_relators": 0}
        decided = slice_order(g, m, caps, route)
        if decided is None:
            route["method"] = "enumerate"
    order, log = decided or enumerate_order(m, caps)
    report.update(
        mode="order",
        computed_order=order,
        expected_order=expected,
        merges=len(log),
        ok=order == expected,
        **route,
    )
    return report


def enumerate_order(m, caps: dict) -> tuple[int, list]:
    """The order by coset enumeration, and the merge log, on the built (n, r) matrix.

    The value presentation, position connectivity, simplification with
    witness search, Tietze elimination and Todd-Coxeter over <h>: h is the
    surviving generator f[v] whose value v has the largest order in W, the
    lowest index on ties, and |P| = [P : <h>] * |<h>|.  When no relation on
    h is found, or no generator survives, Todd-Coxeter over the trivial
    subgroup decides, under the same caps.
    """
    p = presentation.build_quotient_presentation(m, caps["max_relators"])
    pg = reduction.connectivity(m)
    log: list = []
    q, _ = presentation.eliminate_generators(reduction.simplify_presentation(p, m, pg, log))
    if q.generators:
        orders = [wreath_order(m.group, v) for v in q.gen_keys]
        table = fpgroup.todd_coxeter(q, orders.index(max(orders)) + 1, caps["max_cosets"])
        if table.subgroup_order:
            return table.order * table.subgroup_order, log
    return fpgroup.todd_coxeter(q, max_cosets=caps["max_cosets"]).order, log


def slice_order(g: Group, m, caps: dict, route: dict) -> tuple[int, list] | None:
    """The order at n > r+2 from the (r+2, r) slice, and the merge log at n; None if a check fails.

    The merges at n are certified as by `enumerate_order`.  Upper bound:
    `enumerate_order` at (r+2, r) gives |W|, W = G wr S_r; each slice row,
    extended to n, carries the same value in every column inside [1..r+2];
    each slice merge square is singular at n; and from the slice's values
    every generator at n is solved, one unknown letter at a time, from the
    merge relators and then the P1 relators of `column_pairs(m)`, read no
    further than needed.  So the presentation at n is a quotient of the
    slice's.  Lower bound: every relator emitted at n (P2, merges, walked
    P1) maps to 1 under f[v] -> inv(v), and the images generate W, since
    every standard generator of W is a value at n.  The route's counters go
    into route.
    """
    r = m.r
    log: list = []
    pg = reduction.connectivity(m)
    # the merge relators alone, over value ids + 1 like the walked relators
    names = [presentation.value_gen_name(v) for v in m.values]
    blank = presentation.Presentation(names, [], [], gen_keys=m.values)
    merges = reduction.simplify_presentation(blank, m, pg, log).relators
    s = build_sandwich(g, r + 2, r, caps["max_entries"])
    order, slice_log = enumerate_order(s, caps)
    if order != g.order ** r * factorial(r):
        return None
    rows = extended_rows(s, m)
    cols = [m.lambda_pos[lam] for lam in s.lambdas]
    to_n = [m.value_id.get(v, -2) for v in s.values] + [-1]  # -1 keeps a zero; -2 is no value at n
    if any(to_n[x] != m.id_columns[l][i] for col, l in zip(s.id_columns, cols) for x, i in zip(col, rows)):
        return None
    squares = (w.square for w in slice_log)
    if not all(square_condition(m, rows[i], rows[k], cols[l], cols[mu]) for i, k, l, mu in squares):
        return None
    inverses = [wreath_inv(g, v) for v in m.values]
    one = wreath_identity(r)

    def maps_to_one(w):
        return presentation.evaluate_word(g, inverses, r, w) == one

    if not all(map(maps_to_one, [(m.value_id[one] + 1,), *merges])):  # P2 and the merges
        return None

    def walked():
        for pairs in column_pairs(m):
            route["pairs_walked"] += 1
            yield pairs

    sink = presentation._RelatorSink(caps["max_relators"])  # the walked P1 relators, each new one once
    new = (sink.words[-1] for w in presentation.quotient_relators(walked()) if sink.add(w, "P1"))

    def fed():  # the merges, then the walked relators up to one that does not map to 1, so the closure stalls
        for w in chain(merges, takewhile(maps_to_one, new)):
            route["closure_relators"] += 1
            yield w

    if not presentation.close_generators({m.value_id[v] + 1 for v in s.values}, len(m.values), fed()):
        return None
    # the adjacent transpositions and the weight insertions generate W and are
    # closed under inverses, so if each is a value v, each is an image inv(v)
    standard = [reduction.simple_form_elem(r, k, 1, 0) for k in range(1, r)]
    standard += [reduction.simple_form_elem(r, k, 0, a) for k in range(1, r + 1) for a in range(1, g.order)]
    if not all(x in m.value_id for x in standard):
        return None
    return order, log


def _json(obj) -> list[str]:
    return [json.dumps(obj) + "\n"]


def _gr_json(names: list[str], batches):
    """The `_json` text of the gr presentation's generators, relators and tags, one batch at a time."""
    yield '{"generators": ' + json.dumps(names) + ', "relators": ['
    counts, sep = [], ""
    for tag, words in batches:
        if words:
            yield sep + json.dumps(words)[1:-1]  # the tuple words as arrays
            counts.append((json.dumps(tag), len(words)))
            sep = ", "
    yield '], "tags": ['
    for k, (tag, count) in enumerate(counts):
        yield (", " if k else "") + ", ".join([tag] * count)
    yield "]}\n"


def _sandwich(args, g, caps):
    m = build_sandwich(g, args.n, args.r, caps["max_entries"])
    if not args.json:
        return matrix_lines(m), 0
    entries = [
        {
            "lambda": list(m.lambdas[l_idx]),
            "kernel": i,
            "perm": list(v.perm),
            "weights": list(v.weights),
        }
        for i, l_idx in m.nonzero_positions()
        for v in [m.value_at(i, l_idx)]
    ]
    return _json({
        "n": args.n, "r": args.r, "group_order": g.order,
        "lambdas": len(m.lambdas), "kernels": len(m.kernels),
        "entries": entries,
    }), 0


def _presentation(args, g, caps):
    if args.kind == "lavers":
        p = presentation.lavers_presentation(g, args.r, caps["max_relators"])
    else:
        m = build_sandwich(g, args.n, args.r, caps["max_entries"])
        if args.kind == "quotient":
            p = presentation.build_quotient_presentation(m, caps["max_relators"])
        else:
            name = presentation.position_names(m)
            if args.json:  # json spells generators by number
                grids = presentation.gr_grids(m)
                names = [name(i, l) for i, cols in enumerate(grids[2]) for l in cols]
            else:
                grids = presentation.gr_grids(m, lambda _, i, l: (text := name(i, l), text + "'"))
                names = [grids[0][i][l] for i, cols in enumerate(grids[2]) for l in cols]
            s = presentation.schreier_build(g, args.n, args.r)
            batches = presentation.gr_relators(m, s, caps["max_relators"], grids)
            if args.json:
                return _gr_json(names, batches), 0
            rows = ("".join([f"rel {' '.join(w)}\n" for w in words]) for _, words in batches)
            return chain(presentation.presentation_lines(names, ()), rows), 0
    if args.json:  # json writes the tuple words as arrays
        return _json({"generators": p.generators, "relators": p.relators, "tags": p.tags}), 0
    return presentation.presentation_lines(p.generators, p.relators), 0


def _verify(args, g, caps):
    report = run_verify(g, args.n, args.r, caps)
    code = 0 if report["ok"] else 1
    verdict = "OK" if report["ok"] else "MISMATCH"
    if args.json:
        return _json(report), code
    if report["mode"] == "order":
        expected = report["expected_order"]
        return [f"order={report['computed_order']} expected={expected} {verdict}\n"], code
    ab = report["abelianization"]
    torsion = ",".join(str(d) for d in ab["torsion"]) or "none"
    return [
        f"r3-relators={report['r3_relators']} expected=0 {verdict} "
        f"free-rank={ab['free_rank']} torsion={torsion}\n"
    ], code


def _rising_point(args, g, caps):
    value = reduction.rising_point(parse_wreath(g, args.r, args.alpha))
    return _json({"rising_point": value}) if args.json else [f"{value}\n"], 0


def _decompose(args, g, caps):
    beta, gamma = (wreath_to_text(x) for x in reduction.decompose(g, parse_wreath(g, args.r, args.alpha)))
    if args.json:
        return _json({"beta": beta, "gamma": gamma}), 0
    return [f"beta={beta} gamma={gamma}\n"], 0


def _connectivity(args, g, caps):
    m = build_sandwich(g, args.n, args.r, caps["max_entries"])
    counts = reduction.value_component_counts(reduction.connectivity(m))
    rows = [(wreath_to_text(v), *c) for v, c in counts.items()]
    if args.json:
        return _json([{"value": v, "positions": p, "components": c} for v, p, c in rows]), 0
    return [f"value={v} positions={p} components={c}\n" for v, p, c in rows], 0


def _squares(args, g, caps):
    report = biorder.squares_report(g, args.n, caps["max_entries"])
    if args.json:
        return _json(report), 0
    return [
        f"rank={row['rank']} idempotents={row['idempotents']} "
        f"squares={row['squares']} singular={row['singular']}\n"
        for row in report
    ], 0


def _occurrences(args, g, caps):
    m = build_sandwich(g, args.n, args.r, caps["max_entries"])
    found = m.positions_of(parse_wreath(g, args.r, args.alpha))
    if args.json:
        return _json([
            {"kernel": i, "district": list(m.districts[i]), "lambda": list(m.lambdas[l_idx])}
            for i, l_idx in found
        ]), 0
    dotted = lambda xs: ".".join(str(x) for x in xs)  # noqa: E731
    return [f"count={len(found)}\n"] + [
        f"kernel={i} district={dotted(m.districts[i])} lambda={dotted(m.lambdas[l_idx])}\n"
        for i, l_idx in found
    ], 0


# one argparse spec per flag; a flag's dest is its name
FLAGS = {
    "group": dict(required=True, help="trivial | Z<m> | S<k> | table:<path>"),
    "n": dict(type=int, required=True, help="act rank, at least 3"),
    "r": dict(type=int, required=True, help="slice rank"),
    "json": dict(action="store_true", help="machine-readable output"),
    "max_entries": dict(type=int),
    "max_relators": dict(type=int),
    "max_cosets": dict(type=int),
    "kind": dict(choices=("gr", "quotient", "lavers"), default="gr"),
    "output": dict(help="write to this path instead of stdout"),
    "alpha": dict(required=True, help="r entries t:g separated by ;"),
}

# subcommand: (handler, help, the flags it takes); a handler gets the parsed
# arguments, the group and the caps it takes, and returns (lines, exit code)
COMMANDS = {
    "sandwich": (_sandwich, "emit the nonzero sandwich entries",
                 "group n r json max_entries output"),
    "presentation": (_presentation, "emit a presentation file",
                     "group n r json max_entries max_relators kind output"),
    "verify": (_verify, "check the presented group against the wreath order",
               "group n r json max_entries max_relators max_cosets"),
    "rising-point": (_rising_point, "rising point of a rank-r map", "group r json alpha"),
    "decompose": (_decompose, "split off a simple form", "group r json alpha"),
    "connectivity": (_connectivity, "per-value position and component counts",
                     "group n r json max_entries"),
    "squares": (_squares, "idempotent and singular-square counts per rank",
                "group n json max_entries"),
    "occurrences": (_occurrences, "positions of one value in the matrix",
                    "group n r json max_entries alpha"),
}


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name."""
    ap = argparse.ArgumentParser(prog="gact")
    sp = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in COMMANDS.items():
        sub = sp.add_parser(command, help=help_text)
        for flag in flags.split():
            sub.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
    return ap, sp.choices


def main(argv=None) -> int:
    ap, subparsers = _parser()
    args, unread = ap.parse_known_args(argv)
    if unread:  # reported with the subcommand's own usage
        subparsers[args.command].error(f"unrecognized arguments: {' '.join(unread)}")
    problem = _check_ranks(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    handler, _, flags = COMMANDS[args.command]
    taken = [name for name in flags.split() if name in DEFAULT_CAPS]
    try:
        g = make_group(args.group)
        caps = {name: _cap(args, name) for name in taken}
        lines, code = handler(args, g, caps)
        _emit(args, lines)
        return code
    except (ResourceLimit, Capped) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GactError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # reported below, once the traceback has released the run's tables
    # the cap on the subcommand's largest table, its last, then the matrix's, its first
    advice = " or ".join("--" + cap.replace("_", "-") for cap in dict.fromkeys(taken[-1:] + taken[:1]))
    print("error: out of memory" + (f"; lower {advice}" if advice else ""), file=sys.stderr)
    return 3


if __name__ == "__main__":
    raise SystemExit(main())
