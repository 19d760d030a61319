"""Command-line front end, driven by one table.

`COMMANDS` gives each subcommand its handler, its help and the flags it takes,
whose argparse specs `FLAGS` holds once; `main` resolves only the caps the
subcommand takes, and `_emit` writes the lines every handler returns.
Exit codes: 0 success (and verified), 1 verification mismatch, 2 usage or
input errors, 3 a resource cap was hit (the message names the cap) or memory
ran out.
Text exports stream one string per matrix row: the sandwich (text or JSON)
one row of entries at a time, the gr text one batch of relator lines at a time.
A regular `--output` file is replaced only once complete, so a capped run leaves
it untouched; stdout may get a prefix, exactly the relators under the cap.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from itertools import chain

from .endo import parse_wreath, wreath_to_text
from .errors import DEFAULT_MAX_COSETS, DEFAULT_MAX_RELATORS, Capped, GactError, ParseError, ResourceLimit
from .groups import make_group
from .rees import DEFAULT_MAX_ENTRIES, build_sandwich, check_entries_cap, entry_rows, matrix_lines


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


# the stage modules, each executed on its first attribute read; registered here, since
# perfbench's tracer wraps the stages of the gact modules loaded once gact.cli is imported
biorder, fpgroup, presentation, reduction, verify = map(_lazy, ("biorder", "fpgroup", "presentation", "reduction",
                                                                 "verify"))

DEFAULT_CAPS = {"max_entries": DEFAULT_MAX_ENTRIES, "max_relators": DEFAULT_MAX_RELATORS,
                "max_cosets": DEFAULT_MAX_COSETS}


def _cap(args, name: str) -> int:
    """The flag's value, else the default; a negative value is a usage error."""
    if (value := getattr(args, name)) is not None and value < 0:
        raise ParseError(f"--{name.replace('_', '-')} {value} is negative")
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


def _json(obj) -> list[str]:
    import json  # here and below: the text outputs never load it
    return [json.dumps(obj) + "\n"]


def _gr_json(names: list[str], batches):
    """The `_json` text of the gr presentation's generators, relators and tags, one batch at a time."""
    import json
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
    import json
    # the `_json` text, "entries" (its last key) one row at a time, each entry after the first led by ", "
    heads = [f', {{"lambda": {json.dumps(lam)}, "kernel": ' for lam in m.lambdas]
    tails = [f', "perm": {json.dumps(v.perm)}, "weights": {json.dumps(v.weights)}}}' for v in m.values]
    rows = entry_rows(m, heads, tails)
    header = json.dumps({"n": args.n, "r": args.r, "group_order": g.order, "lambdas": len(m.lambdas),
                         "kernels": len(m.districts)})
    return chain([header[:-1] + ', "entries": [' + next(rows, "")[2:]], rows, ["]}\n"]), 0


def _presentation(args, g, caps):
    if args.kind == "lavers":
        p = presentation.lavers_presentation(g, args.r, caps["max_relators"])
    else:
        # the gr letter grids are dense: their rows times columns are checked too
        check_entries_cap(g, args.n, args.r, caps["max_entries"], dense=args.kind == "gr")
        m = build_sandwich(g, args.n, args.r, caps["max_entries"])
        if args.kind == "quotient":
            p = presentation.build_quotient_presentation(m, caps["max_relators"])
        else:
            names = presentation.position_names(m)
            batches = presentation.gr_relators(m, caps["max_relators"], None if args.json else names)  # text lines
            if args.json:  # json spells generators by number
                return _gr_json(names, batches), 0
            rows = ("".join(lines) for _, lines in batches)
            return chain(presentation.presentation_lines(names, ()), rows), 0
    if args.json:  # json writes the tuple words as arrays
        return _json({"generators": p.generators, "relators": p.relators, "tags": p.tags}), 0
    return presentation.presentation_lines(p.generators, p.relators), 0


def _verify(args, g, caps):
    report = verify.run_verify(g, args.n, args.r, caps)
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
        f"free-rank={ab['free_rank']} torsion={torsion}"
        + ("" if report["ok"] else f" expected-free-rank={report['expected_free_rank']}") + "\n"
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


def _parser(argv: list[str]) -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and each subcommand's parser by name; only the one argv runs gets its flags."""
    ap = argparse.ArgumentParser(prog="gact")
    sp = ap.add_subparsers(dest="command", required=True)
    run = next((word for word in argv if not word.startswith("-")), None)  # the word read as the command
    for command, (_, help_text, flags) in COMMANDS.items():
        sub = sp.add_parser(command, help=help_text)
        for flag in flags.split() if command == run else ():
            sub.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])
    return ap, sp.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap, subparsers = _parser(argv)
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
