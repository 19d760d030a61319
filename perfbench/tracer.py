"""In-process tracing of one `gact` instance, and the per-layer metrics.

Run as a script, this traces one instance: it wraps the public functions
listed in LAYER_CALLS wherever gact modules hold them, runs `gact.cli.main`
under a parent span named "instance", keeps every span in memory and
prints them as one JSON line when the instance ends.  Verify instances
whose enumeration ran also get a control span, "fpgroup.lavers_tc":
Todd-Coxeter on the standard wreath presentation of the same group.

    python3 perfbench/tracer.py '<instance as JSON>' <export path>

`layer_metrics` turns the spans of many instances into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import resource
import sys
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from workloads import Instance

# (module, function, span name); a span's self time is reported as <span>_s
LAYER_CALLS = [
    ("groups", "make_group", "groups.make_group"),
    ("rees", "build_sandwich", "rees.build_sandwich"),
    ("rees", "matrix_to_text", "rees.matrix_to_text"),
    ("presentation", "schreier_build", "presentation.schreier_build"),
    ("presentation", "build_gr_presentation", "presentation.build_gr"),
    ("presentation", "presentation_to_text", "presentation.to_text"),
    ("reduction", "connectivity", "reduction.connectivity"),
    ("reduction", "simplify_presentation", "reduction.simplify"),
    ("fpgroup", "todd_coxeter", "fpgroup.todd_coxeter"),
    ("fpgroup", "abelianization", "fpgroup.abelianization"),
    ("biorder", "squares_report", "biorder.squares_report"),
]
LAVERS_SPAN = "fpgroup.lavers_tc"
LAYERS = ["groups", "rees", "presentation", "reduction", "fpgroup", "biorder"]
# counters summed over every span that reports them
COUNTERS = {
    "rees.rows": "count", "rees.cols": "count", "rees.nonzero": "count", "rees.values": "count",
    "presentation.gens": "count", "presentation.relators_R1": "count",
    "presentation.relators_R2": "count", "presentation.relators_R3": "count",
    "presentation.bytes_out": "bytes",
    "reduction.components": "count", "reduction.merges": "count",
    "reduction.gens_out": "count", "reduction.relators_out": "count",
    "fpgroup.order": "count",
    "biorder.idempotents": "count", "biorder.squares": "count", "biorder.singular": "count",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans kept in memory, in start order, each naming its parent."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "counters": {},
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            self._open.pop()
            rec["maxrss_mb"] = _maxrss_mb()
            # counters are taken after "end"; "done" lets the parent's self
            # time exclude that bookkeeping too
            rec["done"] = rec["end"]

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["counters"] = count(result, *args, **kwargs)
                rec["done"] = perf_counter()
            return result

        return traced


def _count_sandwich(m, *args, **kwargs):
    nonzero = 0
    values = set()
    for column in m.entries:
        for v in column:
            if v is not None:
                nonzero += 1
                values.add(v)
    return {"rees.rows": len(m.kernels), "rees.cols": len(m.lambdas),
            "rees.nonzero": nonzero, "rees.values": len(values)}


def _count_gr(p, *args, **kwargs):
    counts = {"presentation.gens": len(p.generators)}
    for tag in ("R1", "R2", "R3"):
        counts[f"presentation.relators_{tag}"] = p.tag_count(tag)
    return counts


def _count_text(text, *args, **kwargs):
    return {"presentation.bytes_out": len(text.encode())}


def _count_connectivity(pg, *args, **kwargs):
    return {"reduction.components": len(pg.components())}


def _count_simplify(q, p, m, pg, witness_log=None):
    return {"reduction.merges": len(witness_log or ()),
            "reduction.gens_out": len(q.generators),
            "reduction.relators_out": len(q.relators),
            "reduction.relators_in": len(p.relators)}


def _count_tc(table, *args, **kwargs):
    return {"fpgroup.order": table.order}


def _count_squares(report, *args, **kwargs):
    return {f"biorder.{key}": sum(row[key] for row in report)
            for key in ("idempotents", "squares", "singular")}


COUNTS = {
    "rees.build_sandwich": _count_sandwich,
    "presentation.build_gr": _count_gr,
    "presentation.to_text": _count_text,
    "reduction.connectivity": _count_connectivity,
    "reduction.simplify": _count_simplify,
    "fpgroup.todd_coxeter": _count_tc,
    "biorder.squares_report": _count_squares,
}


def instrument(tracer: Tracer) -> dict:
    """Replace each traced function in every gact module that holds it.

    Returns the original functions by span name.
    """
    importlib.import_module("gact.cli")
    modules = [mod for name, mod in sys.modules.items() if name == "gact" or name.startswith("gact.")]
    originals = {}
    for module, func, name in LAYER_CALLS:
        orig = getattr(importlib.import_module(f"gact.{module}"), func)
        wrapped = tracer.wrap(name, orig, COUNTS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
        originals[name] = orig
    return originals


def trace_instance(inst: Instance, out_path: Path) -> dict:
    tracer = Tracer()
    originals = instrument(tracer)
    from gact.cli import main
    from gact.presentation import lavers_presentation

    out, err = io.StringIO(), io.StringIO()
    with tracer.span("instance"):
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(inst.argv(out_path))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        enumerated = any(s["name"] == "fpgroup.todd_coxeter" for s in tracer.spans)
        if inst.command == "verify" and inst.r <= inst.n - 2 and enumerated:
            g = originals["groups.make_group"](inst.group)
            with tracer.span(LAVERS_SPAN) as rec:
                table = originals["fpgroup.todd_coxeter"](lavers_presentation(g, inst.r))
            rec["order"] = table.order
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "spans": tracer.spans}


def lavers_problem(spans: list[dict], order: int) -> str | None:
    """The control must find the wreath order too."""
    for s in spans:
        if s["name"] == LAVERS_SPAN and s["order"] != order:
            return f"Lavers control found order {s['order']}, want {order}"
    return None


def _self_times(spans: list[dict]) -> dict[int, float]:
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["done"] - s["start"]
    return own


def layer_metrics(instances: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of every traced instance.

    Times are self times summed over calls.  Counters are summed.  A
    layer's maxrss_mb is the process high-water mark after its calls.
    """
    seconds = defaultdict(float)
    counters = defaultdict(int)
    maxrss = defaultdict(float)
    tc_paired = lavers = 0.0
    for spans in instances:
        own = _self_times(spans)
        tc_here = 0.0
        has_lavers = False
        for s in spans:
            name = s["name"]
            seconds[name] += own[s["id"]]
            for key, value in s["counters"].items():
                counters[key] += value
            layer = name.split(".")[0]
            maxrss[layer] = max(maxrss[layer], s["maxrss_mb"])
            if name == "fpgroup.todd_coxeter":
                tc_here += own[s["id"]]
            elif name == LAVERS_SPAN:
                lavers += own[s["id"]]
                has_lavers = True
        if has_lavers:
            tc_paired += tc_here

    def ratio(a, b):
        return a / b if b else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for _, _, name in LAYER_CALLS:
        metrics[f"{name}_s"] = (seconds[name], "s")
    metrics[f"{LAVERS_SPAN}_s"] = (seconds[LAVERS_SPAN], "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (counters[name], unit)
    metrics["reduction.relator_yield"] = (
        ratio(counters["reduction.relators_out"], counters["reduction.relators_in"]), "ratio")
    metrics["fpgroup.tc_vs_lavers"] = (ratio(tc_paired, lavers), "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.maxrss_mb"] = (maxrss[layer], "MB")
    return metrics


def _main() -> int:
    fields = json.loads(sys.argv[1])
    fields["extra"] = tuple(fields["extra"])
    result = trace_instance(Instance(**fields), Path(sys.argv[2]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
