import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
