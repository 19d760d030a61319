import importlib
import inspect
import json
import os
import subprocess
import sys
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
    # gact.cli registers its stage modules in sys.modules before the tracer
    # lists them, and calls them module-qualified, so their spans are recorded
    fields = {"command": command, "group": "Z2", "n": n, "r": r, "kind": kind, "extra": [], "expect": None}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), json.dumps(fields), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0, result["stderr"]
    assert spans <= {s["name"] for s in result["spans"]}


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
