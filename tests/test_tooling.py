import hashlib
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
