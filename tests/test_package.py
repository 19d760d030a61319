"""The package namespace loads lazily, and the records keep their contract."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gact import (
    Endo,
    KernelData,
    KernelIndex,
    MergeWitness,
    Presentation,
    WreathElem,
    kernel,
    kernel_list,
    make_group,
    parse_endo,
    parse_wreath,
    todd_coxeter,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# public names that no module, benchmark script or tool reads: the tests'
# references and conveniences; any other public name needs a caller
TEST_ONLY = {"esquare_at", "is_rectangular_band", "singular_witness", "is_simple_form", "word_equal", "to_wreath",
             "gmul", "ginv", "identity_endo", "parse_endo"}

# run in a fresh interpreter, so no module is loaded before `import gact`
NAMESPACE_CHECK = """
import sys

def loaded():
    return sorted(name for name in sys.modules if name == "gact" or name.startswith("gact."))

import gact
assert loaded() == ["gact"], loaded()
gact.make_group("S3")
assert loaded() == ["gact", "gact.errors", "gact.groups"], loaded()
import gact.cli
assert gact.cli.main(["verify", "--group", "Z2", "--n", "4", "--r", "2"]) == 0
assert "dataclasses" not in sys.modules
for name in gact.__all__:
    value = getattr(gact, name)
    assert value is getattr(sys.modules[value.__module__], name), name
    assert value.__module__ == "gact." + gact._MODULE_OF[name], name
assert set(gact.__all__) <= set(dir(gact))
try:
    gact.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("an unknown name was found")
"""


# the gact modules a subcommand executes; cli registers the stage modules lazily
EXECUTED_CHECK = """
import contextlib, io, sys, types
import gact.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = gact.cli.main(sys.argv[1:])
print(code, *sorted(name[5:] for name, m in sys.modules.items() if name.startswith("gact.") and type(m) is types.ModuleType))
"""

# whichever is imported first, a stage module is one module object
IMPORT_ORDER_CHECK = """
import importlib, sys
imported = {name: importlib.import_module(name) for name in sys.argv[1:]}
import gact
assert imported["gact.presentation"] is gact.cli.presentation is gact.presentation is sys.modules["gact.presentation"]
"""


def fresh(code, *args):
    """Run code in a fresh interpreter with args; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_namespace_loads_modules_on_first_read():
    assert fresh(NAMESPACE_CHECK) == "order=8 expected=8 OK\n"


@pytest.mark.parametrize("argv, executed", [
    ("squares --group Z2 --n 3", "biorder cli endo errors groups rees"),
    ("sandwich --group Z2 --n 4 --r 2", "cli endo errors groups rees"),
    ("presentation --group Z2 --n 4 --r 2", "cli endo errors groups presentation rees"),
    ("presentation --group Z2 --n 4 --r 2 --json", "cli endo errors groups presentation rees"),
    ("verify --group Z2 --n 4 --r 3", "cli endo errors fpgroup groups presentation rees"),
    ("verify --group Z2 --n 6 --r 4", "cli endo errors fpgroup groups presentation reduction rees"),
    ("verify --group Z2 --n 6 --r 3", "cli endo errors fpgroup groups presentation reduction rees"),
])
def test_a_subcommand_executes_only_the_modules_it_calls(argv, executed):
    assert fresh(EXECUTED_CHECK, *argv.split()) == f"0 {executed}\n"


@pytest.mark.parametrize("order", ["gact.presentation gact.cli", "gact.cli gact.presentation"])
def test_a_stage_module_is_one_object_in_either_import_order(order):
    fresh(IMPORT_ORDER_CHECK, *order.split())


def read_names(path):
    """The names a module reads, as a name, an attribute or an import, or spells as a whole string."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # perfbench's tracer wraps its layers by name
    return names


def test_every_public_name_has_a_caller_or_is_kept_for_the_tests():
    # a definition is not a read, so a public name only its tests reach fails
    # here unless it is listed in TEST_ONLY; a listed name that gains a caller
    # leaves the list
    import gact

    root = SRC.parent
    modules = [p for p in (SRC / "gact").glob("*.py") if p.name != "__init__.py"]
    read = set().union(*map(read_names, [*modules, *(root / "perfbench").glob("*.py"), *(root / "tools").glob("*.py")]))
    assert set(gact.__all__) - read == TEST_ONLY


def test_records_keep_their_reprs():
    # the texts the dataclass records printed
    g = make_group("S3")
    a = parse_endo(g, 4, "2:1;2:3;4:0;2:5")
    assert repr(a) == "Endo(group=Group(order=6), n=4, targets=(2, 2, 4, 2), weights=(1, 3, 0, 5))"
    assert repr(kernel(a)) == "KernelData(blocks=((1, 2, 4), (3,)), mins=(1, 3), normweights=(0, 5, 0, 3))"
    assert repr(WreathElem(2, (2, 1), (0, 5))) == "WreathElem(r=2, perm=(2, 1), weights=(0, 5))"
    assert repr(kernel_list(make_group("Z2"), 3, 2)[1]) == "KernelIndex(partition=((1,), (2, 3)), weightvec=(1,))"


def test_equal_records_hash_equal_and_stay_frozen():
    g = make_group("Z2")
    a, b = parse_endo(g, 3, "1:1;1:0;3:1"), Endo(g, 3, (1, 1, 3), (1, 0, 1))
    pairs = [
        (WreathElem(2, (2, 1), (1, 0)), parse_wreath(g, 2, "2:1;1:0")),
        (a, b),
        (kernel(a), KernelData(((1, 2), (3,)), (1, 3), (0, 1, 0))),
        (kernel_list(g, 3, 2)[1], KernelIndex(((1,), (2, 3)), (1,))),
    ]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y), x
        assert {x: "kept"}[y] == "kept"
        with pytest.raises(AttributeError):
            x.extra = 1
    assert WreathElem(2, (2, 1), (1, 0)) != WreathElem(2, (2, 1), (0, 0))
    with pytest.raises(AttributeError):
        pairs[0][0].r = 3


@pytest.mark.parametrize("fields, message", [
    ((3, (1, 2), (0, 0)), "perm and weights must both have length r"),
    ((2, (1, 2), (0,)), "perm and weights must both have length r"),
    ((2, (1, 1), (0, 0)), "perm must be a permutation of \\[1, r\\]"),
])
def test_bad_wreath_elements_are_refused(fields, message):
    with pytest.raises(ValueError, match=message):
        WreathElem(*fields)


@pytest.mark.parametrize("fields, message", [
    ((2, (1,), (0, 0)), "targets and weights must both have length n"),
    ((2, (1, 2), (0, 0, 0)), "targets and weights must both have length n"),
    ((2, (1, 3), (0, 0)), "targets must lie in \\[1, n\\]"),
    ((2, (0, 1), (0, 0)), "targets must lie in \\[1, n\\]"),
    ((2, (1, 2), (0, 6)), "weights must be group element indices"),
])
def test_bad_endomorphisms_are_refused(fields, message):
    with pytest.raises(ValueError, match=message):
        Endo(make_group("S3"), *fields)


def test_mutable_records_take_assignment():
    t = todd_coxeter(Presentation(["a"], [(1, 1)], ["rel"]))
    assert (t.order, t.subgroup_order) == (2, 1)
    t.subgroup_order = 0
    assert t.subgroup_order == 0
    one = WreathElem(1, (1,), (0,))
    w = MergeWitness(one, (0, 0), one, one, (0, 1, 0, 1))
    w.square = (1, 0, 1, 0)
    assert w.square == (1, 0, 1, 0)
