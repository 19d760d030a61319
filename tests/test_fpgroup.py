import inspect
import itertools
import random
import tracemalloc
import types
from functools import lru_cache
from math import gcd

import pytest

from gact import (
    Capped,
    IncompleteTable,
    Presentation,
    abelianization,
    build_quotient_presentation,
    build_sandwich,
    connectivity,
    fpgroup,
    make_group,
    presentation,
    simplify_presentation,
    todd_coxeter,
    word_equal,
)
from gact.endo import wreath_order
from gact.cli import DEFAULT_CAPS
from gact.presentation import eliminate_generators
from gact.verify import enumerate_order

from helpers import MAIN_CASES, trace


def pres(gens, relators):
    return Presentation(list(gens), [tuple(w) for w in relators], ["rel"] * len(relators))


def test_order_two():
    t = todd_coxeter(pres("a", [(1, 1)]))
    assert t.order == 2


def test_symmetric_three():
    # two involutions whose product has order three; brute-force count is 6
    perms = set()
    frontier = {(0, 1, 2)}
    s, u = (1, 0, 2), (0, 2, 1)
    while frontier:
        p = frontier.pop()
        perms.add(p)
        for q in (s, u):
            nxt = tuple(q[v] for v in p)
            if nxt not in perms:
                frontier.add(nxt)
    assert len(perms) == 6
    t = todd_coxeter(pres("st", [(1, 1), (2, 2), (1, 2) * 3]))
    assert t.order == 6


def test_other_known_orders():
    assert todd_coxeter(pres("a", [(1,) * 12])).order == 12
    assert todd_coxeter(pres("ab", [(1, 1), (2, 2), (1, 2, -1, -2)])).order == 4
    # quaternion group of order 8
    q8 = pres("ab", [(1, 1, 1, 1), (1, 1, -2, -2), (-1, 2, 1, 2)])
    assert todd_coxeter(q8).order == 8
    # no generators at all presents the trivial group
    assert todd_coxeter(pres("", [])).order == 1


def test_subgroup_index():
    p = pres("st", [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(p, h=1)
    assert t.order == 3  # index of the order-2 subgroup in the order-6 group
    assert t.subgroup_order == 2


def test_free_group_caps():
    with pytest.raises(Capped):
        todd_coxeter(pres("a", []), max_cosets=50)
    with pytest.raises(Capped):
        todd_coxeter(pres("ab", [(1, 1)]), max_cosets=100)


def test_deterministic():
    p = pres("ab", [(1, 1, 1), (2, 2), (1, 2) * 2])
    t1 = todd_coxeter(p)
    t2 = todd_coxeter(p)
    assert t1.table == t2.table
    assert t1.order == 6  # the (3,2,2) triangle group is dihedral of order 6


def test_word_equal_basics():
    t = todd_coxeter(pres("a", [(1, 1)]))
    assert word_equal(t, (1,), (1,))
    assert word_equal(t, (1,), (-1,))
    assert not word_equal(t, (1,), ())


def test_word_equal_is_congruence():
    p = pres("st", [(1, 1), (2, 2), (1, 2) * 3])
    t = todd_coxeter(p)
    rng = random.Random(0)
    words = [
        tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(6)))
        for _ in range(30)
    ]
    for w in words:
        assert word_equal(t, w, w)
    for a, b in itertools.combinations(words, 2):
        assert word_equal(t, a, b) == word_equal(t, b, a)
    for a, b, c in itertools.islice(itertools.combinations(words, 3), 300):
        if word_equal(t, a, b) and word_equal(t, b, c):
            assert word_equal(t, a, c)


def test_word_equal_identifies_cosets_consistently():
    p = pres("ab", [(1, 1, 1), (2, 2), (1, 2, 1, 2)])
    t = todd_coxeter(p)
    # tracing from the base coset distinguishes group elements
    seen = {trace(t, 0, w) for w in [(), (1,), (1, 1), (2,), (1, 2), (1, 1, 2)]}
    assert len(seen) == t.order


def test_incomplete_table_guard():
    t = todd_coxeter(pres("a", [(1, 1)]))
    t.table[0][0] = None
    with pytest.raises(IncompleteTable):
        word_equal(t, (1,), (1,))


def test_abelianization_examples():
    assert abelianization(pres("a", [(1, 1)])).torsion == (2,)
    assert abelianization(pres("a", [(1, 1)])).free_rank == 0
    free3 = abelianization(pres("abc", []))
    assert free3.torsion == () and free3.free_rank == 3
    z6 = abelianization(pres("ab", [(1, 1), (2, 2, 2), (1, 2, -1, -2)]))
    assert z6.torsion == (6,) and z6.free_rank == 0
    s3 = abelianization(pres("st", [(1, 1), (2, 2), (1, 2) * 3]))
    assert s3.torsion == (2,) and s3.free_rank == 0
    mixed = abelianization(pres("abc", [(1, 1, 2, 2), (1, -2)]))
    assert mixed.free_rank == 1
    assert mixed.torsion == (4,)


def test_order_report_on_presentation_files():
    from gact import lavers_presentation, cyclic_group
    from gact.presentation import presentation_to_text
    from helpers import order_report

    text = presentation_to_text(lavers_presentation(cyclic_group(2), 2))
    assert order_report(text) == "order=8"
    free = "generators 1\ngen a\n"
    assert order_report(free, max_cosets=40) == "capped max=40"


def test_metacyclic_with_conjugation_relator():
    # b a b^-1 = a^2 with b^3 and a^7: the nonsplit-looking word mixes
    # inverse letters through the scan in both directions
    p = pres("ab", [(2, 1, -2, -1, -1), (2, 2, 2), (1,) * 7])
    t = todd_coxeter(p)
    assert t.order == 21
    assert word_equal(t, (2, 1, -2), (1, 1))


def test_long_single_relator():
    assert todd_coxeter(pres("a", [(1,) * 500])).order == 500


def _det(mat):
    # Leibniz expansion; the minors here are at most 4 x 4
    k, total = len(mat), 0
    for perm in itertools.permutations(range(k)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def test_abelianization_matches_determinantal_divisors():
    # oracle: the k-th determinantal divisor d_k is the gcd of the k x k
    # minors, and the invariant factors are d_k / d_(k-1) up to the rank
    rng = random.Random(302)
    for trial in range(300):
        m, n = rng.randint(0, 4), rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if m and trial % 3 == 0:
            rows[rng.randrange(m)] = [0] * n
        if trial % 4 == 0:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        divisors = [1]
        for k in range(1, min(m, n) + 1):
            d = 0
            for ri in itertools.combinations(range(m), k):
                for ci in itertools.combinations(range(n), k):
                    d = gcd(d, _det([[rows[i][j] for j in ci] for i in ri]))
            if d == 0:
                break
            divisors.append(d)
        factors = [b // a for a, b in zip(divisors, divisors[1:])]
        relators = [[j + 1 if e > 0 else -j - 1 for j, e in enumerate(row) for _ in range(abs(e))] for row in rows]
        ab = abelianization(pres("abcd"[:n], relators))
        assert (ab.torsion, ab.free_rank) == (tuple(f for f in factors if f > 1), n - len(factors)), rows


# -- enumeration over a cyclic subgroup <h> ------------------------------------

# the desk main cases, the benchmark's verify-enum instances, S3 4 2 and Z4 6 4
CYCLIC_CASES = sorted({(spec, n, r) for n, spec, r, _ in MAIN_CASES} | {
    ("Z2", 6, 4), ("trivial", 8, 6), ("Z4", 5, 3), ("Z3", 5, 3), ("Z3", 5, 5), ("S3", 4, 2), ("Z4", 6, 4),
})


@lru_cache(maxsize=None)
def reduced(spec, n, r):
    """The Tietze-reduced presentation `verify.enumerate_order` enumerates, and its h.

    h is the generator whose value has the largest order in W, the lowest
    index on ties; None when no generator survives.
    """
    g = make_group(spec)
    m = build_sandwich(g, n, r)
    q, _ = eliminate_generators(simplify_presentation(build_quotient_presentation(m), m, connectivity(m), []))
    orders = [wreath_order(g, v) for v in q.gen_keys]
    return q, (orders.index(max(orders)) + 1 if orders else None)


@pytest.mark.parametrize("spec, n, r", CYCLIC_CASES)
def test_cyclic_enumeration_matches_the_trivial_subgroup(spec, n, r):
    q, h = reduced(spec, n, r)
    order = todd_coxeter(q).order
    assert enumerate_order(build_sandwich(make_group(spec), n, r), DEFAULT_CAPS)[0] == order
    # at desk scale every surviving generator may be h, not only the chosen one
    for gen in range(1, len(q.generators) + 1) if order <= 400 else [h]:
        t = todd_coxeter(q, gen)
        assert t.order * t.subgroup_order == order, (spec, n, r, gen)


def test_cyclic_enumeration_pinned(monkeypatch):
    # (index, |<h>|, cosets defined) of the enumeration verify runs, recorded when it moved to <h>
    pinned = {
        ("Z2", 6, 4): (64, 6, 274), ("trivial", 8, 6): (120, 6, 528), ("Z4", 5, 3): (48, 8, 219),
        ("Z3", 5, 3): (27, 6, 140), ("S3", 4, 2): (24, 3, 43),
    }
    seen = []

    def spy(*args, **kwargs):
        t = todd_coxeter(*args, **kwargs)
        seen.append((t.order, t.subgroup_order, t.defined))
        return t

    monkeypatch.setattr(fpgroup, "todd_coxeter", spy)
    for (spec, n, r), want in pinned.items():
        seen.clear()
        order, _ = enumerate_order(build_sandwich(make_group(spec), n, r), DEFAULT_CAPS)
        assert seen == [want] and order == want[0] * want[1], (spec, n, r)


def mutant(old, new):
    """gact.fpgroup with the one occurrence of old in its source replaced by new."""
    source = inspect.getsource(fpgroup)
    assert source.count(old) == 1, old
    module = types.ModuleType("gact.fpgroup_mutant")
    module.__package__ = "gact"
    exec(compile(source.replace(old, new), module.__name__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("old, new", [
    # a coincidence replays each entry of a dead coset with its label negated
    ("lab = labels[dead][col] + ev - eu", "lab = -labels[dead][col] + ev - eu"),
    # a scan that closes at its own coset drops its exponent
    ("self.relation = gcd(self.relation, eb - ef)", "pass"),
], ids=["negated-replay-label", "dropped-scan-exponent"])
def test_label_mutations_are_caught(old, new):
    broken = mutant(old, new)
    outcomes = set()
    for spec, n, r in CYCLIC_CASES:
        q, h = reduced(spec, n, r)
        if h is None:
            continue
        t = broken.todd_coxeter(q, h)
        right = todd_coxeter(q, h)
        assert (t.order, t.defined) == (right.order, right.defined)  # labels never steer the enumeration
        if t.subgroup_order == 0:
            outcomes.add("fallback")
        else:
            outcomes.add("same" if t.subgroup_order == right.subgroup_order else "differs")
    assert outcomes - {"same"}, outcomes


def test_no_relation_on_h_falls_back_under_the_same_cap(monkeypatch):
    t = todd_coxeter(pres("a", []), h=1)
    assert (t.order, t.subgroup_order) == (1, 0)
    m = build_sandwich(make_group("Z2"), 4, 2)
    free = Presentation(["a"], [], [], gen_keys=[m.values[0]])
    calls = []

    def spy(q, h=None, max_cosets=None):
        calls.append((h, max_cosets))
        return todd_coxeter(q, h, max_cosets)

    monkeypatch.setattr(presentation, "eliminate_generators", lambda p: (free, []))
    monkeypatch.setattr(fpgroup, "todd_coxeter", spy)
    with pytest.raises(Capped, match="capped at 50 cosets"):
        enumerate_order(m, dict(DEFAULT_CAPS, max_cosets=50))
    assert calls == [(1, 50), (None, 50)]


# -- the finishing passes and the input checks ----------------------------------

def test_standardizing_rejects_an_undefined_action(monkeypatch):
    # a finished enumeration with one action of coset 0 blanked: the walk
    # meets the gap before it resolves it through the union-find
    real = fpgroup._compress_standardize

    def blank(enum, *rest):
        enum.table[0][0] = None
        return real(enum, *rest)

    monkeypatch.setattr(fpgroup, "_compress_standardize", blank)
    with pytest.raises(AssertionError, match="coset table left an action undefined"):
        todd_coxeter(pres("st", [(1, 1), (2, 2), (1, 2) * 3]))


def test_abelianization_holds_one_exponent_matrix():
    # the Smith diagonal is reduced in the matrix abelianization builds, so its
    # peak stays near that matrix alone: a working copy would take it past 2x
    rng = random.Random(37)
    n_gens, relators = 120, [tuple(rng.choice((1, -1)) * rng.randint(1, 120) for _ in range(4)) for _ in range(160)]
    p = pres([f"a{k}" for k in range(n_gens)], relators)
    tracemalloc.start()
    try:
        matrix = [[0] * n_gens for _ in relators]
        alone = tracemalloc.get_traced_memory()[0]
        del matrix
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        abelianization(p)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * alone, (peak, alone)


def test_todd_coxeter_rejects_undeclared_generators():
    with pytest.raises(ValueError, match="relator references an undeclared generator"):
        todd_coxeter(pres("a", [(1, 2)]))
    with pytest.raises(ValueError, match="subgroup generator is not declared"):
        todd_coxeter(pres("a", [(1, 1)]), h=2)


def test_coset_that_dies_during_its_own_scans_stops_scanning(monkeypatch):
    # a coincidence found while scanning coset a at one relator can take a
    # itself: the remaining relators are not scanned at a, and the group closes
    real = fpgroup._Enumerator.scan_and_fill
    died = []

    def scan_and_fill(self, a, rel):
        real(self, a, rel)
        if self.p[a] != a:
            died.append(a)

    monkeypatch.setattr(fpgroup._Enumerator, "scan_and_fill", scan_and_fill)
    t = todd_coxeter(pres("ab", [(2, 1, -1), (-1, -2, -2, -1), (-2, 1, 1, 2, 1), (2,)]))
    assert t.order == 1
    assert 2 in died
