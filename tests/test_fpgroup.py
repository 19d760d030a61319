import itertools
import random

import pytest

from gact import (
    Capped,
    IncompleteTable,
    Presentation,
    abelianization,
    todd_coxeter,
    word_equal,
)
from gact.fpgroup import trace


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
    t = todd_coxeter(p, subgroup=[(1,)])
    assert t.order == 3  # index of the order-2 subgroup in the order-6 group


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
