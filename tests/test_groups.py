import itertools
import random

import pytest

from gact import (
    Group,
    IndexOutOfRange,
    ParseError,
    TableNotGroup,
    cyclic_group,
    ginv,
    gmul,
    group_from_text,
    make_group,
    symmetric_group,
    trivial_group,
)


def test_trivial_group():
    g = trivial_group()
    assert g.order == 1
    assert g.table == ((0,),)


def test_cyclic_two():
    g = cyclic_group(2)
    assert g.order == 2
    assert g.table == ((0, 1), (1, 0))
    assert g.inverse == (0, 1)


def test_cyclic_three_product():
    g = cyclic_group(3)
    assert gmul(g, 1, 2) == 0


def test_inverse_law():
    for g in (cyclic_group(5), symmetric_group(3)):
        for x in range(g.order):
            assert gmul(g, x, ginv(g, x)) == 0
            assert gmul(g, ginv(g, x), x) == 0


def test_antihomomorphism_of_inverse():
    g = symmetric_group(4)
    rng = random.Random(1)
    for _ in range(200):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert ginv(g, gmul(g, x, y)) == gmul(g, ginv(g, y), ginv(g, x))


def test_symmetric_orders():
    for k in range(1, 5):
        assert symmetric_group(k).order == [1, 1, 2, 6, 24][k]


def test_symmetric_three_transpositions_give_three_cycle():
    # oracle: raw permutation arithmetic over lexicographically sorted S_3
    perms = sorted(itertools.permutations(range(3)))
    g = symmetric_group(3)
    transpositions = [i for i, p in enumerate(perms) if sum(p[j] != j for j in range(3)) == 2]
    a, b = transpositions[0], transpositions[1]
    c = gmul(g, a, b)
    expected = tuple(perms[b][v] for v in perms[a])
    assert perms[c] == expected
    assert gmul(g, c, gmul(g, c, c)) == 0  # order 3
    assert gmul(g, c, c) != 0


def test_group_axioms_exhaustive_small():
    for g in (trivial_group(), cyclic_group(4), cyclic_group(7), symmetric_group(3)):
        m = g.order
        assert m <= 64
        for x in range(m):
            assert gmul(g, x, 0) == x
            assert gmul(g, 0, x) == x
            assert gmul(g, x, g.inverse[x]) == 0
        for x, y, z in itertools.product(range(m), repeat=3):
            assert gmul(g, gmul(g, x, y), z) == gmul(g, x, gmul(g, y, z))


def test_table_file_parse_and_comments():
    text = "# a comment\norder 2\n0 1  # identity row\n1 0\n"
    g = group_from_text(text)
    assert g.order == 2
    assert g.table == ((0, 1), (1, 0))


def test_table_file_not_latin():
    with pytest.raises(TableNotGroup):
        group_from_text("order 2\n0 1\n1 1\n")


def test_table_file_identity_not_first():
    with pytest.raises(TableNotGroup):
        group_from_text("order 2\n1 0\n0 1\n")


def test_table_file_parse_errors():
    with pytest.raises(ParseError):
        group_from_text("")
    with pytest.raises(ParseError):
        group_from_text("size 2\n0 1\n1 0\n")
    with pytest.raises(ParseError):
        group_from_text("order 2\n0 1\n")
    with pytest.raises(ParseError):
        group_from_text("order 2\n0 x\n1 0\n")


def test_associativity_rejected():
    # Latin square with identity at 0 that is not associative (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(TableNotGroup):
        Group(table)


def test_associativity_checked_exactly_at_large_order():
    # Z_1200 with one intercalate swapped stays a Latin square with identity
    # 0 but is not a group; sampled triples would rarely hit the four cells
    table = [[(x + y) % 1200 for y in range(1200)] for x in range(1200)]
    for x in (5, 605):
        table[x][7], table[x][607] = table[x][607], table[x][7]
    with pytest.raises(TableNotGroup):
        Group(table)
    assert Group([[(x + y) % 300 for y in range(300)] for x in range(300)]).order == 300


def test_make_group_grammar(tmp_path):
    assert make_group("trivial").order == 1
    assert make_group("Z6").order == 6
    assert make_group("S3").order == 6
    path = tmp_path / "k4.txt"
    path.write_text("order 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    assert make_group(f"table:{path}").order == 4
    with pytest.raises(ParseError):
        make_group("Q8")


def test_index_out_of_range():
    g = cyclic_group(3)
    with pytest.raises(IndexOutOfRange):
        gmul(g, 0, 3)
    with pytest.raises(IndexOutOfRange):
        ginv(g, -1)
