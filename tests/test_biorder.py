import itertools
from math import comb

import pytest

from gact import (
    ESquare,
    ResourceLimit,
    ZeroEntry,
    build_sandwich,
    compose,
    cyclic_group,
    enumerate_idempotents,
    esquare_at,
    group_from_text,
    idempotent_at,
    image,
    is_idempotent,
    is_rectangular_band,
    kernel,
    make_group,
    rank,
    singular_witness,
    square_condition,
    trivial_group,
    wreath_inv,
)
from gact import biorder
from gact.biorder import count_idempotents, rees_element, squares_report

from helpers import KLEIN, all_endos, dense_squares_counts

Z2 = cyclic_group(2)
T = trivial_group()


def brute_force_idempotents(g, n):
    return [e for e in all_endos(g, n) if compose(e, e) == e]


def test_idempotent_counts_t3():
    enumerated = enumerate_idempotents(T, 3)
    brute = brute_force_idempotents(T, 3)
    assert len(enumerated) == len(brute) == 10
    assert set(enumerated) == set(brute)
    assert len(enumerate_idempotents(T, 3, restrict_rank=3)) == 1


def test_idempotent_counts_weighted():
    enumerated = enumerate_idempotents(Z2, 3)
    brute = brute_force_idempotents(Z2, 3)
    assert set(enumerated) == set(brute)
    assert count_idempotents(Z2, 3) == len(brute)
    # idempotency forces the trivial weight at every image point
    for e in enumerated:
        for t in image(e):
            assert e.weights[t - 1] == 0


def test_enumerate_order_deterministic_and_capped():
    a = enumerate_idempotents(Z2, 3)
    b = enumerate_idempotents(Z2, 3)
    assert a == b
    with pytest.raises(ResourceLimit):
        enumerate_idempotents(Z2, 3, max_count=5)


def all_esquares(g, n, r):
    """Nondegenerate squares of idempotents in the rank-r slice."""
    m = build_sandwich(g, n, r)
    nrows = len(m.kernels)
    ncols = len(m.lambdas)
    squares = []
    for i in range(nrows):
        for k in range(i + 1, nrows):
            for l_idx in range(ncols):
                if m.entries[l_idx][i] is None or m.entries[l_idx][k] is None:
                    continue
                for m_idx in range(l_idx + 1, ncols):
                    if m.entries[m_idx][i] is None or m.entries[m_idx][k] is None:
                        continue
                    squares.append((m, i, k, l_idx, m_idx))
    return squares


def test_esquare_validation():
    m = build_sandwich(Z2, 4, 2)
    e = idempotent_at(m, 0, 0)
    sq = ESquare(e, e, e, e)
    assert is_rectangular_band(sq)
    assert singular_witness(sq) == e  # the corner itself works for a degenerate square
    other_row = next(i for i, l in m.nonzero_positions() if i != 0 and l == 0)
    f = idempotent_at(m, other_row, 0)
    with pytest.raises(ValueError):
        ESquare(e, f, e, e)  # e and f are not in the same kernel row
    from gact.endo import Endo

    not_idem = Endo(Z2, 4, (2, 1, 1, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        ESquare(not_idem, not_idem, not_idem, not_idem)


def test_rectangular_band_four_equalities_agree():
    for g in (T, Z2):
        for r in (1, 2):
            for m, i, k, l_idx, m_idx in all_esquares(g, 3, r):
                sq = esquare_at(m, i, k, l_idx, m_idx)
                eqs = [
                    compose(sq.e, sq.g) == sq.f,
                    compose(sq.g, sq.e) == sq.h,
                    compose(sq.f, sq.h) == sq.e,
                    compose(sq.h, sq.f) == sq.g,
                ]
                assert all(eqs) or not any(eqs)
                assert is_rectangular_band(sq) == all(eqs)


def test_singular_iff_witness_found_n3():
    for g in (T, Z2):
        candidates = enumerate_idempotents(g, 3)
        for r in (1, 2):
            for m, i, k, l_idx, m_idx in all_esquares(g, 3, r):
                sq = esquare_at(m, i, k, l_idx, m_idx)
                witness = singular_witness(sq, candidates)
                assert is_rectangular_band(sq) == (witness is not None)
                if witness is not None:
                    assert is_idempotent(witness)
                    updown = singular_witness(sq, candidates, kind="updown")
                    assert updown is not None  # singular squares admit up-down witnesses


def test_square_condition_degenerate_and_zero():
    m = build_sandwich(Z2, 4, 2)
    nz = list(m.nonzero_positions())
    i, l_idx = nz[0]
    assert square_condition(m, i, i, l_idx, l_idx)
    # find a second nonzero column on the same row
    other = next(l2 for i2, l2 in nz if i2 == i and l2 != l_idx)
    assert square_condition(m, i, i, l_idx, other)
    zero_col = next(
        l2 for l2 in range(len(m.lambdas)) if m.entries[l2][i] is None
    )
    with pytest.raises(ZeroEntry):
        square_condition(m, i, i, l_idx, zero_col)


def test_square_condition_matches_band_test():
    m = build_sandwich(Z2, 4, 2)
    for _, i, k, l_idx, m_idx in all_esquares(Z2, 4, 2):
        sq = esquare_at(m, i, k, l_idx, m_idx)
        assert square_condition(m, i, k, l_idx, m_idx) == is_rectangular_band(sq)


def test_idempotent_at_properties():
    m = build_sandwich(Z2, 4, 2)
    for i, l_idx in m.nonzero_positions():
        e = idempotent_at(m, i, l_idx)
        assert is_idempotent(e)
        assert kernel(e) == kernel(m.thetas[i])
        assert image(e) == m.lambdas[l_idx]
    zero_pos = next(
        (i, l)
        for l in range(len(m.lambdas))
        for i in range(len(m.kernels))
        if m.entries[l][i] is None
    )
    with pytest.raises(ZeroEntry):
        idempotent_at(m, *zero_pos)


def test_rees_coordinates_multiply_through_the_matrix():
    m = build_sandwich(Z2, 4, 2)
    nz = list(m.nonzero_positions())
    for (i, l1), (k, l2) in itertools.islice(itertools.product(nz, nz), 300):
        a = rees_element(m, i, wreath_inv(Z2, m.entries[l1][i]), l1)
        b = rees_element(m, k, wreath_inv(Z2, m.entries[l2][k]), l2)
        prod = compose(a, b)
        p = m.entries[l1][k]
        if p is None:
            assert rank(prod) < 2
        else:
            assert rank(prod) == 2
            assert kernel(prod) == kernel(a)
            assert image(prod) == m.lambdas[l2]


def test_squares_report_counts():
    report = squares_report(T, 3)
    by_rank = {row["rank"]: row for row in report}
    assert by_rank[1]["idempotents"] == 3
    assert by_rank[2]["idempotents"] == 6
    assert by_rank[3]["idempotents"] == 1
    assert sum(row["idempotents"] for row in report) == 10
    assert by_rank[3]["squares"] == 0
    # brute force over the squares and the entry-level condition
    for spec, n in (("trivial", 3), ("Z2", 3), ("Z3", 3), ("S3", 3), ("Z2", 4), ("Z3", 4)):
        g = make_group(spec)
        for row in squares_report(g, n):
            squares = all_esquares(g, n, row["rank"])
            assert row["squares"] == len(squares)
            assert row["singular"] == sum(1 for sq in squares if square_condition(*sq))


def test_squares_report_matches_dense_zip():
    # counts from column 0's pairs, scaled by the S_n orbit, equal the dense
    # zip over every column pair, and the idempotents read off the walked rows
    # equal C(n, r) (r|G|)^(n-r)
    cases = [(spec, n) for spec, top in (("trivial", 7), ("Z2", 7), ("Z3", 5), ("Z4", 5), ("S3", 4), ("klein", 4))
             for n in range(3, top + 1)]
    for spec, n in cases:
        g = group_from_text(KLEIN) if spec == "klein" else make_group(spec)
        report = squares_report(g, n)
        assert [row["rank"] for row in report] == list(range(1, n + 1))
        for row in report:
            r = row["rank"]
            dense = dense_squares_counts(build_sandwich(g, n, r))
            assert (row["idempotents"], row["squares"], row["singular"]) == dense, (spec, n, r)
            assert row["idempotents"] == comb(n, r) * (r * g.order) ** (n - r)


def test_squares_checks_every_rank_cap_before_building(monkeypatch):
    built = []

    def counted(g, n, r, max_entries):
        built.append(r)
        return build_sandwich(g, n, r, max_entries)

    monkeypatch.setattr(biorder, "build_sandwich", counted)
    # rank 3 of Z2 n=10 has 33.6M nonzero cells; ranks 1 and 2 fit but are not built
    with pytest.raises(ResourceLimit):
        squares_report(Z2, 10)
    assert built == []
    squares_report(Z2, 3)
    assert built == [1, 2, 3]
