import hashlib
import itertools
from math import comb

import pytest

from gact import (
    BadRank,
    Endo,
    KernelIndex,
    ResourceLimit,
    WreathElem,
    build_sandwich,
    compose,
    cyclic_group,
    green_test,
    group_from_text,
    image,
    kernel,
    kernel_list,
    lambda_list,
    make_group,
    parse_wreath,
    q_of,
    rank,
    set_partitions,
    theta,
    to_wreath,
    trivial_group,
    wreath_identity,
)
from gact import presentation, rees
from gact.endo import wreath_to_text
from gact.presentation import gr_relators
from gact.rees import KeyClasses, column_pairs, matrix_to_text

from helpers import (
    KLEIN,
    MAIN_CASES,
    WALK_CASES,
    dense_column_pairs,
    dense_ids,
    dense_nonzero_positions,
    dense_sandwich_ids,
    eps_rank_r,
    point_codes,
    pruned_set_partitions,
    quaternion_group,
    recursive_set_partitions,
    rowwise_column_pairs,
    stirling,
    value_positions,
    wreath_elements,
    wreath_key_classes,
)

Z2 = cyclic_group(2)
T = trivial_group()


def test_lambda_list_examples():
    assert lambda_list(3, 1) == [(1,), (2,), (3,)]
    assert lambda_list(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert lambda_list(9, 3)[0] == (1, 2, 3)
    with pytest.raises(BadRank):
        lambda_list(4, 0)
    with pytest.raises(BadRank):
        lambda_list(4, 5)


def partitions(n, r):
    """The partition field of each `set_partitions` record."""
    return [part for part, _, _ in set_partitions(n, r)]


def test_set_partition_counts():
    # listed by block minima, each minima group sorted: the same list, in the
    # same order, as extending point by point and sorting once; at r = 1,
    # n - 1 and n also where that oracle's quadratic cost still fits
    for n in range(1, 8):
        for r in range(1, n + 1):
            assert partitions(n, r) == pruned_set_partitions(n, r), (n, r)
            assert len(partitions(n, r)) == stirling(n, r) == rees.partition_count(n, r)
    for r in (1, 59, 60):
        assert partitions(60, r) == pruned_set_partitions(60, r), r
    parts = partitions(7, 3)  # each block is one tuple, however many partitions hold it
    assert len({id(b) for p in parts for b in p}) == len({b for p in parts for b in p}) < 3 * len(parts)
    assert rees.partition_count(1200, 1199) == comb(1200, 2) and rees.partition_count(1200, 1200) == 1


def test_set_partitions_match_recursive_oracle():
    for n in range(1, 9):
        for r in range(1, n + 1):
            assert partitions(n, r) == recursive_set_partitions(n, r), (n, r)
    # one point per loop step, no call per point: far past the default stack depth
    assert partitions(1500, 1) == [(tuple(range(1, 1501)),)]
    assert partitions(1200, 1200) == [tuple((k,) for k in range(1, 1201))]


def test_set_partitions_sorted_and_min_led():
    parts = partitions(5, 3)
    keys = [tuple(b[0] for b in p) for p in parts]
    assert keys == sorted(keys)
    for p in parts:
        assert p[0][0] == 1
        mins = [b[0] for b in p]
        assert mins == sorted(mins)


def test_set_partition_records_match_the_derivation():
    # each record's minima are its blocks' first points, one tuple per minima
    # group, and its codes decode to the (block, slot) pairs rebuilt from the
    # partition alone; r = 1, n - 1 and n each come in
    cases = [(n, r) for n in range(1, 8) for r in range(1, n + 1)] + [(9, 5), (12, 11), (60, 59)]
    for n, r in cases:
        groups = {}
        for part, minima, code in set_partitions(n, r):
            assert minima == tuple(b[0] for b in part), (n, r, part)
            assert groups.setdefault(minima, minima) is minima, (n, r, part)
            assert {q: divmod(code[q], n - r + 1) for q in range(1, n + 1)} == point_codes(part, n, r), (n, r, part)
        assert len(groups) == comb(n - 1, r - 1), (n, r)


def test_set_partitions_bad_rank():
    # a generator: the rank is checked on the first record asked for
    for r in (0, 5):
        with pytest.raises(BadRank):
            list(set_partitions(4, r))


def test_kernel_list_counts():
    assert len(kernel_list(T, 3, 1)) == 1
    assert len(kernel_list(Z2, 4, 2)) == 28
    assert len(kernel_list(T, 5, 3)) == 25
    from math import comb

    for n in range(3, 7):
        for r in range(1, min(n, 4) + 1):
            assert len(lambda_list(n, r)) == comb(n, r)
            for g in (T, Z2, cyclic_group(3)):
                assert len(kernel_list(g, n, r)) == g.order ** (n - r) * stirling(n, r)


def test_theta_canonical_row_is_identity_idempotent():
    ki = KernelIndex(((1, 4, 5), (2,), (3,)), (0, 0))
    assert theta(Z2, 5, 3, ki) == eps_rank_r(Z2, 5, 3)


def test_theta_in_l1_and_transversal_shape():
    for ki in kernel_list(Z2, 4, 2):
        th = theta(Z2, 4, 2, ki)
        assert image(th) == (1, 2)
        assert green_test(th, eps_rank_r(Z2, 4, 2), "L")
        for j, block in enumerate(ki.partition, start=1):
            assert th.weights[block[0] - 1] == 0
            assert th.targets[block[0] - 1] == j


def test_theta_weight_position_bound():
    # any coordinate mapping onto slot j sits at or above the block minimum,
    # strictly above when its weight is twisted
    for n, r in ((5, 2), (4, 3)):
        for ki in kernel_list(Z2, n, r):
            th = theta(Z2, n, r, ki)
            d = ki.mins()
            for k in range(1, n + 1):
                j = th.targets[k - 1]
                assert k >= d[j - 1]
                if th.weights[k - 1] != 0:
                    assert k > d[j - 1]


def test_theta_transversal_of_r_classes():
    # brute-force every rank-r map with image {1..r}; each kernel class
    # contains exactly one transversal element
    for g in (T, Z2):
        for n in (3, 4):
            for r in range(1, n + 1):
                rows = kernel_list(g, n, r)
                thetas = {kernel(theta(g, n, r, ki)): theta(g, n, r, ki) for ki in rows}
                assert len(thetas) == len(rows)
                seen = {}
                for targets in itertools.product(range(1, r + 1), repeat=n):
                    if len(set(targets)) != r:
                        continue
                    for weights in itertools.product(range(g.order), repeat=n):
                        alpha = Endo(g, n, targets, weights)
                        kd = kernel(alpha)
                        assert kd in thetas
                        is_transversal = all(
                            alpha.targets[m - 1] == j and alpha.weights[m - 1] == 0
                            for j, m in enumerate(kd.mins, start=1)
                        )
                        if is_transversal:
                            prev = seen.setdefault(kd, alpha)
                            assert prev == alpha
                assert len(seen) == len(rows)


def test_q_of_examples():
    assert q_of(Z2, 4, 2, (1, 2)) == eps_rank_r(Z2, 4, 2)
    assert q_of(Z2, 4, 2, (3, 4)) == Endo(Z2, 4, (3, 4, 3, 3), (0, 0, 0, 0))
    for lam in lambda_list(5, 3):
        assert rank(q_of(Z2, 5, 3, lam)) == 3


def test_district_examples():
    p1 = KernelIndex(((1, 2, 8), (3, 4, 7), (5, 6, 9)), (0,) * 6)
    p2 = KernelIndex(((1, 2, 4, 6), (3, 7), (5, 8, 9)), (0,) * 6)
    assert p1.mins() == (1, 3, 5)
    assert p2.mins() == (1, 3, 5)
    # the district is the sorted block minima, nothing else
    p3 = KernelIndex(((1, 4, 6), (2, 3), (5, 7, 8, 9)), (0,) * 6)
    assert p3.mins() == (1, 2, 5)
    singles = KernelIndex(((1, 4), (2,), (3,)), (0,))
    assert singles.mins() == (1, 2, 3)


def test_sandwich_shape_and_entries():
    m = build_sandwich(Z2, 4, 2)
    assert len(m.lambdas) == 6
    assert len(m.kernels) == 28
    ident = wreath_identity(2)
    for i in range(28):
        assert m.entries[m.lambda_pos[m.districts[i]]][i] == ident
    # entry definition agrees with composing the column and row maps
    for i, ki in enumerate(m.kernels):
        th = theta(Z2, 4, 2, ki)
        for l_idx, lam in enumerate(m.lambdas):
            comp = compose(q_of(Z2, 4, 2, lam), th)
            if rank(comp) == 2:
                assert m.entries[l_idx][i] == to_wreath(comp, 2)
            else:
                assert m.entries[l_idx][i] is None
    # canonical row at canonical column
    r1 = m.part_start[kernel(eps_rank_r(Z2, 4, 2)).blocks]
    assert m.entries[m.lambda_pos[(1, 2)]][r1] == ident


def test_sandwich_rows_columns_nonzero():
    for g, n, r in ((Z2, 5, 2), (T, 5, 3)):
        m = build_sandwich(g, n, r)
        for per_lambda in m.entries:
            assert any(v is not None for v in per_lambda)
        ncols = len(m.lambdas)
        for i in range(len(m.kernels)):
            assert any(m.entries[l][i] is not None for l in range(ncols))


def test_sandwich_caps_and_bad_rank():
    with pytest.raises(ResourceLimit):
        build_sandwich(Z2, 4, 2, max_entries=10)
    with pytest.raises(BadRank):
        build_sandwich(Z2, 4, 0)


def test_sandwich_cap_fires_before_rows_are_built(monkeypatch):
    def no_rows(*args):
        raise AssertionError("rows made before the entries cap")

    # the fill walks set_partitions; kernel_list is the kernels' lazy build
    monkeypatch.setattr(rees, "kernel_list", no_rows)
    monkeypatch.setattr(rees, "set_partitions", no_rows)
    with pytest.raises(ResourceLimit):
        build_sandwich(cyclic_group(3), 9, 2, max_entries=10)
    # the closed form is exact: a cap equal to the nonzero count still builds
    monkeypatch.undo()
    total = len(dense_nonzero_positions(build_sandwich(Z2, 4, 2)))
    build_sandwich(Z2, 4, 2, max_entries=total)
    with pytest.raises(ResourceLimit):
        build_sandwich(Z2, 4, 2, max_entries=total - 1)


def test_sandwich_cap_fires_before_the_stirling_recurrence(monkeypatch):
    # the nonzero count C(n, r) (r|G|)^(n-r) is read before S(n, r) is counted
    # or any column or row is listed, in exact integers: at Z2 300 150 it is
    # past the float range
    def nothing_listed(*args):
        raise AssertionError("partitions counted, or columns or rows listed, before the nonzero count")

    for name in ("partition_count", "lambda_list", "set_partitions"):
        monkeypatch.setattr(rees, name, nothing_listed)
    with pytest.raises(ResourceLimit):
        build_sandwich(Z2, 4000, 2000)
    monkeypatch.undo()
    total = comb(300, 150) * 300 ** 150
    rees.check_entries_cap(Z2, 300, 150, total)
    with pytest.raises(ResourceLimit):
        rees.check_entries_cap(Z2, 300, 150, total - 1)


def test_entries_cap_counts_the_built_cells():
    # a cap equal to the larger of the built matrix's nonzero cells and its rows
    # times r is admitted, one below it refused; dense also counts rows times
    # columns.  Z2 6 5 and Z3 4 4 have more rows times r than nonzero cells
    for g, n, r in ((Z2, 4, 2), (T, 6, 3), (make_group("S3"), 4, 1), (Z2, 6, 5), (cyclic_group(3), 4, 4)):
        m = build_sandwich(g, n, r)
        rows = len(m.districts)
        assert rees.partition_count(n, r) * g.order ** (n - r) == rows
        stored = max(len(dense_nonzero_positions(m)), rows * r)
        for dense, total in ((False, stored), (True, max(stored, rows * len(m.lambdas)))):
            rees.check_entries_cap(g, n, r, total, dense)
            with pytest.raises(ResourceLimit, match=f"sandwich matrix entries exceeds the cap {total - 1}"):
                rees.check_entries_cap(g, n, r, total - 1, dense)


def test_sandwich_entry_lookup():
    m = build_sandwich(Z2, 4, 2)
    row = m.part_start[kernel(eps_rank_r(Z2, 4, 2)).blocks]
    assert m.entries[m.lambda_pos[(1, 2)]][row] == wreath_identity(2)


def district_prefiltered_occurrences(m, phi):
    """All (row, column) positions holding phi, by the positional-district lemma.

    Rows are pre-filtered by the positional constraints a district must
    satisfy against each column (block minimum of the image slot at or
    below the column entry, strictly below for a twisted weight) before
    the stored entry is compared.
    """
    res = []
    for i, d in enumerate(m.districts):
        for l_idx, lam in enumerate(m.lambdas):
            if all(
                d[phi.perm[j] - 1] < lam[j] or (d[phi.perm[j] - 1] == lam[j] and phi.weights[j] == 0)
                for j in range(m.r)
            ) and m.entries[l_idx][i] == phi:
                res.append((i, l_idx))
    return res


def test_occurrences_examples():
    m = build_sandwich(Z2, 4, 2)
    phi = parse_wreath(Z2, 2, "1:1;2:1")
    occ = m.positions_of(phi)
    assert [(m.districts[i], m.lambdas[l]) for i, l in occ] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
    ]
    m6 = build_sandwich(Z2, 6, 4)
    phi6 = parse_wreath(Z2, 4, "3:0;2:1;4:0;1:0")
    occ6 = m6.positions_of(phi6)
    assert len(occ6) == 1
    assert m6.lambdas[occ6[0][1]] == (3, 4, 5, 6)
    m43 = build_sandwich(T, 4, 3)
    reversal = parse_wreath(T, 3, "3:0;2:0;1:0")
    assert m43.positions_of(reversal) == []


def test_occurrences_matches_full_scan():
    for g, n, r in ((Z2, 4, 2), (T, 5, 3), (Z2, 5, 2), (Z2, 3, 1), (T, 4, 2), (Z2, 5, 4)):
        m = build_sandwich(g, n, r)
        for phi in wreath_elements(g, r):
            brute = [
                (i, l)
                for i in range(len(m.kernels))
                for l in range(len(m.lambdas))
                if m.entries[l][i] == phi
            ]
            assert m.positions_of(phi) == brute
            assert district_prefiltered_occurrences(m, phi) == brute


def test_coverage_threshold_small():
    # with a nontrivial group every value appears iff the act has room
    # for disjoint row and column supports
    for n, r in ((4, 2), (5, 2), (4, 3)):
        m = build_sandwich(Z2, n, r)
        all_values = set(wreath_elements(Z2, r))
        present = set(value_positions(m))
        assert (present == all_values) == (2 * r <= n)


def test_matrix_export_format():
    m = build_sandwich(Z2, 4, 2)
    text = matrix_to_text(m)
    lines = text.strip().splitlines()
    assert lines[0] == "sandwich n=4 r=2 group-order=2 lambdas=6 kernels=28"
    assert len(lines) == 1 + sum(1 for _ in m.nonzero_positions())
    assert all(line.startswith("lambda=") for line in lines[1:])
    i, l_idx = next(m.nonzero_positions())
    assert f"kernel={i}" in lines[1]


def test_matrix_export_pinned():
    pinned = {
        "Z2": "fea5a9db3ba3baf852a6037efb86cc25b551d3da616075d14287b26fd211e791",
        "S3": "8446df4b92e100037239342b7af72f30c5f35427ca38e1d3efe83e54b2b441c5",
    }
    for spec, digest in pinned.items():
        text = matrix_to_text(build_sandwich(make_group(spec), 4, 2))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_equal_entries_are_one_object():
    for spec in ("Z2", "S3", "Z3"):
        m = build_sandwich(make_group(spec), 4, 2)
        objects = set()
        for l_idx, lam in enumerate(m.lambdas):
            for i, th in enumerate(m.thetas):
                v = m.entries[l_idx][i]
                if v is None:
                    continue
                perm = tuple(th.targets[u - 1] for u in lam)
                assert v == WreathElem(2, perm, tuple(th.weights[u - 1] for u in lam))
                objects.add(id(v))
        assert len(objects) == len(value_positions(m))
        assert {id(v) for v in m.values} == objects and len(m.values) == len(objects)


def test_value_numbering_matches_value_positions():
    # one value numbering per matrix: values in text order, the id blocks
    # are the matrix, and the entries view is made only when read, never by
    # the text export
    for spec, n, r in (("Z2", 4, 2), ("S3", 4, 2), ("Z3", 5, 3), ("trivial", 6, 3), ("Z2", 5, 3)):
        m = build_sandwich(make_group(spec), n, r)
        matrix_to_text(m)
        assert "entries" not in vars(m)
        values, columns = m.values, dense_ids(m)
        assert values == sorted(value_positions(m), key=wreath_to_text)
        assert m.entries is m.entries
        for col_ids, col in zip(columns, m.entries):
            assert col_ids == [-1 if v is None else values.index(v) for v in col]
        assert all(m.positions_of(v) == ps for v, ps in value_positions(m).items())


def test_entries_view_matches_value_at():
    for spec, n, r in (("Z2", 4, 2), ("S3", 4, 2), ("Z3", 5, 3), ("trivial", 6, 3), ("Z2", 5, 4)):
        m = build_sandwich(make_group(spec), n, r)
        ids = dense_ids(m)
        for l_idx, column in enumerate(m.entries):
            assert len(column) == len(m.kernels)
            for i, v in enumerate(column):
                assert v == m.value_at(i, l_idx)
                assert (v is None) == (ids[l_idx][i] < 0)


def test_distinct_theta_rows_l_related_not_r_related():
    rows = kernel_list(Z2, 4, 2)
    a = theta(Z2, 4, 2, rows[0])
    b = theta(Z2, 4, 2, rows[1])
    assert green_test(a, b, "L")
    assert not green_test(a, b, "R")


def test_zero_pattern_is_transversality():
    # an entry is a group element exactly when the column picks one point
    # from each block of the row's partition
    for g, n, r in ((Z2, 4, 2), (T, 5, 3)):
        m = build_sandwich(g, n, r)
        for i, ki in enumerate(m.kernels):
            block_of = {}
            for b, block in enumerate(ki.partition):
                for k in block:
                    block_of[k] = b
            for l_idx, lam in enumerate(m.lambdas):
                hits = {block_of[u] for u in lam}
                assert (m.entries[l_idx][i] is not None) == (len(hits) == r)


def test_transversal_build_matches_per_cell_oracle():
    # the grid is filled from one cached id row per (perm, slots) pattern of
    # each partition's transversals; testing every (partition, column) cell
    # gives the same values and ids, also on table groups, at r = 1 and r = n
    cases = [(make_group(spec), n, r) for spec, n, r in WALK_CASES + [("Z3", 6, 1), ("Z2", 5, 5), ("S3", 5, 3)]]
    cases += [(group_from_text(KLEIN), 5, 3), (quaternion_group(), 5, 3)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        assert "thetas" not in vars(m) and "kernels" not in vars(m)
        assert (m.values, dense_ids(m)) == dense_sandwich_ids(m), (g, n, r)


def test_value_at_matches_the_per_cell_oracle_at_every_cell():
    # zeros included: a column outside a row's part_columns reads None
    cases = [(make_group(spec), n, r) for spec, n, r in WALK_CASES] + [(group_from_text(KLEIN), 5, 3)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        values, columns = dense_sandwich_ids(m)
        for l_idx, column in enumerate(columns):
            for i, x in enumerate(column):
                assert m.value_at(i, l_idx) == (values[x] if x >= 0 else None), (g, n, r, i, l_idx)
                assert m.id_at(i, l_idx) == (x if x >= 0 else None), (g, n, r, i, l_idx)


def test_one_shared_id_row_per_transversal_pattern():
    # a pattern is, per point of the column, its block and its index among the
    # partition's non-minima (None at a minimum); every (partition, column)
    # with one pattern reads one row object, of block entries, from part_rows,
    # also when reached through a partition number in column_blocks
    cases = [(make_group(spec), n, r) for spec, n, r in WALK_CASES] + [(group_from_text(KLEIN), 5, 3)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        patterns, rows = {}, set()
        for part, cols, id_rows in zip(m.part_start, m.part_columns, m.part_rows):
            block_of = {u: j for j, b in enumerate(part) for u in b}
            nonmins = sorted(u for b in part for u in b[1:])
            assert len(cols) == len(id_rows), (g, n, r, part)
            for l_idx, row in zip(cols, id_rows):
                key = tuple((block_of[u], nonmins.index(u) if u in nonmins else None) for u in m.lambdas[l_idx])
                assert patterns.setdefault(key, row) is row, (g, n, r, part, l_idx)
                assert len(row) == m.block
                rows.add(id(row))
        assert len(rows) == len(patterns), (g, n, r)
        reached = {id(m.part_rows[p][m.part_columns[p].index(l_idx)])
                   for l_idx, parts in enumerate(m.column_blocks) for p in parts}
        assert reached == rows, (g, n, r)


def test_column_blocks_hold_partition_numbers():
    # column l lists, ascending, the numbers of the partitions whose
    # part_columns hold it: bare ints, no second copy of the id rows
    cases = [(make_group(spec), n, r) for spec, n, r in WALK_CASES] + [(group_from_text(KLEIN), 5, 3)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        assert len(m.column_blocks) == len(m.lambdas), (g, n, r)
        for l_idx, parts in enumerate(m.column_blocks):
            assert parts == [p for p, cols in enumerate(m.part_columns) if l_idx in cols], (g, n, r, l_idx)
            assert all(type(p) is int for p in parts), (g, n, r, l_idx)


def test_corrupt_fill_trips_the_build_checks(monkeypatch):
    # a getter that reads each point's weight one slot over puts nonzero
    # weights in the district column; a fill that skips all partitions but
    # the first leaves columns entirely zero
    n, r = 5, 3
    itemgetter, set_partitions = rees.itemgetter, rees.set_partitions
    monkeypatch.setattr(rees, "itemgetter", lambda *slots: itemgetter(*[(s + 1) % (n - r + 1) for s in slots]))
    with pytest.raises(AssertionError, match="district column does not give the identity"):
        build_sandwich(Z2, n, r)
    monkeypatch.undo()
    monkeypatch.setattr(rees, "set_partitions", lambda n, r: list(set_partitions(n, r))[:1])
    with pytest.raises(AssertionError, match="image column .* is entirely zero"):
        build_sandwich(Z2, n, r)


def test_key_classes_match_the_wreath_product(monkeypatch):
    # every code the column-pair walk and the gr R3 kernel look up gets the
    # class of its key y * inv(x) taken as a WreathElem product, classes
    # numbered in order of first sight, also over non-abelian groups
    made = []

    class Recorded(KeyClasses):
        def __init__(self, m):
            super().__init__(m)
            made.append(self)

    monkeypatch.setattr(rees, "KeyClasses", Recorded)
    monkeypatch.setattr(presentation, "KeyClasses", Recorded)
    cases = [(make_group(spec), n, r) for n, spec, r, _ in MAIN_CASES]
    cases += [(make_group("S3"), 4, 2), (make_group("Z3"), 5, 3), (group_from_text(KLEIN), 5, 3)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        made.clear()
        list(column_pairs(m))
        list(gr_relators(m))
        assert len(made) == 2 and all(made), (g.order, n, r)
        for classes in made:
            assert dict(classes) == wreath_key_classes(m, list(classes)), (g.order, n, r)


def test_column_pairs_match_dense_zip():
    # the walk reads the row blocks nonzero in both columns and counts int pair codes;
    # zipping whole columns gives the same pairs per column pair, row counts,
    # first-row order and class-first pairs, also where one value makes the
    # code base smallest (trivial r = 1; r = n has a single column)
    one_value = 0
    for spec, n, r in WALK_CASES:
        m = build_sandwich(make_group(spec), n, r)
        walked = list(column_pairs(m))
        assert walked == dense_column_pairs(m), (spec, n, r)
        one_value += len(m.values) == 1 and len(walked) > 0
    assert one_value


def test_column_pairs_by_blocks_match_the_rowwise_walk():
    # the rows nonzero in two columns are read as the row blocks of the
    # partitions holding both; walking column l's nonzero rows and skipping
    # the zeros of column m gives the same lists, in the same order
    cases = [(make_group(spec), n, r) for n, spec, r, _ in MAIN_CASES]
    cases += [(make_group(spec), n, r) for spec, n, r in (("S3", 4, 2), ("Z3", 5, 3), ("trivial", 8, 5), ("Z2", 7, 2),
                                                          ("Z3", 5, 1), ("Z2", 4, 4))]
    cases.append((group_from_text(KLEIN), 5, 3))
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        assert list(column_pairs(m)) == rowwise_column_pairs(m), (g.order, n, r)


def test_nonzero_positions_match_dense_scan():
    for spec, n, r in WALK_CASES:
        m = build_sandwich(make_group(spec), n, r)
        assert list(m.nonzero_positions()) == dense_nonzero_positions(m), (spec, n, r)


def test_part_columns_and_first_rows_match_dense_scans():
    # each row's nonzero columns are its partition's part_columns, part_start
    # lists each partition once, in kernel order, at the first row of its
    # block, and a column's first-row index agrees with a scan from row 0,
    # -1 when absent
    for spec, n, r in WALK_CASES:
        m = build_sandwich(make_group(spec), n, r)
        assert len(m.part_columns) * m.block == len(m.kernels), (spec, n, r)
        firsts = {}
        for i, ki in enumerate(m.kernels):
            firsts.setdefault(ki.partition, i)
        assert list(m.part_start.items()) == list(firsts.items()), (spec, n, r)
        assert all(i % m.block == 0 for i in m.part_start.values()), (spec, n, r)
        ids = dense_ids(m)
        for i in range(len(m.kernels)):
            dense = [l_idx for l_idx, col in enumerate(ids) if col[i] >= 0]
            assert m.part_columns[i // m.block] == dense, (spec, n, r, i)
        for l_idx, (col, parts) in enumerate(zip(ids, m.column_blocks)):
            starts = [p * m.block for p in parts]
            assert starts == [i for i in m.part_start.values() if col[i] >= 0], (spec, n, r, l_idx)
            rows = [m.part_rows[p][m.part_columns[p].index(l_idx)] for p in parts]
            for x in range(-1, len(m.values) + 1):
                first = m.first_block(l_idx, x)
                assert first == next((k for k, row in enumerate(rows) if x in row), -1), (spec, n, r, l_idx, x)
                # the first block holding value x holds its first row in the column; no block holds the zero
                first_row = starts[first] + rows[first].index(x) if first >= 0 else -1
                assert first_row == (col.index(x) if 0 <= x and x in col else -1), (spec, n, r, l_idx, x)
