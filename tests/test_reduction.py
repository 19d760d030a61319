import random
from collections import Counter, defaultdict

import pytest

from gact import (
    NotDecomposable,
    WitnessNotFound,
    WreathElem,
    build_gr_presentation,
    build_quotient_presentation,
    build_sandwich,
    connectivity,
    cyclic_group,
    decompose,
    eliminate_generators,
    find_singular_witness,
    is_simple_form,
    parse_wreath,
    rising_point,
    schreier_build,
    simple_form_elem,
    simplify_presentation,
    todd_coxeter,
    trivial_group,
    value_component_counts,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)

from helpers import (
    def81_rising_point,
    dense_ids,
    scan_singular_witness,
    unindexed_singular_witness,
    value_positions,
    wreath_elements,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
T = trivial_group()


# -- connectivity ----------------------------------------------------------------

def test_connectivity_single_components_when_roomy():
    m = build_sandwich(Z2, 5, 2)
    counts = value_component_counts(connectivity(m))
    for value, (npos, ncomp) in counts.items():
        assert ncomp == 1, value


def test_connectivity_counterexample():
    m = build_sandwich(Z2, 4, 2)
    counts = value_component_counts(connectivity(m))
    diag = parse_wreath(Z2, 2, "1:1;2:1")
    assert counts[diag] == (2, 2)


def test_connectivity_singleton_value():
    m = build_sandwich(Z2, 6, 4)
    phi = parse_wreath(Z2, 4, "3:0;2:1;4:0;1:0")
    counts = value_component_counts(connectivity(m))
    assert counts[phi] == (1, 1)


def test_connectivity_components_carry_one_value():
    m = build_sandwich(Z2, 4, 2)
    pg = connectivity(m)
    for root, members in pg.components().items():
        values = {m.value_at(*p) for p in members}
        assert len(values) == 1
        assert root == min(members)


# -- simple forms and rising point ---------------------------------------------------

def test_is_simple_form_examples():
    assert is_simple_form(wreath_identity(3)) == (1, 0, 0)
    insertion = parse_wreath(Z2, 3, "1:0;2:1;3:0")
    assert is_simple_form(insertion) == (2, 0, 1)
    cycle = parse_wreath(Z2, 4, "1:0;3:0;4:0;2:0")
    assert is_simple_form(cycle) == (2, 2, 0)
    twisted = parse_wreath(Z2, 4, "2:0;3:0;1:1;4:0")
    assert is_simple_form(twisted) == (1, 2, 1)
    reversal = parse_wreath(T, 3, "3:0;2:0;1:0")
    assert is_simple_form(reversal) is None
    shifted_weight = parse_wreath(Z2, 3, "2:1;3:0;1:0")
    assert is_simple_form(shifted_weight) is None


def test_simple_form_elem_round_trip():
    for r in range(1, 5):
        for k in range(1, r + 1):
            for m_len in range(0, r - k + 1):
                for a in range(3):
                    if m_len == 0 and a == 0:
                        continue
                    phi = simple_form_elem(r, k, m_len, a)
                    assert is_simple_form(phi) == (k, m_len, a)


def test_rising_point_identity_and_insertions():
    assert rising_point(wreath_identity(4)) == 1
    assert rising_point(parse_wreath(Z2, 4, "1:1;2:0;3:0;4:0")) == 2  # twist at slot 1
    assert rising_point(parse_wreath(Z2, 4, "2:0;3:0;1:1;4:0")) == 2  # wrapped cycle
    assert rising_point(parse_wreath(Z2, 4, "1:0;2:0;3:0;4:1")) == 5  # twisted top


def test_rising_point_worked_example():
    phi = parse_wreath(Z2, 4, "3:0;2:1;4:0;1:0")
    assert rising_point(phi) == 3


def test_rising_point_matches_quantified_oracle():
    for g in (T, Z2, Z3):
        for r in range(1, 5):
            for phi in wreath_elements(g, r):
                assert rising_point(phi) == def81_rising_point(phi)


def test_rising_point_one_only_identity():
    for phi in wreath_elements(Z2, 3):
        assert (rising_point(phi) == 1) == (phi == wreath_identity(3))


# -- decomposition ---------------------------------------------------------------------

def test_decompose_top_twist_case():
    phi = parse_wreath(Z2, 3, "1:0;2:0;3:1")
    beta, gamma = decompose(Z2, phi)
    assert gamma == phi
    assert beta == wreath_identity(3)
    assert rising_point(beta) == 1


def test_decompose_worked_example():
    phi = parse_wreath(Z2, 4, "3:0;2:1;4:0;1:0")
    beta, gamma = decompose(Z2, phi)
    assert gamma == parse_wreath(Z2, 4, "1:0;3:0;2:1;4:0")
    assert beta == parse_wreath(Z2, 4, "2:0;3:0;4:0;1:0")
    assert rising_point(beta) == 2
    assert wreath_mul(Z2, beta, gamma) == phi


def test_decompose_rejects_low_rising_point():
    with pytest.raises(NotDecomposable):
        decompose(Z2, wreath_identity(3))
    with pytest.raises(NotDecomposable):
        decompose(Z2, parse_wreath(Z2, 3, "1:1;2:0;3:0"))


def test_decompose_exhaustive_small_ranks():
    for g in (T, Z2, Z3):
        for r in range(1, 4):
            for phi in wreath_elements(g, r):
                if rising_point(phi) < 3:
                    continue
                beta, gamma = decompose(g, phi)
                assert wreath_mul(g, beta, gamma) == phi
                assert is_simple_form(gamma) is not None
                assert rising_point(beta) < rising_point(phi)


def test_decompose_random_rank_four():
    rng = random.Random(8)
    for _ in range(2000):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        phi = WreathElem(4, tuple(perm), tuple(rng.randrange(3) for _ in range(4)))
        if rising_point(phi) < 3:
            continue
        beta, gamma = decompose(Z3, phi)
        assert wreath_mul(Z3, beta, gamma) == phi
        assert is_simple_form(gamma) is not None
        assert rising_point(beta) < rising_point(phi)


# -- witness search ---------------------------------------------------------------------

def test_witness_for_identity_quadruple():
    m = build_sandwich(Z2, 4, 2)
    e = wreath_identity(2)
    k, l_idx = value_positions(m)[e][0]
    found = find_singular_witness(m, e, e, e, e, k, l_idx)
    assert found is not None
    i, k, l_idx, m_idx = found
    assert m.entries[l_idx][i] == e
    assert m.entries[m_idx][k] == e


def test_witness_for_simple_split():
    # a window cycle with closing twist splits as insertion times cycle
    m = build_sandwich(Z2, 4, 2)
    alpha = parse_wreath(Z2, 2, "2:0;1:1")
    gamma = parse_wreath(Z2, 2, "2:0;1:0")
    beta = parse_wreath(Z2, 2, "1:0;2:1")
    assert wreath_mul(Z2, beta, gamma) == alpha
    e = wreath_identity(2)
    found = [
        w for k, l_idx in value_positions(m)[alpha]
        if (w := find_singular_witness(m, beta, e, alpha, gamma, k, l_idx))
    ]
    assert found
    for i, k, l_idx, m_idx in found:
        assert m.entries[l_idx][i] == beta
        assert m.entries[m_idx][i] == e
        assert m.entries[l_idx][k] == alpha
        assert m.entries[m_idx][k] == gamma
    # psi must sit at the anchor position, or there is nothing to search
    k, l_idx = value_positions(m)[e][0]
    assert find_singular_witness(m, beta, e, alpha, gamma, k, l_idx) is None


def test_witness_precondition():
    m = build_sandwich(Z2, 4, 2)
    e = wreath_identity(2)
    tw = parse_wreath(Z2, 2, "1:1;2:0")
    with pytest.raises(ValueError):
        find_singular_witness(m, e, e, e, tw, 0, 0)


def test_simplify_checks_each_merged_square_once(monkeypatch):
    # every root of a merged value is searched with the same quadruple
    # (remainder, e, value, simple factor): its square condition is tested
    # once, and a quadruple that fails it raises before any search
    from gact import make_group, reduction

    m = build_sandwich(make_group("Z2"), 5, 3)
    e = wreath_identity(3)
    checks, log = [], []
    check = reduction._check_square
    monkeypatch.setattr(reduction, "_check_square", lambda g, *quad: checks.append(quad) or check(g, *quad))
    simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
    assert len(log) > len(checks) == len({w.value for w in log})
    assert checks == list(dict.fromkeys((w.remainder, e, w.value, w.simple_factor) for w in log))

    def no_search(*args, **kwargs):
        raise AssertionError("witness search ran before the square condition was tested")

    monkeypatch.setattr(reduction, "decompose", lambda g, v: (e, e))
    monkeypatch.setattr(reduction, "find_singular_witness", no_search)
    with pytest.raises(ValueError, match="square condition"):
        simplify_presentation(build_quotient_presentation(m), m, connectivity(m))


# -- simplification ----------------------------------------------------------------------

def simplified(g, n, r, log=None):
    m = build_sandwich(g, n, r)
    p = build_gr_presentation(m, schreier_build(g, n, r))
    pg = connectivity(m)
    return p, simplify_presentation(build_quotient_presentation(m), m, pg, log)


def test_simplify_collapses_to_value_generators():
    _, q = simplified(T, 5, 2)
    assert eliminate_generators(q)[0].generators == ["f[2:0;1:0]"]


def test_simplify_records_witnesses_for_split_values():
    log = []
    _, q = simplified(Z2, 4, 2, log)
    diag = parse_wreath(Z2, 2, "1:1;2:1")
    merged = [w for w in log if w.value == diag]
    assert len(merged) == 2  # one certificate per component
    for w in merged:
        i, k, l_idx, m_idx = w.square
        m = build_sandwich(Z2, 4, 2)
        assert m.entries[l_idx][k] == diag
        assert m.entries[m_idx][i] == wreath_identity(2)


def test_simplify_preserves_enumerated_order():
    for g, n, r in ((T, 4, 2), (Z2, 4, 2), (Z2, 4, 1), (T, 5, 3), (T, 6, 4)):
        p, q = simplified(g, n, r)
        assert todd_coxeter(p).order == todd_coxeter(q).order


def test_simplify_surfaces_missing_witness():
    # an unclosed graph leaves low-rising-point values split, and no
    # decomposition square can certify those: the failure must surface
    from gact import PositionGraph

    m = build_sandwich(Z2, 4, 2)
    unclosed = PositionGraph(m)
    assert unclosed.roots() == list(m.nonzero_positions())
    with pytest.raises(WitnessNotFound):
        simplify_presentation(build_quotient_presentation(m), m, unclosed)
    # the position-keyed presentation is refused outright
    p = build_gr_presentation(m, schreier_build(Z2, 4, 2))
    with pytest.raises(ValueError):
        simplify_presentation(p, m, connectivity(m))


def test_rank_top_slices_need_no_merging():
    # one free point is enough to connect every repeated value
    for g, n in ((Z2, 5), (T, 5), (Z3, 4)):
        m = build_sandwich(g, n, n - 1)
        counts = value_component_counts(connectivity(m))
        assert all(c == 1 for _, c in counts.values())


def test_equal_values_equal_generators_in_presented_group():
    # consistency at desk scale: any two positions carrying the same value
    # name the same element of the group presented before simplification
    m = build_sandwich(Z2, 4, 2)
    p = build_gr_presentation(m, schreier_build(Z2, 4, 2))
    table = todd_coxeter(p)
    gen = {pos: gi + 1 for gi, pos in enumerate(p.gen_keys)}
    from gact import word_equal

    for positions in value_positions(m).values():
        first = positions[0]
        for other in positions[1:]:
            assert word_equal(table, (gen[first],), (gen[other],))


def mutually_bad(district_a, district_b):
    # a point is mutually bad when it is a block minimum of both rows but
    # at different slots, so no single row can agree with both there
    slots_a = {u: m for m, u in enumerate(district_a)}
    slots_b = {u: m for m, u in enumerate(district_b)}
    return sorted(
        u for u, ma in slots_a.items() if u in slots_b and slots_b[u] != ma
    )


def test_mutually_bad_points_worked_example():
    assert mutually_bad((1, 3, 4, 6), (1, 4, 6, 7)) == [4, 6]
    assert mutually_bad((1, 2, 3), (1, 2, 3)) == []
    assert mutually_bad((1, 2, 5), (1, 3, 5)) == []


def test_same_row_and_column_positions_are_linked():
    # the two link kinds of the closure, checked against raw equalities
    m = build_sandwich(Z2, 4, 2)
    component_of = {
        pos: root for root, members in connectivity(m).components().items() for pos in members
    }
    for positions in value_positions(m).values():
        for a in positions:
            for b in positions:
                if a != b and (a[0] == b[0] or a[1] == b[1]):
                    assert component_of[a] == component_of[b]


def test_connectivity_matches_bfs_closure():
    # the components are exactly the closure of same-row and same-column
    # equal-value links, found here by breadth-first search; the roots and
    # the per-value counts are read off the same closure
    from gact import make_group

    cases = (("Z2", 4, 2), ("S3", 4, 2), ("Z3", 5, 3), ("trivial", 6, 3), ("Z2", 6, 3), ("trivial", 8, 5))
    for spec, n, r in cases:
        m = build_sandwich(make_group(spec), n, r)
        value = {pos: m.entries[pos[1]][pos[0]] for pos in m.nonzero_positions()}
        lines = defaultdict(list)  # ("row", i) and ("col", l) -> positions on that line
        for pos in value:
            lines["row", pos[0]].append(pos)
            lines["col", pos[1]].append(pos)
        expected = {}
        seen = set()
        for start in value:
            if start in seen:
                continue
            comp, queue = [], [start]
            seen.add(start)
            while queue:
                a = queue.pop()
                comp.append(a)
                for b in lines["row", a[0]] + lines["col", a[1]]:
                    if b not in seen and value[b] == value[a]:
                        seen.add(b)
                        queue.append(b)
            expected[min(comp)] = sorted(comp)
        counts = dict.fromkeys(m.values, (0, 0))
        for root, comp in expected.items():
            npos, ncomp = counts[value[root]]
            counts[value[root]] = (npos + len(comp), ncomp + 1)
        pg = connectivity(m)
        assert pg.components() == expected, (spec, n, r)
        assert pg.roots() == sorted(expected), (spec, n, r)
        assert value_component_counts(pg) == counts, (spec, n, r)


def test_full_pipeline_on_extra_instances():
    # beyond the standard grid: a nonabelian weight group, a larger act,
    # and a split-heavy slice
    from math import factorial

    from gact import make_group
    from gact.cli import DEFAULT_CAPS
    from gact.verify import run_verify

    for n, spec, r in ((4, "S3", 2), (5, "Z3", 3), (7, "trivial", 5), (6, "Z2", 4)):
        g = make_group(spec)
        report = run_verify(g, n, r, DEFAULT_CAPS)
        assert report["ok"]
        assert report["computed_order"] == g.order ** r * factorial(r)


def test_merge_witnesses_certify_their_squares():
    # replay every recorded certificate against the matrix entries
    from gact import build_sandwich, make_group

    g = make_group("S3")
    m = build_sandwich(g, 4, 2)
    log = []
    simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
    assert log
    for w in log:
        t_idx, j_idx, l_idx, mu_idx = w.square
        assert m.entries[l_idx][t_idx] == w.remainder
        assert m.entries[mu_idx][t_idx] == wreath_identity(m.r)
        assert m.entries[l_idx][j_idx] == w.value
        assert m.entries[mu_idx][j_idx] == w.simple_factor
        assert (j_idx, l_idx) == w.component
        assert wreath_mul(g, w.remainder, w.simple_factor) == w.value


def test_witness_search_matches_entry_scan():
    # the id-based search finds the square the entries-based scan finds first,
    # at every merge root and at every other position of each merged value
    from gact import make_group

    for spec, n, r in (("S3", 4, 2), ("Z2", 5, 3), ("Z3", 5, 3), ("Z4", 5, 3)):
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        log = []
        simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
        assert log
        e = wreath_identity(r)
        vp = value_positions(m)
        for w in log:
            args = (m, w.remainder, e, w.value, w.simple_factor)
            assert scan_singular_witness(*args, *w.component) == w.square
            assert find_singular_witness(*args, *w.component) == w.square
            for pos in vp[w.value]:
                assert find_singular_witness(*args, *pos) == scan_singular_witness(*args, *pos)
            # at the merge root, every phi held by two or more rows of its column
            # with phi2 = e or gamma, so the row scan also passes rows that close
            # no square, finds some squares past them and runs off the column
            held = Counter(m.entries[w.component[1]])
            for phi in (v for v in m.values if held[v] > 1):
                for phi2 in (e, w.simple_factor):
                    sigma = wreath_mul(g, phi2, wreath_mul(g, wreath_inv(g, phi), w.value))
                    quad = (m, phi, phi2, w.value, sigma, *w.component)
                    assert find_singular_witness(*quad) == scan_singular_witness(*quad)


# sha256 of repr([w.square for w in log]) and the number of merges, recorded
# while the rows holding phi were found by scanning column l from row 0
PINNED_WITNESS_SQUARES = {
    ("S3", 4, 2): (50, "d47e80d1856a1df8210d8928c95f2bce6dc19998fd026f57d3c33a1fc5080f13"),
    ("Z3", 5, 3): (40, "3d71605638efe06bbce1e818ca753b74556caa9318fcc413e0a362b355335b92"),
    ("Z2", 6, 3): (24, "bc0b0f4d4661f718f5b369c65c5b09552bf52bc6b9295bc45457f21e0f488c8b"),
    ("S3", 5, 3): (220, "f5a8d77148e87e85977db0f112644c24568977d4d111946bf37568e245243afa"),
    ("trivial", 8, 5): (23, "4beb9b017a20081b3ead0fc65c7ed5871e92a4980ed46e724ee03a97f2494556"),
}


@pytest.mark.parametrize("spec, n, r", sorted(PINNED_WITNESS_SQUARES))
def test_witness_squares_pinned(spec, n, r):
    import hashlib

    from gact import make_group

    m = build_sandwich(make_group(spec), n, r)
    log = []
    simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
    digest = hashlib.sha256(repr([w.square for w in log]).encode()).hexdigest()
    assert (len(log), digest) == PINNED_WITNESS_SQUARES[spec, n, r]


def test_indexed_witness_search_matches_unindexed_scan():
    # at every position of every merged value, for every value phi and phi2 in
    # {identity, simple factor}: phi absent from column l, phi whose first row
    # closes no square but a later one does, and phi whose rows close none
    from gact import make_group

    for spec, n, r in (("S3", 4, 2), ("Z2", 5, 3)):
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        log = []
        simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
        e = wreath_identity(r)
        seen, ids = Counter(), dense_ids(m)
        for w in {w.value: w for w in log}.values():
            for k_idx, l_idx in value_positions(m)[w.value]:
                column, parts = ids[l_idx], m.column_blocks[l_idx]
                rows = [m.part_rows[p][m.part_columns[p].index(l_idx)] for p in parts]
                for phi in m.values:
                    for phi2 in (e, w.simple_factor):
                        sigma = wreath_mul(g, phi2, wreath_mul(g, wreath_inv(g, phi), w.value))
                        quad = (m, phi, phi2, w.value, sigma, k_idx, l_idx)
                        found = find_singular_witness(*quad)
                        assert found == unindexed_singular_witness(*quad), (spec, quad[1:])
                        x = m.value_id[phi]
                        k = m.first_block(l_idx, x)  # the column's first block holding x, -1 if none
                        assert k == next((k for k, row in enumerate(rows) if x in row), -1)
                        first = parts[k] * m.block + rows[k].index(x) if k >= 0 else -1
                        assert first == (column.index(x) if x in column else -1)
                        if first < 0:
                            seen["absent"] += 1
                        elif found is None:
                            seen["none closes"] += 1
                        elif found[0] > first:
                            seen["first row fails"] += 1
                        else:
                            seen["first row closes"] += 1
        assert len(seen) == 4 and min(seen.values()) > 0, (spec, seen)


def test_simplify_output_pinned():
    # the Tietze-eliminated simplified presentation and the witness log
    # (value, component, square) are pinned byte for byte, recorded while
    # simplification still erased the identity and renumbered the values
    import hashlib

    from gact import make_group, presentation_to_text
    from gact.endo import wreath_to_text

    pinned = {
        ("S3", 4, 2): "8873292752a278f46b108bcda74f7514bf95660b698fdddce360e8a0576da5e2",
        ("Z2", 6, 3): "ab19be0324f041c0acf129b3635186aa742648c7227f994bc52303d5e54fb4d7",
    }
    for (spec, n, r), digest in pinned.items():
        m = build_sandwich(make_group(spec), n, r)
        log = []
        q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m), log)
        text = presentation_to_text(eliminate_generators(q)[0]) + "".join(
            f"{wreath_to_text(w.value)} {w.component} {w.square}\n" for w in log
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (spec, n, r)
