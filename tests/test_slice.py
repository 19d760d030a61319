"""The slice route of `verify` at n > r+2, against direct enumeration at n."""

import contextlib
import io
from math import factorial

import pytest

from gact import build_quotient_presentation, build_sandwich, cli, connectivity, make_group, reduction, rees
from gact import group_from_text, simple_form_elem, simplify_presentation, square_condition, wreath_identity, wreath_inv
from gact.endo import WreathElem, wreath_order
from gact.presentation import close_generators, evaluate_word
from gact.rees import KernelIndex, extended_rows
from gact.verify import enumerate_order, run_verify

from helpers import KLEIN, MAIN_CASES, dense_ids, evaluate_word_by_inversion, subgroup_order

# every desk main case above n = r+2, trivial 7 5 (at n = r+2, where
# enumerate_order alone decides), and five more instances, trivial 8 5 the
# benchmark's slowest
ROUTE_CASES = sorted({(spec, n, r) for n, spec, r, _ in MAIN_CASES if n > r + 2} | {
    ("trivial", 7, 5), ("Z2", 6, 3), ("Z4", 5, 2), ("Z3", 5, 1), ("S3", 5, 2), ("trivial", 8, 5),
})
CAPS = cli.DEFAULT_CAPS


def verify(spec, n, r):
    return run_verify(make_group(spec), n, r, CAPS)


@pytest.mark.parametrize("spec, n, r", ROUTE_CASES)
def test_slice_route_matches_direct_enumeration(spec, n, r):
    g = make_group(spec)
    report = run_verify(g, n, r, CAPS)
    order, log = enumerate_order(build_sandwich(g, n, r), CAPS)
    assert report["computed_order"] == order == g.order ** r * factorial(r)
    assert report["merges"] == len(log)
    assert report["ok"] is True
    assert report.get("method") == ("slice" if n > r + 2 else None)


@pytest.mark.parametrize("spec, n, r", ROUTE_CASES)
def test_every_simplified_relator_maps_to_one(spec, n, r):
    # the lower bound for the relators the route does not walk: the whole
    # simplified presentation at n dies under f[v] -> inv(v)
    g = make_group(spec)
    m = build_sandwich(g, n, r)
    q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m), [])
    images = [wreath_inv(g, v) for v in q.gen_keys]
    for word in q.relators:
        assert evaluate_word(g, images, q.gen_keys, r, word) == wreath_identity(r), (spec, n, r, word)


def test_evaluate_word_reads_the_inverse_table():
    # on the slice route f[v] goes to m.inverses[x] and its inverse to m.values[x]:
    # reading both tables gives the value of inverting each negative letter on
    # the spot, on every simplified relator and on its tail past the first letter
    for spec, n, r in (("S3", 6, 3), ("Z2", 6, 3)):
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m), [])
        assert q.gen_keys == m.values
        for word in q.relators:
            for w in (word, word[1:]):
                assert (evaluate_word(g, m.inverses, m.values, r, w)
                        == evaluate_word_by_inversion(g, m.inverses, r, w)), (spec, n, r, w)


def test_route_counters_pinned():
    # (merges, pairs_walked of the column pairs, closure_relators) recorded when the route was added
    pinned = {("Z2", 6, 3): (24, 37, 31), ("trivial", 8, 5): (23, 760, 204)}
    for (spec, n, r), want in pinned.items():
        report = verify(spec, n, r)
        assert (report["method"], report["slice_n"]) == ("slice", r + 2)
        assert (report["merges"], report["pairs_walked"], report["closure_relators"]) == want


def test_extended_rows_are_the_rows_with_the_new_points_in_block_one():
    for spec, n, r in (("Z2", 6, 3), ("S3", 5, 2), ("trivial", 8, 5), ("Z3", 5, 1), ("Z2", 5, 3),
                          ("S3", 6, 2), ("Z2", 7, 2)):
        g = make_group(spec)
        s, m = build_sandwich(g, r + 2, r), build_sandwich(g, n, r)
        rows = extended_rows(s, m)
        tail = tuple(range(r + 3, n + 1))
        for ki, row in zip(s.kernels, rows):
            first, *rest = ki.partition
            assert m.kernels[row] == KernelIndex((first + tail, *rest), ki.weightvec + (0,) * len(tail))
        for lam, col in zip(s.lambdas, dense_ids(s)):
            l_idx = m.lambda_pos[lam]
            assert [s.values[x] if x >= 0 else None for x in col] == [m.value_at(i, l_idx) for i in rows]


def test_close_generators_solves_one_unknown_at_a_time():
    # 3 1' 2' waits on 2 and 3; 4 4 1' has 4 twice and solves nothing; 2 1'
    # solves 2, then the waiting word solves 3, and 4 3' solves 4
    words = [(3, -1, -2), (4, 4, -1), (2, -1), (4, -3)]
    known = {1}
    assert close_generators(known, 4, iter(words)) is True and known == {1, 2, 3, 4}
    known = {1}
    assert close_generators(known, 4, iter(words[:3])) is False and known == {1, 2, 3}
    # nothing is read once every generator is known
    read = []
    assert close_generators({1, 2}, 2, (read.append(w) or w for w in words)) is True and read == []


def test_subgroup_order_in_the_wreath_group():
    g = make_group("Z2")
    swap = WreathElem(2, (2, 1), (0, 0))
    twist = WreathElem(2, (1, 2), (1, 0))
    assert subgroup_order(g, [swap], 2, 8) == 2
    assert subgroup_order(g, [swap, twist], 2, 8) == 8
    assert subgroup_order(g, [swap, twist], 2, 5) == 5  # stops at the limit
    assert subgroup_order(g, [], 2, 8) == 1


def standard_generators(g, r):
    """W's adjacent transpositions and weight insertions, as `verify.slice_order` looks them up."""
    return [simple_form_elem(r, k, 1, 0) for k in range(1, r)] + [
        simple_form_elem(r, k, 0, a) for k in range(1, r + 1) for a in range(1, g.order)]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", ["trivial", "Z2", "Z3", "S3", "klein"])
def test_standard_generators_generate_the_wreath_group(spec, r):
    g = group_from_text(KLEIN) if spec == "klein" else make_group(spec)
    gens = standard_generators(g, r)
    assert {wreath_inv(g, x) for x in gens} == set(gens)  # closed under inverses
    size = g.order ** r * factorial(r)
    assert subgroup_order(g, gens, r, size + 1) == size


@pytest.mark.parametrize("spec, r", sorted({(spec, r) for _, spec, r, _ in MAIN_CASES}))
def test_standard_generators_are_values(spec, r):
    g = make_group(spec)
    for n in (r + 1, r + 2, r + 3):
        m = build_sandwich(g, n, r)
        assert all(x in m.value_id for x in standard_generators(g, r)), (spec, n, r)


@pytest.mark.parametrize("spec, n, r", [("S3", 4, 2), ("Z3", 5, 3), ("Z2", 5, 1)])
def test_wreath_order_is_the_cyclic_subgroup_order(spec, n, r):
    g = make_group(spec)
    bound = g.order ** r * factorial(r)
    for v in build_sandwich(g, n, r).values:
        assert wreath_order(g, v) == subgroup_order(g, [v], r, bound + 1), v


# -- mutations: each must fall back to enumeration at n, or fail -----------------

def test_wrong_merge_relator_fails_the_lower_bound(monkeypatch):
    real = reduction.simplify_presentation
    calls = []

    def wrong_gamma(p, m, pg, log):
        q = real(p, m, pg, log)
        if not calls:  # the route's call at n: retarget the first merge's gamma
            word = q.relators[0]
            q.relators[0] = word[:-1] + (-(abs(word[-1]) % len(q.generators) + 1),)
        calls.append(m.n)
        return q

    monkeypatch.setattr(reduction, "simplify_presentation", wrong_gamma)
    report = verify("Z2", 6, 3)
    assert calls == [6, 5, 6]  # the route at n, the slice, the fallback at n
    assert (report["method"], report["computed_order"], report["ok"]) == ("enumerate", 48, True)
    assert report["pairs_walked"] == 0


def test_perturbed_submatrix_fails_the_extension_check(monkeypatch):
    real = rees.build_sandwich

    def perturbed(g, n, r, max_entries):
        m = real(g, n, r, max_entries)
        if n == 6:  # slice row 0, slice column 1, at n
            s = real(g, r + 2, r, max_entries)
            l_idx, (p, off) = m.lambda_pos[s.lambdas[1]], divmod(extended_rows(s, m)[0], m.block)
            # the id row is shared by every cell of its pattern: swap in a perturbed
            # copy, in part_rows, the one place that holds id rows
            k, start = m.part_columns[p].index(l_idx), p * m.block
            ids = m.part_rows[p][k] = list(m.part_rows[p][k])
            ids[off] = (ids[off] + 1) % len(m.values)
            # one cell changed, in the dense view and in value_at alike
            before = real(g, n, r, max_entries).entries
            assert sum(v != w for a, b in zip(before, m.entries) for v, w in zip(a, b)) == 1
            assert m.value_at(start + off, l_idx) == m.entries[l_idx][start + off] != s.value_at(0, 1)
        return m

    monkeypatch.setattr(rees, "build_sandwich", perturbed)
    report = verify("Z2", 6, 3)
    assert (report["method"], report["computed_order"], report["ok"]) == ("enumerate", 48, True)


def test_stalled_closure_falls_back(monkeypatch):
    monkeypatch.setattr("gact.verify.column_pairs", lambda m: iter(()))
    report = verify("Z2", 6, 3)
    assert (report["method"], report["computed_order"], report["ok"]) == ("enumerate", 48, True)
    assert (report["pairs_walked"], report["closure_relators"]) == (0, 8)  # the 8 merge relators alone


def test_every_other_failed_check_falls_back(monkeypatch):
    real_enumerate, real_pairs, real_build = enumerate_order, rees.column_pairs, rees.build_sandwich

    def wrong_slice_order(m, caps):
        order, log = real_enumerate(m, caps)
        return (order // 2 if m.n == 5 else order), log

    def nonsingular_slice_square(m, caps):
        order, log = real_enumerate(m, caps)
        if m.n == 5:  # swap the first square's row k for one closing no singular square
            i, _, l, mu = log[0].square
            ids = dense_ids(m)
            k = next(k for k in range(len(m.kernels)) if ids[l][k] >= 0 and ids[mu][k] >= 0
                     and not square_condition(m, i, k, l, mu))
            log[0].square = (i, k, l, mu)
        return order, log

    def bad_walked_relator(m):  # the first walked word's x + 1 -> a value other than x: it maps to 1 only at x
        walk = real_pairs(m)
        for pairs in walk:
            k = next((k for k, (x, _, _, x0, _) in enumerate(pairs) if x != x0), None)
            if k is not None:  # the first pair that gives a word
                x, y, rows, x0, y0 = pairs[k]
                assert (x + 1) % 4 != x0  # the word is still given
                pairs[k] = ((x + 1) % 4, y, rows, x0, y0)
                yield pairs
                break
            yield pairs
        yield from walk

    class Hiding(dict):  # the value ids at n, with one weight insertion missing from the membership test
        def __contains__(self, v):
            return v != simple_form_elem(3, 3, 0, 1) and super().__contains__(v)

    def missing_generator(g, n, r, max_entries):
        m = real_build(g, n, r, max_entries)
        if n == 6:
            m.value_id = Hiding(m.value_id)
        return m

    for target, patch in (("gact.verify.enumerate_order", wrong_slice_order),
                          ("gact.verify.enumerate_order", nonsingular_slice_square),
                          ("gact.verify.column_pairs", bad_walked_relator),
                          ("gact.rees.build_sandwich", missing_generator)):
        with monkeypatch.context() as mp:
            mp.setattr(target, patch)
            report = verify("Z2", 6, 3)
        assert (report["method"], report["computed_order"], report["ok"]) == ("enumerate", 48, True), patch


def test_caps_still_fire_on_the_route():
    # the slice's enumeration, and the sandwich at n
    for flag, cap, says in (("--max-cosets", "5", "capped at 5 cosets"), ("--max-entries", "3", "cap 3")):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--group", "Z2", "--n", "6", "--r", "3", flag, cap])
        assert (code, out.getvalue()) == (3, "") and says in err.getvalue(), flag


def test_the_coset_cap_bounds_the_slice_enumeration_alone():
    # the (6, 4) slice fits in 274 cosets over <h>; nothing else on the route holds |W| = 384 elements
    for cap, want in (("300", (0, "order=384 expected=384 OK\n")), ("274", (0, "order=384 expected=384 OK\n")),
                      ("273", (3, ""))):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["verify", "--group", "Z2", "--n", "7", "--r", "4", "--max-cosets", cap])
        assert (code, out.getvalue()) == want, cap
        assert ("capped at 273 cosets" in err.getvalue()) == (cap == "273"), cap


def test_default_stdout_unchanged_by_the_route(capsys):
    assert cli.main(["verify", "--group", "Z2", "--n", "6", "--r", "3"]) == 0
    assert capsys.readouterr().out == "order=48 expected=48 OK\n"
