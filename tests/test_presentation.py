import hashlib

import pytest

from gact import (
    KernelIndex,
    ParseError,
    Presentation,
    ResourceLimit,
    build_gr_presentation,
    build_quotient_presentation,
    build_sandwich,
    compose,
    connectivity,
    cyclic_group,
    is_idempotent,
    kernel,
    lavers_presentation,
    make_group,
    presentation_to_text,
    q_of,
    schreier_build,
    simplify_presentation,
    square_condition,
    todd_coxeter,
    trivial_group,
    word_equal,
    wreath_identity,
    wreath_inv,
)
from gact.presentation import (
    _RelatorSink,
    eliminate_generators,
    evaluate_word,
    free_reduce,
    gr_grids,
    gr_relators,
    position_names,
)

from helpers import (
    WALK_CASES,
    dense_ids,
    dense_p1_relators,
    MAIN_CASES,
    dense_r3_relators,
    eps_rank_r,
    erase_generators,
    gr_r3_oracle,
    lavers_assignment,
    presentation_from_text,
    validate_presentation,
    value_positions,
    wreath_elements,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
T = trivial_group()


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((2, 1, -1, -2, 3)) == (3,)
    assert free_reduce((1, 2, -2, 2)) == (1, 2)


# -- Schreier system -----------------------------------------------------------

def test_schreier_root_and_single_step():
    s = schreier_build(Z2, 4, 2)
    assert s.words[(1, 2)] == ()
    assert s.parent[(1, 3)] == (1, 2)
    letter = s.letter[(1, 3)]
    assert letter.targets == (1, 3, 3, 3)
    assert letter.weights == (0, 0, 0, 0)
    assert is_idempotent(letter)
    assert len(s.words[(1, 3)]) == 1


def test_schreier_word_lengths_and_prefix_closure():
    for n in range(3, 7):
        for r in range(1, min(n, 4) + 1):
            s = schreier_build(T, n, r)
            words = set(s.words.values())
            for lam in s.lambdas:
                word = s.words[lam]
                assert len(word) == sum(u - j for j, u in enumerate(lam, start=1))
                for cut in range(len(word) + 1):
                    assert word[:cut] in words


def test_schreier_words_distinct():
    # no accidental coincidences: the tree enumeration is exhaustive
    for n, r in ((5, 2), (6, 3), (6, 4)):
        s = schreier_build(Z2, n, r)
        words = list(s.words.values())
        assert len(set(words)) == len(words)


def test_schreier_translation_identity():
    for g in (T, Z2):
        for n in range(3, 7):
            for r in range(1, min(n, 4) + 1):
                s = schreier_build(g, n, r)
                eps = eps_rank_r(g, n, r)
                for lam in s.lambdas:
                    acc = eps
                    for letter in s.words[lam]:
                        acc = compose(acc, letter)
                    assert acc == q_of(g, n, r, lam)


def test_schreier_attach_edge_identity():
    # appending the edge letter to the parent column map lands on the child
    for g, n, r in ((Z2, 5, 2), (T, 6, 3)):
        s = schreier_build(g, n, r)
        for lam in s.lambdas[1:]:
            par = s.parent[lam]
            assert compose(q_of(g, n, r, par), s.letter[lam]) == q_of(g, n, r, lam)


def test_r1_rows_are_the_schreier_letters_rows():
    # each letter's full row index (its kernel, weights normalized at the
    # non-minima) has zero weights, so R1's row, attach's partition's first
    # row, is the letter's own row
    for spec, n, r in (("Z2", 4, 3), ("S3", 4, 3), ("Z3", 5, 4), ("trivial", 6, 5),
                       ("Z2", 5, 2), ("S3", 5, 3), ("Z4", 5, 1)):
        g = make_group(spec)
        m, s = build_sandwich(g, n, r), schreier_build(g, n, r)
        for lam in s.lambdas[1:]:
            kd = kernel(s.letter[lam])
            weightvec = tuple(kd.normweights[k - 1] for k in range(1, n + 1) if k not in kd.mins)
            assert weightvec == (0,) * (n - r), (spec, n, r, lam)
            assert s.attach[lam] == kd.blocks, (spec, n, r, lam)
            assert m.kernels.index(KernelIndex(kd.blocks, weightvec)) == m.part_start[s.attach[lam]], (spec, n, r, lam)


# -- position-indexed presentation ---------------------------------------------

def test_gr_generator_count_and_tags():
    m = build_sandwich(Z2, 4, 2)
    p = build_gr_presentation(m, schreier_build(Z2, 4, 2))
    validate_presentation(p)
    nonzero = sum(1 for _ in m.nonzero_positions())
    assert len(p.generators) == nonzero
    assert p.tag_count("R2") == len(m.kernels)
    assert p.gen_keys == list(m.nonzero_positions())
    assert p.generators[0].startswith("f_")


def test_gr_rank_one_trivial_presents_trivially():
    m = build_sandwich(T, 3, 1)
    p = build_gr_presentation(m, schreier_build(T, 3, 1))
    assert todd_coxeter(p).order == 1


def test_gr_relators_sound_under_entry_assignment():
    # mapping each position generator to the inverse of its entry kills
    # every relator in the concrete wreath group
    for g, n, r in ((Z2, 4, 2), (T, 5, 2), (Z3, 4, 2)):
        m = build_sandwich(g, n, r)
        p = build_gr_presentation(m, schreier_build(g, n, r))
        entries = [m.entries[l_idx][i] for i, l_idx in p.gen_keys]
        assignment = [wreath_inv(g, v) for v in entries]
        for word in p.relators:
            assert evaluate_word(g, assignment, entries, r, word) == wreath_identity(r)


def test_gr_r1_edges_have_identity_entries():
    m = build_sandwich(Z2, 5, 2)
    s = schreier_build(Z2, 5, 2)
    p = build_gr_presentation(m, s)
    for word, tag in zip(p.relators, p.tags):
        if tag != "R1":
            continue
        assert len(word) == 2
        for letter in word:
            i, l_idx = p.gen_keys[abs(letter) - 1]
            assert m.entries[l_idx][i] == wreath_identity(2)


def test_gr_chain_covers_all_pairwise_squares():
    # every pairwise square relation is a consequence of the emitted chains
    m = build_sandwich(Z2, 4, 2)
    p = build_gr_presentation(m, schreier_build(Z2, 4, 2))
    table = todd_coxeter(p)
    gen_of = {pos: gi + 1 for gi, pos in enumerate(p.gen_keys)}
    nrows = len(m.kernels)
    ncols = len(m.lambdas)
    from gact import square_condition

    for i in range(nrows):
        for k in range(i + 1, nrows):
            for l1 in range(ncols):
                if m.entries[l1][i] is None or m.entries[l1][k] is None:
                    continue
                for l2 in range(l1 + 1, ncols):
                    if m.entries[l2][i] is None or m.entries[l2][k] is None:
                        continue
                    if square_condition(m, i, k, l1, l2):
                        w1 = (-gen_of[(i, l1)], gen_of[(i, l2)])
                        w2 = (-gen_of[(k, l1)], gen_of[(k, l2)])
                        assert word_equal_words(table, w1, w2)


def word_equal_words(table, w1, w2):
    from gact import word_equal

    return word_equal(table, w1, w2)


def test_gr_relator_cap():
    m = build_sandwich(Z2, 4, 2)
    with pytest.raises(ResourceLimit):
        build_gr_presentation(m, schreier_build(Z2, 4, 2), max_relators=10)


def test_gr_r3_matches_dense_row_pair_walk():
    # the column-pair-key walk emits the dense walk's R3 relators in its
    # order, and the relator cap fires exactly past the last relator
    cases = [(make_group(spec), n, r) for n, spec, r, _ in MAIN_CASES]
    cases += [(make_group("S3"), 4, 2), (Z3, 5, 3), (T, 6, 3)]  # Z2 5 3 is in MAIN_CASES
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        s = schreier_build(g, n, r)
        p = build_gr_presentation(m, s)
        r3 = [w for w, tag in zip(p.relators, p.tags) if tag == "R3"]
        assert r3 == dense_r3_relators(m), (g.order, n, r)
        assert build_gr_presentation(m, s, max_relators=len(p.relators)).relators == p.relators
        with pytest.raises(ResourceLimit):
            build_gr_presentation(m, s, max_relators=len(p.relators) - 1)


def test_gr_stream_equals_collector():
    # the stream yields the collector's relators in its order, each one
    # freely reduced and new, so a deduplicating sink would keep them all
    cases = [(make_group(spec), n, r) for n, spec, r, _ in MAIN_CASES]
    cases.append((make_group("S3"), 4, 2))  # Z2 5 3 is in MAIN_CASES
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        s = schreier_build(g, n, r)
        p = build_gr_presentation(m, s)
        batches = list(gr_relators(m, s))
        # R1, R2, then one R3 batch per row
        assert [t for t, _ in batches] == ["R1", "R2"] + ["R3"] * len(m.kernels)
        stream = [(w, t) for t, words in batches for w in words]
        assert [w for w, _ in stream] == p.relators and [t for _, t in stream] == p.tags
        sink = _RelatorSink(len(stream))
        for word, tag in stream:
            sink.add(word, tag)
        assert sink.words == p.relators and sink.tags == p.tags, (g.order, n, r)


def test_gr_r3_matches_row_pair_chain_oracle():
    # the column-pair-key R3 kernel emits the per-row-pair chain's relators
    # in its order, row i's in the i-th R3 batch, and the name grids spell
    # the int stream letter for letter; trivial 7 3 and Z2 6 2 have large
    # key classes, S3 4 2 a non-abelian group, where y * inv(x) and
    # inv(x) * y differ
    cases = [(make_group(spec), n, r) for n, spec, r, _ in MAIN_CASES]
    cases += [(make_group("S3"), 4, 2), (Z3, 5, 3), (make_group("Z4"), 5, 2), (T, 6, 3),
              (T, 7, 3), (Z2, 6, 2)]
    for g, n, r in cases:
        m = build_sandwich(g, n, r)
        s = schreier_build(g, n, r)
        batches = list(gr_relators(m, s))
        r3 = [(i, w) for i, (_, words) in enumerate(batches[2:]) for w in words]
        assert [w for _, w in r3] == gr_r3_oracle(m), (g.order, n, r)
        keys = [None] + list(m.nonzero_positions())
        assert all(keys[-w[0]][0] == i for i, w in r3), (g.order, n, r)
        names = [f"f_{i}_{'.'.join(map(str, m.lambdas[l]))}" for i, l in m.nonzero_positions()]
        spell = [(tag, [tuple(names[x - 1] if x > 0 else names[-x - 1] + "'" for x in w) for w in words])
                 for tag, words in batches]
        name = position_names(m)
        grids = gr_grids(m, lambda _, i, l: (text := name(i, l), text + "'"))
        assert list(gr_relators(m, s, grids=grids)) == spell


def test_gr_export_pinned():
    pinned = {
        "Z2": "fe13099ce5f7d078a28f252c0f2e8712d06f5f4ff4ac48ce690f31cf73a9acfa",
        "S3": "933906f7771dde20e1ed22a4ed73092cf1c8f7781c5c62b02e2a62269192e385",
    }
    for spec, digest in pinned.items():
        g = make_group(spec)
        text = presentation_to_text(build_gr_presentation(build_sandwich(g, 4, 2), schreier_build(g, 4, 2)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- value-indexed presentation --------------------------------------------------

def test_quotient_identity_only_matrix():
    m = build_sandwich(T, 4, 4)  # single entry, the identity
    p = build_quotient_presentation(m)
    assert len(p.generators) == 1
    assert todd_coxeter(p).order == 1


def test_quotient_orders():
    assert todd_coxeter(build_quotient_presentation(build_sandwich(T, 4, 2))).order == 2
    assert todd_coxeter(build_quotient_presentation(build_sandwich(Z2, 4, 2))).order == 8


def test_quotient_relators_sound():
    for g, n, r in ((Z2, 4, 2), (T, 5, 3)):
        m = build_sandwich(g, n, r)
        p = build_quotient_presentation(m)
        assignment = [wreath_inv(g, v) for v in p.gen_keys]
        for word in p.relators:
            assert evaluate_word(g, assignment, p.gen_keys, r, word) == wreath_identity(r)


def test_quotient_relator_order_pinned():
    # Todd-Coxeter coset counts depend on relator order, so the l, m,
    # first-row emission order is pinned byte for byte
    pinned = {
        "Z2": "1f3c666d45fd4dfebf0f5cc8f3e4f57dee3db36d448a47656ef56f78e79b707d",
        "S3": "117c1e8745cd7385472cbf359af6d1152585043e2bcb6b92164dc952c663d5e7",
    }
    for spec, digest in pinned.items():
        text = presentation_to_text(build_quotient_presentation(build_sandwich(make_group(spec), 4, 2)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_quotient_walk_matches_dense_zip():
    # walking only column l's nonzero rows gives the dense zip's words and
    # tags, in the same order
    for spec, n, r in WALK_CASES:
        m = build_sandwich(make_group(spec), n, r)
        p = build_quotient_presentation(m)
        assert (p.relators, p.tags) == dense_p1_relators(m), (spec, n, r)


def test_quotient_relator_cap():
    with pytest.raises(ResourceLimit):
        build_quotient_presentation(build_sandwich(Z2, 4, 2), max_relators=10)


def test_value_route_matches_position_route():
    # the gr relators, written on the value generators (the identity letter
    # kept: R2 kills it as P2 does), plus the merge relators, present the
    # same group as the simplified value presentation: each relator set
    # holds in the other's coset table
    for n, spec, r, expected in MAIN_CASES + [(4, "S3", 2, 72), (5, "Z3", 3, 162)]:
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m))
        p = build_gr_presentation(m, schreier_build(g, n, r))
        ids = dense_ids(m)
        letter = [ids[l_idx][i] + 1 for i, l_idx in p.gen_keys]
        words = set()
        for w in p.relators:
            words.add(free_reduce(letter[x - 1] if x > 0 else -letter[-x - 1] for x in w))
        words.discard(())
        merges = [w for w, tag in zip(q.relators, q.tags) if tag == "merge"]
        oracle_words = sorted(words) + merges
        oracle = Presentation(q.generators, oracle_words, ["oracle"] * len(oracle_words))
        q_table, oracle_table = todd_coxeter(q), todd_coxeter(oracle)
        assert q_table.order == oracle_table.order == expected, (n, spec, r)
        assert all(word_equal(q_table, w, ()) for w in oracle.relators), (n, spec, r)
        assert all(word_equal(oracle_table, w, ()) for w in q.relators), (n, spec, r)


def test_quotient_kills_every_singular_square():
    # brute force over all squares, one representative per value quadruple
    for g, n, r in ((Z2, 4, 2), (T, 5, 3), (make_group("S3"), 4, 2)):
        m = build_sandwich(g, n, r)
        p = build_quotient_presentation(m)
        table = todd_coxeter(p)
        gen = {v: gi + 1 for gi, v in enumerate(p.gen_keys)}
        nrows, ncols = len(m.kernels), len(m.lambdas)
        for l1 in range(ncols):
            for l2 in range(l1 + 1, ncols):
                seen = set()
                for i in range(nrows):
                    x_i, y_i = m.entries[l1][i], m.entries[l2][i]
                    if x_i is None or y_i is None:
                        continue
                    for k in range(i + 1, nrows):
                        x_k, y_k = m.entries[l1][k], m.entries[l2][k]
                        if x_k is None or y_k is None or (x_i, y_i, x_k, y_k) in seen:
                            continue
                        seen.add((x_i, y_i, x_k, y_k))
                        if square_condition(m, i, k, l1, l2):
                            word = (-gen[x_i], gen[y_i], -gen[y_k], gen[x_k])
                            assert word_equal(table, word, ())


# -- wreath presentation ----------------------------------------------------------

def test_lavers_generator_count():
    for g, r in ((Z2, 3), (Z3, 2), (T, 4)):
        p = lavers_presentation(g, r)
        assert len(p.generators) == (g.order - 1) * r + (r - 1)


def test_lavers_orders():
    assert todd_coxeter(lavers_presentation(T, 3)).order == 6
    assert todd_coxeter(lavers_presentation(Z2, 2)).order == 8
    assert todd_coxeter(lavers_presentation(Z3, 3)).order == 162
    assert todd_coxeter(lavers_presentation(T, 1)).order == 1
    assert todd_coxeter(lavers_presentation(Z3, 1)).order == 3


def test_lavers_order_matches_direct_enumeration():
    assert len(wreath_elements(Z2, 2)) == 8
    assert todd_coxeter(lavers_presentation(Z2, 2)).order == len(wreath_elements(Z2, 2))


def test_lavers_relators_sound():
    for g, r in ((Z2, 3), (Z3, 2), (symmetric := trivial_group(), 4)):
        p = lavers_presentation(g, r)
        assignment = lavers_assignment(r, p)
        inverses = [wreath_inv(g, v) for v in assignment]
        for word in p.relators:
            assert evaluate_word(g, assignment, inverses, r, word) == wreath_identity(r)


# -- text form -------------------------------------------------------------------

def test_presentation_text_round_trip():
    p = lavers_presentation(Z2, 2)
    text = presentation_to_text(p)
    q = presentation_from_text(text)
    assert q.generators == p.generators
    assert q.relators == p.relators
    assert todd_coxeter(q).order == 8


def test_presentation_text_errors():
    with pytest.raises(ParseError):
        presentation_from_text("")
    with pytest.raises(ParseError):
        presentation_from_text("generators 2\ngen a\n")
    with pytest.raises(ParseError):
        presentation_from_text("generators 1\ngen a\nrel b\n")
    with pytest.raises(ParseError):
        presentation_from_text("generators 1\ngen a\nfoo a\n")


def test_occurring_values_generate_the_wreath_group():
    # with order equality and sound relators, surjectivity of the value
    # assignment is what upgrades the order check to an isomorphism; the
    # occurring values must generate the whole wreath group
    from gact import make_group, build_sandwich, wreath_inv
    from gact.endo import wreath_mul

    cases = [
        (4, "trivial", 1), (4, "trivial", 2), (5, "trivial", 2), (5, "trivial", 3),
        (6, "trivial", 4), (4, "Z2", 1), (4, "Z2", 2), (5, "Z2", 2),
        (5, "Z3", 2), (5, "Z2", 3),
    ]
    from math import factorial

    for n, spec, r in cases:
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        gens = set(value_positions(m))
        gens |= {wreath_inv(g, v) for v in set(gens)}
        closure = set(gens)
        frontier = set(gens)
        while frontier:
            nxt = set()
            for a in frontier:
                for b in gens:
                    c = wreath_mul(g, a, b)
                    if c not in closure:
                        closure.add(c)
                        nxt.add(c)
            frontier = nxt
        assert len(closure) == g.order ** r * factorial(r), (n, spec, r)


def test_simplified_abelianization_matches_concrete_wreath():
    # independent channel: abelianize the multiplication table of the
    # concrete wreath group and compare invariant factors
    from gact import (
        Presentation,
        abelianization,
        build_sandwich,
        connectivity,
        make_group,
        simplify_presentation,
    )
    from gact.endo import wreath_mul

    from helpers import wreath_elements

    for n, spec, r in ((4, "Z2", 2), (5, "trivial", 3), (5, "Z3", 2)):
        g = make_group(spec)
        elems = [v for v in wreath_elements(g, r) if v != wreath_identity(r)]
        index = {v: i + 1 for i, v in enumerate(elems)}  # 0 reserved for identity
        relators = []
        for a in elems:
            for b in elems:
                c = wreath_mul(g, a, b)
                if c == wreath_identity(r):
                    relators.append((index[a], index[b]))
                else:
                    relators.append((index[a], index[b], -index[c]))
        names = [f"w{i}" for i in range(1, len(elems) + 1)]
        concrete = Presentation(names, relators, ["mul"] * len(relators))
        want = abelianization(concrete)
        m = build_sandwich(g, n, r)
        q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m))
        got = abelianization(q)
        assert (got.torsion, got.free_rank) == (want.torsion, want.free_rank), (n, spec, r)


def test_rank_top_minus_one_quotient_abelianization():
    # with no square relators the quotient presents a free group whose
    # abelianized rank matches the position presentation's collapsed rank
    from gact import abelianization

    for g in (T, Z2):
        m = build_sandwich(g, 4, 3)
        p = build_gr_presentation(m, schreier_build(g, 4, 3))
        q = build_quotient_presentation(m)
        assert p.tag_count("R3") == 0
        assert q.tag_count("P1") == 0
        ab_p, ab_q = abelianization(p), abelianization(q)
        assert ab_p.torsion == () and ab_q.torsion == ()
        assert ab_p.free_rank == ab_q.free_rank == len(q.generators) - 1


@pytest.mark.parametrize("spec, n, free_rank", [
    ("trivial", 4, 3), ("trivial", 5, 6), ("trivial", 8, 21), ("Z2", 4, 9), ("Z2", 5, 16), ("Z2", 6, 25),
    ("Z3", 4, 15), ("Z3", 5, 26), ("Z4", 4, 21), ("S3", 4, 33),
])
def test_rank_n_minus_1_free_rank_by_union_find(spec, n, free_rank):
    # at r = n-1 the position presentation is R1 edges a*b^-1 and R2 kills
    # only: no R3, no singular square, so its abelianization is free of the
    # rank a union-find reads off (classes of the R1 edges no R2 kills)
    from gact import abelianization
    from gact.biorder import squares_report

    g, r = make_group(spec), n - 1
    p = build_gr_presentation(build_sandwich(g, n, r), schreier_build(g, n, r))
    assert p.tag_count("R3") == 0
    assert all((tag, len(w)) == ("R1", 2) and w[0] > 0 > w[1] or (tag, len(w)) == ("R2", 1) and w[0] > 0
               for tag, w in zip(p.tags, p.relators))
    if n <= 6:
        assert squares_report(g, n)[r - 1]["singular"] == 0
    parent = list(range(len(p.generators) + 1))  # letters are 1-based

    def find(a):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for tag, w in zip(p.tags, p.relators):
        if tag == "R1":
            parent[find(w[0])] = find(-w[1])
    classes = {find(a) for a in range(1, len(parent))}
    killed = {find(w[0]) for tag, w in zip(p.tags, p.relators) if tag == "R2"}
    ab = abelianization(p)
    assert (ab.torsion, ab.free_rank) == ((), len(classes - killed)) == ((), free_rank)


# -- Tietze elimination ---------------------------------------------------------

def value_presentation(spec, n, r):
    m = build_sandwich(make_group(spec), n, r)
    return simplify_presentation(build_quotient_presentation(m), m, connectivity(m))


def total_length(p):
    return sum(len(w) for w in p.relators)


def test_elimination_preserves_the_group():
    # isomorphism oracle: in the coset table of the unreduced presentation,
    # with the surviving generators mapped back by name, every reduced
    # relator acts trivially and every logged substitution g = w holds
    for n, spec, r, expected in MAIN_CASES + [(6, "Z2", 4, 384), (4, "S3", 2, 72), (5, "Z3", 3, 162)]:
        q = value_presentation(spec, n, r)
        e, log = eliminate_generators(q)
        validate_presentation(e)
        table = todd_coxeter(q)
        back = [q.generators.index(name) + 1 for name in e.generators]
        for w in e.relators:
            image = tuple(back[x - 1] if x > 0 else -back[-x - 1] for x in w)
            assert word_equal(table, image, ()), (n, spec, r, w)
        for g, w in log:
            assert word_equal(table, (g,), w), (n, spec, r, g, w)
        assert table.order == todd_coxeter(e).order == expected, (n, spec, r)


def test_elimination_preserves_the_abelianization():
    # Tietze moves keep the group, so its invariant factors: rank n-1 verify
    # abelianizes the reduced gr presentation
    from gact import abelianization

    rank_free = [("trivial", 5), ("trivial", 8), ("Z2", 5), ("Z3", 5), ("Z4", 4), ("S3", 4)]
    cases = [(spec, n, n - 1, "gr") for spec, n in rank_free]
    cases += [(spec, n, r, "quotient") for n, spec, r, _ in MAIN_CASES]
    for case in cases:
        spec, n, r, kind = case
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        p = build_gr_presentation(m, schreier_build(g, n, r)) if kind == "gr" else build_quotient_presentation(m)
        reduced = eliminate_generators(p)[0]
        assert len(reduced.generators) < len(p.generators), case
        assert abelianization(reduced) == abelianization(p), case


def test_elimination_erases_killed_generators_first():
    # the value presentation plus the merge words, over value ids + 1, reduces
    # as it does with the identity (which P2 kills) erased and the other
    # values renumbered by hand; the identity is logged first, as ()
    for n, spec, r, _ in MAIN_CASES + [(6, "Z2", 3, 48), (5, "Z4", 2, 32), (4, "S3", 2, 72)]:
        m = build_sandwich(make_group(spec), n, r)
        p, log = build_quotient_presentation(m), []
        q = simplify_presentation(p, m, connectivity(m), log)
        letter = {v: gi + 1 for gi, v in enumerate(m.values)}
        # one merge word per split value, however many roots it was certified at
        merges = list(dict.fromkeys(
            (letter[w.value], -letter[w.remainder], -letter[w.simple_factor]) for w in log
        ))
        full = Presentation(p.generators, p.relators + merges, p.tags + ["merge"] * len(merges))
        one = letter[wreath_identity(r)]
        e, e_log = eliminate_generators(full)
        want, want_log = eliminate_generators(erase_generators(full, {one}))
        assert (e.generators, e.relators, e.tags) == (want.generators, want.relators, want.tags), (n, spec, r)
        keep = [g for g in range(1, len(full.generators) + 1) if g != one]
        back = [(keep[g - 1], tuple(keep[x - 1] if x > 0 else -keep[-x - 1] for x in w)) for g, w in want_log]
        assert e_log == [(one, ())] + back, (n, spec, r)
        # simplification returns exactly that presentation, keyed by the values
        assert (q.generators, q.relators, q.tags) == (full.generators, full.relators, full.tags)
        assert q.gen_keys == m.values


def test_elimination_skips_generators_that_occur_twice():
    # a^2 and a^3 eliminate nothing; in a b a only b occurs once, so
    # b = a^-2 is the one substitution
    for relators in ([(1, 1)], [(1, 1, 1)]):
        e, log = eliminate_generators(Presentation(["a"], relators, ["rel"] * len(relators)))
        assert log == [] and e.generators == ["a"] and e.relators == relators
    e, log = eliminate_generators(Presentation(["a", "b"], [(1, 2, 1), (1, 1, 1, 1, 1)], ["rel"] * 2))
    assert log == [(2, (-1, -1))]
    assert e.generators == ["a"] and e.relators == [(1, 1, 1, 1, 1)]


def test_elimination_never_lengthens_the_relators():
    # eliminating any of a, b, c through abc would turn c^4 (or a^4, b^4)
    # into eight letters, one more than the relator abc gives back
    relators = [(1, 2, 3), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)]
    e, log = eliminate_generators(Presentation(["a", "b", "c"], relators, ["rel"] * 4))
    assert log == [] and e.relators == relators
    for n, spec, r, _ in MAIN_CASES + [(4, "S3", 2, 72), (6, "Z2", 3, 48)]:
        q = value_presentation(spec, n, r)
        assert total_length(eliminate_generators(q)[0]) <= total_length(q), (n, spec, r)


def test_elimination_output_pinned():
    # (generators, relators, total length) after the pass, recorded when it was added
    pinned = {
        ("Z2", 6, 4): (13, 165, 954), ("S3", 4, 2): (10, 157, 825),
        # recorded while simplification still erased the identity and renumbered the values
        ("Z2", 6, 3): (12, 595, 3196), ("Z4", 5, 2): (7, 437, 2783), ("trivial", 8, 5): (46, 1424, 6285),
        ("Z4", 5, 3): (18, 282, 1621), ("trivial", 8, 6): (13, 136, 824), ("Z3", 5, 3): (11, 137, 782),
        ("S3", 5, 3): (32, 721, 4079),
    }
    for (spec, n, r), want in pinned.items():
        e, _ = eliminate_generators(value_presentation(spec, n, r))
        assert (len(e.generators), len(e.relators), total_length(e)) == want, (spec, n, r)


def test_elimination_log_pinned():
    # sha256 of repr((generators, relators, tags, log)) per instance, recorded
    # while the pass still forecast cancellations from a count of letter pairs
    # and resolved only the substitutions the set-aside relators needed: the
    # CYCLIC_CASES of test_fpgroup, those of test_cosets_defined_pinned, and
    # three n = r+2 instances whose enumeration takes seconds
    pinned = {
    ("S3", 4, 2): "a4461199640cf4108b370c28acfa7a389fce291392869c45ab448d0da3545158",
    ("S3", 5, 3): "b8c9896fb12be050294747acc78555c921189bf5905568640b6d96bd1eff0260",
    ("Z2", 4, 1): "2fbff304ae4aec4b06a657e06db9a194566d62de7c673b17262e125ab0d984ab",
    ("Z2", 4, 2): "e56ceffd3ded21077e7cae4eef897bad78e8e75a96cc4ac305ce6ffa3ef59321",
    ("Z2", 5, 2): "2f984a2dcb2bc999689617334789871b4ad7449933ec116b6bc9998f199dc9df",
    ("Z2", 5, 3): "b9bc5c0a7f2f776a7d3f250f58198e140a456007ce5b56498722648f52ffb92f",
    ("Z2", 6, 3): "106eabcc50e86185f0b05dd2804e09ae7e387a3452311c2101eb64560a6d2642",
    ("Z2", 6, 4): "0df6d8d53843a424aea62d527aebfbe594fb59e12dae6e62ed34761dc7c04482",
    ("Z3", 5, 2): "c9bd164427a0dd9d903c2148f21c378fc6fc1c2751595a34bfb2db52622d93a9",
    ("Z3", 5, 3): "eeb539cdb97dd70572ba549459fec82a2674cdca3a7512d9c3950c042d95a98b",
    ("Z3", 5, 5): "fca83126492e891516de617976cc96bb625e442570f35c569c999863ce67d3e4",
    ("Z4", 5, 2): "e422a09b0a410fa2b49460e9ebe65a603cd137e00d592a3f383f18b1ec23c0e7",
    ("Z4", 5, 3): "c0544f469dd60e2970510499cd9c8891aeb889c1d32c510e172ed8dac7ff029e",
    ("Z4", 6, 4): "98cd8927fdc87e50c512f03fa8b028fdc5abfd8f2b0182e428b091dea9091c7f",
    ("trivial", 4, 1): "fca83126492e891516de617976cc96bb625e442570f35c569c999863ce67d3e4",
    ("trivial", 4, 2): "4f6d26fe3534e6be7a3a2f169a18930b6a907af1a839da8655fbf7f42d7e83eb",
    ("trivial", 5, 2): "4f6d26fe3534e6be7a3a2f169a18930b6a907af1a839da8655fbf7f42d7e83eb",
    ("trivial", 5, 3): "848a9986af24720d0cd1ecdfd0a994d5591ec29cc817cfbb8702190ebfe6b063",
    ("trivial", 6, 4): "f901a20413ac4124a28e62a762c8f26d13bc29ccc863d4fe6e753f42c2aacf4d",
    ("trivial", 8, 5): "001c55f0827c60d6c4944218e3585319e7e7195895087494e14ab42a885ea2ae",
    ("trivial", 8, 6): "34a46761de52388cea06f41764504eeeb5296afa6cfdf628b4a5eba619711904",
    ("Z2", 8, 6): "5d90772a221d60b01110e3e2b5616d62a59787db7bb9c0edc6dab7a17ea397c4",
    ("S3", 6, 4): "3b242cb06d405dcaba68c7397f94b321e5cecfeda18809bb24820e5da108c293",
    ("Z3", 7, 5): "f9255f6551a304629d91a8b155cd3abbf3c2c87ff34383daab1eb3147f66b217",
    }
    for (spec, n, r), digest in pinned.items():
        e, log = eliminate_generators(value_presentation(spec, n, r))
        text = repr((e.generators, e.relators, e.tags, log))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (spec, n, r)


def test_cosets_defined_pinned():
    # cosets the enumeration defines on the verify path, coset 0 included
    pinned = {
        ("Z2", 4, 2): (8, 11), ("S3", 4, 2): (72, 120),
        # recorded while simplification still erased the identity and renumbered the values
        ("Z2", 6, 3): (48, 137), ("Z4", 5, 2): (32, 69), ("trivial", 8, 5): (120, 917),
        ("Z4", 5, 3): (384, 1653), ("trivial", 8, 6): (720, 2673), ("Z3", 5, 3): (162, 535),
        ("S3", 5, 3): (1296, 7779),
    }
    for (spec, n, r), want in pinned.items():
        table = todd_coxeter(eliminate_generators(value_presentation(spec, n, r))[0])
        assert (table.order, table.defined) == want, (spec, n, r)


def test_cosets_defined_within_ten_times_the_order():
    for spec, n, r in (("Z2", 6, 4), ("trivial", 8, 6), ("Z4", 5, 3)):
        table = todd_coxeter(eliminate_generators(value_presentation(spec, n, r))[0])
        assert table.defined <= 10 * table.order, (spec, n, r, table.defined)
