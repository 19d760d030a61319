"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts the same condition.  All expected values are exact integers; no
tolerances are involved anywhere.
"""

import random
from math import factorial


from gact import (
    abelianization,
    build_gr_presentation,
    build_quotient_presentation,
    build_sandwich,
    connectivity,
    cyclic_group,
    decompose,
    enumerate_idempotents,
    esquare_at,
    is_rectangular_band,
    is_simple_form,
    make_group,
    parse_wreath,
    rising_point,
    schreier_build,
    simplify_presentation,
    singular_witness,
    todd_coxeter,
    trivial_group,
    value_component_counts,
    word_equal,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from gact.cli import DEFAULT_CAPS
from gact.endo import WreathElem, compose
from gact.presentation import Presentation, evaluate_word
from gact.verify import run_verify
from gact.rees import lambda_list, q_of

from helpers import MAIN_CASES, eps_rank_r, schreier_words, value_positions, wreath_elements

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
T = trivial_group()

_build_cache = {}


def built(spec, n, r):
    key = (spec, n, r)
    if key not in _build_cache:
        g = make_group(spec)
        m = build_sandwich(g, n, r)
        p = build_gr_presentation(m)
        _build_cache[key] = (g, m, p)
    return _build_cache[key]


def record(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_main_theorem_desk_scale():
    results = []
    for n, spec, r, expected in MAIN_CASES:
        report = run_verify(make_group(spec), n, r, DEFAULT_CAPS)
        results.append(
            (n, spec, r, report["computed_order"], expected, report["ok"])
        )
    ok = all(got == want and flag for *_, got, want, flag in results)
    detail = "; ".join(f"(n={n},{s},r={r}):{got}/{want}" for n, s, r, got, want, _ in results)
    record("1 main theorem at desk scale", ok, detail)


def test_criterion_2_rank_one_recovers_the_group():
    results = []
    for spec in ("Z2", "Z3", "S3"):
        g = make_group(spec)
        report = run_verify(g, 4, 1, DEFAULT_CAPS)
        # compare abelianizations through the multiplication-table presentation:
        # one generator per nonidentity element, relators x*y = xy
        relators = []
        for x in range(1, g.order):
            for y in range(1, g.order):
                z = g.table[x][y]
                word = (x, y) if z == 0 else (x, y, -z)
                relators.append(word)
        table_pres = Presentation(
            [f"g{x}" for x in range(1, g.order)], relators, ["mul"] * len(relators)
        )
        want_ab = abelianization(table_pres)
        m = build_sandwich(g, 4, 1)
        q = simplify_presentation(build_quotient_presentation(m), m, connectivity(m), [])
        got_ab = abelianization(q)
        results.append(
            (
                spec,
                report["computed_order"] == g.order and report["ok"],
                (got_ab.torsion, got_ab.free_rank) == (want_ab.torsion, want_ab.free_rank),
            )
        )
    ok = all(o and a for _, o, a in results)
    record("2 rank one recovers the group", ok, str(results))


def test_criterion_3_rank_n_minus_1_free():
    results = []
    for spec in ("trivial", "Z2"):
        g = make_group(spec)
        _, m, p = built(spec, 4, 3)
        ab = abelianization(p)
        results.append((spec, p.tag_count("R3"), ab.torsion))
    ok = all(r3 == 0 and torsion == () for _, r3, torsion in results)
    record("3 rank n-1 emits no square relators and is free abelianized", ok, str(results))


def test_criterion_4_rank_n_trivial():
    results = []
    for spec in ("trivial", "Z2", "S3"):
        report = run_verify(make_group(spec), 4, 4, DEFAULT_CAPS)
        results.append((spec, report["computed_order"]))
    ok = all(order == 1 for _, order in results)
    record("4 rank n presents the trivial group", ok, str(results))


def test_criterion_5_nonconnected_value_merges_with_witness():
    g, m, p = built("Z2", 4, 2)
    diag = parse_wreath(g, 2, "1:1;2:1")
    occ = value_positions(m).get(diag, [])
    pg = connectivity(m)
    counts = value_component_counts(pg)[diag]
    log = []
    q = simplify_presentation(build_quotient_presentation(m), m, pg, log)
    witnesses = [w for w in log if w.value == diag]
    # both positions collapse onto the single final generator of that value,
    # and the final group still has the right order
    same_final = q.gen_keys.count(diag) == 1 and todd_coxeter(q).order == 8
    # independently, the two generators are already equal in the group
    # presented before any simplification
    raw_table = todd_coxeter(p)
    raw_index = {pos: gi + 1 for gi, pos in enumerate(p.gen_keys)}
    g1, g2 = (raw_index[pos] for pos in occ)
    same_raw = word_equal(raw_table, (g1,), (g2,))
    ok = (
        len(occ) == 2
        and counts == (2, 2)
        and len(witnesses) == 2
        and same_final
        and same_raw
    )
    record(
        "5 non-connected value merges with recorded witness",
        ok,
        f"occurrences={len(occ)} components={counts[1]} witnesses={len(witnesses)}",
    )


def test_criterion_6_global_connectivity():
    checked = []
    for n in range(3, 7):
        for r in range(1, n + 1):
            if n < 2 * r + 1:
                continue
            for g in (T, Z2):
                m = build_sandwich(g, n, r)
                counts = value_component_counts(connectivity(m))
                checked.append(
                    ((n, r, g.order), all(c == 1 for _, c in counts.values()))
                )
    ok = all(flag for _, flag in checked)
    record("6 global connectivity for n >= 2r+1", ok, f"{len(checked)} slices")


def test_criterion_7_coverage_thresholds():
    failures = []
    for n in range(3, 7):
        for r in range(1, n + 1):
            for g in (T, Z2):
                m = build_sandwich(g, n, r)
                present = set(value_positions(m))
                full = g.order ** r * factorial(r)
                covers = len(present) == full
                threshold = (2 * r <= n) if g.order > 1 else (2 * r <= n + 1)
                if covers != threshold:
                    failures.append((n, r, g.order))
                if not threshold:
                    # the reversal map, twisted when the group allows it
                    perm = tuple(range(r, 0, -1))
                    weights = (1 if g.order > 1 else 0,) + (0,) * (r - 1)
                    reversal = WreathElem(r, perm, weights)
                    if reversal in value_positions(m):
                        failures.append(("witness", n, r, g.order))
    record("7 coverage thresholds with reversal witnesses", not failures, str(failures))


def test_criterion_8_singularity_oracle():
    bad = []
    squares = 0
    for g in (T, Z2):
        candidates = enumerate_idempotents(g, 3)
        for r in (1, 2):
            m = build_sandwich(g, 3, r)
            nrows, ncols = len(m.kernels), len(m.lambdas)
            for i in range(nrows):
                for k in range(i + 1, nrows):
                    for l1 in range(ncols):
                        if m.entries[l1][i] is None or m.entries[l1][k] is None:
                            continue
                        for l2 in range(l1 + 1, ncols):
                            if m.entries[l2][i] is None or m.entries[l2][k] is None:
                                continue
                            sq = esquare_at(m, i, k, l1, l2)
                            squares += 1
                            witness = singular_witness(sq, candidates)
                            if is_rectangular_band(sq) != (witness is not None):
                                bad.append((g.order, r, i, k, l1, l2, "oracle"))
                            if is_rectangular_band(sq) and (
                                singular_witness(sq, candidates, kind="updown") is None
                            ):
                                bad.append((g.order, r, i, k, l1, l2, "updown"))
    record("8 singularity oracle agreement", not bad, f"{squares} squares, bad={bad}")


def test_criterion_9_decomposition():
    bad = 0
    total = 0
    for g in (T, Z2, Z3):
        for r in (1, 2, 3):
            for phi in wreath_elements(g, r):
                if rising_point(phi) < 3:
                    continue
                total += 1
                beta, gamma = decompose(g, phi)
                if (
                    wreath_mul(g, beta, gamma) != phi
                    or is_simple_form(gamma) is None
                    or rising_point(beta) >= rising_point(phi)
                ):
                    bad += 1
    rng = random.Random(99)
    randoms = 0
    while randoms < 10_000:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        phi = WreathElem(4, tuple(perm), tuple(rng.randrange(3) for _ in range(4)))
        if rising_point(phi) < 3:
            continue
        randoms += 1
        total += 1
        beta, gamma = decompose(Z3, phi)
        if (
            wreath_mul(Z3, beta, gamma) != phi
            or is_simple_form(gamma) is None
            or rising_point(beta) >= rising_point(phi)
        ):
            bad += 1
    record("9 decomposition exhaustive and sampled", bad == 0, f"{total} cases")


def test_criterion_10_schreier_invariants():
    bad = []
    for n in range(3, 7):
        for r in range(1, min(n, 4) + 1):
            for g in (T, Z2):
                words = schreier_words(g, n, r, schreier_build(n, r))
                prefixes = set(words.values())
                eps = eps_rank_r(g, n, r)
                for lam in lambda_list(n, r):
                    word = words[lam]
                    if any(word[:cut] not in prefixes for cut in range(len(word) + 1)):
                        bad.append((n, r, g.order, lam, "prefix"))
                    acc = eps
                    for letter in word:
                        acc = compose(acc, letter)
                    if acc != q_of(g, n, r, lam):
                        bad.append((n, r, g.order, lam, "translation"))
    record("10 Schreier prefix closure and translations", not bad, str(bad[:3]))


def test_criterion_11_relator_soundness():
    bad = 0
    relators = 0
    for n, spec, r, _ in MAIN_CASES:
        g, m, p = built(spec, n, r)
        ident = wreath_identity(r)
        entries = [m.entries[l][i] for i, l in p.gen_keys]
        assignment = [wreath_inv(g, v) for v in entries]
        for word in p.relators:
            relators += 1
            if evaluate_word(g, assignment, entries, r, word) != ident:
                bad += 1
        qp = build_quotient_presentation(m)
        q_assignment = [wreath_inv(g, v) for v in qp.gen_keys]
        for word in qp.relators:
            relators += 1
            if evaluate_word(g, q_assignment, qp.gen_keys, r, word) != ident:
                bad += 1
    record("11 every emitted relator is sound", bad == 0, f"{relators} relators checked")
