import random

import pytest

from gact import (
    Endo,
    KernelData,
    NotInH,
    ParseError,
    RankMismatch,
    WreathElem,
    compose,
    cyclic_group,
    from_wreath,
    green_test,
    identity_endo,
    image,
    is_idempotent,
    kernel,
    parse_endo,
    parse_wreath,
    rank,
    symmetric_group,
    to_wreath,
    trivial_group,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from gact.endo import wreath_to_text

from helpers import (
    all_endos,
    apply_pointwise,
    congruence_pairs,
    endo_to_text,
    eps_rank_r,
    left_ideal,
    monoid_tables,
    right_ideal,
    two_sided_ideal,
    wreath_elements,
)

Z2 = cyclic_group(2)


def random_endo(g, n, rng):
    return Endo(
        g,
        n,
        tuple(rng.randrange(1, n + 1) for _ in range(n)),
        tuple(rng.randrange(g.order) for _ in range(n)),
    )


def random_h_elem(g, r, rng):
    perm = list(range(1, r + 1))
    rng.shuffle(perm)
    return WreathElem(r, tuple(perm), tuple(rng.randrange(g.order) for _ in range(r)))


def test_compose_identity():
    rng = random.Random(0)
    for _ in range(20):
        a = random_endo(Z2, 4, rng)
        assert compose(identity_endo(Z2, 4), a) == a
        assert compose(a, identity_endo(Z2, 4)) == a


def test_compose_worked_example():
    # alpha sends x1 to a*x2, x2 to x1, x3 to x3; beta sends x1 to x3,
    # x2 to a*x3, x3 to x1; their composite is weight-free
    alpha = Endo(Z2, 3, (2, 1, 3), (1, 0, 0))
    beta = Endo(Z2, 3, (3, 3, 1), (0, 1, 0))
    ab = compose(alpha, beta)
    assert ab == Endo(Z2, 3, (3, 3, 1), (0, 0, 0))
    assert rank(ab) == 2
    assert image(ab) == (1, 3)


def test_compose_matches_pointwise_action():
    rng = random.Random(1)
    for g in (Z2, symmetric_group(3)):
        for _ in range(50):
            a, b = random_endo(g, 4, rng), random_endo(g, 4, rng)
            ab = compose(a, b)
            for w in range(g.order):
                for i in range(1, 5):
                    assert apply_pointwise(ab, w, i) == apply_pointwise(
                        b, *apply_pointwise(a, w, i)
                    )


def test_compose_associative_random():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (random_endo(Z2, 4, rng) for _ in range(3))
        assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_compose_rank_mismatch():
    with pytest.raises(RankMismatch):
        compose(identity_endo(Z2, 3), identity_endo(Z2, 4))
    with pytest.raises(RankMismatch):
        compose(identity_endo(Z2, 3), identity_endo(trivial_group(), 3))


def test_rank_image_basics():
    assert rank(identity_endo(Z2, 4)) == 4
    assert image(identity_endo(Z2, 4)) == (1, 2, 3, 4)
    const = Endo(Z2, 4, (1, 1, 1, 1), (0, 0, 0, 0))
    assert rank(const) == 1


def test_kernel_identity():
    kd = kernel(identity_endo(Z2, 3))
    assert kd.blocks == ((1,), (2,), (3,))
    assert kd.normweights == (0, 0, 0)


def test_kernel_worked_example():
    alpha = Endo(Z2, 3, (1, 1, 2), (0, 1, 0))
    kd = kernel(alpha)
    assert kd.blocks == ((1, 2), (3,))
    assert kd.mins == (1, 3)
    assert kd.normweights == (0, 1, 0)


def test_kernel_constant_on_r_classes():
    rng = random.Random(3)
    for _ in range(50):
        a = random_endo(Z2, 4, rng)
        gamma = from_wreath(Z2, random_h_elem(Z2, 4, rng), 4)  # invertible
        assert kernel(a) == kernel(compose(a, gamma))


def test_kernel_equality_is_congruence_equality():
    elems = all_endos(Z2, 3)
    pairs = {e: congruence_pairs(e) for e in elems}
    kds = {e: kernel(e) for e in elems}
    for a in elems[:72]:
        for b in elems:
            assert (kds[a] == kds[b]) == (pairs[a] == pairs[b])


def test_green_reflexive():
    a = Endo(Z2, 3, (2, 2, 1), (1, 0, 0))
    for rel in "LRHD":
        assert green_test(a, a, rel)


def test_green_against_ideal_oracle():
    g = trivial_group()
    elems, _, table = monoid_tables(g, 3)
    size = len(elems)
    lefts = [left_ideal(table, i, size) for i in range(size)]
    rights = [right_ideal(table, i, size) for i in range(size)]
    twos = [two_sided_ideal(table, i, size, lefts) for i in range(size)]
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert green_test(a, b, "L") == (lefts[i] == lefts[j])
            assert green_test(a, b, "R") == (rights[i] == rights[j])
            assert green_test(a, b, "H") == (lefts[i] == lefts[j] and rights[i] == rights[j])
            assert green_test(a, b, "D") == (twos[i] == twos[j])


def test_green_against_ideal_oracle_weighted():
    # exhaustive over the 216-element monoid, via ideal fingerprints
    elems, _, table = monoid_tables(Z2, 3)
    size = len(elems)
    lefts = [left_ideal(table, i, size) for i in range(size)]
    rights = [right_ideal(table, i, size) for i in range(size)]
    twos = [two_sided_ideal(table, i, size, lefts) for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            a, b = elems[i], elems[j]
            assert green_test(a, b, "L") == (lefts[i] == lefts[j])
            assert green_test(a, b, "R") == (rights[i] == rights[j])
            assert green_test(a, b, "D") == (twos[i] == twos[j])


def test_is_idempotent():
    assert is_idempotent(identity_endo(Z2, 4))
    assert is_idempotent(eps_rank_r(Z2, 4, 2))
    q34 = Endo(Z2, 4, (3, 4, 3, 3), (0, 0, 0, 0))
    assert not is_idempotent(q34)


def test_wreath_round_trip():
    eps = eps_rank_r(Z2, 5, 2)
    assert to_wreath(eps, 2) == wreath_identity(2)
    assert from_wreath(Z2, wreath_identity(2), 5) == eps
    rng = random.Random(5)
    for _ in range(100):
        w = random_h_elem(Z2, 3, rng)
        assert to_wreath(from_wreath(Z2, w, 5), 3) == w
        assert rank(from_wreath(Z2, w, 5)) == 3


def test_wreath_isomorphism():
    rng = random.Random(6)
    for g in (Z2, symmetric_group(3)):
        for n, r in ((5, 2), (6, 3)):
            for _ in range(250):
                u, v = random_h_elem(g, r, rng), random_h_elem(g, r, rng)
                lhs = to_wreath(compose(from_wreath(g, u, n), from_wreath(g, v, n)), r)
                assert lhs == wreath_mul(g, u, v)


def test_wreath_inverse():
    rng = random.Random(7)
    g = symmetric_group(3)
    for _ in range(100):
        w = random_h_elem(g, 4, rng)
        assert wreath_mul(g, w, wreath_inv(g, w)) == wreath_identity(4)
        assert wreath_mul(g, wreath_inv(g, w), w) == wreath_identity(4)


def test_wreath_group_closure_small():
    # multiplication stays within the enumerated rank-2 elements over Z2
    elems = set(wreath_elements(Z2, 2))
    assert len(elems) == 8
    for u in elems:
        for v in elems:
            assert wreath_mul(Z2, u, v) in elems


def test_to_wreath_rejects_outside_h():
    a = Endo(Z2, 4, (1, 2, 1, 2), (0, 0, 0, 0))  # image {1,2} but bad kernel
    with pytest.raises(NotInH):
        to_wreath(a, 2)
    b = Endo(Z2, 4, (1, 3, 1, 1), (0, 0, 0, 0))  # image is not {1,2}
    with pytest.raises(NotInH):
        to_wreath(b, 2)
    c = Endo(Z2, 4, (1, 2, 1, 1), (0, 0, 1, 0))  # weight twist on the tail
    with pytest.raises(NotInH):
        to_wreath(c, 2)


def test_text_forms():
    a = parse_endo(Z2, 3, "2:1;1:0;3:0")
    assert a == Endo(Z2, 3, (2, 1, 3), (1, 0, 0))
    assert endo_to_text(a) == "2:1;1:0;3:0"
    w = parse_wreath(Z2, 2, "2:0;1:1")
    assert wreath_to_text(w) == "2:0;1:1"
    with pytest.raises(ParseError):
        parse_endo(Z2, 3, "2:1;1:0")
    with pytest.raises(ParseError):
        parse_endo(Z2, 3, "4:0;1:0;2:0")
    with pytest.raises(ParseError):
        parse_endo(Z2, 3, "2:5;1:0;3:0")
    with pytest.raises(ParseError):
        parse_wreath(Z2, 2, "1:0;1:1")  # not a bijection


def test_kernel_data_shape():
    kd = kernel(eps_rank_r(Z2, 5, 2))
    assert isinstance(kd, KernelData)
    assert kd.blocks == ((1, 3, 4, 5), (2,))
    assert kd.mins == (1, 2)
