"""Idempotents, E-squares, and the rectangular-band singularity test."""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from math import comb

from .endo import (
    Endo,
    WreathElem,
    compose,
    from_wreath,
    green_test,
    is_idempotent,
    wreath_inv,
    wreath_mul,
)
from .errors import ResourceLimit, ZeroEntry
from .groups import Group
from .rees import DEFAULT_MAX_ENTRIES, SandwichMatrix, build_sandwich, check_entries_cap, column_pairs, q_of

DEFAULT_MAX_IDEMPOTENTS = 1_000_000


def count_idempotents(g: Group, n: int, restrict_rank: int | None = None) -> int:
    ranks = [restrict_rank] if restrict_rank is not None else range(1, n + 1)
    return sum(comb(n, r) * (r * g.order) ** (n - r) for r in ranks)


def enumerate_idempotents(
    g: Group,
    n: int,
    restrict_rank: int | None = None,
    max_count: int = DEFAULT_MAX_IDEMPOTENTS,
) -> list[Endo]:
    """All idempotent endomorphisms, in a fixed order.

    An endomorphism is idempotent exactly when its target map fixes its
    image pointwise and its weights are trivial at the image points; so we
    enumerate image sets, then target assignments and weights off the
    image.  Order: rank ascending, image set lexicographic, then targets
    and weights in product order.
    """
    total = count_idempotents(g, n, restrict_rank)
    if total > max_count:
        raise ResourceLimit("idempotent enumeration", max_count)
    ranks = [restrict_rank] if restrict_rank is not None else range(1, n + 1)
    out: list[Endo] = []
    for r in ranks:
        if not 1 <= r <= n:
            raise ValueError(f"rank {r} outside [1, {n}]")
        for img in itertools.combinations(range(1, n + 1), r):
            img_set = set(img)
            rest = [k for k in range(1, n + 1) if k not in img_set]
            for assign in itertools.product(img, repeat=len(rest)):
                base_targets = [0] * n
                for t in img:
                    base_targets[t - 1] = t
                for k, t in zip(rest, assign):
                    base_targets[k - 1] = t
                targets = tuple(base_targets)
                for wv in itertools.product(range(g.order), repeat=len(rest)):
                    weights = [0] * n
                    for k, w in zip(rest, wv):
                        weights[k - 1] = w
                    out.append(Endo(g, n, targets, tuple(weights)))
    return out


class ESquare(namedtuple("ESquare", "e f g h")):
    """Four idempotents (e, f, g, h) with e R f L g R h L e."""

    __slots__ = ()

    def __new__(cls, e: Endo, f: Endo, g: Endo, h: Endo):
        for x in (e, f, g, h):
            if not is_idempotent(x):
                raise ValueError("all four corners must be idempotent")
        if not (
            green_test(e, f, "R")
            and green_test(f, g, "L")
            and green_test(g, h, "R")
            and green_test(h, e, "L")
        ):
            raise ValueError("corners must satisfy e R f L g R h L e")
        return tuple.__new__(cls, (e, f, g, h))


def is_rectangular_band(sq: ESquare) -> bool:
    """One corner equality decides all four."""
    return compose(sq.e, sq.g) == sq.f


def singular_witness(
    sq: ESquare,
    candidates: list[Endo] | None = None,
    kind: str = "any",
    max_count: int = DEFAULT_MAX_IDEMPOTENTS,
) -> Endo | None:
    """Brute-force search for an idempotent that singularizes the square.

    kind selects "updown", "leftright" or "any".  Returns the first
    witness in enumeration order, or None.
    """
    e, f, g, h = sq.e, sq.f, sq.g, sq.h
    if candidates is None:
        candidates = enumerate_idempotents(e.group, e.n, max_count=max_count)
    for k in candidates:
        if kind in ("any", "updown"):
            if (
                compose(e, k) == e
                and compose(f, k) == f
                and compose(k, e) == h
                and compose(k, f) == g
            ):
                return k
        if kind in ("any", "leftright"):
            if (
                compose(k, e) == e
                and compose(k, h) == h
                and compose(e, k) == f
                and compose(h, k) == g
            ):
                return k
    return None


def square_condition(m: SandwichMatrix, i_idx: int, k_idx: int, l_idx: int, m_idx: int) -> bool:
    """Entry test for a singular square on rows i, k and columns l, m."""
    g = m.group
    p_li, p_lk, p_mi, p_mk = (m.value_at(i, l) for l in (l_idx, m_idx) for i in (i_idx, k_idx))
    if p_li is None or p_lk is None or p_mi is None or p_mk is None:
        raise ZeroEntry("all four entries must be nonzero")
    return wreath_mul(g, wreath_inv(g, p_li), p_lk) == wreath_mul(g, wreath_inv(g, p_mi), p_mk)


def rees_element(m: SandwichMatrix, i_idx: int, w: WreathElem, l_idx: int) -> Endo:
    """The endomorphism with kernel row i, image column l and coordinate w."""
    th = m.thetas[i_idx]
    mid = from_wreath(m.group, w, m.n)
    return compose(compose(th, mid), q_of(m.group, m.n, m.r, m.lambdas[l_idx]))


def idempotent_at(m: SandwichMatrix, i_idx: int, l_idx: int) -> Endo:
    """The unique idempotent in the group H-class at (row i, column l)."""
    p = m.value_at(i_idx, l_idx)
    if p is None:
        raise ZeroEntry(f"H-class at row {i_idx}, column {m.lambdas[l_idx]} is not a group")
    return rees_element(m, i_idx, wreath_inv(m.group, p), l_idx)


def esquare_at(m: SandwichMatrix, i_idx: int, k_idx: int, l_idx: int, m_idx: int) -> ESquare:
    """The square of idempotents on rows i, k and columns l, m."""
    return ESquare(
        idempotent_at(m, i_idx, l_idx),
        idempotent_at(m, i_idx, m_idx),
        idempotent_at(m, k_idx, m_idx),
        idempotent_at(m, k_idx, l_idx),
    )


def squares_report(g: Group, n: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> list[dict]:
    """Per-rank counts of idempotents, nondegenerate E-squares and singular ones.

    Each nonzero cell of the built grid holds one idempotent.  Per column
    pair of `column_pairs`, every two rows nonzero in both columns close a
    square, and a singular one when their pairs share a key class
    (square_condition is the entry-level oracle for this).  The entries cap
    is checked for every rank, ascending, before any rank is built.
    """
    for r in range(1, n + 1):
        check_entries_cap(g, n, r, max_entries)
    report = []
    for r in range(1, n + 1):
        m = build_sandwich(g, n, r, max_entries)
        n_squares = n_singular = 0
        for pairs in column_pairs(m):
            classes: Counter = Counter()
            for _, _, rows, x0, y0 in pairs:
                classes[x0, y0] += rows
            n_squares += comb(sum(classes.values()), 2)
            n_singular += sum(comb(size, 2) for size in classes.values())
        report.append({
            "rank": r,
            "idempotents": sum(len(col) - col.count(-1) for col in m.id_columns),
            "squares": n_squares,
            "singular": n_singular,
        })
    return report
