"""Endomorphisms of a free G-act on n generators, and the wreath group view.

An endomorphism is stored coordinatewise: entry j holds a weight w and a
target t, meaning the j-th free generator maps to w times the t-th one.
Composition is left to right throughout the package.  Indices of free
generators are 1-based in every stored value and text form.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotInH, ParseError, RankMismatch
from .groups import Group


class Endo(namedtuple("Endo", "group n targets weights")):
    """Generator j goes to weights[j-1] (a group element index) times generator targets[j-1] in [1, n]."""

    __slots__ = ()

    def __new__(cls, group: Group, n: int, targets: tuple[int, ...], weights: tuple[int, ...]):
        if len(targets) != n or len(weights) != n:
            raise ValueError("targets and weights must both have length n")
        if any(not 1 <= t <= n for t in targets):
            raise ValueError("targets must lie in [1, n]")
        if any(not 0 <= w < group.order for w in weights):
            raise ValueError("weights must be group element indices")
        return tuple.__new__(cls, (group, n, targets, weights))


class KernelData(namedtuple("KernelData", "blocks mins normweights")):
    """Kernel of an endomorphism as a congruence invariant.

    blocks partition [1, n] by the target map, ordered by block minimum;
    normweights carries, per coordinate, the weight relative to its block
    minimum, so the weight stored at each minimum is the identity.  Two
    endomorphisms have equal kernels exactly when these fields coincide.
    """

    __slots__ = ()


class WreathElem(namedtuple("WreathElem", "r perm weights")):
    """Invertible map of rank r: a permutation of [1, r] (perm[j-1] is the image of j) plus weights."""

    __slots__ = ()

    def __new__(cls, r: int, perm: tuple[int, ...], weights: tuple[int, ...]):
        if len(perm) != r or len(weights) != r:
            raise ValueError("perm and weights must both have length r")
        if sorted(perm) != list(range(1, r + 1)):
            raise ValueError("perm must be a permutation of [1, r]")
        return tuple.__new__(cls, (r, perm, weights))


def identity_endo(g: Group, n: int) -> Endo:
    return Endo(g, n, tuple(range(1, n + 1)), (0,) * n)


def compose(a: Endo, b: Endo) -> Endo:
    """a followed by b."""
    if a.n != b.n or a.group is not b.group:
        raise RankMismatch("composition needs a common act rank and weight group")
    mul = a.group.table
    targets = tuple(b.targets[t - 1] for t in a.targets)
    weights = tuple(mul[w][b.weights[t - 1]] for w, t in zip(a.weights, a.targets))
    return Endo(a.group, a.n, targets, weights)


def image(alpha: Endo) -> tuple[int, ...]:
    return tuple(sorted(set(alpha.targets)))


def rank(alpha: Endo) -> int:
    return len(set(alpha.targets))


def kernel(alpha: Endo) -> KernelData:
    by_target: dict[int, list[int]] = {}
    for j, t in enumerate(alpha.targets, start=1):
        by_target.setdefault(t, []).append(j)
    blocks = tuple(sorted((tuple(b) for b in by_target.values()), key=lambda b: b[0]))
    mins = tuple(b[0] for b in blocks)
    mul = alpha.group.table
    inv = alpha.group.inverse
    norm = [0] * alpha.n
    for block in blocks:
        base = inv[alpha.weights[block[0] - 1]]
        for k in block:
            norm[k - 1] = mul[alpha.weights[k - 1]][base]
    return KernelData(blocks, mins, tuple(norm))


def green_test(a: Endo, b: Endo, rel: str) -> bool:
    """Green's relation test; rel is one of L, R, H, D.

    On these monoids L is image equality, R is kernel equality, H is both
    and D is rank equality.
    """
    if a.n != b.n or a.group is not b.group:
        raise RankMismatch("Green's relations need a common act rank and weight group")
    if rel == "L":
        return image(a) == image(b)
    if rel == "R":
        return kernel(a) == kernel(b)
    if rel == "H":
        return image(a) == image(b) and kernel(a) == kernel(b)
    if rel == "D":
        return rank(a) == rank(b)
    raise ValueError(f"unknown relation {rel!r}; use L, R, H or D")


def is_idempotent(alpha: Endo) -> bool:
    return compose(alpha, alpha) == alpha


# -- wreath group view of the distinguished group H-class ---------------------

def wreath_identity(r: int) -> WreathElem:
    return WreathElem(r, tuple(range(1, r + 1)), (0,) * r)


def wreath_mul(g: Group, a: WreathElem, b: WreathElem) -> WreathElem:
    """a followed by b, matching endomorphism composition."""
    r, a_perm, a_weights = a  # unpacked once: a field read costs more than a local
    r_b, b_perm, b_weights = b
    if r != r_b:
        raise RankMismatch("wreath product needs equal ranks")
    mul = g.table
    perm = tuple(b_perm[t - 1] for t in a_perm)
    weights = tuple(mul[w][b_weights[t - 1]] for w, t in zip(a_weights, a_perm))
    return WreathElem(r, perm, weights)


def wreath_inv(g: Group, a: WreathElem) -> WreathElem:
    r, perm, a_weights = a
    inv_perm = [0] * r
    for j, t in enumerate(perm, start=1):
        inv_perm[t - 1] = j
    inverse = g.inverse
    weights = tuple(inverse[a_weights[inv_perm[j] - 1]] for j in range(r))
    return WreathElem(r, tuple(inv_perm), weights)


def wreath_order(g: Group, v: WreathElem) -> int:
    """The least k >= 1 with v^k the identity."""
    one = wreath_identity(v.r)
    k, power = 1, v
    while power != one:
        power = wreath_mul(g, power, v)
        k += 1
    return k


def to_wreath(alpha: Endo, r: int) -> WreathElem:
    """Drop the coordinates beyond r, which must duplicate coordinate 1.

    Only defined on the group H-class of rank r whose image is {1..r} and
    whose kernel merges coordinate 1 with every coordinate past r.
    """
    if not 1 <= r <= alpha.n:
        raise NotInH(f"rank {r} outside [1, {alpha.n}]")
    head = alpha.targets[:r]
    if sorted(head) != list(range(1, r + 1)):
        raise NotInH("image is not {1..r} or the first r coordinates are not independent")
    t1, w1 = alpha.targets[0], alpha.weights[0]
    for k in range(r, alpha.n):
        if alpha.targets[k] != t1 or alpha.weights[k] != w1:
            raise NotInH(f"coordinate {k + 1} does not duplicate coordinate 1")
    return WreathElem(r, head, alpha.weights[:r])


def from_wreath(g: Group, phi: WreathElem, n: int) -> Endo:
    """Reinstate the duplicated coordinates r+1..n."""
    if phi.r > n:
        raise RankMismatch(f"cannot embed rank {phi.r} into act rank {n}")
    pad = n - phi.r
    return Endo(g, n, phi.perm + (phi.perm[0],) * pad, phi.weights + (phi.weights[0],) * pad)


# -- text forms ---------------------------------------------------------------

def _parse_pairs(g: Group, count: int, bound: int, text: str):
    entries = text.strip().split(";")
    if len(entries) != count:
        raise ParseError(f"expected {count} entries, got {len(entries)}")
    targets, weights = [], []
    for pos, entry in enumerate(entries, start=1):
        parts = entry.split(":")
        if len(parts) != 2:
            raise ParseError(f"entry {pos} is not of the form t:g: {entry!r}")
        try:
            t, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"entry {pos} has non-integer fields: {entry!r}") from None
        if not 1 <= t <= bound:
            raise ParseError(f"entry {pos}: target {t} outside [1, {bound}]")
        if not 0 <= w < g.order:
            raise ParseError(f"entry {pos}: weight {w} outside 0..{g.order - 1}")
        targets.append(t)
        weights.append(w)
    return tuple(targets), tuple(weights)


def parse_endo(g: Group, n: int, text: str) -> Endo:
    targets, weights = _parse_pairs(g, n, n, text)
    return Endo(g, n, targets, weights)


def wreath_to_text(phi: WreathElem) -> str:
    return ";".join(f"{t}:{w}" for t, w in zip(phi.perm, phi.weights))


def parse_wreath(g: Group, r: int, text: str) -> WreathElem:
    targets, weights = _parse_pairs(g, r, r, text)
    if sorted(targets) != list(range(1, r + 1)):
        raise ParseError("targets must form a bijection of [1, r]")
    return WreathElem(r, targets, weights)
