"""Endomorphisms of a free G-act on n generators, and the wreath group view.

An endomorphism is stored coordinatewise: entry j holds a weight w and a
target t, meaning the j-th free generator maps to w times the t-th one.
Composition is left to right throughout the package.  Indices of free
generators are 1-based in every stored value and text form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInH, ParseError, RankMismatch
from .groups import Group


@dataclass(frozen=True)
class Endo:
    group: Group
    n: int
    targets: tuple[int, ...]  # targets[j-1] = where generator j goes, in [1, n]
    weights: tuple[int, ...]  # weights[j-1] = group element index

    def __post_init__(self):
        if len(self.targets) != self.n or len(self.weights) != self.n:
            raise ValueError("targets and weights must both have length n")
        if any(not 1 <= t <= self.n for t in self.targets):
            raise ValueError("targets must lie in [1, n]")
        if any(not 0 <= w < self.group.order for w in self.weights):
            raise ValueError("weights must be group element indices")


@dataclass(frozen=True)
class KernelData:
    """Kernel of an endomorphism as a congruence invariant.

    blocks partition [1, n] by the target map, ordered by block minimum;
    normweights carries, per coordinate, the weight relative to its block
    minimum, so the weight stored at each minimum is the identity.  Two
    endomorphisms have equal kernels exactly when these fields coincide.
    """

    blocks: tuple[tuple[int, ...], ...]
    mins: tuple[int, ...]
    normweights: tuple[int, ...]


@dataclass(frozen=True)
class WreathElem:
    """Invertible map of rank r: a permutation of [1, r] plus weights."""

    r: int
    perm: tuple[int, ...]  # perm[j-1] = image of j
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.perm) != self.r or len(self.weights) != self.r:
            raise ValueError("perm and weights must both have length r")
        if sorted(self.perm) != list(range(1, self.r + 1)):
            raise ValueError("perm must be a permutation of [1, r]")


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
    if a.r != b.r:
        raise RankMismatch("wreath product needs equal ranks")
    mul = g.table
    perm = tuple(b.perm[t - 1] for t in a.perm)
    weights = tuple(mul[w][b.weights[t - 1]] for w, t in zip(a.weights, a.perm))
    return WreathElem(a.r, perm, weights)


def wreath_inv(g: Group, a: WreathElem) -> WreathElem:
    inv_perm = [0] * a.r
    for j, t in enumerate(a.perm, start=1):
        inv_perm[t - 1] = j
    weights = tuple(g.inverse[a.weights[inv_perm[j] - 1]] for j in range(a.r))
    return WreathElem(a.r, tuple(inv_perm), weights)


def subgroup_order(g: Group, gens, r: int, limit: int) -> int:
    """The order of the subgroup of G wr S_r that gens generate, or limit if that is less.

    The reached set holds the identity and is closed under right products by
    the generators used so far; a generator outside it is used and the set
    closed again, which at least doubles it, so few generators are used.  The
    closing stops as soon as limit elements are held.
    """
    reached = {wreath_identity(r)}
    used: list[WreathElem] = []
    for x in gens:
        if x in reached:
            continue
        used.append(x)
        frontier = list(reached)
        while frontier:
            grown = []
            for a in frontier:
                for y in used:
                    if (b := wreath_mul(g, a, y)) not in reached:
                        reached.add(b)
                        if len(reached) >= limit:
                            return limit
                        grown.append(b)
            frontier = grown
    return len(reached)


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
