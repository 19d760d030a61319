"""Connectivity of matrix positions and the consistency machinery.

Positions of the sandwich matrix are (row, column) index pairs, numbered by
their place in the lexicographic `nonzero_positions()` order.  Two positions
holding the same nonzero value are linked when they share a row or a column;
the transitive closure, one parent list in which a root holds -1 and is its
component's least position, makes connected positions carry the same
generator in the presented group.  Values whose positions fall apart
into several components are handled by splitting off a simple form and
certifying each component against the split by an explicit singular
quadruple found in the matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import suppress
from itertools import chain, islice

from .endo import WreathElem, wreath_identity, wreath_inv, wreath_mul, wreath_to_text
from .errors import NotDecomposable, WitnessNotFound
from .presentation import Presentation
from .rees import SandwichMatrix

Position = tuple[int, int]


class PositionGraph:
    """Union-find over the nonzero positions with equal-value links.

    A position is numbered by its index in m.nonzero_positions(), which is
    lexicographic, and only the parent list is stored: a root holds -1.
    `connectivity` links the larger of two roots under the smaller, so a root
    is its component's least position.
    """

    def __init__(self, m: SandwichMatrix):
        self.matrix = m
        self._parent = [-1] * (m.block * sum(map(len, m.part_columns)))

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] >= 0:
            root = parent[root]
        while i != root:
            parent[i], i = root, parent[i]
        return root

    def roots(self) -> list[Position]:
        """The component roots, ascending; the numbering must cover the nonzero positions exactly."""
        return [pos for pos, p in zip(self.matrix.nonzero_positions(), self._parent, strict=True) if p < 0]

    def components(self) -> dict[Position, list[Position]]:
        """Each root's members, ascending, in one pass: a root comes before its members."""
        out: dict[Position, list[Position]] = {}
        members: dict[int, list[Position]] = {}
        for idx, pos in enumerate(self.matrix.nonzero_positions()):
            if (root := self._find(idx)) == idx:
                out[pos] = members[idx] = []
            members[root].append(pos)
        return out


def connectivity(m: SandwichMatrix) -> PositionGraph:
    """Close the same-row and same-column equal-value links, one partition's rows at a time.

    Positions are numbered row-major over each partition's columns.  Each
    position is linked to the first position of its value in its row (a map
    reset at every row) and in its column, both keyed on value ids, when that
    first position is an earlier one.
    """
    pg = PositionGraph(m)
    find, parent = pg._find, pg._parent
    first_in_col: list[dict[int, int]] = [{} for _ in m.lambdas]
    idx = 0
    for cols, id_rows in zip(m.part_columns, m.part_rows):
        links = [(row, first_in_col[l_idx]) for l_idx, row in zip(cols, id_rows)]
        for off in range(m.block):
            first_in_row: dict[int, int] = {}
            for row, first in links:
                v = row[off]
                root = idx  # a new position is its own root until it is linked
                if (j := first_in_row.setdefault(v, idx)) != idx:
                    root = parent[idx] = find(j)
                if (j := first.setdefault(v, idx)) != idx and (rj := find(j)) != root:
                    if rj < root:
                        parent[root] = rj
                    else:
                        parent[rj] = root
                idx += 1
    return pg


def value_component_counts(pg: PositionGraph) -> dict[WreathElem, tuple[int, int]]:
    """Per value, in the matrix's value order: (number of positions, number of components)."""
    npos = Counter(chain.from_iterable(chain.from_iterable(pg.matrix.part_rows)))
    ncomp = Counter(pg.matrix.id_at(*root) for root in pg.roots())
    return {v: (npos[x], ncomp[x]) for x, v in enumerate(pg.matrix.values)}


# -- simple forms and the rising point -----------------------------------------

def simple_form_elem(r: int, k: int, m: int, a: int) -> WreathElem:
    """The map cycling slots k..k+m forward and closing with weight a."""
    if not (1 <= k and m >= 0 and k + m <= r):
        raise ValueError(f"window [{k}, {k + m}] outside [1, {r}]")
    perm = list(range(1, r + 1))
    weights = [0] * r
    for j in range(k, k + m):
        perm[j - 1] = j + 1
    perm[k + m - 1] = k
    weights[k + m - 1] = a
    return WreathElem(r, tuple(perm), tuple(weights))


def is_simple_form(phi: WreathElem):
    """Recognize a forward cycle on a window with one closing weight.

    Returns the parameters (start, length, weight) or None; the identity
    reports (1, 0, 0).
    """
    diffs = [
        j
        for j in range(1, phi.r + 1)
        if phi.perm[j - 1] != j or phi.weights[j - 1] != 0
    ]
    if not diffs:
        return (1, 0, 0)
    k, last = diffs[0], diffs[-1]
    for j in range(k, last):
        if phi.perm[j - 1] != j + 1 or phi.weights[j - 1] != 0:
            return None
    if phi.perm[last - 1] != k:
        return None
    return (k, last - k, phi.weights[last - 1])


def _positions_and_weights(phi: WreathElem):
    pos = [0] * (phi.r + 1)
    wt = [0] * (phi.r + 1)
    for j, t in enumerate(phi.perm, start=1):
        pos[t] = j
        wt[t] = phi.weights[j - 1]
    return pos, wt


def rising_point(phi: WreathElem) -> int:
    """Scan the top slot leftward through trivially weighted predecessors.

    r+1 when the top slot carries a twist; otherwise walk k down while
    slot k-1 is hit from strictly further left with trivial weight, and
    stop either at a twisted slot (return the current k) or when slot k-1
    is not to the left (return k).  The identity is the only rank with
    value 1.
    """
    pos, wt = _positions_and_weights(phi)
    r = phi.r
    if wt[r] != 0:
        return r + 1
    k = r
    while k >= 2 and pos[k - 1] < pos[k]:
        if wt[k - 1] != 0:
            return k
        k -= 1
    return k


def decompose(g, phi: WreathElem) -> tuple[WreathElem, WreathElem]:
    """Split phi into (remainder, simple form) lowering the rising point.

    Only defined for rising point at least 3.  The simple factor depends
    only on phi: when the top slot is twisted it is the bare insertion at
    the top; otherwise it cycles the window below the rising point far
    enough to absorb the preimage of slot k-1.
    """
    rp = rising_point(phi)
    if rp < 3:
        raise NotDecomposable(f"rising point {rp} admits no simple split")
    pos, wt = _positions_and_weights(phi)
    r = phi.r
    if rp == r + 1:
        gamma = simple_form_elem(r, r, 0, wt[r])
    else:
        k = rp
        l = pos[k - 1]
        a = wt[k - 1]
        anchor = pos[k]
        if l < anchor:
            gamma = simple_form_elem(r, k - 1, 0, a)
        else:
            chain = [anchor] + [pos[k + s] for s in range(1, r - k + 1)]
            below = sum(1 for x in chain if x < l)
            gamma = simple_form_elem(r, k - 1, below, a)
    beta = wreath_mul(g, phi, wreath_inv(g, gamma))
    if wreath_mul(g, beta, gamma) != phi or rising_point(beta) >= rp:
        raise AssertionError("decomposition failed to lower the rising point")
    return beta, gamma


# -- witness search and presentation simplification -----------------------------

def _check_square(g, phi: WreathElem, phi2: WreathElem, psi: WreathElem, sigma: WreathElem):
    if wreath_mul(g, wreath_inv(g, phi), psi) != wreath_mul(g, wreath_inv(g, phi2), sigma):
        raise ValueError("quadruple fails the square condition")


def find_singular_witness(
    m: SandwichMatrix,
    phi: WreathElem,
    phi2: WreathElem,
    psi: WreathElem,
    sigma: WreathElem,
    k_idx: int,
    l_idx: int,
    checked: bool = False,
):
    """Search a 2x2 pattern [[phi, psi], [phi2, sigma]] anchored at psi's position.

    Returns (i, k, l, mu) with entries phi at (i, l), phi2 at (i, mu),
    psi at (k, l) and sigma at (k, mu), or None; rows i are tried in order.
    The quadruple must satisfy the square condition: it is tested up front
    unless the caller has tested it (checked).
    """
    if not checked:
        _check_square(m.group, phi, phi2, psi, sigma)
    x, x2, y, z = (m.value_id.get(v, -2) for v in (phi, phi2, psi, sigma))  # -2 matches no cell
    if m.id_at(k_idx, l_idx) != y or (first := m.first_block(l_idx, x)) < 0:
        return None
    for p in islice(m.column_blocks[l_idx], first, None):  # the partitions whose rows hold phi, ascending
        cols, id_rows = m.part_columns[p], m.part_rows[p]
        row, off = id_rows[bisect_left(cols, l_idx)], -1
        with suppress(ValueError):  # past the block's last row holding phi
            while True:
                off = row.index(x, off + 1)
                for mu, row_mu in zip(cols, id_rows):  # a column holding phi2 at row i is one of its partition's
                    if row_mu[off] == x2 and m.id_at(k_idx, mu) == z:
                        return (p * m.block + off, k_idx, l_idx, mu)
    return None


class MergeWitness:
    """Record of one certified component merge."""

    def __init__(self, value: WreathElem, component: Position, simple_factor: WreathElem, remainder: WreathElem,
                 square: tuple[int, int, int, int]):
        self.value = value
        self.component = component
        self.simple_factor = simple_factor
        self.remainder = remainder
        self.square = square  # rows (t, j), columns (lambda, mu)


def simplify_presentation(
    p: Presentation,
    m: SandwichMatrix,
    pg: PositionGraph,
    witness_log: list | None = None,
) -> Presentation:
    """Certify the value presentation of m and tie each split value.

    p carries one generator per matrix value, numbered value id + 1 (its
    gen_keys are m.values).  Each value whose positions fall into several
    components is tied to the others through a decomposition square found
    in the matrix; the witness is recorded and the merge word
    value * inv(remainder) * inv(simple factor) is appended to p's relators,
    over the same generators.  Every value must end in a single class, so
    each identification is certified.  The identity stays a generator; P2
    kills it and `eliminate_generators` erases it.
    """
    g = m.group
    identity = wreath_identity(m.r)
    if p.gen_keys != m.values:
        raise ValueError("needs a presentation keyed by the values of this matrix")

    # component roots per value; merging a value collapses its list to one root
    roots_by_value: dict[WreathElem, list[Position]] = defaultdict(list)
    for root in pg.roots():
        if (v := m.value_at(*root)) != identity:
            roots_by_value[v].append(root)

    def certify_single(value: WreathElem):
        if value == identity:
            return
        classes = len(roots_by_value.get(value, ()))
        if not classes:
            raise WitnessNotFound(f"value {wreath_to_text(value)} does not occur")
        if classes != 1:
            raise WitnessNotFound(
                f"value {wreath_to_text(value)} is split across {classes} classes"
            )

    merges: list[tuple[int, ...]] = []
    # m.values is in text order and sorted() is stable, so ties keep text order
    multi = sorted([v for v in m.values if len(roots_by_value.get(v, ())) > 1], key=rising_point)
    for value in multi:
        if rising_point(value) < 3:
            raise WitnessNotFound(
                f"value {wreath_to_text(value)} has several components "
                "but no simple split is available"
            )
        beta, gamma = decompose(g, value)
        certify_single(beta)  # certified single before use
        certify_single(gamma)
        _check_square(g, beta, identity, value, gamma)  # one quadruple for all the value's roots
        roots = roots_by_value[value]
        for root in roots:
            j_idx, l_idx = root
            witness = find_singular_witness(m, beta, identity, value, gamma, j_idx, l_idx, checked=True)
            if witness is None:
                raise WitnessNotFound(
                    f"no certifying square for value {wreath_to_text(value)} "
                    f"at component {root}"
                )
            if witness_log is not None:
                witness_log.append(MergeWitness(value, root, gamma, beta, witness))
        roots_by_value[value] = [min(roots)]
        merges.append((m.value_id[value] + 1, -m.value_id[beta] - 1, -m.value_id[gamma] - 1))

    # after merging, each nonidentity value must sit in exactly one class
    for value in m.values:
        certify_single(value)
    return Presentation(
        p.generators, p.relators + merges, p.tags + ["merge"] * len(merges), gen_keys=p.gen_keys
    )
