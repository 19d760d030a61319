"""The rank-r slice of the endomorphism monoid as a Rees matrix structure.

Columns are indexed by the possible images (strictly increasing r-tuples in
[1, n], lexicographic).  Rows are indexed by the possible kernels: a set
partition of [1, n] into r blocks together with a weight vector over the
non-minimal positions.  Each row has a canonical transversal endomorphism
that sends each block minimum to its block index with trivial weight; the
matrix entry at (column, row) is the rank-r composite of the column's
diagonal embedding with that transversal, or zero when the composite drops
rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb

from .endo import Endo, WreathElem, kernel, wreath_identity, wreath_inv, wreath_mul, wreath_to_text
from .errors import BadRank, ResourceLimit
from .groups import Group

DEFAULT_MAX_ENTRIES = 10_000_000


def lambda_list(n: int, r: int) -> list[tuple[int, ...]]:
    """All strictly increasing r-tuples in [1, n], lexicographically sorted."""
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    return list(itertools.combinations(range(1, n + 1), r))


def set_partitions(n: int, r: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of [1, n] into exactly r blocks.

    Blocks are min-sorted tuples; the list is sorted by (block minima,
    block contents) so downstream orderings are byte-reproducible.
    """
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    # partial partitions of [1, k], extended one point at a time; a partial
    # partition is kept only while the points left can open its missing blocks
    out: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(1, n + 1):
        left = n - k
        grown = []
        for blocks in out:
            if r <= len(blocks) + left:
                grown.extend(blocks[:j] + (b + (k,),) + blocks[j + 1:] for j, b in enumerate(blocks))
            if len(blocks) < r <= len(blocks) + 1 + left:
                grown.append(blocks + ((k,),))
        out = grown
    out.sort(key=lambda blocks: (tuple(b[0] for b in blocks), blocks))
    return out


@dataclass(frozen=True)
class KernelIndex:
    """A row index: block partition plus weights at non-minimal positions.

    weightvec lists group elements for the positions of [1, n] outside the
    block minima, in increasing position order.
    """

    partition: tuple[tuple[int, ...], ...]
    weightvec: tuple[int, ...]

    def mins(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.partition)


def stirling2(n: int, r: int) -> int:
    """Partitions of an n-set into r blocks, by the triangle recurrence."""
    row = [1] + [0] * r  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, r + 1)]
    return row[r]


def kernel_list(g: Group, n: int, r: int) -> list[KernelIndex]:
    """All row indices, partitions outermost, weight vectors in mixed radix."""
    parts = set_partitions(n, r)
    out = []
    for p in parts:
        for wv in itertools.product(range(g.order), repeat=n - r):
            out.append(KernelIndex(p, wv))
    return out


def theta(g: Group, n: int, r: int, ki: KernelIndex) -> Endo:
    """The canonical transversal endomorphism of the row ki.

    Sends every member of block j to generator j; block minima carry the
    identity weight, the other positions carry ki.weightvec in position
    order.
    """
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    targets = [0] * n
    weights = [0] * n
    mins = set(ki.mins())
    for j, block in enumerate(ki.partition, start=1):
        for k in block:
            targets[k - 1] = j
    nonmins = [k for k in range(1, n + 1) if k not in mins]
    for w, k in zip(ki.weightvec, nonmins):
        weights[k - 1] = w
    return Endo(g, n, tuple(targets), tuple(weights))


def q_of(g: Group, n: int, r: int, lam: tuple[int, ...]) -> Endo:
    """The column map: generator k goes to the k-th member of lam, the tail to its first."""
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    targets = tuple(lam) + (lam[0],) * (n - r)
    return Endo(g, n, targets, (0,) * n)


def kernel_index_of(alpha: Endo) -> KernelIndex:
    """The row index of any endomorphism: its kernel, weight-normalized."""
    kd = kernel(alpha)
    mins = set(kd.mins)
    weightvec = tuple(
        kd.normweights[k - 1] for k in range(1, alpha.n + 1) if k not in mins
    )
    return KernelIndex(kd.blocks, weightvec)


class SandwichMatrix:
    """Immutable bundle of the rank-r structure over one group.

    entries[column][row] is a WreathElem or None (the adjoined zero).
    Equal entries are one shared object, built and validated once; values
    lists them sorted by text, and a value's id is its index there.
    """

    def __init__(self, g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if not 1 <= r <= n:
            raise BadRank(f"rank {r} outside [1, {n}]")
        # columns times rows in closed form, so the cap fires before the rows exist;
        # first the nonzero count, a lower bound (S(n, r) >= r^(n-r)) that costs no
        # O(n r) Stirling recurrence
        cols = comb(n, r)
        if (cols * (r * g.order) ** (n - r) > max_entries
                or cols * stirling2(n, r) * g.order ** (n - r) > max_entries):
            raise ResourceLimit("sandwich matrix entries", max_entries)
        self.group = g
        self.n = n
        self.r = r
        self.lambdas = lambda_list(n, r)
        self.kernels = kernel_list(g, n, r)
        self.lambda_pos = {lam: i for i, lam in enumerate(self.lambdas)}
        self.kernel_pos = {ki: i for i, ki in enumerate(self.kernels)}
        self.thetas = [theta(g, n, r, ki) for ki in self.kernels]
        self.districts = [ki.mins() for ki in self.kernels]
        identity = wreath_identity(r)
        # the rows of one partition are consecutive and share their targets,
        # so the perm and the zero test are made once per partition
        block = g.order ** (n - r)
        interned: dict[tuple, WreathElem] = {}
        entries: list[list[WreathElem | None]] = []
        for lam in self.lambdas:
            offsets = [u - 1 for u in lam]
            column: list[WreathElem | None] = []
            for start in range(0, len(self.thetas), block):
                targets = self.thetas[start].targets
                perm = tuple([targets[u] for u in offsets])
                if len(set(perm)) != r:
                    column.extend([None] * block)
                    continue
                for th in self.thetas[start:start + block]:
                    weights = th.weights
                    key = (perm, tuple([weights[u] for u in offsets]))
                    v = interned.get(key)
                    if v is None:
                        v = interned[key] = WreathElem(r, *key)
                    column.append(v)
            entries.append(column)
        self.entries = entries
        self.values = sorted(interned.values(), key=wreath_to_text)
        self.value_id = {v: idx for idx, v in enumerate(self.values)}
        for i in range(len(self.kernels)):
            if entries[self.lambda_pos[self.districts[i]]][i] != identity:
                raise AssertionError("district column does not give the identity entry")
        for l_idx, per_lambda in enumerate(entries):
            if all(v is None for v in per_lambda):
                raise AssertionError(f"image column {self.lambdas[l_idx]} is entirely zero")
        # every kernel row is nonzero at its own district column, checked above

    def nonzero_positions(self):
        """Positions as (row index, column index) pairs in lexicographic order."""
        for i in range(len(self.kernels)):
            for l_idx in range(len(self.lambdas)):
                if self.entries[l_idx][i] is not None:
                    yield (i, l_idx)

    def positions_of(self, v: WreathElem) -> list[tuple[int, int]]:
        """The positions (row index, column index) holding v, in lexicographic order."""
        x, ids = self.value_id.get(v, -2), self.id_columns  # -2 matches no cell
        return [(i, l_idx) for i in range(len(self.kernels)) for l_idx, col in enumerate(ids) if col[i] == x]

    @cached_property
    def id_columns(self) -> list[list[int]]:
        """id_columns[l][i] is the value id of entries[l][i], -1 at a zero; built on first use."""
        # equal entries are one object, so an entry's id() finds its value id
        vid = {id(v): idx for idx, v in enumerate(self.values)} | {id(None): -1}
        return [list(map(vid.__getitem__, map(id, col))) for col in self.entries]


def build_sandwich(g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SandwichMatrix:
    return SandwichMatrix(g, n, r, max_entries)


def value_alphabet(m: SandwichMatrix):
    """The matrix's value numbering and the column-pair square key.

    Returns (m.values, m.id_columns, key), with the memoized key(x, y) =
    y * inv(x) of two value ids.  Rows holding x, y and x', y' in columns
    l, m close a singular square exactly when key(x, y) == key(x', y').
    """
    g, values = m.group, m.values

    @cache
    def key(x: int, y: int) -> WreathElem:
        return wreath_mul(g, values[y], wreath_inv(g, values[x]))

    return values, m.id_columns, key


def matrix_lines(m: SandwichMatrix):
    """The text form one line at a time: a header, then one record per nonzero entry."""
    yield (
        f"sandwich n={m.n} r={m.r} group-order={m.group.order} "
        f"lambdas={len(m.lambdas)} kernels={len(m.kernels)}\n"
    )
    # column and value texts are made once; an entry's id() finds its value's text
    lams = [".".join(map(str, lam)) for lam in m.lambdas]
    texts = {id(v): f"perm={','.join(map(str, v.perm))} weights={','.join(map(str, v.weights))}"
             for v in m.values}
    for i, l_idx in m.nonzero_positions():
        yield f"lambda={lams[l_idx]} kernel={i} {texts[id(m.entries[l_idx][i])]}\n"


def matrix_to_text(m: SandwichMatrix) -> str:
    return "".join(matrix_lines(m))
