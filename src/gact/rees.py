"""The rank-r slice of the endomorphism monoid as a Rees matrix structure.

Columns are indexed by the possible images (strictly increasing r-tuples in
[1, n], lexicographic).  Rows are indexed by the possible kernels: a set
partition of [1, n] into r blocks together with a weight vector over the
non-minimal positions.  Each row has a canonical transversal endomorphism
that sends each block minimum to its block index with trivial weight; the
matrix entry at (column, row) is the rank-r composite of the column's
diagonal embedding with that transversal, or zero when the composite drops
rank, which happens exactly when the column is not a transversal of the
row's partition.  The matrix is stored once, as a grid of value ids.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from functools import cached_property
from math import comb
from operator import add, itemgetter

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


class KernelIndex(namedtuple("KernelIndex", "partition weightvec")):
    """A row index: block partition plus weights at non-minimal positions.

    weightvec lists group elements for the positions of [1, n] outside the
    block minima, in increasing position order.
    """

    __slots__ = ()

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


def check_entries_cap(g: Group, n: int, r: int, max_entries: int):
    """Raise ResourceLimit when the (n, r) matrix has more than max_entries cells."""
    # columns times rows in closed form, so the cap fires before any row exists;
    # first the nonzero count, a lower bound (S(n, r) >= r^(n-r)) that costs no
    # O(n r) Stirling recurrence
    cols = comb(n, r)
    if (cols * (r * g.order) ** (n - r) > max_entries
            or cols * stirling2(n, r) * g.order ** (n - r) > max_entries):
        raise ResourceLimit("sandwich matrix entries", max_entries)


class SandwichMatrix:
    """Immutable bundle of the rank-r structure over one group.

    The matrix is id_columns[column][row], a value id or -1 at the adjoined
    zero; values lists the distinct entries sorted by text, and a value's id
    is its index there.  A row is nonzero exactly at the columns that pick one
    point per block of its partition, so only those cells are built; thetas and
    kernel_pos are made when read.
    """

    def __init__(self, g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if not 1 <= r <= n:
            raise BadRank(f"rank {r} outside [1, {n}]")
        check_entries_cap(g, n, r, max_entries)
        self.group = g
        self.n = n
        self.r = r
        self.lambdas = lambda_list(n, r)
        self.kernels = kernel_list(g, n, r)
        self.lambda_pos = {lam: i for i, lam in enumerate(self.lambdas)}
        # a partition's rows are consecutive and share the weight vectors, padded
        # with a 0 that block minima read: at each transversal one getter gives
        # every row's weights; (perm, weights) keys are numbered in order of first sight
        padded = [wv + (0,) for wv in itertools.product(range(g.order), repeat=n - r)]
        block, lambda_pos = len(padded), self.lambda_pos
        self.districts = [ki.mins() for ki in self.kernels[::block] for _ in padded]
        seen: dict[tuple, int] = {}
        self.id_columns = ids = [[-1] * len(self.kernels) for _ in self.lambdas]
        for start in range(0, len(self.kernels), block):
            part = self.kernels[start].partition
            slot = [n - r] * (n + 1)  # a point's index among the non-minima, else the pad
            for idx, point in enumerate(sorted(p for b in part for p in b[1:])):
                slot[point] = idx
            for choice in itertools.product(*part):  # a transversal, one point per block
                lam, perm = zip(*sorted(zip(choice, itertools.count(1))))  # perm: each point's block
                get = itemgetter(*map(slot.__getitem__, lam))
                ids[lambda_pos[lam]][start:start + block] = [
                    seen.setdefault((perm, w), len(seen)) for w in map(get, padded)]
        # at r = 1 the getter returns a bare weight, not a 1-tuple
        first_seen = [WreathElem(r, perm, w if r > 1 else (w,)) for perm, w in seen]
        self.values = sorted(first_seen, key=wreath_to_text)
        self.value_id = {v: idx for idx, v in enumerate(self.values)}
        # renumbered in place to the text order; renumber[-1] is -1, so zeros stay -1
        renumber = [self.value_id[v] for v in first_seen] + [-1]
        for column in ids:
            column[:] = map(renumber.__getitem__, column)
        identity = self.value_id.get(wreath_identity(r))
        for i in range(len(self.kernels)):
            if ids[self.lambda_pos[self.districts[i]]][i] != identity:
                raise AssertionError("district column does not give the identity entry")
        for l_idx, column in enumerate(ids):
            if max(column) < 0:
                raise AssertionError(f"image column {self.lambdas[l_idx]} is entirely zero")
        # every kernel row is nonzero at its own district column, checked above

    @cached_property
    def thetas(self) -> list[Endo]:
        """Each row's canonical transversal endomorphism, built on first use."""
        return [theta(self.group, self.n, self.r, ki) for ki in self.kernels]

    @cached_property
    def kernel_pos(self) -> dict[KernelIndex, int]:
        """Each row index's position in kernels, built on first use."""
        return {ki: i for i, ki in enumerate(self.kernels)}

    def value_at(self, i_idx: int, l_idx: int) -> WreathElem | None:
        """The entry at (row i, column l), None at a zero."""
        return self.values[x] if (x := self.id_columns[l_idx][i_idx]) >= 0 else None

    @cached_property
    def entries(self) -> list[list[WreathElem | None]]:
        """entries[l][i] is value_at(i, l): a view of the id grid, built on first use."""
        values = self.values + [None]  # -1 indexes the None
        return [[values[x] for x in column] for column in self.id_columns]

    def nonzero_positions(self):
        """Positions as (row index, column index) pairs in lexicographic order."""
        block = self.group.order ** (self.n - self.r)
        for start in range(0, len(self.kernels), block):
            picks = itertools.product(*self.kernels[start].partition)
            cols = sorted(map(self.lambda_pos.__getitem__, map(tuple, map(sorted, picks))))
            yield from itertools.product(range(start, start + block), cols)

    def positions_of(self, v: WreathElem) -> list[tuple[int, int]]:
        """The positions (row index, column index) holding v, in lexicographic order."""
        x, ids = self.value_id.get(v, -2), self.id_columns  # -2 matches no cell
        return [(i, l_idx) for i in range(len(self.kernels)) for l_idx, col in enumerate(ids) if col[i] == x]


def build_sandwich(g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SandwichMatrix:
    return SandwichMatrix(g, n, r, max_entries)


def extended_rows(s: SandwichMatrix, m: SandwichMatrix) -> list[int]:
    """Per row of s, the row of m that extends it; both of rank r over one group, s at n' <= n.

    The points n'+1..n join the block of 1 with weight 0.  They are non-minima
    above every other one, the last digits of the mixed-radix weight index, so
    the row is the extended partition's index times |G|^(n-r) plus the weight
    index in s times |G|^(n-n').
    """
    k = m.group.order
    block, s_block = k ** (m.n - m.r), k ** (s.n - s.r)
    part_index = {ki.partition: idx for idx, ki in enumerate(m.kernels[::block])}
    tail = tuple(range(s.n + 1, m.n + 1))
    rows = []
    for ki in s.kernels[::s_block]:
        first, *rest = ki.partition
        start = part_index[(first + tail, *rest)] * block
        rows.extend(range(start, start + block, block // s_block))
    return rows


def column_pairs(m: SandwichMatrix):
    """Per column pair l < m, in order, the value pairs of the rows nonzero in both.

    Each pair of columns gives one list of (x, y, rows, x0, y0), one entry per
    distinct value-id pair (x, y) in columns l and m, in order of first row:
    rows counts the rows holding it, and (x0, y0) is the first pair of its key
    class.  Two rows close a singular square exactly when their keys
    y * inv(x) agree.  Column l's nonzero rows are listed once; a row's pair is
    counted as the code x * K + y + 1, K = len(values) + 1, so a zero y gives
    a multiple of K and is skipped.
    """
    g, values, columns = m.group, m.values, m.id_columns
    base = len(values) + 1
    inverses = [wreath_inv(g, v) for v in values]
    keys: dict[WreathElem, int] = {}  # key y * inv(x) -> class id
    classes: dict[int, int] = {}  # code -> class id
    for l_idx, col_l in enumerate(columns):
        rows = list(itertools.compress(range(len(col_l)), map((0).__le__, col_l)))  # nonzero, ascending
        codes_l = [x * base + 1 for x in map(col_l.__getitem__, rows)]
        for col_m in columns[l_idx + 1:]:
            first: dict[int, tuple[int, int]] = {}
            pairs = []
            for code, count in Counter(map(add, codes_l, map(col_m.__getitem__, rows))).items():
                if code % base:  # else column m is zero there
                    x, y = divmod(code - 1, base)
                    if (c := classes.get(code)) is None:
                        c = classes[code] = keys.setdefault(wreath_mul(g, values[y], inverses[x]), len(keys))
                    x0, y0 = first.setdefault(c, (x, y))
                    pairs.append((x, y, count, x0, y0))
            yield pairs


def matrix_lines(m: SandwichMatrix):
    """The text form one line at a time: a header, then one record per nonzero entry."""
    yield (
        f"sandwich n={m.n} r={m.r} group-order={m.group.order} "
        f"lambdas={len(m.lambdas)} kernels={len(m.kernels)}\n"
    )
    # column and value texts are made once, the value texts in id order
    lams = [".".join(map(str, lam)) for lam in m.lambdas]
    texts = [f"perm={','.join(map(str, v.perm))} weights={','.join(map(str, v.weights))}"
             for v in m.values]
    for i, l_idx in m.nonzero_positions():
        yield f"lambda={lams[l_idx]} kernel={i} {texts[m.id_columns[l_idx][i]]}\n"


def matrix_to_text(m: SandwichMatrix) -> str:
    return "".join(matrix_lines(m))
