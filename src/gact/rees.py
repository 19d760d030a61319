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
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from math import comb
from operator import add, itemgetter

from .endo import Endo, WreathElem, wreath_identity, wreath_inv, wreath_mul, wreath_to_text
from .errors import BadRank, ResourceLimit, ZeroEntry
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
    point per block of its partition, and its entry there is fixed by which
    block each picked point lies in and by its weights at those points; so each
    such (perm, slots) pattern gives one id row over a partition's block of
    rows, made once and copied into every partition and column that has it.
    Each partition's rows, block of them, are consecutive; part_columns lists
    each partition's nonzero columns, ascending, part_start maps each
    partition to its first row, and districts gives each row its block minima.
    kernels, thetas, the values' inverses and each column's first-row index are
    made when read.
    """

    def __init__(self, g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if not 1 <= r <= n:
            raise BadRank(f"rank {r} outside [1, {n}]")
        check_entries_cap(g, n, r, max_entries)
        self.group = g
        self.n = n
        self.r = r
        self.lambdas = lambda_list(n, r)
        self.lambda_pos = lambda_pos = {lam: i for i, lam in enumerate(self.lambdas)}
        # a partition's rows are consecutive and share the weight vectors, padded
        # with a 0 that block minima read; a transversal's ids over them depend
        # only on its key: per point, its block and its slot, the point's index
        # among the non-minima or the pad.  A key's id row is made on first
        # sight, its (perm, weights) keys numbered in order of first sight
        padded = [wv + (0,) for wv in itertools.product(range(g.order), repeat=n - r)]
        self.block = block = len(padded)
        seen: dict[tuple, int] = {}
        rows: dict[tuple, list[int]] = {}
        placed = []  # (column, first row, id row) per transversal
        mins = []
        self.part_columns = []
        self.part_start = {}
        for part in set_partitions(n, r):
            start = self.part_start[part] = len(mins) * block
            mins.append(tuple(b[0] for b in part))
            slot = {p: idx for idx, p in enumerate(sorted(q for b in part for q in b[1:]))}
            code = {p: (j, slot.get(p, n - r)) for j, b in enumerate(part, start=1) for p in b}
            cols = []
            for choice in itertools.product(*part):  # a transversal, one point per block
                lam = tuple(sorted(choice))
                if (row := rows.get(key := tuple(map(code.__getitem__, lam)))) is None:
                    perm, slots = zip(*key)
                    get = itemgetter(*slots)
                    row = rows[key] = [seen.setdefault((perm, w), len(seen)) for w in map(get, padded)]
                cols.append(l_idx := lambda_pos[lam])
                placed.append((l_idx, start, row))
            self.part_columns.append(sorted(cols))
        self.districts = [d for d in mins for _ in padded]
        # at r = 1 the getter returns a bare weight, not a 1-tuple
        first_seen = [WreathElem(r, perm, w if r > 1 else (w,)) for perm, w in seen]
        self.values = sorted(first_seen, key=wreath_to_text)
        self.value_id = {v: idx for idx, v in enumerate(self.values)}
        # each cached row renumbered once to the text order, then copied; zeros stay -1
        renumber = [self.value_id[v] for v in first_seen]
        for row in rows.values():
            row[:] = map(renumber.__getitem__, row)
        self.id_columns = ids = [[-1] * len(self.districts) for _ in self.lambdas]
        for l_idx, start, row in placed:
            ids[l_idx][start:start + block] = row
        identity = [self.value_id.get(wreath_identity(r))] * block
        for start, district in zip(self.part_start.values(), mins):
            if ids[lambda_pos[district]][start:start + block] != identity:
                raise AssertionError("district column does not give the identity entry")
        if zero := set(range(len(self.lambdas))).difference(*self.part_columns):
            raise AssertionError(f"image column {self.lambdas[min(zero)]} is entirely zero")
        # every kernel row is nonzero at its own district column, checked above
        self._first_rows: list[dict[int, int] | None] = [None] * len(ids)

    @cached_property
    def kernels(self) -> list[KernelIndex]:
        """Each row's index, partition and weight vector, built on first use."""
        return kernel_list(self.group, self.n, self.r)

    @cached_property
    def thetas(self) -> list[Endo]:
        """Each row's canonical transversal endomorphism, built on first use."""
        return [theta(self.group, self.n, self.r, ki) for ki in self.kernels]

    @cached_property
    def inverses(self) -> list[WreathElem]:
        """Each value's inverse, in value-id order, built on first use."""
        return [wreath_inv(self.group, v) for v in self.values]

    def value_at(self, i_idx: int, l_idx: int) -> WreathElem | None:
        """The entry at (row i, column l), None at a zero."""
        return self.values[x] if (x := self.id_columns[l_idx][i_idx]) >= 0 else None

    @cached_property
    def entries(self) -> list[list[WreathElem | None]]:
        """entries[l][i] is value_at(i, l): a view of the id grid, built on first use."""
        values = self.values + [None]  # -1 indexes the None
        return [[values[x] for x in column] for column in self.id_columns]

    def first_row(self, l_idx: int, x: int) -> int:
        """The first row holding value id x in column l, -1 if none.

        A column's index (value id to first row) is built on its first use and kept.
        """
        if (index := self._first_rows[l_idx]) is None:
            col = self.id_columns[l_idx]
            index = self._first_rows[l_idx] = dict(zip(reversed(col), range(len(col) - 1, -1, -1)))
        return index.get(x, -1)

    def nonzero_positions(self):
        """Positions as (row index, column index) pairs in lexicographic order."""
        for start, cols in zip(self.part_start.values(), self.part_columns):
            yield from itertools.product(range(start, start + self.block), cols)

    def positions_of(self, v: WreathElem) -> list[tuple[int, int]]:
        """The positions (row index, column index) holding v, in lexicographic order."""
        x, ids = self.value_id.get(v, -2), self.id_columns  # -2 matches no cell
        return [(i, l_idx) for i, l_idx in self.nonzero_positions() if ids[l_idx][i] == x]


def square_condition(m: SandwichMatrix, i_idx: int, k_idx: int, l_idx: int, m_idx: int) -> bool:
    """Entry test for a singular square on rows i, k and columns l, m."""
    g = m.group
    p_li, p_lk, p_mi, p_mk = (m.value_at(i, l) for l in (l_idx, m_idx) for i in (i_idx, k_idx))
    if p_li is None or p_lk is None or p_mi is None or p_mk is None:
        raise ZeroEntry("all four entries must be nonzero")
    return wreath_mul(g, wreath_inv(g, p_li), p_lk) == wreath_mul(g, wreath_inv(g, p_mi), p_mk)


def build_sandwich(g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES) -> SandwichMatrix:
    return SandwichMatrix(g, n, r, max_entries)


def extended_rows(s: SandwichMatrix, m: SandwichMatrix) -> list[int]:
    """Per row of s, the row of m that extends it; both of rank r over one group, s at n' <= n.

    The points n'+1..n join the block of 1 with weight 0.  They are non-minima
    above every other one, the last digits of the mixed-radix weight index, so
    the row is the extended partition's first row plus the weight index in s
    times |G|^(n-n').
    """
    tail = tuple(range(s.n + 1, m.n + 1))
    rows = []
    for first, *rest in s.part_start:
        start = m.part_start[(first + tail, *rest)]
        rows.extend(range(start, start + m.block, m.block // s.block))
    return rows


class KeyClasses(dict):
    """Value-id pair code x * K + y + 1, K = len(values) + 1, to the class of its key y * inv(x).

    Rows holding x, y in two columns close a singular square exactly when their
    keys agree.  A code's key, a raw (perm, weights) pair, is taken on its first
    lookup; classes are numbered in order of first sight.
    """

    def __init__(self, m: SandwichMatrix):
        super().__init__()
        self.base, self.m, self.keys = len(m.values) + 1, m, {}

    def __missing__(self, code: int) -> int:
        x, y = divmod(code - 1, self.base)
        (_, perm, weights), (_, b_perm, b_weights), mul = self.m.values[y], self.m.inverses[x], self.m.group.table
        key = (tuple([b_perm[t - 1] for t in perm]),
               tuple([mul[w][b_weights[t - 1]] for w, t in zip(weights, perm)]))
        c = self[code] = self.keys.setdefault(key, len(self.keys))
        return c


def column_pairs(m: SandwichMatrix):
    """Per column pair l < m, in order, the value pairs of the rows nonzero in both.

    Each pair of columns gives one list of (x, y, rows, x0, y0), one entry per
    distinct value-id pair (x, y) in columns l and m, in order of first row:
    rows counts the rows holding it, and (x0, y0) is the first pair of its key
    class (`KeyClasses`).  The rows nonzero in both are the row blocks of the
    partitions whose part_columns hold both, found when column l is reached
    and kept as ranges; a row's pair is counted as its `KeyClasses` code.
    """
    columns, classes = m.id_columns, KeyClasses(m)
    lead = [x * classes.base + 1 for x in range(len(m.values))]  # value id x -> the code of (x, zero)
    holding: list[list] = [[] for _ in columns]  # per column: each holding partition's rows and later columns
    for start, cols in zip(m.part_start.values(), m.part_columns):
        rows = range(start, start + m.block)
        for k, l_idx in enumerate(cols):
            holding[l_idx].append((rows, cols[k + 1:]))
    for l_idx, col_l in enumerate(columns):
        shared = defaultdict(list)  # column m -> the row blocks nonzero in columns l and m, ascending
        for rows, later in holding[l_idx]:
            for mu in later:
                shared[mu].append(rows)
        for mu in range(l_idx + 1, len(columns)):
            blocks, first, pairs = shared.get(mu, ()), {}, []
            xs = map(col_l.__getitem__, itertools.chain.from_iterable(blocks))
            ys = map(columns[mu].__getitem__, itertools.chain.from_iterable(blocks))
            for code, count in Counter(map(add, map(lead.__getitem__, xs), ys)).items():
                x, y = divmod(code - 1, classes.base)
                x0, y0 = first.setdefault(classes[code], (x, y))
                pairs.append((x, y, count, x0, y0))
            yield pairs


def entry_rows(m: SandwichMatrix, heads: list[str], tails: list[str]):
    """One string per row: per nonzero entry, in column order, column l's head, the row and value x's tail.

    A partition's block of rows is read from one slice of each of its columns.
    """
    ids, block, tail = m.id_columns, m.block, tails.__getitem__
    for start, cols in zip(m.part_start.values(), m.part_columns):
        rows = list(map(str, range(start, stop := start + block)))
        cells = ((itertools.repeat(heads[l], block), rows, map(tail, ids[l][start:stop])) for l in cols)
        yield from map("".join, zip(*itertools.chain.from_iterable(cells)))


def matrix_lines(m: SandwichMatrix):
    """The text form, a header and then one string per row, a line per nonzero entry."""
    yield (f"sandwich n={m.n} r={m.r} group-order={m.group.order} "
           f"lambdas={len(m.lambdas)} kernels={len(m.districts)}\n")
    heads = [f"lambda={'.'.join(map(str, lam))} kernel=" for lam in m.lambdas]
    tails = [f" perm={','.join(map(str, v.perm))} weights={','.join(map(str, v.weights))}\n" for v in m.values]
    yield from entry_rows(m, heads, tails)


def matrix_to_text(m: SandwichMatrix) -> str:
    return "".join(matrix_lines(m))
