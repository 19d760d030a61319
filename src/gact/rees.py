"""The rank-r slice of the endomorphism monoid as a Rees matrix structure.

Columns are indexed by the possible images (strictly increasing r-tuples in
[1, n], lexicographic).  Rows are indexed by the possible kernels: a set
partition of [1, n] into r blocks together with a weight vector over the
non-minimal positions.  Each row has a canonical transversal endomorphism
that sends each block minimum to its block index with trivial weight; the
matrix entry at (column, row) is the rank-r composite of the column's
diagonal embedding with that transversal, or zero when the composite drops
rank, which happens exactly when the column is not a transversal of the
row's partition.  The matrix is stored once, as its nonzero blocks of value ids.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, namedtuple
from functools import cached_property
from math import comb
from operator import add, itemgetter, mul

from .endo import Endo, WreathElem, wreath_identity, wreath_inv, wreath_mul, wreath_to_text
from .errors import BadRank, ResourceLimit, ZeroEntry
from .groups import Group

DEFAULT_MAX_ENTRIES = 10_000_000


def lambda_list(n: int, r: int) -> list[tuple[int, ...]]:
    """All strictly increasing r-tuples in [1, n], lexicographically sorted."""
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    return list(itertools.combinations(range(1, n + 1), r))


def set_partitions(n: int, r: int):
    """All partitions of [1, n] into exactly r blocks, as (partition, minima, code) records.

    Blocks are min-sorted tuples; the records are sorted by (block minima,
    block contents) so downstream orderings are byte-reproducible.  minima is
    the block minima, one tuple shared by the partitions holding them; code[q]
    is j (n - r + 1) + s for the point q in block j (from 1), s its index
    among the non-minima, ascending, or n - r at a block minimum.
    """
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    shared, width = {}, n - r + 1  # each block tuple is made once and shared by the partitions holding it
    for rest in itertools.combinations(range(2, n + 1), r - 1):
        mins, others = (1, *rest), sorted(set(range(2, n + 1)).difference(rest))
        lead = [bisect_right(mins, q) * width + n - r for q in range(n + 1)]  # right at the minima only
        grouped = []  # each other point, ascending, joins a block whose minimum is below it
        for choice in itertools.product(*[range(bisect_right(mins, q)) for q in others]):
            blocks, code = [[m] for m in mins], lead.copy()
            for s, (q, j) in enumerate(zip(others, choice)):
                blocks[j].append(q)
                code[q] = (j + 1) * width + s
            grouped.append((tuple([shared.setdefault(b, b) for b in map(tuple, blocks)]), mins, code))
        yield from sorted(grouped)  # the minima come in lexicographic order, partitions differ within a group


class KernelIndex(namedtuple("KernelIndex", "partition weightvec")):
    """A row index: block partition plus weights at non-minimal positions.

    weightvec lists group elements for the positions of [1, n] outside the
    block minima, in increasing position order.
    """

    __slots__ = ()

    def mins(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.partition)


def kernel_list(g: Group, n: int, r: int) -> list[KernelIndex]:
    """All row indices, partitions outermost, weight vectors in mixed radix."""
    out = []
    for p, _, _ in set_partitions(n, r):
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


def partition_count(n: int, r: int) -> int:
    """S(n, r), the partitions of an n-set into r blocks: diag[j] = S(j + d, j) as d rises to n - r."""
    diag = [1] * (r + 1)
    for _ in range(n - r):  # S(j + d, j) = S(j + d - 1, j - 1) + j S(j + d - 1, j)
        diag = list(itertools.accumulate(map(mul, range(r + 1), diag)))
    return diag[r]


def check_entries_cap(g: Group, n: int, r: int, max_entries: int, dense: bool = False):
    """Raise ResourceLimit when the (n, r) slice would build more than max_entries cells.

    The sandwich stores C(n, r) (r |G|)^(n-r) nonzero cells, one per idempotent,
    and r block minima per row; dense, for the gr letter grids, also counts rows
    times columns.  Each count is a closed form, checked before any row exists.
    """
    if not 1 <= r <= n:
        raise BadRank(f"rank {r} outside [1, {n}]")
    cols, weights = comb(n, r), g.order ** (n - r)
    # the nonzero count first: once it fits, so do the r (n - r) steps of S(n, r)
    if (cols * r ** (n - r) * weights > max_entries or (rows := partition_count(n, r) * weights) * r > max_entries
            or dense and rows * cols > max_entries):
        raise ResourceLimit("sandwich matrix entries", max_entries)


class SandwichMatrix:
    """Immutable bundle of the rank-r structure over one group.

    A row is nonzero exactly at the columns that pick one point per block of
    its partition, its entry there fixed by each picked point's block and
    weight; so each such (perm, slots) pattern gives one id row (value ids, a
    value's id its index in values, sorted by text) over a partition's block of
    consecutive rows, shared read-only by every partition and column that has
    it.  part_columns lists each partition's nonzero columns, ascending,
    part_rows their id rows and part_start its first row, partition p's block
    starting at row p * block; column_blocks lists per column the numbers of
    the partitions holding it, ascending.  districts gives each row its block
    minima.  kernels, thetas, the values' inverses and each column's
    first-block index are made when read.
    """

    def __init__(self, g: Group, n: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        check_entries_cap(g, n, r, max_entries)
        self.group, self.n, self.r = g, n, r
        self.lambdas = lambda_list(n, r)
        self.lambda_pos = lambda_pos = {lam: i for i, lam in enumerate(self.lambdas)}
        # a partition's rows are consecutive and share the weight vectors, padded
        # with a 0 that block minima read; a transversal's ids over them depend
        # only on its key, its points' codes: block and slot, the point's index
        # among the non-minima or the pad.  A key's id row is made on first
        # sight, its (perm, weights) keys numbered in order of first sight
        padded = [wv + (0,) for wv in itertools.product(range(g.order), repeat=n - r)]
        self.block = block = len(padded)
        seen: dict[tuple, int] = {}
        rows: dict[tuple, list[int]] = {}
        self.part_columns, self.part_rows, self.part_start, self.districts = [], [], {}, []
        self.column_blocks: list[list[int]] = [[] for _ in self.lambdas]
        for p, (part, minima, code) in enumerate(set_partitions(n, r)):
            self.part_start[part] = p * block
            self.districts += [minima] * block
            cells = {}  # column -> id row
            for choice in itertools.product(*part):  # a transversal, one point per block
                lam = tuple(sorted(choice))
                if (row := rows.get(key := tuple(map(code.__getitem__, lam)))) is None:
                    perm, slots = zip(*[divmod(c, n - r + 1) for c in key])
                    get = itemgetter(*slots)
                    row = rows[key] = [seen.setdefault((perm, w), len(seen)) for w in map(get, padded)]
                cells[lambda_pos[lam]] = row
            self.part_columns.append(cols := sorted(cells))
            self.part_rows.append([cells[l_idx] for l_idx in cols])
            for l_idx in cols:
                self.column_blocks[l_idx].append(p)
        # at r = 1 the getter returns a bare weight, not a 1-tuple
        first_seen = [WreathElem(r, perm, w if r > 1 else (w,)) for perm, w in seen]
        self.values = sorted(first_seen, key=wreath_to_text)
        self.value_id = {v: idx for idx, v in enumerate(self.values)}
        # each shared row renumbered once, in place, to the text order
        renumber = [self.value_id[v] for v in first_seen]
        for row in rows.values():
            row[:] = map(renumber.__getitem__, row)
        identity = [self.value_id.get(wreath_identity(r))] * block  # so no row is entirely zero
        for cols, id_rows, district in zip(self.part_columns, self.part_rows, self.districts[::block]):
            if id_rows[cols.index(lambda_pos[district])] != identity:
                raise AssertionError("district column does not give the identity entry")
        if zero := [l_idx for l_idx, parts in enumerate(self.column_blocks) if not parts]:
            raise AssertionError(f"image column {self.lambdas[zero[0]]} is entirely zero")
        self._first_blocks: list[dict[int, int] | None] = [None] * len(self.lambdas)

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

    def id_at(self, i_idx: int, l_idx: int) -> int | None:
        """The value id at (row i, column l), None at a zero."""
        p, off = divmod(i_idx, self.block)
        k = bisect_left(cols := self.part_columns[p], l_idx)
        return self.part_rows[p][k][off] if k < len(cols) and cols[k] == l_idx else None

    def value_at(self, i_idx: int, l_idx: int) -> WreathElem | None:
        """The entry at (row i, column l), None at a zero."""
        return None if (x := self.id_at(i_idx, l_idx)) is None else self.values[x]

    @cached_property
    def entries(self) -> list[list[WreathElem | None]]:
        """entries[l][i] is value_at(i, l): a dense view of the blocks, built on first use."""
        out, block = [[None] * len(self.districts) for _ in self.lambdas], self.block
        for p, (cols, id_rows) in enumerate(zip(self.part_columns, self.part_rows)):
            for l_idx, row in zip(cols, id_rows):
                out[l_idx][p * block:(p + 1) * block] = map(self.values.__getitem__, row)
        return out

    def first_block(self, l_idx: int, x: int) -> int:
        """The index in column_blocks[l] of the first block holding value id x, -1 if none; indexed on first use."""
        if (index := self._first_blocks[l_idx]) is None:
            index = self._first_blocks[l_idx] = {}
            for k, p in enumerate(self.column_blocks[l_idx]):
                row = self.part_rows[p][bisect_left(self.part_columns[p], l_idx)]
                index.update(dict.fromkeys(set(row).difference(index), k))
        return index.get(x, -1)

    def nonzero_positions(self):
        """Positions as (row index, column index) pairs in lexicographic order."""
        for start, cols in zip(self.part_start.values(), self.part_columns):
            yield from itertools.product(range(start, start + self.block), cols)

    def positions_of(self, v: WreathElem) -> list[tuple[int, int]]:
        """The positions (row index, column index) holding v, in lexicographic order."""
        x = self.value_id.get(v)
        ids = (row[off] for id_rows in self.part_rows for off in range(self.block) for row in id_rows)
        return [pos for pos, y in zip(self.nonzero_positions(), ids) if y == x]


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
    class (`KeyClasses`).  The rows nonzero in both are the blocks of the
    partitions whose part_columns hold both: column l's partitions give, per later
    column of their partition, one pair of id rows, and zipping those counts
    each row's pair as its `KeyClasses` code.
    """
    classes = KeyClasses(m)
    lead = [x * classes.base + 1 for x in range(len(m.values))]  # value id x -> the code of (x, zero)
    for l_idx, parts in enumerate(m.column_blocks):
        shared = defaultdict(list)  # column m -> the id row pairs of the blocks nonzero in columns l and m, ascending
        for p in parts:
            cols, id_rows = m.part_columns[p], m.part_rows[p]
            k = bisect_right(cols, l_idx)  # column l is cols[k - 1]
            for mu, row_m in zip(cols[k:], id_rows[k:]):
                shared[mu].append((id_rows[k - 1], row_m))
        for mu in range(l_idx + 1, len(m.lambdas)):
            both, first, pairs = shared.get(mu, ()), {}, []
            xs = map(lead.__getitem__, itertools.chain.from_iterable(map(itemgetter(0), both)))
            ys = itertools.chain.from_iterable(map(itemgetter(1), both))
            for code, count in Counter(map(add, xs, ys)).items():
                x, y = divmod(code - 1, classes.base)
                x0, y0 = first.setdefault(classes[code], (x, y))
                pairs.append((x, y, count, x0, y0))
            yield pairs


def entry_rows(m: SandwichMatrix, heads: list[str], tails: list[str]):
    """One string per row: per nonzero entry, in column order, column l's head, the row and value x's tail.

    A partition's block of rows is read from its id rows, one per column.
    """
    block, tail = m.block, tails.__getitem__
    for start, cols, id_rows in zip(m.part_start.values(), m.part_columns, m.part_rows):
        rows = list(map(str, range(start, start + block)))
        cells = ((itertools.repeat(heads[l], block), rows, map(tail, row)) for l, row in zip(cols, id_rows))
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
