"""Coset enumeration and abelianization for finite presentations.

The enumerator is HLT style: relators are scanned at every live coset in
definition order, gaps are filled by defining new cosets, and coincidences
are merged immediately through a union-find with a processing queue.  No
lookahead, so the run is deterministic.  Table width drives its time and
memory: `verify` enumerates the Tietze-reduced presentation of
`presentation.eliminate_generators`, not the value presentation itself.
Words are tuples of signed 1-based generator indices (+g for the
generator, -g for its inverse).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import Capped, IncompleteTable

DEFAULT_MAX_COSETS = 1_000_000


@dataclass
class CosetTable:
    """A complete, standardized coset table.

    table[c][2*(g-1)] is the coset c.g and table[c][2*(g-1)+1] is c.g^-1,
    with cosets numbered 0..order-1 and 0 the subgroup coset.  defined
    counts every coset the enumeration defined, coset 0 included.
    """

    n_gens: int
    table: list[list[int]]
    order: int
    defined: int


def _columns(word):
    return tuple((2 * (g - 1)) if g > 0 else (2 * (-g - 1) + 1) for g in word)


def _invcol(c):
    return c ^ 1


class _Enumerator:
    def __init__(self, n_gens, max_cosets):
        self.ncols = 2 * n_gens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.p = [0]

    def rep(self, a):
        p = self.p
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def define(self, a, col):
        if len(self.table) >= self.max_cosets:
            raise Capped(self.max_cosets)
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(b)
        self.table[a][col] = b
        self.table[b][_invcol(col)] = a

    def coincidence(self, a, b):
        queue = deque()
        self._merge(a, b, queue)
        table = self.table
        while queue:
            dead = queue.popleft()
            row = table[dead]
            for col in range(self.ncols):
                e = row[col]
                if e is None:
                    continue
                # detach the backlink, then replay the fact rep(dead).col = rep(e)
                table[e][_invcol(col)] = None
                row[col] = None
                u = self.rep(dead)
                v = self.rep(e)
                existing = table[u][col]
                if existing is not None:
                    self._merge(self.rep(existing), v, queue)
                else:
                    back = table[v][_invcol(col)]
                    if back is not None:
                        self._merge(self.rep(back), u, queue)
                    else:
                        table[u][col] = v
                        table[v][_invcol(col)] = u

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def scan_and_fill(self, a, word_cols):
        # forward and backward positions persist across gap definitions,
        # so each scan is linear in the word length
        table = self.table
        fwd, i = a, 0
        bwd, j = a, len(word_cols) - 1
        while True:
            while i <= j:
                nxt = table[fwd][word_cols[i]]
                if nxt is None:
                    break
                fwd = nxt
                i += 1
            if i > j:
                if fwd != bwd:
                    self.coincidence(fwd, bwd)
                return
            while j >= i:
                prv = table[bwd][_invcol(word_cols[j])]
                if prv is None:
                    break
                bwd = prv
                j -= 1
            if j < i:
                self.coincidence(fwd, bwd)
                return
            if j == i:
                table[fwd][word_cols[i]] = bwd
                table[bwd][_invcol(word_cols[i])] = fwd
                return
            self.define(fwd, word_cols[i])


def todd_coxeter(pres, subgroup=(), max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of the given subgroup; order when subgroup is empty.

    pres is any object with `generators` and `relators` attributes in the
    Presentation shape.  Raises Capped when max_cosets cosets have been
    defined without closing the table.
    """
    n_gens = len(pres.generators)
    relators = [_columns(w) for w in pres.relators if w]
    for w in pres.relators:
        if any(not 1 <= abs(g) <= n_gens for g in w):
            raise ValueError("relator references an undeclared generator")
    sub_words = [_columns(w) for w in subgroup if w]
    enum = _Enumerator(n_gens, max_cosets)
    for w in sub_words:
        enum.scan_and_fill(0, w)
    a = 0
    while a < len(enum.table):
        if enum.p[a] != a:
            a += 1
            continue
        for rel in relators:
            enum.scan_and_fill(a, rel)
            if enum.p[a] != a:
                break
        if enum.p[a] == a:
            for col in range(enum.ncols):
                if enum.table[a][col] is None:
                    enum.define(a, col)
        a += 1
    return _compress_standardize(enum, n_gens)


def _compress_standardize(enum, n_gens):
    live = [c for c in range(len(enum.table)) if enum.p[c] == c]
    # resolve every entry through the union-find first
    resolved = {}
    for c in live:
        resolved[c] = [enum.rep(v) for v in enum.table[c]]
    # breadth-first renumbering from the subgroup coset for a canonical table
    start = enum.rep(0)
    number = {start: 0}
    order_list = [start]
    idx = 0
    while idx < len(order_list):
        c = order_list[idx]
        idx += 1
        for col in range(enum.ncols):
            d = resolved[c][col]
            if d is not None and d not in number:
                number[d] = len(order_list)
                order_list.append(d)
    if len(order_list) != len(live):
        raise AssertionError("coset table is not connected")
    if any(v is None for c in live for v in resolved[c]):
        raise AssertionError("coset table left an action undefined")
    table = [[number[v] for v in resolved[c]] for c in order_list]
    # rows are never freed, so the enumerator's table length counts every coset defined
    return CosetTable(n_gens, table, len(table), len(enum.table))


def trace(t: CosetTable, start: int, word) -> int:
    c = start
    for col in _columns(word):
        c = t.table[c][col]
    return c


def word_equal(t: CosetTable, w1, w2) -> bool:
    """Whether two words act identically on the cosets.

    On a table enumerated over the trivial subgroup this is the regular
    representation, so it decides equality in the group.
    """
    for row in t.table:
        if any(v is None for v in row):
            raise IncompleteTable("word comparison needs a complete table")
    cols1 = _columns(w1)
    cols2 = _columns(w2)
    for c in range(t.order):
        a = c
        for col in cols1:
            a = t.table[a][col]
        b = c
        for col in cols2:
            b = t.table[b][col]
        if a != b:
            return False
    return True


# -- abelianization -----------------------------------------------------------

@dataclass
class Abelianization:
    torsion: tuple[int, ...] = ()
    free_rank: int = 0


def abelianization(pres) -> Abelianization:
    """Invariant factors of the presentation's abelianized group.

    Works on the relator exponent matrix over the integers; Python
    integers are unbounded so no overflow handling is needed.
    """
    n = len(pres.generators)
    rows = []
    for w in pres.relators:
        row = [0] * n
        for g in w:
            row[abs(g) - 1] += 1 if g > 0 else -1
        rows.append(row)
    diag = _smith_diagonal(rows, n)
    factors = sorted(d for d in diag if d != 0)
    # enforce the divisibility chain to get canonical invariant factors
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
        factors.sort()
    torsion = tuple(d for d in factors if d > 1)
    return Abelianization(torsion, n - len(factors))


def _smith_diagonal(rows, n):
    """Diagonalize an integer matrix in place; return the diagonal."""
    mat = [list(r) for r in rows]
    m = len(mat)
    diag = []
    t = 0
    while t < min(m, n):
        # pick the nonzero pivot of least magnitude in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = mat[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        mat[t], mat[pi] = mat[pi], mat[t]
        for row in mat:
            row[t], row[pj] = row[pj], row[t]
        dirty = False
        for i in range(t + 1, m):
            if mat[i][t] != 0:
                q = mat[i][t] // mat[t][t]
                for j in range(t, n):
                    mat[i][j] -= q * mat[t][j]
                if mat[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if mat[t][j] != 0:
                q = mat[t][j] // mat[t][t]
                for i in range(t, m):
                    mat[i][j] -= q * mat[i][t]
                if mat[t][j] != 0:
                    dirty = True
        if dirty or any(mat[i][t] for i in range(t + 1, m)) or any(
            mat[t][j] for j in range(t + 1, n)
        ):
            continue  # smaller remainders appeared; re-pivot the same block
        diag.append(abs(mat[t][t]))
        t += 1
    return diag
