"""Coset enumeration and abelianization for finite presentations.

The enumerator is HLT style: relators are scanned at every live coset in
definition order, gaps are filled by defining new cosets, and coincidences
are merged immediately through a union-find with a processing queue.  No
lookahead, so the run is deterministic.  Table width drives its time and
memory: `verify` enumerates the Tietze-reduced presentation of
`presentation.eliminate_generators`, not the value presentation itself.
Words are tuples of signed 1-based generator indices (+g for the
generator, -g for its inverse).

Given a generator h, the cosets enumerated are those of H = <h>, and the
table is labelled (modified Todd-Coxeter, Holt-Eick-O'Brien §5.6): the
entry c.x = d carries the exponent e with rep(c)x = h^e rep(d), and the
union-find an offset, rep(a) = h^off rep(parent).  Coset 0 starts as
0.h = 0 with label 1; a definition gets label 0, a deduction the label
that closes its scan.  A scan that closes at its own coset, or a
coincidence of two cosets already merged, proves h^E = 1, and the gcd of
those E is |H|: the labels mod the gcd make P act on index * gcd points.
Without h every label stays 0 and the table is the plain one.
"""

from __future__ import annotations

from collections import deque, namedtuple
from math import gcd

from .errors import DEFAULT_MAX_COSETS, Capped, IncompleteTable


class CosetTable:
    """A complete, standardized coset table.

    table[c][2*(g-1)] is the coset c.g and table[c][2*(g-1)+1] is c.g^-1,
    with cosets numbered 0..order-1 and 0 the subgroup coset, so order is
    the index.  defined counts every coset the enumeration defined, coset 0
    included.  subgroup_order is |<h>| (0 if no relation on h was found), or
    1 over the trivial subgroup.
    """

    def __init__(self, table: list[list[int]], order: int, defined: int, subgroup_order: int = 1):
        self.table = table
        self.order = order
        self.defined = defined
        self.subgroup_order = subgroup_order


def _columns(word):
    return tuple((2 * (g - 1)) if g > 0 else (2 * (-g - 1) + 1) for g in word)


class _Enumerator:
    def __init__(self, n_gens, max_cosets, h=None):
        self.ncols = 2 * n_gens
        self.max_cosets = max_cosets
        self.table = [[None] * self.ncols]
        self.labels = [[0] * self.ncols]
        self.p = [0]
        self.off = [0]
        self.relation = 0  # gcd of every E found with h^E = 1
        if h is not None:
            col = 2 * (h - 1)
            self.table[0][col] = self.table[0][col + 1] = 0
            self.labels[0][col], self.labels[0][col + 1] = 1, -1

    def rep(self, a):
        """(root, e) with rep(a) = h^e rep(root); compresses the path."""
        p, off = self.p, self.off
        if p[a] == a:
            return a, 0
        path = []
        while p[a] != a:
            path.append(a)
            a = p[a]
        e = 0
        for b in reversed(path):
            e += off[b]
            p[b], off[b] = a, e
        return a, e

    def define(self, a, col):
        if len(self.table) >= self.max_cosets:
            raise Capped(self.max_cosets)
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.labels.append([0] * self.ncols)
        self.p.append(b)
        self.off.append(0)
        self.table[a][col] = b
        self.table[b][col ^ 1] = a

    def coincidence(self, a, b, e):
        queue = deque()
        self._merge(a, b, e, queue)
        table, labels = self.table, self.labels
        while queue:
            dead = queue.popleft()
            row = table[dead]
            for col in range(self.ncols):
                d = row[col]
                if d is None:
                    continue
                # detach the backlink, then replay the fact rep(u).col = h^lab rep(v)
                inv = col ^ 1
                table[d][inv] = None
                row[col] = None
                u, eu = self.rep(dead)
                v, ev = self.rep(d)
                lab = labels[dead][col] + ev - eu
                existing = table[u][col]
                if existing is not None:
                    self._merge(existing, v, lab - labels[u][col], queue)
                else:
                    back = table[v][inv]
                    if back is not None:
                        self._merge(back, u, -lab - labels[v][inv], queue)
                    else:
                        table[u][col], labels[u][col] = v, lab
                        table[v][inv], labels[v][inv] = u, -lab

    def _merge(self, a, b, e, queue):
        # rep(a) = h^e rep(b); the larger root dies
        a, ea = self.rep(a)
        b, eb = self.rep(b)
        e += eb - ea
        if a == b:
            self.relation = gcd(self.relation, e)
            return
        if a < b:
            a, b, e = b, a, -e
        self.p[a], self.off[a] = b, e
        queue.append(a)

    def scan_and_fill(self, a, word_cols):
        # forward and backward positions persist across gap definitions,
        # so each scan is linear in the word length; rep(a) u = h^ef rep(fwd)
        # for the prefix u traced, and rep(a) t^-1 = h^eb rep(bwd) for the suffix t
        table, labels = self.table, self.labels
        fwd, i, ef = a, 0, 0
        bwd, j, eb = a, len(word_cols) - 1, 0
        while True:
            while i <= j:
                col = word_cols[i]
                nxt = table[fwd][col]
                if nxt is None:
                    break
                ef += labels[fwd][col]
                fwd = nxt
                i += 1
            if i <= j:
                while j >= i:
                    col = word_cols[j] ^ 1
                    prv = table[bwd][col]
                    if prv is None:
                        break
                    eb += labels[bwd][col]
                    bwd = prv
                    j -= 1
                col = word_cols[i]
                if j > i:
                    self.define(fwd, col)
                    continue
                if j == i:  # a deduction: rep(fwd) x = h^(eb-ef) rep(bwd)
                    table[fwd][col], labels[fwd][col] = bwd, eb - ef
                    table[bwd][col ^ 1], labels[bwd][col ^ 1] = fwd, ef - eb
                    return
            # the scan closed: rep(fwd) = h^(eb-ef) rep(bwd)
            if fwd != bwd:
                self.coincidence(fwd, bwd, eb - ef)
            elif ef != eb:
                self.relation = gcd(self.relation, eb - ef)
            return


def todd_coxeter(pres, h: int | None = None, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate the cosets of <h>, generator h (1-based); of the trivial subgroup when h is None.

    pres is any object with `generators` and `relators` attributes in the
    Presentation shape.  The group order is order * subgroup_order.  Raises
    Capped when max_cosets cosets have been defined without closing the
    table.
    """
    n_gens = len(pres.generators)
    relators = [_columns(w) for w in pres.relators if w]
    for w in pres.relators:
        if any(not 1 <= abs(g) <= n_gens for g in w):
            raise ValueError("relator references an undeclared generator")
    if h is not None and not 1 <= h <= n_gens:
        raise ValueError("subgroup generator is not declared")
    enum = _Enumerator(n_gens, max_cosets, h)
    scan, p = enum.scan_and_fill, enum.p
    a = 0
    while a < len(enum.table):
        if p[a] != a:
            a += 1
            continue
        for rel in relators:
            scan(a, rel)
            if p[a] != a:
                break
        if p[a] == a:
            for col in range(enum.ncols):
                if enum.table[a][col] is None:
                    enum.define(a, col)
        a += 1
    table = _compress_standardize(enum)
    if h is not None:
        table.subgroup_order = enum.relation
    return table


def _compress_standardize(enum):
    # breadth-first renumbering from the subgroup coset for a canonical table;
    # each row is resolved through the union-find when the walk reaches it,
    # and the walk grows as it numbers new cosets
    walk = [enum.rep(0)[0]]
    number = {walk[0]: 0}
    table = []
    for c in walk:
        row = []
        for d in enum.table[c]:
            if d is None:
                raise AssertionError("coset table left an action undefined")
            d = enum.rep(d)[0]
            if d not in number:
                number[d] = len(walk)
                walk.append(d)
            row.append(number[d])
        table.append(row)
    if len(table) != sum(c == p for c, p in enumerate(enum.p)):
        raise AssertionError("coset table is not connected")
    # rows are never freed, so the enumerator's table length counts every coset defined
    return CosetTable(table, len(table), len(enum.table))


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

class Abelianization(namedtuple("Abelianization", "torsion free_rank", defaults=((), 0))):
    __slots__ = ()


def abelianization(pres) -> Abelianization:
    """Invariant factors of the presentation's abelianized group.

    Works on the relator exponent matrix over the integers; Python
    integers are unbounded so no overflow handling is needed.
    """
    n = len(pres.generators)
    rows = [[0] * n for _ in pres.relators]
    for row, w in zip(rows, pres.relators):
        for g in w:
            row[abs(g) - 1] += 1 if g > 0 else -1
    factors = [d for d in _smith_diagonal(rows, n) if d]
    # one pairwise pass to the invariant factors: step (i, j) makes f_i divide
    # f_j, and later steps keep that, since gcd and lcm sort each prime's exponents
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            c = gcd(factors[i], factors[j])
            factors[i], factors[j] = c, factors[i] * factors[j] // c
    return Abelianization(tuple(d for d in factors if d > 1), n - len(factors))


def _smith_diagonal(mat, n):
    """Diagonalize an integer matrix (a list of n-entry rows) in place; return the diagonal."""
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
        for i in range(t + 1, m):
            if mat[i][t] != 0:
                q = mat[i][t] // mat[t][t]
                for j in range(t, n):
                    mat[i][j] -= q * mat[t][j]
        for j in range(t + 1, n):
            if mat[t][j] != 0:
                q = mat[t][j] // mat[t][t]
                for i in range(t, m):
                    mat[i][j] -= q * mat[i][t]
        # row operations leave row t alone and column operations column t
        if any(mat[i][t] for i in range(t + 1, m)) or any(mat[t][j] for j in range(t + 1, n)):
            continue  # smaller remainders appeared; re-pivot the same block
        diag.append(abs(mat[t][t]))
        t += 1
    return diag
