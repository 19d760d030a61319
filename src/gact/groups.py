"""Finite groups given by multiplication table.

Elements are integers 0..m-1 with the identity pinned at index 0; row x of
the table is left multiplication by x, so table[x][y] = x*y.  Keeping the
identity at 0 makes "is this weight trivial" a zero compare everywhere else
in the package.
"""

from __future__ import annotations

import itertools
import re

from .errors import IndexOutOfRange, ParseError, TableNotGroup


class Group:
    """Immutable finite group over element indices 0..order-1.

    Instances compare and hash by identity; build each group once and share
    it.  All derived data (inverse table) is precomputed at construction.
    """

    __slots__ = ("order", "table", "inverse")

    def __init__(self, table):
        table = tuple(tuple(row) for row in table)
        _validate_table(table)
        self.order = len(table)
        self.table = table
        self.inverse = tuple(row.index(0) for row in table)

    def __repr__(self):
        return f"Group(order={self.order})"


def _validate_table(table):
    m = len(table)
    if m == 0:
        raise TableNotGroup("empty table")
    full = tuple(range(m))
    for x, row in enumerate(table):
        if len(row) != m:
            raise TableNotGroup(f"row {x} has length {len(row)}, expected {m}")
        if any(not isinstance(v, int) or not 0 <= v < m for v in row):
            raise TableNotGroup(f"row {x} has entries outside 0..{m - 1}")
        if tuple(sorted(row)) != full:
            raise TableNotGroup(f"row {x} is not a permutation: not a Latin square")
    for y in range(m):
        if tuple(sorted(table[x][y] for x in range(m))) != full:
            raise TableNotGroup(f"column {y} is not a permutation: not a Latin square")
    if table[0] != full:
        raise TableNotGroup("row 0 must fix every element (identity is index 0)")
    if any(table[x][0] != x for x in range(m)):
        raise TableNotGroup("column 0 must fix every element (identity is index 0)")
    # Light's test: the elements y with (xy)z = x(yz) for all x, z are closed
    # under products, so it suffices to check a generating set, chosen
    # greedily; each checked generator at least doubles the reached subgroup
    reached = [True] + [False] * (m - 1)
    gens: list[int] = []
    for y in range(m):
        if reached[y]:
            continue
        rowy = table[y]
        for x in range(m):
            rowx = table[x]
            # z -> (xy)z versus z -> x(yz), compared as whole rows
            if table[rowx[y]] != tuple(rowx[w] for w in rowy):
                raise TableNotGroup(f"associativity fails at x={x}, y={y}")
        gens.append(y)
        stack = [x for x in range(m) if reached[x]]
        while stack:
            rowh = table[stack.pop()]
            for gen in gens:
                if not reached[rowh[gen]]:
                    reached[rowh[gen]] = True
                    stack.append(rowh[gen])


def trivial_group() -> Group:
    return Group(((0,),))


def cyclic_group(m: int) -> Group:
    if m < 1:
        raise ValueError("cyclic group needs order >= 1")
    return Group(tuple(tuple((i + j) % m for j in range(m)) for i in range(m)))


def symmetric_group(k: int) -> Group:
    """Permutations of k points in lexicographic one-line order.

    Products compose left to right: (p*q)(x) = q(p(x)).  The identity is
    the lexicographically first permutation, hence index 0 as required.
    """
    if k < 1:
        raise ValueError("symmetric group needs degree >= 1")
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(q[v] for v in p)] for q in perms) for p in perms
    )
    return Group(table)


def group_from_text(text: str) -> Group:
    """Parse the table file format: `order m`, then m rows of m indices.

    `#` starts a comment; blank lines are skipped.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty group table file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "order":
        raise ParseError(f"expected header 'order m', got {lines[0]!r}")
    try:
        m = int(header[1])
    except ValueError:
        raise ParseError(f"bad order {header[1]!r}") from None
    if m < 1:
        raise ParseError(f"bad order {m}")
    if len(lines) != m + 1:
        raise ParseError(f"expected {m} table rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ParseError(f"non-integer entry in row {line!r}") from None
    return Group(rows)


def group_from_table_file(path) -> Group:
    with open(path, "r", encoding="utf-8") as fh:
        return group_from_text(fh.read())


def make_group(spec: str) -> Group:
    """Build a group from the CLI grammar: trivial | Z<m> | S<k> | table:<path>."""
    spec = spec.strip()
    if spec == "trivial":
        return trivial_group()
    m = re.fullmatch(r"Z(\d+)", spec)
    if m:
        order = int(m.group(1))
        if order < 1:
            raise ParseError(f"bad cyclic order in {spec!r}")
        return cyclic_group(order)
    m = re.fullmatch(r"S(\d+)", spec)
    if m:
        degree = int(m.group(1))
        if degree < 1:
            raise ParseError(f"bad symmetric degree in {spec!r}")
        return symmetric_group(degree)
    if spec.startswith("table:"):
        return group_from_table_file(spec[len("table:"):])
    raise ParseError(f"unknown group spec {spec!r}; use trivial | Z<m> | S<k> | table:<path>")


def gmul(g: Group, x: int, y: int) -> int:
    if not (0 <= x < g.order and 0 <= y < g.order):
        raise IndexOutOfRange(f"elements ({x}, {y}) outside 0..{g.order - 1}")
    return g.table[x][y]


def ginv(g: Group, x: int) -> int:
    if not 0 <= x < g.order:
        raise IndexOutOfRange(f"element {x} outside 0..{g.order - 1}")
    return g.inverse[x]
