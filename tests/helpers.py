"""Shared brute-force oracles and test-only helpers, kept independent of the
code paths they check."""

import itertools
from functools import lru_cache

from gact import (
    Capped,
    Endo,
    ParseError,
    Presentation,
    WreathElem,
    compose,
    group_from_text,
    todd_coxeter,
    wreath_identity,
    wreath_inv,
    wreath_mul,
)
from gact.fpgroup import DEFAULT_MAX_COSETS, _columns
from gact.presentation import free_reduce

# (n, group, r, expected order) of the desk-scale main-theorem checks
MAIN_CASES = [
    (4, "trivial", 1, 1),
    (4, "trivial", 2, 2),
    (5, "trivial", 2, 2),
    (5, "trivial", 3, 6),
    (6, "trivial", 4, 24),
    (4, "Z2", 1, 2),
    (4, "Z2", 2, 8),
    (5, "Z2", 2, 8),
    (5, "Z3", 2, 18),
    (5, "Z2", 3, 48),
]


@lru_cache(maxsize=None)
def stirling(n, r):
    """Second-kind Stirling numbers by the standard recurrence."""
    if n == r == 0:
        return 1
    if n == 0 or r == 0:
        return 0
    return r * stirling(n - 1, r) + stirling(n - 1, r - 1)


def pruned_set_partitions(n, r):
    """Partitions of [1, n] into r blocks, extended one point at a time, then sorted.

    The order reference for `rees.set_partitions`, which lists each group of
    block minima already sorted: a partial partition is kept only while the
    points left can open its missing blocks, and the whole list is sorted by
    (block minima, block contents) at the end.
    """
    out = [()]
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


def recursive_set_partitions(n, r):
    """Partitions of [1, n] into r blocks, by a recursion with one call per point.

    The reference for `rees.set_partitions`: the pruning and the final sort
    of `pruned_set_partitions`, one call per point.
    """
    out = []

    def place(k, blocks):
        if n - k + 1 < r - len(blocks):
            return  # not enough elements left to open the remaining blocks
        if k > n:
            if len(blocks) == r:
                out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(k)
            place(k + 1, blocks)
            b.pop()
        if len(blocks) < r:
            blocks.append([k])
            place(k + 1, blocks)
            blocks.pop()

    place(1, [])
    out.sort(key=lambda blocks: (tuple(b[0] for b in blocks), blocks))
    return out


def all_endos(g, n):
    """The full endomorphism monoid by raw product enumeration."""
    out = []
    for targets in itertools.product(range(1, n + 1), repeat=n):
        for weights in itertools.product(range(g.order), repeat=n):
            out.append(Endo(g, n, targets, weights))
    return out


def monoid_tables(g, n):
    """(elements, index map, composition table C[a][b] = index of a then b)."""
    elems = all_endos(g, n)
    index = {e: i for i, e in enumerate(elems)}
    table = [
        [index[compose(a, b)] for b in elems]
        for a in elems
    ]
    return elems, index, table


def left_ideal(table, a, size):
    """Indices of S^1 * a."""
    return frozenset([a] + [table[x][a] for x in range(size)])


def right_ideal(table, a, size):
    return frozenset([a] + [table[a][x] for x in range(size)])


def two_sided_ideal(table, a, size, left_ideals):
    """Union of left ideals over the right ideal of a."""
    out = set()
    for b in right_ideal(table, a, size):
        out |= left_ideals[b]
    return frozenset(out)


def apply_pointwise(alpha, weight, point):
    """Action on one act element, straight from the defining convention."""
    return (
        alpha.group.table[weight][alpha.weights[point - 1]],
        alpha.targets[point - 1],
    )


def congruence_pairs(alpha):
    """The kernel of alpha as a set of identified act-element pairs."""
    n, m = alpha.n, alpha.group.order
    points = [(w, i) for w in range(m) for i in range(1, n + 1)]
    images = {p: apply_pointwise(alpha, *p) for p in points}
    return frozenset(
        (p, q) for p in points for q in points if images[p] == images[q]
    )


def wreath_elements(g, r):
    """All rank-r weighted permutations."""
    out = []
    for perm in itertools.permutations(range(1, r + 1)):
        for weights in itertools.product(range(g.order), repeat=r):
            out.append(WreathElem(r, perm, weights))
    return out


def subgroup_order(g, gens, r, limit):
    """The order of the subgroup of G wr S_r that gens generate, or limit if that is less.

    The reached set holds the identity and is closed under right products by
    the generators used so far; a generator outside it is used and the set
    closed again, which at least doubles it.  The closing stops as soon as
    limit elements are held.
    """
    reached = {wreath_identity(r)}
    used = []
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


def def81_rising_point(phi):
    """Rising point straight from the quantified definition.

    The top value r+1 when the preimage of the top slot is twisted;
    otherwise the unique k in [1, r] admitting a position-increasing,
    trivially weighted chain onto slots k..r whose slot-(k-1) proviso
    holds.  Asserts uniqueness.
    """
    r = phi.r
    pos = [0] * (r + 1)
    wt = [0] * (r + 1)
    for j, t in enumerate(phi.perm, start=1):
        pos[t] = j
        wt[t] = phi.weights[j - 1]
    if wt[r] != 0:
        return r + 1
    candidates = []
    for k in range(1, r + 1):
        chain = [pos[t] for t in range(k, r + 1)]
        if any(wt[t] != 0 for t in range(k, r + 1)):
            continue
        if any(a >= b for a, b in zip(chain, chain[1:])):
            continue
        if k >= 2 and pos[k - 1] < pos[k] and wt[k - 1] == 0:
            continue
        candidates.append(k)
    assert len(candidates) == 1, (phi, candidates)
    return candidates[0]


def evaluate_word_by_inversion(g, assignment, r, word):
    """A word's value under a generator assignment, each negative letter inverted on the spot."""
    acc = wreath_identity(r)
    for letter in word:
        v = assignment[abs(letter) - 1]
        acc = wreath_mul(g, acc, wreath_inv(g, v) if letter < 0 else v)
    return acc


def eps_rank_r(g, n, r):
    """The distinguished rank-r idempotent: fixes x_1..x_r, sends the rest to x_1."""
    targets = tuple(range(1, r + 1)) + (1,) * (n - r)
    return Endo(g, n, targets, (0,) * n)


def endo_to_text(alpha):
    return ";".join(f"{t}:{w}" for t, w in zip(alpha.targets, alpha.weights))


def validate_presentation(p):
    """Tags parallel to relators, distinct names, declared letters, reduced words."""
    n = len(p.generators)
    if len(p.relators) != len(p.tags):
        raise ValueError("relators and tags must run in parallel")
    if len(set(p.generators)) != n:
        raise ValueError("duplicate generator names")
    for w in p.relators:
        if any(g == 0 or abs(g) > n for g in w):
            raise ValueError(f"relator {w} references an undeclared generator")
        if free_reduce(w) != tuple(w):
            raise ValueError(f"relator {w} is not freely reduced")


def lavers_assignment(r, p):
    """The tautological wreath element for each Lavers generator, by name."""
    out = []
    for name in p.generators:
        if name.startswith("t"):
            i = int(name[1:])
            perm = list(range(1, r + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            out.append(WreathElem(r, tuple(perm), (0,) * r))
        else:
            a, j = name[1:].split("_")
            weights = [0] * r
            weights[int(j) - 1] = int(a)
            out.append(WreathElem(r, tuple(range(1, r + 1)), tuple(weights)))
    return out


def dense_r3_relators(m):
    """The gr presentation's R3 relators by the dense row-pair walk.

    For every row pair i < k, every column in ascending order where both
    rows are nonzero is chained to the previous such column with the same
    left quotient inv(a) * b of the two rows' entries.
    """
    g = m.group
    gen = {pos: gi + 1 for gi, pos in enumerate(m.nonzero_positions())}
    nrows, ncols = len(m.kernels), len(m.lambdas)
    quotient = {}
    out = []
    for i in range(nrows):
        for k in range(i + 1, nrows):
            last_col = {}
            for l_idx in range(ncols):
                a, b = m.entries[l_idx][i], m.entries[l_idx][k]
                if a is None or b is None:
                    continue
                q = quotient.get((a, b))
                if q is None:
                    q = quotient[(a, b)] = wreath_mul(g, wreath_inv(g, a), b)
                prev = last_col.get(q)
                if prev is not None:
                    out.append((-gen[(i, prev)], gen[(i, l_idx)], -gen[(k, l_idx)], gen[(k, prev)]))
                last_col[q] = l_idx
    return out


def gr_r3_oracle(m):
    """The gr presentation's R3 relators by the per-row-pair chain.

    For each row i, the shared columns of every row k > i are collected from
    the incidence lists; then, for each k ascending with two or more shared
    columns, each column is chained to the previous one with the same left
    quotient id.  Order i, k, column.
    """
    from bisect import bisect_right
    from collections import defaultdict

    g = m.group
    nrows, ncols = len(m.kernels), len(m.lambdas)
    gen2d = [[0] * ncols for _ in range(nrows)]
    rows_of = [[] for _ in range(ncols)]
    cols_of = [[] for _ in range(nrows)]
    for gen, (i, l_idx) in enumerate(m.nonzero_positions(), start=1):
        gen2d[i][l_idx] = gen
        rows_of[l_idx].append(i)
        cols_of[i].append(l_idx)
    values, columns = m.values, dense_ids(m)
    quotients = {}
    qtab = []
    for a in values:
        inv_a = wreath_inv(g, a)
        qtab.append([quotients.setdefault(wreath_mul(g, inv_a, b), len(quotients)) for b in values])
    col_ids = list(zip(*columns))
    out = []
    for i in range(nrows):
        ids_i, gen_i = col_ids[i], gen2d[i]
        shared = defaultdict(list)
        for l_idx in cols_of[i]:
            rows = rows_of[l_idx]
            for k in rows[bisect_right(rows, i):]:
                shared[k].append(l_idx)
        for k in sorted(shared):
            common = shared[k]
            if len(common) < 2:
                continue
            ids_k, gen_k = col_ids[k], gen2d[k]
            last_col = {}
            for l_idx in common:
                q = qtab[ids_i[l_idx]][ids_k[l_idx]]
                prev = last_col.get(q)
                if prev is not None:
                    out.append((-gen_i[prev], gen_i[l_idx], -gen_k[l_idx], gen_k[prev]))
                last_col[q] = l_idx
    return out


def value_positions(m):
    """Each value's positions (row, column), row-major, read off m.entries."""
    vp = {}
    for i, l_idx in m.nonzero_positions():
        vp.setdefault(m.entries[l_idx][i], []).append((i, l_idx))
    return vp


def scan_singular_witness(m, phi, phi2, psi, sigma, k_idx, l_idx):
    """The first square [[phi, psi], [phi2, sigma]] anchored at psi's position, on m.entries.

    Rows i ascending in column l, then columns mu ascending; returns
    (i, k, l, mu) or None.
    """
    entries = m.entries
    if entries[l_idx][k_idx] != psi:
        return None
    for i_idx in range(len(m.kernels)):
        if entries[l_idx][i_idx] != phi:
            continue
        for mu, column in enumerate(entries):
            if column[i_idx] == phi2 and column[k_idx] == sigma:
                return (i_idx, k_idx, l_idx, mu)
    return None


def unindexed_singular_witness(m, phi, phi2, psi, sigma, k_idx, l_idx):
    """`find_singular_witness` without the column's first-block index, on the dense view.

    Every row holding phi in column l comes from a scan of the column from
    row 0, then columns mu ascending; returns (i, k, l, mu) or None.
    """
    ids, i_idx = dense_ids(m), -1
    x, x2, y, z = (m.value_id.get(v, -2) for v in (phi, phi2, psi, sigma))
    if ids[l_idx][k_idx] != y:
        return None
    while True:
        try:
            i_idx = ids[l_idx].index(x, i_idx + 1)
        except ValueError:
            return None
        for mu, column in enumerate(ids):
            if column[i_idx] == x2 and column[k_idx] == z:
                return (i_idx, k_idx, l_idx, mu)


# -- dense oracles for the transversal build and the nonzero-row walks ---------

def dense_ids(m):
    """m's value ids as a dense grid [column][row], -1 at a zero, built from its column blocks.

    Column l reads, per partition p that column_blocks[l] lists, p's id row at
    l into p's block of rows.
    """
    columns = [[-1] * len(m.districts) for _ in m.lambdas]
    for l_idx, (column, parts) in enumerate(zip(columns, m.column_blocks)):
        for p in parts:
            column[p * m.block:(p + 1) * m.block] = m.part_rows[p][m.part_columns[p].index(l_idx)]
    return columns


KLEIN = "order 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n"


def quaternion_group():
    """Q8 as a table group: the units +-1, +-i, +-j, +-k under the Hamilton product, 1 first."""
    units = [tuple(sign * (k == u) for k in range(4)) for u in range(4) for sign in (1, -1)]

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    rows = [" ".join(str(units.index(mul(x, y))) for y in units) for x in units]
    return group_from_text("order 8\n" + "\n".join(rows) + "\n")


# (group, n, r) at desk scale: every group, with r = 1, r = n - 1 and r = n
WALK_CASES = [(spec, 4, r) for spec in ("trivial", "Z2", "Z3", "Z4", "S3") for r in (1, 2, 3, 4)] + [
    ("trivial", 6, 3), ("Z2", 5, 1), ("Z2", 5, 3), ("Z3", 5, 2), ("Z4", 5, 3), ("S3", 5, 4),
]

def dense_sandwich_ids(m):
    """(values, ids) of m's slice by testing every (partition, column) cell; ids as `dense_ids` gives them.

    Each row's entry at column lam is read off its transversal endomorphism
    theta: the block indices and weights at the points of lam, or zero when
    lam misses a block.  Keys are numbered in column-major first sight, then
    sorted by text and renumbered, as the sandwich was built before it walked
    each partition's transversals.
    """
    from gact.endo import wreath_to_text
    from gact.rees import theta

    g, n, r = m.group, m.n, m.r
    thetas = [theta(g, n, r, ki) for ki in m.kernels]
    seen = {}
    columns = []
    for lam in m.lambdas:
        column = []
        for th in thetas:
            perm = tuple(th.targets[u - 1] for u in lam)
            if len(set(perm)) != r:
                column.append(-1)
                continue
            key = (perm, tuple(th.weights[u - 1] for u in lam))
            column.append(seen.setdefault(key, len(seen)))
        columns.append(column)
    first_seen = [WreathElem(r, *key) for key in seen]
    values = sorted(first_seen, key=wreath_to_text)
    value_id = {v: idx for idx, v in enumerate(values)}
    renumber = [value_id[v] for v in first_seen] + [-1]
    return values, [[renumber[x] for x in column] for column in columns]


def wreath_key_classes(m, codes):
    """Each value-id pair code x * K + y + 1, K = len(m.values) + 1, to the class of its key.

    The key is wreath_mul(values[y], wreath_inv(values[x])); classes are
    numbered in the order of the codes' first sight.
    """
    g, values, base = m.group, m.values, len(m.values) + 1
    keys = {}
    return {code: keys.setdefault(wreath_mul(g, values[y], wreath_inv(g, values[x])), len(keys))
            for code in codes for x, y in [divmod(code - 1, base)]}


def sandwich_text(m):
    """The sandwich text form, one record per nonzero entry from `value_at`."""
    dotted = lambda xs, sep: sep.join(str(x) for x in xs)  # noqa: E731
    lines = [f"sandwich n={m.n} r={m.r} group-order={m.group.order} "
             f"lambdas={len(m.lambdas)} kernels={len(m.districts)}\n"]
    for i, l_idx in m.nonzero_positions():
        v = m.value_at(i, l_idx)
        lines.append(f"lambda={dotted(m.lambdas[l_idx], '.')} kernel={i} "
                     f"perm={dotted(v.perm, ',')} weights={dotted(v.weights, ',')}\n")
    return "".join(lines)


def dense_square_key(m):
    """key(x, y) = y * inv(x) of two value ids, by the wreath product itself."""
    g, values = m.group, m.values
    return lambda x, y: wreath_mul(g, values[y], wreath_inv(g, values[x]))


def dense_column_pairs(m):
    """Per column pair l < m, [(x, y, rows, x0, y0)] by zipping whole dense columns.

    The value pairs of the rows nonzero in both columns, in order of first
    row, each with its row count and the first pair of its square-key class.
    """
    from collections import Counter

    key = dense_square_key(m)
    out = []
    for col_l, col_m in itertools.combinations(dense_ids(m), 2):
        counts = Counter((x, y) for x, y in zip(col_l, col_m) if x >= 0 and y >= 0)
        first = {}
        out.append([(x, y, rows, *first.setdefault(key(x, y), (x, y))) for (x, y), rows in counts.items()])
    return out


def rowwise_column_pairs(m):
    """`rees.column_pairs` as a list, walked as before it read partition blocks.

    Column l's nonzero rows are listed once and paired with every later
    column; a pair code whose y is the zero (code % base == 0) is skipped.
    """
    from collections import Counter
    from operator import add

    from gact.rees import KeyClasses

    columns, classes = dense_ids(m), KeyClasses(m)
    base = classes.base
    out = []
    for l_idx, col_l in enumerate(columns):
        rows = list(itertools.compress(range(len(col_l)), map((0).__le__, col_l)))  # nonzero, ascending
        codes_l = [x * base + 1 for x in map(col_l.__getitem__, rows)]
        for col_m in columns[l_idx + 1:]:
            first, pairs = {}, []
            for code, count in Counter(map(add, codes_l, map(col_m.__getitem__, rows))).items():
                if code % base:  # else column m is zero there
                    x, y = divmod(code - 1, base)
                    x0, y0 = first.setdefault(classes[code], (x, y))
                    pairs.append((x, y, count, x0, y0))
            out.append(pairs)
    return out


def dense_p1_relators(m):
    """(words, tags) of the value presentation by zipping whole dense columns.

    Per column pair l < m, each distinct value pair of the zipped columns in
    order of first sight, zeros skipped, is tied to the first pair of its
    square-key class; the P2 relator comes last.
    """
    from gact.presentation import DEFAULT_MAX_RELATORS, _RelatorSink

    values, columns, key = m.values, dense_ids(m), dense_square_key(m)
    sink = _RelatorSink(DEFAULT_MAX_RELATORS)
    for l_idx, col_l in enumerate(columns):
        for col_m in columns[l_idx + 1:]:
            first = {}
            for x, y in dict.fromkeys(zip(col_l, col_m)):
                if x < 0 or y < 0:
                    continue
                x0, y0 = first.setdefault(key(x, y), (x, y))
                if x0 != x:
                    sink.add((-x0 - 1, y0 + 1, -y - 1, x + 1), "P1")
    sink.add((values.index(wreath_identity(m.r)) + 1,), "P2")
    return sink.words, sink.tags


def dense_squares_counts(m):
    """(idempotents, squares, singular) of m's rank by zipping whole dense columns."""
    from collections import Counter
    from math import comb

    columns, key = dense_ids(m), dense_square_key(m)
    n_squares = n_singular = 0
    for l_idx, col_l in enumerate(columns):
        for col_m in columns[l_idx + 1:]:
            rows = 0
            classes = Counter()
            for (x, y), count in Counter(zip(col_l, col_m)).items():
                if x < 0 or y < 0:
                    continue
                rows += count
                classes[key(x, y)] += count
            n_squares += comb(rows, 2)
            n_singular += sum(comb(size, 2) for size in classes.values())
    return sum(x >= 0 for col in columns for x in col), n_squares, n_singular


def dense_nonzero_positions(m):
    """The nonzero (row, column) positions by scanning the whole grid, row-major."""
    columns = dense_ids(m)
    return [(i, l_idx) for i in range(len(m.kernels)) for l_idx, column in enumerate(columns) if column[i] >= 0]


def presentation_from_text(text):
    """Parse the presentation text form that `presentation_lines` writes."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("generators "):
        raise ParseError("expected a 'generators k' header")
    try:
        count = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"bad header {lines[0]!r}") from None
    names = []
    idx = 1
    while idx < len(lines) and lines[idx].startswith("gen "):
        names.append(lines[idx][4:].strip())
        idx += 1
    if len(names) != count:
        raise ParseError(f"header promises {count} generators, found {len(names)}")
    index = {name: gi + 1 for gi, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError("duplicate generator names")
    relators = []
    tags = []
    for ln in lines[idx:]:
        if not ln.startswith("rel "):
            raise ParseError(f"unexpected line {ln!r}")
        word = []
        for tok in ln[4:].split():
            inv = tok.endswith("'")
            name = tok[:-1] if inv else tok
            if name not in index:
                raise ParseError(f"unknown generator {name!r} in relator")
            word.append(-index[name] if inv else index[name])
        relators.append(tuple(word))
        tags.append("rel")
    return Presentation(names, relators, tags)


def order_report(text, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate a presentation file over the trivial subgroup.

    Returns "order=<k>" on completion or "capped max=<cap>" when the coset
    cap is hit.
    """
    try:
        table = todd_coxeter(presentation_from_text(text), max_cosets=max_cosets)
    except Capped:
        return f"capped max={max_cosets}"
    return f"order={table.order}"


def trace(t, start, word):
    """The coset that word leads to from coset start in the table t."""
    c = start
    for col in _columns(word):
        c = t.table[c][col]
    return c


def erase_generators(p, erased):
    """p with the generators in erased deleted from every relator.

    The other generators are renumbered in order; words are freely reduced,
    and empty or repeated ones dropped, the first tag kept.
    """
    keep = [g for g in range(1, len(p.generators) + 1) if g not in erased]
    new = {g: k for k, g in enumerate(keep, start=1)}
    words = {}
    for word, tag in zip(p.relators, p.tags):
        word = free_reduce(new[x] if x > 0 else -new[-x] for x in word if abs(x) not in erased)
        if word:
            words.setdefault(word, tag)
    return Presentation([p.generators[g - 1] for g in keep], list(words), list(words.values()))
