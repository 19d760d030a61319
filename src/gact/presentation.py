"""Schreier system and the three presentations of the maximal subgroup.

Words are tuples of signed 1-based generator indices.  Every builder
emits freely reduced, distinct relators in a fixed order, so identical
inputs give byte-identical presentations.
"""

from __future__ import annotations

from collections import Counter, defaultdict, namedtuple
from heapq import heappop, heappush
from itertools import chain, combinations, count

from .endo import Endo, WreathElem, wreath_identity, wreath_inv, wreath_mul, wreath_to_text
from .errors import DEFAULT_MAX_RELATORS, BadRank, ResourceLimit
from .groups import Group
from .rees import KeyClasses, SandwichMatrix, column_pairs, kernel_index_of, lambda_list


class Presentation:
    def __init__(self, generators: list[str], relators: list[tuple[int, ...]], tags: list[str],
                 gen_keys: list | None = None):
        self.generators = generators
        self.relators = relators
        self.tags = tags
        self.gen_keys = gen_keys  # builder-specific key per generator

    def tag_count(self, tag: str) -> int:
        return sum(1 for t in self.tags if t == tag)


def free_reduce(word) -> tuple[int, ...]:
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


class _RelatorSink:
    """Collects freely reduced, deduplicated relators under a size cap."""

    def __init__(self, max_relators):
        self.words: list[tuple[int, ...]] = []
        self.tags: list[str] = []
        self.seen: set[tuple[int, ...]] = set()
        self.max_relators = max_relators

    def add(self, word, tag) -> bool:
        """Keep the word freely reduced unless it is empty or kept already; True when kept."""
        word = free_reduce(word)
        if not word or word in self.seen:
            return False
        if len(self.words) >= self.max_relators:
            raise ResourceLimit("relators", self.max_relators)
        self.seen.add(word)
        self.words.append(word)
        self.tags.append(tag)
        return True


# -- Schreier system ----------------------------------------------------------

class SchreierSystem(namedtuple("SchreierSystem", "n r lambdas parent letter attach words")):
    """Prefix-closed words of idempotents translating between image columns.

    The root column (1..r) carries the empty word.  Every other column is
    reached from its parent (decrement the last decrementable slot) by one
    idempotent letter whose image is the column itself; attach records that
    letter's kernel row.  parent, letter, attach and words are dicts keyed
    by column.
    """

    __slots__ = ()


def _schreier_letter(g: Group, n: int, lam: tuple[int, ...]) -> Endo:
    # position k goes to the least member of lam at or above k, the tail to the last
    targets = []
    for k in range(1, n + 1):
        for u in lam:
            if k <= u:
                targets.append(u)
                break
        else:
            targets.append(lam[-1])
    return Endo(g, n, tuple(targets), (0,) * n)


def schreier_build(g: Group, n: int, r: int) -> SchreierSystem:
    lambdas = lambda_list(n, r)
    root = lambdas[0]
    parent: dict = {}
    letter: dict = {}
    attach: dict = {}
    words: dict = {root: ()}
    for lam in lambdas[1:]:
        prev = 0
        pick = None
        for idx, u in enumerate(lam):
            if u - prev > 1:
                pick = idx
            prev = u
        if pick is None:
            raise BadRank(f"column {lam} has no decrementable slot")
        par = lam[:pick] + (lam[pick] - 1,) + lam[pick + 1:]
        alpha = _schreier_letter(g, n, lam)
        parent[lam] = par
        letter[lam] = alpha
        attach[lam] = kernel_index_of(alpha)
        words[lam] = words[par] + (alpha,)
    return SchreierSystem(n, r, lambdas, parent, letter, attach, words)


# -- the position-indexed presentation ----------------------------------------

def position_names(m: SandwichMatrix):
    """Position (i, l)'s generator name f_<i>_<λ dotted>, as a function of i and l; λ texts are made once."""
    lams = [".".join(map(str, lam)) for lam in m.lambdas]
    return lambda i_idx, l_idx: f"f_{i_idx}_{lams[l_idx]}"


def gr_grids(m: SandwichMatrix, spell=None):
    """(plus, minus, cols_of) from one pass over `m.nonzero_positions()`.

    plus[i][l], minus[i][l] = spell(g, i, l), by default (g, -g), spell the g-th
    position's generator and its inverse; cols_of lists each row's nonzero
    columns, ascending.
    """
    nrows, ncols = len(m.kernels), len(m.lambdas)
    plus = [[None] * ncols for _ in range(nrows)]
    minus = [[None] * ncols for _ in range(nrows)]
    cols_of: list[list[int]] = [[] for _ in range(nrows)]
    for gen, (i, l_idx) in enumerate(m.nonzero_positions(), start=1):
        plus[i][l_idx], minus[i][l_idx] = spell(gen, i, l_idx) if spell else (gen, -gen)
        cols_of[i].append(l_idx)
    return plus, minus, cols_of


def gr_relators(m: SandwichMatrix, s: SchreierSystem, max_relators: int = DEFAULT_MAX_RELATORS, grids=None):
    """Yield the position presentation's relators in batches (tag, words), keeping none.

    Generator g is the g-th of `m.nonzero_positions()`; words spell it from the
    letter grids of `grids`, by default `gr_grids(m)`: g and -g.  R1 follows
    the Schreier tree edges, R2 kills each row's district generator, one batch
    each; R3 gives one batch per row i, chaining, for each row k > i, the
    columns whose column-pair keys agree; order k, column.  Each word is
    freely reduced and new; the batch that passes max_relators is cut there,
    and ResourceLimit follows it.
    """
    left = max(max_relators, 0)
    for tag, words in _gr_words(m, s, *(grids or gr_grids(m))):
        if len(words) > left:
            yield tag, words[:left]
            raise ResourceLimit("relators", max_relators)
        left -= len(words)
        yield tag, words


def _gr_words(m: SandwichMatrix, s: SchreierSystem, plus, minus, cols_of):
    """`gr_relators` uncapped, spelt from the letter grids."""
    if (m.n, m.r) != (s.n, s.r):
        raise ValueError("matrix and Schreier system disagree on (n, r)")
    # R1 along tree edges, only when the parent-side position is nonzero
    pos = m.lambda_pos
    edges = [(m.kernel_pos[s.attach[lam]], pos[s.parent[lam]], pos[lam]) for lam in s.lambdas[1:]]
    yield "R1", [(plus[i][par], minus[i][l_idx]) for i, par, l_idx in edges if m.id_columns[par][i] >= 0]
    # R2 at each row's district column
    yield "R2", [(plus[i][pos[district]],) for i, district in enumerate(m.districts)]
    # R3: rows i < k chain columns l < m when their column-pair keys y * inv(x)
    # agree.  Each row joins one group per column pair (l, m) of its own and key
    # class, listing k * ncols + m for its rows k.  Once the rows before it have
    # left, row i heads its groups; each row k after it in a group of (l, m)
    # takes the largest such l as prev, the column before m on their chain
    columns, classes, ncols = m.id_columns, KeyClasses(m), len(m.lambdas)
    groups: dict[tuple[int, int, int], list[int]] = {}
    joined = []  # per row, its group per column pair (l, m), l ascending
    for i, cols in enumerate(cols_of):
        row = []
        cells = [(l_idx, columns[l_idx][i], i * ncols + l_idx) for l_idx in cols]
        for (l_idx, x, _), (m_idx, y, km) in combinations(cells, 2):
            group = groups.setdefault((l_idx, m_idx, classes[x * classes.base + y + 1]), [])
            row.append(group)
            group.append(km)
        joined.append(row)
    for i, row in enumerate(joined):
        for group in row:
            del group[0]  # row i leaves its groups; below, a larger l overwrites
        prev = {km: l_idx for (l_idx, _), group in zip(combinations(cols_of[i], 2), row) for km in group}
        plus_i, minus_i = plus[i], minus[i]  # the four letters name four distinct positions
        words = []
        for km in sorted(prev):
            (k, m_idx), l_idx = divmod(km, ncols), prev[km]
            words.append((minus_i[l_idx], plus_i[m_idx], minus[k][m_idx], plus[k][l_idx]))
        yield "R3", words


def build_gr_presentation(
    m: SandwichMatrix, s: SchreierSystem, max_relators: int = DEFAULT_MAX_RELATORS
) -> Presentation:
    """`gr_relators` collected, one generator per nonzero position, keyed by it."""
    grids = gr_grids(m)
    npos = [(i, l_idx) for i, cols in enumerate(grids[2]) for l_idx in cols]
    batches = list(gr_relators(m, s, max_relators, grids))
    words = [w for _, batch in batches for w in batch]
    tags = [tag for tag, batch in batches for _ in batch]
    name = position_names(m)
    return Presentation([name(i, l) for i, l in npos], words, tags, gen_keys=npos)


# -- the value-indexed presentation -------------------------------------------

def value_gen_name(v: WreathElem) -> str:
    return f"f[{wreath_to_text(v)}]"


def quotient_relators(pairs):
    """Yield the P1 words of `column_pairs` lists, reading them lazily.

    Each value pair (x, y) of a column pair that is not the first (x0, y0) of
    its key class is tied to it by the word inv(x0) y0 inv(y) x, over value
    ids + 1, in the walk's order: l, then m, then first row.
    """
    for x, y, _, x0, y0 in chain.from_iterable(pairs):
        if x0 != x:
            yield (-x0 - 1, y0 + 1, -y - 1, x + 1)


def build_quotient_presentation(
    m: SandwichMatrix, max_relators: int = DEFAULT_MAX_RELATORS
) -> Presentation:
    """One generator per distinct nonzero value; square relators per column pair.

    The P1 relators are the `quotient_relators` of `column_pairs(m)`, each new
    one once; the relator P2 killing the identity value comes last.
    """
    sink = _RelatorSink(max_relators)
    for word in quotient_relators(column_pairs(m)):
        sink.add(word, "P1")
    sink.add((m.value_id[wreath_identity(m.r)] + 1,), "P2")
    return Presentation([value_gen_name(v) for v in m.values], sink.words, sink.tags, gen_keys=m.values)


def close_generators(known: set[int], size: int, words) -> bool:
    """Solve relators for unknown generators until all size of them are known.

    known holds generator numbers and grows in place.  A word solves a
    generator that is its only unknown letter and occurs in it once: that
    generator is then a product of known ones.  A word with several unknown
    generators waits on each of them and is tried again as they become known.
    Words are read lazily, and none once every generator is known.  False
    when they run out first.
    """
    if len(known) == size:
        return True
    waiting: dict[int, list] = defaultdict(list)
    for word in words:
        todo = [word]
        while todo:
            w = todo.pop()
            unknown = [abs(x) for x in w if abs(x) not in known]
            if len(unknown) == 1:
                known.add(unknown[0])
                if len(known) == size:
                    return True
                todo += waiting.pop(unknown[0], ())
            elif len(distinct := set(unknown)) > 1:
                for x in distinct:
                    waiting[x].append(w)
    return False


# -- Tietze elimination -------------------------------------------------------

def _inverse(word) -> tuple[int, ...]:
    return tuple([-x for x in reversed(word)])


def _cyclic_reduce(word) -> tuple[int, ...]:
    word = free_reduce(word)
    i, j = 0, len(word)
    while j - i > 1 and word[i] == -word[j - 1]:
        i, j = i + 1, j - 1
    return word[i:j]


def _canonical(word) -> tuple[int, ...]:
    """Least rotation of the word or of its inverse."""
    inv = _inverse(word)
    least = min(min(word), -max(word))
    return min(w[i:] + w[:i] for w in (word, inv) for i, x in enumerate(w) if x == least)


def _substitute(word, g, w, w_inv) -> tuple[int, ...]:
    out = []
    for x in word:
        out.extend(w if x == g else w_inv if x == -g else (x,))
    return _cyclic_reduce(out)


def eliminate_generators(p: Presentation) -> tuple[Presentation, list]:
    """Tietze-eliminate generators through relators of at most three letters.

    A generator named by a one-letter relator (P2 kills the identity value)
    is first erased from every relator and logged as (g, ()); the length
    bound is the total length left.  Relators are then cyclically reduced
    and deduplicated up to rotation and inversion, and taken shortest
    first, ties broken by canonical form (the least rotation of the word or
    its inverse).  A relator of length at most 3 is solved for the first
    letter of its canonical form whose generator occurs in it once, and
    that generator is substituted away everywhere.  The one bound test is
    the exact growth: the substitution is made unless the rewritten
    relators, the set-aside ones included, would take the total relator
    length above the bound.  Relators longer than 4 letters are set aside
    and rewritten once at the end.  Returns the reduced presentation
    (surviving generators keep their names and keys) and the substitutions
    (g, w), g = w over the input's generators, in the order they were made.
    """
    active: dict[int, tuple] = {}  # id -> (word, tag, canonical form); at most 4 letters
    where: dict[int, set[int]] = defaultdict(set)  # generator -> ids of active relators
    aside: list[tuple[tuple[int, ...], str]] = []
    aside_occ: Counter = Counter()  # letters per generator, set-aside relators as rewritten
    seen: set[tuple[int, ...]] = set()
    heap: list = []
    ids = count()

    def add(word, tag) -> int:
        # returns the letters the relator adds to the total
        if not word:
            return 0
        canon = _canonical(word)
        if canon in seen:
            return 0
        seen.add(canon)
        if len(word) > 4:
            aside.append((word, tag))
            aside_occ.update(abs(x) for x in word)
            return len(word)
        rid = next(ids)
        active[rid] = (word, tag, canon)
        for x in word:
            where[abs(x)].add(rid)
        if len(word) <= 3:
            heappush(heap, (len(word), canon, rid))
        return len(word)

    def remove(rid) -> tuple:
        word, tag, canon = entry = active.pop(rid)
        seen.discard(canon)
        for x in word:
            where[abs(x)].discard(rid)
        return entry

    # a generator a one-letter relator kills is erased before the bound is taken
    killed = dict.fromkeys(abs(w[0]) for w in p.relators if len(w) == 1)
    log: list[tuple[int, tuple[int, ...]]] = [(g, ()) for g in killed]
    relators = [tuple(x for x in word if abs(x) not in killed) for word in p.relators]
    bound = sum(map(len, relators))
    total = sum(add(_cyclic_reduce(word), tag) for word, tag in zip(relators, p.tags))
    while heap:
        length, canon, rid = heappop(heap)
        if rid not in active:
            continue  # rewritten or solved since it was queued
        uses = Counter(abs(x) for x in canon)
        at = next((i for i, x in enumerate(canon) if uses[abs(x)] == 1), None)
        if at is None:
            continue
        # rotated to start at its letter x, the relator reads x * rest = 1
        x = canon[at]
        g, rest = abs(x), canon[at + 1:] + canon[:at]
        w = _inverse(rest) if x > 0 else rest
        w_inv = _inverse(w)
        others = sorted(where[g] - {rid})
        rewritten = [_substitute(active[o][0], g, w, w_inv) for o in others]
        growth = sum(len(new) - len(active[o][0]) for o, new in zip(others, rewritten))
        if total - length + growth + (len(w) - 1) * aside_occ[g] > bound:
            continue
        remove(rid)
        total -= length
        log.append((g, w))
        for o, new in zip(others, rewritten):
            word, tag, _ = remove(o)
            total += add(new, tag) - len(word)
        for y in w:
            aside_occ[abs(y)] += aside_occ[g]
        total += (len(w) - 1) * aside_occ.pop(g, 0)

    # a substitution's word names only generators eliminated after it, so
    # resolving backwards through the log needs each word once
    resolved: dict[int, tuple[int, ...]] = {}

    def expand(word) -> list[int]:
        out = []
        for x in word:
            r = resolved.get(abs(x))
            out.extend((x,) if r is None else r if x > 0 else _inverse(r))
        return out

    for g, w in reversed(log):
        resolved[g] = free_reduce(expand(w))
    final = {canon: (word, tag) for word, tag, canon in active.values()}
    for word, tag in aside:
        word = _cyclic_reduce(expand(word))
        if word:
            final.setdefault(_canonical(word), (word, tag))
    eliminated = {g for g, _ in log}
    keep = [gi for gi in range(1, len(p.generators) + 1) if gi not in eliminated]
    new_index = {g: k for k, g in enumerate(keep, start=1)}
    relators = [tuple(new_index[x] if x > 0 else -new_index[-x] for x in w) for w, _ in final.values()]
    names = [p.generators[g - 1] for g in keep]
    keys = None if p.gen_keys is None else [p.gen_keys[g - 1] for g in keep]
    return Presentation(names, relators, [tag for _, tag in final.values()], gen_keys=keys), log


# -- the wreath-product presentation ------------------------------------------

def lavers_presentation(g: Group, r: int, max_relators: int = DEFAULT_MAX_RELATORS) -> Presentation:
    """Standard presentation of the weighted permutation group of rank r.

    Generators are the adjacent transpositions and one diagonal insertion
    per nontrivial weight and slot; insertions of the identity weight are
    omitted (they fall out of the product relation), so relators mention
    them as empty words.
    """
    if r < 1:
        raise BadRank("rank must be at least 1")
    names = [f"t{i}" for i in range(1, r)] + [
        f"i{a}_{j}" for a in range(1, g.order) for j in range(1, r + 1)]

    def ins(a, j, sign=1):
        # t_i is generator i; identity insertions are the empty word
        return (sign * (r - 1 + (a - 1) * r + j),) if a else ()

    sink = _RelatorSink(max_relators)
    for i in range(1, r):
        sink.add((i, i), "W1")
    for i in range(1, r):
        for j in range(i + 2, r):
            sink.add((i, j, -i, -j), "W2")
    for i in range(1, r - 1):
        sink.add((i, i + 1, i, -i - 1, -i, -i - 1), "W3")
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for a in range(1, g.order):
                for b in range(1, g.order):
                    sink.add(ins(a, i) + ins(b, j) + ins(a, i, -1) + ins(b, j, -1), "W4")
    for i in range(1, r + 1):
        for a in range(1, g.order):
            for b in range(1, g.order):
                ab = g.table[a][b]
                sink.add(ins(a, i) + ins(b, i) + ins(ab, i, -1), "W5")
    for j in range(1, r):
        for i in range(1, r + 1):
            if i == j or i == j + 1:
                continue
            for a in range(1, g.order):
                sink.add(ins(a, i) + (j,) + ins(a, i, -1) + (-j,), "W6")
    for i in range(1, r):
        for a in range(1, g.order):
            sink.add(ins(a, i) + (i,) + ins(a, i + 1, -1) + (-i,), "W7")
    return Presentation(names, sink.words, sink.tags)


def evaluate_word(g: Group, assignment: list[WreathElem], r: int, word) -> WreathElem:
    """Evaluate a relator word under a generator assignment."""
    acc = wreath_identity(r)
    for letter in word:
        v = assignment[abs(letter) - 1]
        if letter < 0:
            v = wreath_inv(g, v)
        acc = wreath_mul(g, acc, v)
    return acc


# -- text form ----------------------------------------------------------------

def presentation_lines(names: list[str], words):
    """The text form one line at a time: header, generators, one line per relator."""
    # letter[g] names the signed generator g; negative g index from the end
    letter = [""] + names + [name + "'" for name in reversed(names)]
    yield f"generators {len(names)}\n"
    for name in names:
        yield f"gen {name}\n"
    for word in words:
        yield "rel " + " ".join([letter[g] for g in word]) + "\n"


def presentation_to_text(p: Presentation) -> str:
    return "".join(presentation_lines(p.generators, p.relators))
