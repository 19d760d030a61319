"""The paper's main theorem checked: the maximal subgroup at a rank-r idempotent is G wr S_r."""

from __future__ import annotations

from itertools import chain, takewhile
from math import factorial

from . import fpgroup, presentation, reduction, rees
from .endo import wreath_identity, wreath_order
from .groups import Group
from .rees import column_pairs, extended_rows, square_condition


def run_verify(g: Group, n: int, r: int, caps: dict) -> dict:
    """Decide the maximal subgroup at (n, r); returns the report fields.

    At rank n-1 the position presentation's R3 count and abelianization are
    reported.  At r = n and n = r+2 the order comes from `enumerate_order`.
    At n > r+2 the order comes from the (r+2, r) slice by `slice_order`, and
    the report gains method ("slice", or "enumerate" when a check of the
    route fails and `enumerate_order` at n decides), slice_n, pairs_walked
    and closure_relators.  Every check runs under the same caps.
    """
    rees.check_entries_cap(g, n, r, caps["max_entries"], dense=r == n - 1)  # rank n-1 reads the dense gr grids
    m = rees.build_sandwich(g, n, r, caps["max_entries"])
    report: dict = {"n": n, "r": r, "group_order": g.order}
    if r == n - 1:
        # the rank-free claim is about the position presentation itself: it has
        # no R3 relators, and its abelianization, after Tietze moves, gives the free rank
        p = presentation.build_gr_presentation(m, presentation.schreier_build(g, n, r), caps["max_relators"])
        ab = fpgroup.abelianization(presentation.eliminate_generators(p)[0])
        report.update(mode="rank-free", r3_relators=p.tag_count("R3"), expected_r3=0,
                      abelianization={"torsion": list(ab.torsion), "free_rank": ab.free_rank},
                      ok=p.tag_count("R3") == 0)
        return report
    expected = 1 if r == n else (g.order ** r) * factorial(r)
    route: dict = {}
    decided = None
    if n > r + 2:
        route = {"method": "slice", "slice_n": r + 2, "pairs_walked": 0, "closure_relators": 0}
        decided = slice_order(g, m, caps, route)
        if decided is None:
            route["method"] = "enumerate"
    order, log = decided or enumerate_order(m, caps)
    report.update(mode="order", computed_order=order, expected_order=expected, merges=len(log),
                  ok=order == expected, **route)
    return report


def enumerate_order(m, caps: dict) -> tuple[int, list]:
    """The order by coset enumeration, and the merge log, on the built (n, r) matrix.

    The value presentation, position connectivity, simplification with
    witness search, Tietze elimination and Todd-Coxeter over <h>: h is the
    surviving generator f[v] whose value v has the largest order in W, the
    lowest index on ties, and |P| = [P : <h>] * |<h>|.  When no relation on
    h is found, or no generator survives, Todd-Coxeter over the trivial
    subgroup decides, under the same caps.
    """
    p = presentation.build_quotient_presentation(m, caps["max_relators"])
    pg = reduction.connectivity(m)
    log: list = []
    q, _ = presentation.eliminate_generators(reduction.simplify_presentation(p, m, pg, log))
    if q.generators:
        orders = [wreath_order(m.group, v) for v in q.gen_keys]
        table = fpgroup.todd_coxeter(q, orders.index(max(orders)) + 1, caps["max_cosets"])
        if table.subgroup_order:
            return table.order * table.subgroup_order, log
    return fpgroup.todd_coxeter(q, max_cosets=caps["max_cosets"]).order, log


def slice_order(g: Group, m, caps: dict, route: dict) -> tuple[int, list] | None:
    """The order at n > r+2 from the (r+2, r) slice, and the merge log at n; None if a check fails.

    The merges at n are certified as by `enumerate_order`.  Upper bound:
    `enumerate_order` at (r+2, r) gives |W|, W = G wr S_r; each slice row,
    extended to n, carries the same value in every column inside [1..r+2];
    each slice merge square is singular at n; and from the slice's values
    every generator at n is solved, one unknown letter at a time, from the
    merge relators and then the P1 relators of `column_pairs(m)`, read no
    further than needed.  So the presentation at n is a quotient of the
    slice's.  Lower bound: every relator emitted at n (P2, merges, walked
    P1) maps to 1 under f[v] -> inv(v), and the images generate W, since
    every standard generator of W is a value at n.  The route's counters go
    into route.
    """
    r = m.r
    log: list = []
    pg = reduction.connectivity(m)
    # the merge relators alone, over value ids + 1 like the walked relators
    names = [presentation.value_gen_name(v) for v in m.values]
    blank = presentation.Presentation(names, [], [], gen_keys=m.values)
    merges = reduction.simplify_presentation(blank, m, pg, log).relators
    s = rees.build_sandwich(g, r + 2, r, caps["max_entries"])
    order, slice_log = enumerate_order(s, caps)
    if order != g.order ** r * factorial(r):
        return None
    rows = extended_rows(s, m)
    cols = [m.lambda_pos[lam] for lam in s.lambdas]
    if any(s.value_at(i, l) != m.value_at(row, col) for l, col in enumerate(cols) for i, row in enumerate(rows)):
        return None
    squares = (w.square for w in slice_log)
    if not all(square_condition(m, rows[i], rows[k], cols[l], cols[mu]) for i, k, l, mu in squares):
        return None
    one = wreath_identity(r)

    def maps_to_one(w):
        return presentation.evaluate_word(g, m.inverses, m.values, r, w) == one

    if not all(map(maps_to_one, [(m.value_id[one] + 1,), *merges])):  # P2 and the merges
        return None

    def walked():
        for pairs in column_pairs(m):
            route["pairs_walked"] += 1
            yield pairs

    sink = presentation._RelatorSink(caps["max_relators"])  # the walked P1 relators, each new one once
    new = (sink.words[-1] for w in presentation.quotient_relators(walked()) if sink.add(w, "P1"))

    def fed():  # the merges, then the walked relators up to one that does not map to 1, so the closure stalls
        for w in chain(merges, takewhile(maps_to_one, new)):
            route["closure_relators"] += 1
            yield w

    if not presentation.close_generators({m.value_id[v] + 1 for v in s.values}, len(m.values), fed()):
        return None
    # the adjacent transpositions and the weight insertions generate W and are
    # closed under inverses, so if each is a value v, each is an image inv(v)
    standard = [reduction.simple_form_elem(r, k, 1, 0) for k in range(1, r)]
    standard += [reduction.simple_form_elem(r, k, 0, a) for k in range(1, r + 1) for a in range(1, g.order)]
    if not all(x in m.value_id for x in standard):
        return None
    return order, log
