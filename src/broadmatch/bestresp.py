"""Single-advertiser best responses against committed rivals.

All solvers work on the same object: the advertiser's partition tables, one
per keyword, giving the exact cost and payoff of every query prefix.  A
response is a query vector (how deep to go on each keyword) plus the budget
split backing it.

Four solvers, one contract:

* ``greedy_local_best_response`` — walk segments in order of payoff per
  unit cost, then repair local marginal-payoff violations.  Fast, locally
  stable, not globally optimal.
* ``exact_best_response_dp`` — pseudo-polynomial knapsack over integerized
  utilities; exact optimum, refuses oversized inputs.
* ``rounded_dp_as1`` — the same knapsack on utilities floored to a grid of
  step eps*P/M; payoff at least (1-eps) of optimal.
* ``fptas_as2`` — the rounded knapsack on a candidate grid per keyword;
  still a (1-eps) guarantee.

Both rounded schemes have table dimensions independent of query volumes.

``brute_force_oracle`` cross-checks the others by enumeration on small
inputs.  ``solver`` is the one table from method name to solver, which the
CLI and the dynamics both read.

The dp and AS1/AS2 share one knapsack on Python ints over the tables' int
prefix costs and payoffs, scaled with the budget to one common denominator.
It merges the keywords' (cost, level) Pareto fronts one at a time and takes
the witness the full rational table picks, by that table's tie rule.
``WORK_CAP`` bounds that table as projected, not the pairs merged.  Each
keyword's candidates are generated one per payoff level straight from its
table's ints (``_level_candidates``), never one per prefix.  AS1 and the
fptas differ only in the prefix lengths the one rounded driver,
``_rounded``, draws them from: every affordable one, or the fptas grid,
which is counted (``_grid_size``) and never listed.

The arithmetic around the knapsack runs on ints too, and a ``Fraction`` is
built only for a value that is reported.  The answer's payoff and cost sum
the tables' int prefixes (``PartitionTable.int_prefix``) over the lcm of
their ``D``s, one ``Fraction`` each and one per committed budget.  The
rounding unit is one ``Fraction`` of the peak's ints, and the level bound,
the fptas grid's G and its inner eps are computed on eps's numerator and
denominator (``_top_level``, ``_fptas_scale``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .model import Allocation, Instance, Profile
from .partition import INFINITE, PartitionTable, rate_gt, tables_for

ZERO = Fraction(0)
# Work cap of the exact dp, the rounded dp's table and the fptas grid:
# beyond it a solve refuses with ``ScaleError``.
WORK_CAP = 10 ** 7
# Search-space cap of the brute-force oracle.
BRUTE_CAP = 10 ** 6


class ScaleError(ValueError):
    """Raised when a solver would do more work than its cap allows."""


@dataclass(frozen=True)
class BestResponse:
    """A solver's answer: query vector, budget split, and its exact value."""

    advertiser: str
    method: str
    queries: Dict[str, int]
    committed: Dict[str, Fraction]
    payoff: Fraction
    cost: Fraction
    meta: dict = field(default_factory=dict)

    def profile(self) -> Profile:
        """The advertiser's rows, ready to splice into a day's profile."""
        rows = []
        for kw, x in self.queries.items():
            b = self.committed.get(kw, ZERO)
            if x > 0 or b > 0:
                rows.append(Allocation(self.advertiser, kw, x, b))
        return Profile(tuple(rows))


def _exact_value(tables: Mapping[str, PartitionTable],
                 queries: Mapping[str, int]) -> Tuple[Fraction, Fraction]:
    """(payoff, cost) of ``queries``, exactly: the tables' int prefixes
    summed over the lcm of their ``D``s, one ``Fraction`` each."""
    den = math.lcm(*(tables[kw].D for kw in queries))
    payoff = cost = 0
    for kw, x in queries.items():
        t = tables[kw]
        u, c = t.int_prefix(x)
        payoff += u * (den // t.D)
        cost += c * (den // t.D)
    return Fraction(payoff, den), Fraction(cost, den)


def _answer(advertiser: str, method: str, tables: Mapping[str, PartitionTable],
            queries: Dict[str, int], meta: dict) -> BestResponse:
    """The response buying ``queries``, each keyword's committed budget
    exactly the cost of its prefix."""
    payoff, cost = _exact_value(tables, queries)
    committed = {kw: Fraction(tables[kw].int_prefix(x)[1], tables[kw].D)
                 for kw, x in queries.items()}
    return BestResponse(advertiser, method, queries, committed, payoff, cost,
                        meta=meta)


# ---------------------------------------------------------------------------
# greedy walk + local readjustment


class _EdgeState:
    __slots__ = ("kw", "table", "bought", "committed", "cost")

    def __init__(self, kw: str, table: PartitionTable):
        self.kw = kw
        self.table = table
        self.bought = 0           # queries taken so far
        self.committed = ZERO     # budget parked on this keyword
        self.cost = ZERO          # exact cost of the bought prefix

    @property
    def slack(self) -> Fraction:
        return self.committed - self.cost

    def mp_minus(self):
        """Payoff per unit cost at the last bought query (None if none)."""
        if self.bought == 0:
            return None
        return self.table.rate(self.table.segment_of(self.bought))

    def mp_plus(self):
        """Payoff per unit cost at the next query (None if stream is done)."""
        if self.bought >= self.table.volume:
            return None
        return self.table.rate(self.table.segment_of(self.bought + 1))


def _unstable(states: Sequence[_EdgeState]) -> Iterator[_EdgeState]:
    """The edges whose next query pays a strictly better rate than some
    other edge's last query, in keyword order."""
    for cand in states:
        up = cand.mp_plus()
        if up is not None and any(d is not cand and d.bought > 0
                                  and rate_gt(up, d.mp_minus())
                                  for d in states):
            yield cand


def greedy_local_best_response(instance: Instance, advertiser: str,
                               others: Profile,
                               reserve: Fraction = ZERO) -> BestResponse:
    """Greedy segment walk, then marginal-payoff readjustment.

    Allocation: repeatedly buy out the remaining segment with the best
    payoff-per-unit-cost ratio (free segments first; ties to the earliest
    keyword in instance order).  When a segment no longer fits, buy what the
    remainder affords and park all leftover money on that exit keyword, so
    the whole budget ends up committed.

    Readjustment: while some edge's next query pays a strictly better rate
    than another edge's last query, move money from the worst last-segment
    holding to that edge.
    """
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    states = _walk(tables, instance.budget(advertiser))
    _readjust(states)
    queries = {s.kw: s.bought for s in states}
    committed = {s.kw: s.committed for s in states}
    payoff, cost = _exact_value(tables, queries)
    return BestResponse(advertiser, "greedy", queries, committed, payoff, cost)


def _walk(tables: Mapping[str, PartitionTable], budget: Fraction) -> List[_EdgeState]:
    """The greedy response's allocation phase: each edge's state once the
    budget is committed or every stream is bought out."""
    states = [_EdgeState(kw, t) for kw, t in tables.items()]
    spent = ZERO  # total money out of the wallet = sum of committed
    while True:
        best: Optional[_EdgeState] = None
        best_rate = None
        for s in states:
            if s.bought >= s.table.volume:
                continue
            lam = s.table.segment_of(s.bought + 1)
            r = s.table.rate(lam)
            if best is None or rate_gt(r, best_rate):
                best, best_rate = s, r
        if best is None:
            break
        lam = best.table.segment_of(best.bought + 1)
        c = best.table.costs[lam]
        seg_end = best.table.breakpoints[lam + 1]
        room = seg_end - best.bought
        price = room * c
        remaining = budget - spent
        if price <= remaining:
            best.bought = seg_end
            best.cost += price
            best.committed += price
            spent += price
            continue
        # exit: buy what fits, park every remaining cent here
        y = int(remaining // c)
        best.bought += y
        best.cost += y * c
        best.committed += remaining
        spent = budget
        break
    return states


def _readjust(states: List[_EdgeState]) -> None:
    """The greedy response's readjustment phase, in place."""
    guard = 4 * len(states) * len(states) + 16
    while guard > 0:
        guard -= 1
        land = next(_unstable(states), None)
        if land is None:
            break
        while land.bought < land.table.volume:
            up = land.mp_plus()
            pool = [d for d in states
                    if d is not land and d.bought > 0
                    and rate_gt(up, d.mp_minus())]
            if not pool:
                break
            donor = min(pool, key=lambda d: (d.mp_minus() is INFINITE,
                                             d.mp_minus()))
            top = donor.table.segment_of(donor.bought)
            c_top = donor.table.costs[top]
            z_top = donor.table.breakpoints[top]
            partial = (donor.bought - z_top) * c_top
            nxt = land.table.segment_of(land.bought + 1)
            c_l = land.table.costs[nxt]
            if c_l == 0:
                land.bought = land.table.breakpoints[nxt + 1]
                continue
            room = land.table.breakpoints[nxt + 1] - land.bought
            funds = partial + donor.slack + land.slack
            y = int(funds // c_l)
            if y < room:
                # drain the donor's top segment entirely
                moved = partial + donor.slack
                donor.committed -= moved
                donor.cost -= partial
                donor.bought = z_top
                land.committed += moved
                land.cost += y * c_l
                land.bought += y
            else:
                # fill the landing segment; peel just enough off the donor
                need = room * c_l - donor.slack - land.slack
                ytil = max(0, -((-need) // c_top)) if c_top > 0 else 0
                donor.cost -= ytil * c_top
                donor.committed -= room * c_l - land.slack
                donor.bought -= ytil
                land.cost += room * c_l
                land.committed = land.cost
                land.bought = land.table.breakpoints[nxt + 1]
    else:
        raise RuntimeError("readjustment failed to settle")


# ---------------------------------------------------------------------------
# knapsack over prefixes


def _level_candidates(table: PartitionTable, afford: int, unit: Fraction,
                      g: Optional[int] = None) -> List[Tuple[int, int, int]]:
    """The first candidate prefix per payoff level up to ``afford``, as
    (x, C, level) from (0, 0, 0): C the prefix's cost times the table's
    ``D``, level floor(payoff / unit), rising strictly along the list.

    The candidates are every prefix length or, with ``g``, the fptas grid
    (``_grid_size``).  Within segment k a prefix's payoff is
    cu[k] + (x - bps[k]) * iu[k], so the first x to reach the next level is
    one ceiling division; on the grid it moves up to the next grid point,
    whose level may skip some.  The work is O(segments + levels), never
    O(queries).
    """
    bps, cc, cu = table.breakpoints, table.int_cum_cost, table.int_cum_payoff
    ic, iu = table.int_costs, table.int_payoffs
    per, den = table.D * unit.numerator, unit.denominator
    out, level, k, last = [(0, 0, 0)], 0, 0, len(ic)
    while True:
        need = -(-(level + 1) * per // den)  # least payoff at level + 1
        while k < last and cu[k + 1] < need:
            k += 1
        if k == last:
            return out
        lo = bps[k]  # cu[k] < need <= cu[k + 1], so iu[k] > 0
        x = lo - (cu[k] - need) // iu[k]
        if x > afford:
            return out
        if g is not None:  # g blocks of a queries, then single queries
            a = (min(bps[k + 1], afford) - lo) // g
            if a and x - lo <= g * a:
                x = lo - (lo - x) // a * a
        level = (cu[k] + (x - lo) * iu[k]) * den // per
        out.append((x, cc[k] + (x - lo) * ic[k], level))


def _knapsack(tabs: List[Tuple[str, PartitionTable]], budget: Fraction,
              levels: Mapping[str, List[Tuple[int, int, int]]]
              ) -> Tuple[Dict[str, int], int]:
    """Best total level within the budget, front by front, and a witness.

    ``levels[kw]`` holds the keyword's candidates one per payoff level, as
    ``_level_candidates`` gives them: (x, C, level) in ascending x from
    (0, 0, 0), C the prefix's cost times the table's ``D``.  With levels
    read against an exact common divisor of all payoffs the rounding is
    lossless and the result is the true optimum.  Costs and the budget are
    scaled to one common denominator, so every step is an int add and
    compare; the empty prefixes always fit.

    Each layer but the last merges the front below it, the (cost, level)
    points within the budget that no cheaper point matches in level, with
    its candidates (Nemhauser and Ullmann): each front point meets the
    candidates its remaining budget affords, the least cost per total level
    is kept, and a sweep down from the top level keeps the points cheaper
    than every higher one.  The last layer is only read: the optimum is the
    highest level a front point reaches with its deepest affordable
    candidate.  The witness is recovered backwards: at each layer and target
    p, the first candidate in order (q = max(p - lvl, 0) on the front below,
    the scan ending at the first lvl >= p) that reaches the least cost, as a
    full table of levels picks it.  A front holds at most one point per
    level, so the pairs merged never outnumber the cells of the projected
    table that the callers cap with ``WORK_CAP``.
    """
    den = math.lcm(budget.denominator, *(t.D for _, t in tabs))
    cap = budget.numerator * (den // budget.denominator)
    layers = []
    for kw, t in tabs:
        scale = den // t.D
        layers.append([(x, c * scale, lvl) for x, c, lvl in levels[kw]])
    fronts = [([0], [0])]  # each layer's front below it: costs, levels
    for lv in layers[:-1]:
        costs, levels = fronts[-1]
        points = [(c, lvl) for _, c, lvl in lv]
        cs = [c for c, _ in points]
        least = [cap + 1] * (levels[-1] + lv[-1][2] + 1)
        for fc, fl in zip(costs, levels):
            for c, lvl in points[:bisect_right(cs, cap - fc)]:
                if fc + c < least[fl + lvl]:
                    least[fl + lvl] = fc + c
        costs, levels, low = [], [], cap + 1
        for p in range(len(least) - 1, -1, -1):
            if least[p] < low:
                low = least[p]
                costs.append(low)
                levels.append(p)
        fronts.append((costs[::-1], levels[::-1]))
    cs = [c for _, c, _ in layers[-1]]  # k: how many candidates fc affords
    opt = max(fl + layers[-1][k - 1][2] for fc, fl in zip(*fronts[-1])
              if (k := bisect_right(cs, cap - fc)))
    queries, p = {}, opt
    for (kw, _), lv, (costs, levels) in zip(reversed(tabs), reversed(layers),
                                            reversed(fronts)):
        low, top = cap + 1, levels[-1]
        for x, c, lvl in lv:
            q = p - lvl if p > lvl else 0
            total = costs[bisect_left(levels, q)] + c if q <= top else low
            if total < low:
                low, pick = total, (x, q)
            if lvl >= p:
                break
        queries[kw], p = pick
    return queries, opt


def _utility_unit(tabs: List[Tuple[str, PartitionTable]]) -> Fraction:
    """Exact common divisor of all per-query payoffs: 1/lcm(denominators),
    each denominator read off the table's ints as D // gcd(u, D)."""
    return Fraction(1, math.lcm(*{t.D // math.gcd(u, t.D)
                                  for _, t in tabs for u in t.int_payoffs}))


def _config_pair(ta: PartitionTable, tb: PartitionTable,
                 budget: Fraction) -> Tuple[int, int, int]:
    """Exact two-keyword optimum by segment-configuration enumeration.

    Fix which segment each prefix ends in; within a configuration the
    choice is a two-variable knapsack over the in-segment query counts,
    solved by scanning the cheaper-to-scan variable (per-query payoffs are
    never negative, so free segments are always taken whole).  Work is the
    total scan length over feasible configurations; refuses beyond
    ``WORK_CAP`` before scanning.  Costs, payoffs and the budget are ints
    over one common denominator; the first strictly best point in
    configuration order is the witness.
    """
    den = math.lcm(budget.denominator, ta.D, tb.D)
    cap = budget.numerator * (den // budget.denominator)

    def segments(t: PartitionTable) -> List[Tuple[int, ...]]:
        """(start, length, prefix cost, prefix payoff, cost, payoff) per
        segment, the start its first query - 1 and the rest in 1/den."""
        bps, scale = t.breakpoints, den // t.D
        return [(bps[k], bps[k + 1] - bps[k], t.int_cum_cost[k] * scale,
                 t.int_cum_payoff[k] * scale, t.int_costs[k] * scale,
                 t.int_payoffs[k] * scale) for k in range(t.segment_count)]

    feasible, work, segs_b = [], 0, segments(tb)
    for a in segments(ta):
        for b in segs_b:
            room = cap - a[2] - b[2]
            if room >= 0:
                feasible.append((a, b, room))
                work += min(a[1], b[1]) + 1 if a[4] and b[4] else 1
    if work > WORK_CAP:
        raise ScaleError(
            "exact dp would scan ~%d points (cap %d); use the fptas instead"
            % (work, WORK_CAP))

    best_u = None
    best = (0, 0)
    for (za, la, _, pa, ca, ua), (zb, lb, _, pb, cb, ub), room in feasible:
        if not (ca and cb):
            picks = [(min(la, room // ca) if ca else la,
                      min(lb, room // cb) if cb else lb)]
        elif la <= lb:
            picks = ((i, min(lb, (room - i * ca) // cb))
                     for i in range(min(la, room // ca) + 1))
        else:
            picks = ((min(la, (room - j * cb) // ca), j)
                     for j in range(min(lb, room // cb) + 1))
        for i, j in picks:
            u = pa + pb + i * ua + j * ub
            if best_u is None or u > best_u:
                best_u = u
                best = (za + i, zb + j)
    return best[0], best[1], work


def exact_best_response_dp(instance: Instance, advertiser: str, others: Profile,
                           reserve: Fraction = ZERO) -> BestResponse:
    """Exact optimum over all query vectors within budget.

    One keyword needs no search at all (per-query payoffs are nonnegative,
    so the deepest affordable prefix is optimal); two keywords go through
    exact segment-configuration enumeration; more go through the knapsack's
    front merge over utilities rescaled by the lcm of their denominators,
    with costs and budget scaled to ints by their common denominator (an
    exact scaling, so the witness is the one rational arithmetic picks).
    Projected work beyond ``WORK_CAP`` raises ``ScaleError`` — use
    ``fptas_as2`` for such sizes.
    """
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    tabs = list(tables.items())
    budget = instance.budget(advertiser)
    meta: dict = {}
    if len(tabs) == 0:
        queries: Dict[str, int] = {}
    elif len(tabs) == 1:
        kw, t = tabs[0]
        queries = {kw: t.max_affordable(budget)}
        meta["work"] = t.segment_count
    elif len(tabs) == 2:
        (ka, ta), (kb, tb) = tabs
        xa, xb, work = _config_pair(ta, tb, budget)
        queries = {ka: xa, kb: xb}
        meta["work"] = work
    else:
        unit = _utility_unit(tabs)
        per = unit.denominator  # levels per unit payoff
        maxaff = {kw: t.max_affordable(budget) for kw, t in tabs}
        total_levels = 0
        total_cands = 0
        for kw, t in tabs:
            total_levels += t.int_prefix(maxaff[kw])[0] * per // t.D
            total_cands += maxaff[kw] + 1
        projected = (total_levels + 1) * total_cands
        if projected > WORK_CAP:
            raise ScaleError(
                "exact dp would need ~%d cells (cap %d); use the fptas instead"
                % (projected, WORK_CAP))
        queries, _ = _knapsack(tabs, budget, {
            kw: _level_candidates(t, maxaff[kw], unit) for kw, t in tabs})
        meta.update(unit=unit, cells=projected)
    return _answer(advertiser, "dp", tables, queries, meta)


def _top_level(m: int, eps: Fraction) -> int:
    """floor(M/eps), on ints: the highest level a prefix can reach with
    payoffs floored to multiples of eps*P/M, P their peak."""
    return m * eps.denominator // eps.numerator


def _rounded(tables: Mapping[str, PartitionTable], budget: Fraction,
             afford: Mapping[str, int], eps: Fraction,
             sizes: Mapping[str, int], g: Optional[int] = None
             ) -> Tuple[Dict[str, int], Optional[Fraction]]:
    """The knapsack on utilities floored to multiples of eps*P/M, over every
    prefix length up to ``afford[kw]``, each keyword's ``max_affordable``
    prefix, or with ``g`` over the fptas grid: P is the best single-keyword
    payoff within budget, read at ``afford``, and M the keyword count.
    Returns the witness and the unit, or all-zero queries and no unit when
    P = 0.

    Levels are at most floor(M/eps), so the projected table (which bounds
    the pairs merged) has at most (M*floor(M/eps) + 1) x (candidate count)
    cells, the count summing ``sizes``; past ``WORK_CAP`` that raises
    ``ScaleError`` before any candidate is made.  Candidates come one per
    level from ``_level_candidates``.
    """
    m = len(tables)
    top, D = 0, 1  # the peak, top / D, picked by cross-multiplication
    for kw, x in afford.items():
        t = tables[kw]
        u = t.int_prefix(x)[0]
        if u * D > top * t.D:
            top, D = u, t.D
    if top == 0:
        return {kw: 0 for kw in tables}, None
    unit = Fraction(eps.numerator * top, eps.denominator * D * m)
    projected = (m * _top_level(m, eps) + 1) * sum(sizes.values())
    if projected > WORK_CAP:
        raise ScaleError(
            "rounded dp would need up to %d cells (cap %d); use a larger eps"
            % (projected, WORK_CAP))
    tabs = list(tables.items())
    queries, _ = _knapsack(tabs, budget, {
        kw: _level_candidates(t, afford[kw], unit, g) for kw, t in tabs})
    return queries, unit


def rounded_dp_as1(instance: Instance, advertiser: str, others: Profile,
                   eps: Fraction, reserve: Fraction = ZERO) -> BestResponse:
    """AS1: the knapsack on utilities floored to multiples of eps*P/M
    (``_rounded``) over every affordable prefix length, one per level.

    A keyword has at most floor(M/eps) + 1 levels, so it counts at most
    that many candidates, however many queries it affords: the table is
    independent of volume.  Guarantee: payoff >= (1-eps)*optimum.
    """
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if eps.numerator <= 0:
        raise ValueError("eps must be positive")
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    budget = instance.budget(advertiser)
    afford = {kw: t.max_affordable(budget) for kw, t in tables.items()}
    levels = _top_level(len(tables), eps) + 1  # at most, on any keyword
    queries, unit = _rounded(tables, budget, afford, eps,
                             {kw: min(x + 1, levels)
                              for kw, x in afford.items()})
    meta = {"eps": eps} if unit is None else {"eps": eps, "unit": unit}
    return _answer(advertiser, "as1", tables, queries, meta)


def _grid_size(table: PartitionTable, g: int, afford: int) -> int:
    """How many prefix lengths, 0 included, the fptas grid offers on a
    keyword, counted and never listed.

    The table is cut at ``afford``, the affordable prefix length, and each
    exact segment of length L is carved into g equal blocks of floor(L/g)
    queries plus L mod g single queries (all singles when L < g); the
    candidates are the piece endpoints.  The loss bound needs the cut:
    gridding queries the budget could never reach would let a whole block
    dominate the best affordable bundle.  A grid of more than ``WORK_CAP``
    points (all singles when eps is tiny and the stream long) raises
    ``ScaleError``.
    """
    bps, size = table.breakpoints, 1
    for k in range(table.segment_count):
        length = min(bps[k + 1], afford) - bps[k]
        if length <= 0:
            break
        size += length if length < g else g + length % g
    if size > WORK_CAP + 1:
        raise ScaleError("fptas grid on %s would pass %d points; use a "
                         "larger eps" % (table.keyword, WORK_CAP))
    return size


def _fptas_scale(m: int, eps: Fraction) -> Tuple[int, Fraction]:
    """The fptas's G = ceil(M/eps^2) blocks a segment and the rounding's
    inner eps/(1+eps), on eps = p/q's ints: ceil(M*q^2/p^2) and p/(p+q)."""
    p, q = eps.numerator, eps.denominator
    return -(-m * q * q // (p * p)), Fraction(p, p + q)


def fptas_as2(instance: Instance, advertiser: str, others: Profile,
              eps: Fraction, reserve: Fraction = ZERO) -> BestResponse:
    """Fully polynomial scheme: the rounded knapsack (``_rounded``) on
    per-keyword endpoint grids of G = ceil(M/eps^2) blocks a segment.

    The grid forfeits at most an eps^2 factor and the rounding a further
    eps/(1+eps), which compound to exactly (1-eps); table dimensions depend
    only on keyword count and eps, never on volumes.  The grids are counted
    first (``_grid_size``), so a grid past ``WORK_CAP`` refuses before the
    rounded table is sized, and ``grid_sizes`` is reported even when
    nothing pays.
    """
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if not 0 < eps.numerator < eps.denominator:
        raise ValueError("eps must be in (0, 1)")
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    budget = instance.budget(advertiser)
    afford = {kw: t.max_affordable(budget) for kw, t in tables.items()}
    g, inner = _fptas_scale(len(tables), eps)
    sizes = {kw: _grid_size(t, g, afford[kw]) for kw, t in tables.items()}
    queries, _ = _rounded(tables, budget, afford, inner, sizes, g)
    return _answer(advertiser, "fptas", tables, queries,
                   {"eps": eps, "inner_eps": inner, "grid_sizes": sizes})


def brute_force_oracle(instance: Instance, advertiser: str, others: Profile,
                       reserve: Fraction = ZERO) -> BestResponse:
    """Exhaustive search over all query vectors within budget (small inputs
    only).  Each keyword spans the prefixes the budget alone affords, its
    ``max_affordable``; a search space past ``BRUTE_CAP`` raises
    ``ScaleError``."""
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    tabs = list(tables.items())
    budget = instance.budget(advertiser)
    reach = [t.max_affordable(budget) for _, t in tabs]
    space = 1
    for x in reach:
        space *= x + 1
        if space > BRUTE_CAP:
            raise ScaleError("search space beyond %d points" % BRUTE_CAP)
    best_payoff = ZERO
    best_vec = tuple(0 for _ in tabs)

    def walk(idx: int, payoff: Fraction, cost: Fraction, vec: Tuple[int, ...]):
        nonlocal best_payoff, best_vec
        if idx == len(tabs):
            if payoff > best_payoff:
                best_payoff, best_vec = payoff, vec
            return
        kw, t = tabs[idx]
        for x in range(reach[idx] + 1):
            u, c = t.prefix(x)
            if cost + c > budget:
                break  # prefix cost only grows with x
            walk(idx + 1, payoff + u, cost + c, vec + (x,))

    walk(0, ZERO, ZERO, ())
    queries = {kw: x for (kw, _), x in zip(tabs, best_vec)}
    return _answer(advertiser, "brute", tables, queries, {})


def solver(method: str, eps: Optional[Fraction] = None,
           reserve: Fraction = ZERO
           ) -> Callable[[Instance, str, Profile], BestResponse]:
    """The one table from method name to solver: ``greedy``, ``dp``,
    ``fptas`` (at ``eps``, which it needs) or ``brute``, as a function of
    (instance, advertiser, others) at ``reserve``.  An unknown name, or the
    fptas without eps, is a ValueError.  Each solver is looked up in this
    module's namespace when the function runs, so rebinding one here (as a
    tracer does) reaches every caller."""
    if method == "fptas" and eps is None:
        raise ValueError("method fptas needs eps")
    run = {
        "greedy": lambda inst, adv, others: greedy_local_best_response(
            inst, adv, others, reserve=reserve),
        "dp": lambda inst, adv, others: exact_best_response_dp(
            inst, adv, others, reserve=reserve),
        "fptas": lambda inst, adv, others: fptas_as2(
            inst, adv, others, eps, reserve=reserve),
        "brute": lambda inst, adv, others: brute_force_oracle(
            inst, adv, others, reserve=reserve),
    }.get(method)
    if run is None:
        raise ValueError("unknown method %r" % method)
    return run
