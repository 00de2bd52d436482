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
* ``fptas_as2`` — AS1 on a volume-independent candidate grid per keyword;
  still a (1-eps) guarantee, but with table dimensions independent of
  query volumes.

``brute_force_oracle`` cross-checks the others by enumeration on small
inputs.

The dp and AS1/AS2 share one knapsack on Python ints: candidates are the
tables' int prefix costs and payoffs, scaled with the budget to one common
denominator, and only the cells that can change the answer are computed,
so the witness is the one the full rational table picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .model import Allocation, Instance, Profile
from .partition import INFINITE, PartitionTable, rate_gt, tables_for

ZERO = Fraction(0)
# Work cap of the exact dp, the rounded dp's table and the fptas grid:
# beyond it a solve refuses with ``ScaleError``.
WORK_CAP = 10 ** 7


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
    payoff = cost = ZERO
    for kw, x in queries.items():
        u, c = tables[kw].prefix(x)
        payoff += u
        cost += c
    return payoff, cost


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


def _candidate_values(table: PartitionTable, xs: Iterable[int],
                      budget: Fraction) -> List[Tuple[int, int, int]]:
    """(x, C, U) for the ascending prefix lengths x whose cost fits the
    budget, C and U the prefix's cost and payoff times the table's ``D``.
    One sweep over the breakpoints serves every candidate; costs never
    fall, so it stops at the first one past floor(budget * D)."""
    cap = budget.numerator * table.D // budget.denominator
    bps = table.breakpoints
    cc, cu = table.int_cum_cost, table.int_cum_payoff
    ic, iu = table.int_costs, table.int_payoffs
    last = len(ic) - 1  # x = volume ends the last segment
    k, out = 0, []
    for x in xs:
        while k < last and bps[k + 1] <= x:
            k += 1
        extra = x - bps[k]
        c = cc[k] + extra * ic[k]
        if c > cap:
            break
        out.append((x, c, cu[k] + extra * iu[k]))
    return out


def _cells(best: Sequence[int], lv: List[Tuple[int, int, int]],
           ps: Iterable[int], over: int):
    """The cells (least ``best[q] + c``, its (x, q)) at ascending level
    targets ``ps`` over a layer's candidates (x, c, lvl), q = max(p - lvl,
    0), first in order on ties; ``(over, None)`` when nothing is under
    ``over``.  Levels ascend and are distinct, so a scan starts at the
    first q within ``best`` (past it every cost is ``over``) and ends at the
    first lvl >= p: every later one has q = 0 and costs no less.
    """
    reach = len(best) - 1
    n = len(lv)
    lo = hi = 0
    for p in ps:
        while hi < n and lv[hi][2] < p:
            hi += 1
        while lv[lo][2] < p - reach:
            lo += 1
        low, pick = over, None
        for x, c, lvl in lv[lo:hi + 1]:
            q = p - lvl if p > lvl else 0
            if best[q] + c < low:
                low, pick = best[q] + c, (x, q)
        yield low, pick


def _knapsack(tabs: List[Tuple[str, PartitionTable]], budget: Fraction,
              candidates: Dict[str, List[Tuple[int, int, int]]],
              unit: Fraction) -> Tuple[Dict[str, int], Fraction]:
    """Min-cost table over integerized utility targets; returns witness.

    ``candidates[kw]`` holds (x, C, U) in ascending x, the prefix's cost
    and payoff times the table's ``D``; neither falls along the list.
    ``unit`` converts payoffs to integer levels, floor(U / (D * unit)); with
    ``unit`` an exact common divisor of all payoffs the rounding is
    lossless and the result is the true optimum.  Costs and the budget are
    scaled to one common denominator, so every cell is an int add and
    compare; ``over``, one past the scaled budget, marks an unreachable
    level.  Only cells that can change the answer are computed: the first
    candidate per level, the levels a layer's keywords reach together, the
    scans ``_cells`` makes, and a bisection of the last layer, whose cost
    never falls as its level rises.

    Some combination must fit: the engine's callers always offer the empty
    prefix (``x = 0``, cost 0) on every keyword.  When even the cheapest
    candidates together exceed the budget there is no witness, and that is
    a ValueError naming the keywords that lack the empty prefix.
    """
    den = math.lcm(budget.denominator, *(t.D for _, t in tabs))
    cap = budget.numerator * (den // budget.denominator)
    over = cap + 1
    layers = []
    cheapest = 0
    for kw, t in tabs:
        scale, per_level = den // t.D, t.D * unit.numerator
        lv = []
        for x, c, u in candidates[kw]:
            lvl = u * unit.denominator // per_level
            if not lv or lvl > lv[-1][2]:
                lv.append((x, c * scale, lvl))
        layers.append(lv)
        cheapest += lv[0][1] if lv else over
    if cheapest > cap:
        short = [kw for (kw, _), lv in zip(tabs, layers) if not lv or lv[0][1]]
        raise ValueError(
            "no candidate combination fits the budget %s: no zero-cost empty "
            "prefix among the candidates on %s" % (budget, ", ".join(short)))
    best: Sequence[int] = (0,)
    parents: List[Sequence[Optional[Tuple[int, int]]]] = []
    for lv in layers[:-1]:
        best, par = zip(*_cells(best, lv, range(len(best) + lv[-1][2]), over))
        parents.append(par)
    lv = layers[-1]
    opt, top = 0, len(best) + lv[-1][2]  # within budget at opt, not at top
    while top - opt > 1:
        mid = (opt + top) // 2
        if next(_cells(best, lv, (mid,), over))[0] < over:
            opt = mid
        else:
            top = mid
    _, (x, p) = next(_cells(best, lv, (opt,), over))
    queries = {tabs[-1][0]: x}
    for (kw, _), par in zip(reversed(tabs[:-1]), reversed(parents)):
        x, p = par[p]
        queries[kw] = x
    return queries, Fraction(opt)


def _utility_unit(tabs: List[Tuple[str, PartitionTable]]) -> Fraction:
    """Exact common divisor of all per-query payoffs: 1/lcm(denominators)."""
    den = 1
    for _, t in tabs:
        for u in t.payoffs:
            den = den * u.denominator // math.gcd(den, u.denominator)
    return Fraction(1, den)


def _config_pair(ta: PartitionTable, tb: PartitionTable,
                 budget: Fraction) -> Tuple[int, int, int]:
    """Exact two-keyword optimum by segment-configuration enumeration.

    Fix which segment each prefix ends in; within a configuration the
    choice is a two-variable knapsack over the in-segment query counts,
    solved by scanning the cheaper-to-scan variable (per-query payoffs are
    never negative, so free segments are always taken whole).  Work is the
    total scan length over feasible configurations; refuses beyond
    ``WORK_CAP``.
    """
    # (payoff, cost) of each table's prefix up to each of its breakpoints
    cum_a = [ta.prefix(z) for z in ta.breakpoints]
    cum_b = [tb.prefix(z) for z in tb.breakpoints]
    work = 0
    for sa in range(ta.segment_count):
        for sb in range(tb.segment_count):
            base = cum_a[sa][1] + cum_b[sb][1]
            if base > budget:
                continue
            la = ta.breakpoints[sa + 1] - ta.breakpoints[sa]
            lb = tb.breakpoints[sb + 1] - tb.breakpoints[sb]
            ca, cb = ta.costs[sa], tb.costs[sb]
            if ca > 0 and cb > 0:
                work += min(la, lb) + 1
            else:
                work += 1
    if work > WORK_CAP:
        raise ScaleError(
            "exact dp would scan ~%d points (cap %d); use the fptas instead"
            % (work, WORK_CAP))

    best_u = None
    best = (0, 0)
    for sa in range(ta.segment_count):
        for sb in range(tb.segment_count):
            base_c = cum_a[sa][1] + cum_b[sb][1]
            room = budget - base_c
            if room < 0:
                continue
            base_u = cum_a[sa][0] + cum_b[sb][0]
            la = ta.breakpoints[sa + 1] - ta.breakpoints[sa]
            lb = tb.breakpoints[sb + 1] - tb.breakpoints[sb]
            ca, cb = ta.costs[sa], tb.costs[sb]
            ua, ub = ta.payoffs[sa], tb.payoffs[sb]
            if ca == 0 and cb == 0:
                picks = [(la, lb)]
            elif ca == 0:
                picks = [(la, min(lb, int(room // cb)))]
            elif cb == 0:
                picks = [(min(la, int(room // ca)), lb)]
            elif la <= lb:
                picks = [(i, min(lb, int((room - i * ca) // cb)))
                         for i in range(min(la, int(room // ca)) + 1)]
            else:
                picks = [(min(la, int((room - i * cb) // ca)), i)
                         for i in range(min(lb, int(room // cb)) + 1)]
            for i, j in picks:
                u = base_u + i * ua + j * ub
                if best_u is None or u > best_u:
                    best_u = u
                    best = (ta.breakpoints[sa] + i, tb.breakpoints[sb] + j)
    return best[0], best[1], work


def exact_best_response_dp(instance: Instance, advertiser: str, others: Profile,
                           reserve: Fraction = ZERO) -> BestResponse:
    """Exact optimum over all query vectors within budget.

    One keyword needs no search at all (per-query payoffs are nonnegative,
    so the deepest affordable prefix is optimal); two keywords go through
    exact segment-configuration enumeration; more go through dynamic
    programming over utilities rescaled by the lcm of their denominators,
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
        maxaff = {kw: t.max_affordable(budget) for kw, t in tabs}
        total_levels = 0
        total_cands = 0
        for kw, t in tabs:
            u, _ = t.prefix(maxaff[kw])
            total_levels += int(u // unit)
            total_cands += maxaff[kw] + 1
        projected = (total_levels + 1) * total_cands
        if projected > WORK_CAP:
            raise ScaleError(
                "exact dp would need ~%d cells (cap %d); use the fptas instead"
                % (projected, WORK_CAP))
        candidates = {kw: _candidate_values(t, range(maxaff[kw] + 1), budget)
                      for kw, t in tabs}
        queries, _ = _knapsack(tabs, budget, candidates, unit)
        meta.update(unit=unit, cells=projected)
    payoff, cost = _exact_value(tables, queries)
    committed = {kw: tables[kw].prefix_cost(x) for kw, x in queries.items()}
    return BestResponse(advertiser, "dp", queries, committed, payoff, cost,
                        meta=meta)


def _peak_single(tabs, budget) -> Fraction:
    """Best payoff any single keyword alone can reach within the budget."""
    best = ZERO
    for kw, t in tabs:
        u, _ = t.prefix(t.max_affordable(budget))
        if u > best:
            best = u
    return best


def rounded_dp_as1(instance: Instance, advertiser: str, others: Profile,
                   eps: Fraction, reserve: Fraction = ZERO,
                   grids: Optional[Dict[str, Sequence[int]]] = None,
                   _tables: Optional[Dict[str, PartitionTable]] = None,
                   ) -> BestResponse:
    """Knapsack on utilities floored to multiples of eps*P/M.

    P is the best single-keyword payoff within budget, M the keyword count;
    the utility axis then has at most M*ceil(M/eps) levels regardless of
    how fine the exact payoffs are.  Guarantee: payoff >= (1-eps)*optimum.
    ``grids`` optionally restricts candidate prefix lengths per keyword
    (the fptas wrapper passes volume-independent grids, and the tables it
    built them from as ``_tables``, so one solve builds its tables once).
    Every candidate's level is at most floor(M/eps), so the table has at
    most (M*floor(M/eps) + 1) x (candidate count) cells; a projection
    beyond ``WORK_CAP`` raises ``ScaleError`` before anything is built.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    tables = _tables if _tables is not None else tables_for(
        instance, advertiser, others, reserve=reserve)
    tabs = list(tables.items())
    budget = instance.budget(advertiser)
    m = len(tabs)
    peak = _peak_single(tabs, budget)
    if m == 0 or peak == 0:
        return BestResponse(advertiser, "as1", {kw: 0 for kw, _ in tabs},
                            {kw: ZERO for kw, _ in tabs}, ZERO, ZERO,
                            meta={"eps": eps})
    unit = eps * peak / m
    grid = {kw: grids[kw] if grids is not None
            else range(t.max_affordable(budget) + 1) for kw, t in tabs}
    projected = (m * math.floor(m / eps) + 1) * sum(map(len, grid.values()))
    if projected > WORK_CAP:
        raise ScaleError(
            "rounded dp would need up to %d cells (cap %d); use a larger eps"
            % (projected, WORK_CAP))
    candidates = {kw: _candidate_values(t, grid[kw], budget) for kw, t in tabs}
    queries, _ = _knapsack(tabs, budget, candidates, unit)
    payoff, cost = _exact_value(tables, queries)
    committed = {kw: tables[kw].prefix_cost(x) for kw, x in queries.items()}
    return BestResponse(advertiser, "as1", queries, committed, payoff, cost,
                        meta={"eps": eps, "unit": unit})


def build_subpartition(table: PartitionTable, eps: Fraction, m: int,
                       cap: int) -> Tuple[int, ...]:
    """Volume-independent candidate prefix lengths for one keyword.

    Each exact segment of length L is carved into G = ceil(m/eps^2) equal
    blocks of floor(L/G) queries plus L mod G single queries (all singles
    when L < G); candidates are the piece endpoints.  Restricting choices
    to these endpoints costs at most an eps^2 fraction of the optimum while
    keeping the candidate count independent of query volume.

    ``cap`` truncates the table at a prefix length first (and ends the grid
    exactly there).  The loss bound needs the cap: gridding queries the
    budget could never reach would let a whole block dominate the best
    affordable bundle, so callers pass the affordable prefix length.
    A grid of more than ``WORK_CAP`` points (all singles when eps is tiny
    and the stream long) raises ``ScaleError`` before it is built.
    """
    g = math.ceil(m / (eps * eps))
    points = [0]
    for lam in range(table.segment_count):
        lo = table.breakpoints[lam]
        hi = min(table.breakpoints[lam + 1], cap)
        length = hi - lo
        if length <= 0:
            break
        a, b = divmod(length, g)
        if len(points) + (g if a else 0) + b > WORK_CAP + 1:
            raise ScaleError("fptas grid on %s would pass %d points; use a "
                             "larger eps" % (table.keyword, WORK_CAP))
        pos = lo
        if a >= 1:
            for _ in range(g):
                pos += a
                points.append(pos)
        for _ in range(b):
            pos += 1
            points.append(pos)
    return tuple(points)


def fptas_as2(instance: Instance, advertiser: str, others: Profile,
              eps: Fraction, reserve: Fraction = ZERO) -> BestResponse:
    """Fully polynomial scheme: AS1 on per-keyword endpoint grids.

    The grid forfeits at most an eps^2 factor and the rounding a further
    eps/(1+eps), which compound to exactly (1-eps); table dimensions depend
    only on keyword count and eps, never on volumes.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    m = len(tables)
    budget = instance.budget(advertiser)
    grids = {kw: build_subpartition(t, eps, m, cap=t.max_affordable(budget))
             for kw, t in tables.items()}
    inner = eps / (1 + eps)
    res = rounded_dp_as1(instance, advertiser, others, inner, reserve,
                         grids=grids, _tables=tables)
    return BestResponse(advertiser, "fptas", res.queries, res.committed,
                        res.payoff, res.cost,
                        meta={"eps": eps, "inner_eps": inner,
                              "grid_sizes": {k: len(v) for k, v in grids.items()}})


def brute_force_oracle(instance: Instance, advertiser: str, others: Profile,
                       reserve: Fraction = ZERO,
                       cap: int = 10 ** 6) -> BestResponse:
    """Exhaustive search over all query vectors (small inputs only)."""
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    tabs = list(tables.items())
    budget = instance.budget(advertiser)
    space = 1
    for _, t in tabs:
        space *= t.volume + 1
        if space > cap:
            raise ScaleError("search space beyond %d points" % cap)
    best_payoff = ZERO
    best_vec = tuple(0 for _ in tabs)

    def walk(idx: int, payoff: Fraction, cost: Fraction, vec: Tuple[int, ...]):
        nonlocal best_payoff, best_vec
        if idx == len(tabs):
            if payoff > best_payoff:
                best_payoff, best_vec = payoff, vec
            return
        kw, t = tabs[idx]
        for x in range(t.volume + 1):
            u, c = t.prefix(x)
            if cost + c > budget:
                break  # prefix cost only grows with x
            walk(idx + 1, payoff + u, cost + c, vec + (x,))

    walk(0, ZERO, ZERO, ())
    queries = {kw: x for (kw, _), x in zip(tabs, best_vec)}
    payoff, cost = _exact_value(tables, queries)
    committed = {kw: tables[kw].prefix_cost(x) for kw, x in queries.items()}
    return BestResponse(advertiser, "brute", queries, committed, payoff, cost)
