"""Shared builders: fixture paths, partition tables from ``Fraction``
costs and payoffs, a per-query reference simulator, the telescoped revenue
identity of a priced slate, the two-run reference acbm probes, the
reprice-everything reference timeline, the views of a day's segments
built from its columns and its bidders' scores, the segment walks
that summed a day's totals and counted its bidders' queries, each
(advertiser, keyword)'s spend read off a simulated day, the all-Fraction
reference knapsack and the level-scanning int one, the listed fptas grid
and the per-prefix knapsack candidates, the all-Fraction two-keyword
configuration scan, the ``Fraction`` best-response values (answer,
utility unit, rounding unit and projection, fptas scale, eps Nash
verdicts), the table-based reference marginal rates, the
tree-building reference report encoder, the all-``Fraction``
reference day accounting and segment rows, the instance and
profile loaders' walk and the profile validator's row walk from before the
column loaders, the field-by-field instance serializer, and the seeded
random corpus used by the property tests.

The reference simulator walks every query one at a time and knows nothing
about segments or horizons; agreement with the event-driven engine is one of
the core correctness properties.
"""

import math
import random
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from broadmatch import bestresp
from broadmatch.auction import Slate, price_query
from broadmatch.cli import _FIXTURE_DIR, _approx
from broadmatch.model import (BASE, EXTENSION, Advertiser, Allocation, Edge,
                              Instance, Keyword, ModelError, Profile,
                              SlotParams, _check_keys, _decode, _err,
                              _rational, format_rational)
from broadmatch.partition import (INFINITE, DayTotals, KeywordDay,
                                  PartitionTable, keyword_day, tables_for)

FIXTURES: Path = _FIXTURE_DIR
ZERO = F(0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                n = int(nodeid.rsplit("_", 1)[-1])
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append((n, "criterion %d: %s" % (n, status)))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def build_instance(gamma, keywords, advertisers, edges) -> Instance:
    """Terse constructor: everything rational-valued comes in as strings."""
    return Instance(
        SlotParams(tuple(F(g) for g in gamma)),
        tuple(Keyword(k, v) for k, v in keywords),
        tuple(Advertiser(a, F(b)) for a, b in advertisers),
        tuple(Edge(a, k, F(s), t) for a, k, s, t in edges),
    )


def build_split(rows) -> Profile:
    return Profile(tuple(Allocation(a, k, q, F(b)) for a, k, q, b in rows),
                   "split")


def build_schedule(rows) -> Profile:
    return Profile(tuple(Allocation(a, k, q, F(b), t)
                          for a, k, q, b, t in rows), "schedule")


def fraction_table(advertiser: str, keyword: str, breakpoints, costs,
                   payoffs, actives=None) -> PartitionTable:
    """A partition table with the given per-segment ``Fraction`` costs and
    payoffs, built as the engine builds every table: from a day's columns,
    here made up with D the lcm of the denominators and the advertiser
    priced at her place in each segment's active set (alone by default),
    everybody ranked ahead of her at price and value 0."""
    D = math.lcm(*(x.denominator for x in (*costs, *payoffs)))
    active_sets = actives or [(advertiser,)] * len(costs)
    day = KeywordDay(D)  # read for its columns, never its totals
    for lam, (c, u, active) in enumerate(zip(costs, payoffs, active_sets)):
        n = active.index(advertiser)
        price, value = c * D, (c + u) * D
        assert price.denominator == value.denominator == 1
        day.lo.append(breakpoints[lam] + 1)
        day.hi.append(breakpoints[lam + 1])
        day.ids.append(tuple(active))
        day.prices.append((0,) * n + (int(price),))
        day.values.append((0,) * n + (int(value),))
    return PartitionTable(advertiser, keyword, day)


def tri_keyword(volume: int) -> Instance:
    """Subject "s" above one rival on each of three keywords of one slot;
    the exact dp's cell count grows with the volume squared."""
    kws = tuple(("k%d" % j, volume) for j in (1, 2, 3))
    edges = []
    for j, s in ((1, "2"), (2, "3"), (3, "4")):
        edges.append(("s", "k%d" % j, s, "base"))
        edges.append(("r%d" % j, "k%d" % j, "1/2", "base"))
    advs = (("s", "10000000"),) + tuple(
        ("r%d" % j, "1000000000") for j in (1, 2, 3))
    return build_instance(("1",), kws, advs, edges)


# -- reference simulator ------------------------------------------------------

def naive_day(instance: Instance, profile: Profile, reserve: F = F(0)) -> dict:
    """Query-by-query simulation: enter on the start query, drop whoever
    cannot pay the current price (cheapest score first, repricing after each
    drop), then charge everyone who stays.  O(volume) per keyword on purpose.
    """
    spend = {a.id: F(0) for a in instance.advertisers}
    payoff = {a.id: F(0) for a in instance.advertisers}
    edge_spend = {(r.advertiser, r.keyword): F(0) for r in profile.rows}
    participation: Dict[Tuple[str, str], int] = {}
    revenue = welfare = F(0)
    kw_revenue: Dict[str, F] = {}
    kw_welfare: Dict[str, F] = {}
    per_query: Dict[str, List[Tuple[Tuple[str, ...], Dict[str, F]]]] = {}

    for k in instance.keywords:
        rows = [r for r in profile.rows if r.keyword == k.id
                and instance.score(r.advertiser, k.id) >= reserve]
        for r in rows:
            participation[(r.advertiser, r.keyword)] = 0
        pending = sorted(rows, key=lambda r: r.start_query)
        pools: Dict[str, F] = {}
        active: List[str] = []
        rev = wel = F(0)
        timeline = []
        for q in range(1, k.volume + 1):
            while pending and pending[0].start_query <= q:
                r = pending.pop(0)
                pools[r.advertiser] = r.budget
                active.append(r.advertiser)
            while True:
                slate = price_query(
                    [(i, instance.score(i, k.id)) for i in active],
                    instance.slots, reserve)
                broke = [i for i in active if slate.prices[i] > pools[i]]
                if not broke:
                    break
                worst = min(broke,
                            key=lambda i: (instance.score(i, k.id), i))
                active.remove(worst)
            prices = {}
            for i in active:
                p = slate.prices[i]
                pools[i] -= p
                spend[i] += p
                payoff[i] += slate.payoffs[i]
                edge_spend[(i, k.id)] += p
                participation[(i, k.id)] += 1
                prices[i] = p
            rev += slate.revenue
            wel += slate.welfare
            timeline.append((tuple(sorted(active)), prices))
        kw_revenue[k.id] = rev
        kw_welfare[k.id] = wel
        revenue += rev
        welfare += wel
        per_query[k.id] = timeline

    return {"revenue": revenue, "welfare": welfare,
            "keyword_revenue": kw_revenue, "keyword_welfare": kw_welfare,
            "spend": spend, "payoff": payoff,
            "leftover": {a.id: a.budget - spend[a.id]
                         for a in instance.advertisers},
            "edge_spend": edge_spend, "participation": participation,
            "per_query": per_query}


def revenue_identity_check(slate: Slate) -> F:
    """Recompute revenue as sum_j (gamma_j - gamma_{j+1}) * j * s_{(j+1)}.

    The suffix-sum prices telescope to this form; the function asserts the
    equality and returns the value.
    """
    gamma = slate.slots.gamma
    K = len(gamma)
    L = len(slate.ranking)
    occupied = min(K, L)

    def below(rank: int) -> F:
        if rank < L:
            return slate.ranking[rank][1]
        if rank == L:
            return slate.reserve
        return ZERO

    total = ZERO
    for j in range(1, occupied + 1):
        gamma_next = gamma[j] if j < K else ZERO
        total += (gamma[j - 1] - gamma_next) * j * below(j)
    assert total == slate.revenue, "telescoped revenue %s != price sum %s" % (
        total, slate.revenue)
    return total


# -- reference acbm probes ----------------------------------------------------

# The scheduler's probes as they were when each one ran the keyword's day
# more than once, kept verbatim apart from their names and their reading
# the day through ``day_views``: the entrant's cost from a run at its whole
# wallet, then the revenue from a second run with the entrant pinned to
# that cost.
def reference_keyword_revenue(instance: Instance, rows: Sequence[Allocation],
                              kw: str, reserve: Fraction) -> Fraction:
    """The keyword's revenue with exactly ``rows`` (all on it) committed."""
    segs = day_views(keyword_day(instance, kw, rows, reserve),
                     keyword_scores(instance, kw))
    return sum((len(s) * s.revenue for s in segs), ZERO)


def reference_entry_cost(instance: Instance, rows: Sequence[Allocation],
                         kw: str, entrant: Allocation,
                         reserve: Fraction) -> Fraction:
    """What the entrant actually pays on the keyword, exactly, when it joins
    the other ``rows`` committed there."""
    segs = day_views(keyword_day(instance, kw, (*rows, entrant), reserve),
                     keyword_scores(instance, kw))
    who = entrant.advertiser
    return sum((len(s) * s.prices[who] for s in segs if who in s.prices), ZERO)


# -- reference timeline -------------------------------------------------------

class SegmentViews(NamedTuple):
    """A segment's bounds, its ranking and its four exact views, as
    ``day_views`` builds them from a day's columns and ``reference_timeline``
    from its slates.  Its ``len`` is its number of queries, not of fields."""

    lo: int
    hi: int
    ranking: tuple
    prices: Dict[str, F]
    payoffs: Dict[str, F]
    revenue: F
    welfare: F

    @property
    def active(self) -> Tuple[str, ...]:
        return tuple(adv for adv, _, _ in self.ranking)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def keyword_scores(instance: Instance, keyword: str) -> Dict[str, F]:
    """Each advertiser's exact score on ``keyword``, for ``day_views`` of a
    day run from the instance."""
    return {e.advertiser: e.score for e in instance.edges
            if e.keyword == keyword}


def bidder_scores(bidders) -> Dict[str, F]:
    """Each bidder's exact score, for ``day_views`` of a day run by
    ``run_keyword_timeline`` from ``bidders``."""
    return {i: s for i, s, _, _ in bidders}


def day_views(day: KeywordDay, scores: Dict[str, F]
              ) -> Tuple[SegmentViews, ...]:
    """A keyword day's segments as ``SegmentViews``, built from its columns
    and ``scores``, the exact scores of the bidders it was run from (the
    one part of a ranking its ints cannot give back): the ranking lists
    (advertiser, exact score, slot) for every active bidder in rank order,
    slot None below the slotted ones, as ``price_query`` would; prices and
    payoffs are keyed in rank order over every active bidder, unslotted
    ones at 0; revenue and welfare sum the slotted bidders' prices and
    values."""
    D = day.D
    views = []
    for lo, hi, ids, prices, values in zip(day.lo, day.hi, day.ids,
                                           day.prices, day.values):
        slotted = len(prices)
        ranking = tuple((adv, scores[adv], r if r <= slotted else None)
                        for r, adv in enumerate(ids, 1))
        paid = {adv: F(p, D) for adv, p in zip(ids, prices)}
        gained = {adv: F(v - p, D) for adv, p, v in zip(ids, prices, values)}
        for adv in ids[slotted:]:
            paid[adv] = gained[adv] = ZERO
        views.append(SegmentViews(lo, hi, ranking, paid, gained,
                                  F(sum(prices), D), F(sum(values), D)))
    return tuple(views)


def segment_views(seg) -> tuple:
    """A segment's seven views, dict key order included, for comparison."""
    return (seg.lo, seg.hi, seg.ranking, list(seg.prices.items()),
            list(seg.payoffs.items()), seg.revenue, seg.welfare)


def reference_timeline(slots, volume: int, bidders, reserve: F = F(0)):
    """The day engine's event loop before rank-once/top-K: re-rank and
    re-price the whole active set with ``price_query`` at every entry and
    after every eviction.  Returns the segments as ``SegmentViews``."""
    pending = sorted(([i, s, max(1, q0), b] for i, s, q0, b in bidders
                      if s >= reserve), key=lambda b: (b[2], b[0]))
    active: List[list] = []  # [id, score, start, pool]
    segments: List[SegmentViews] = []
    t = 1
    while t <= volume:
        while pending and pending[0][2] <= t:
            active.append(pending.pop(0))
        while True:
            slate = price_query([(b[0], b[1]) for b in active], slots, reserve)
            broke = [b for b in active
                     if b[3] is not None and slate.prices[b[0]] > b[3]]
            if not broke:
                break
            out = min(broke, key=lambda b: (b[1], b[0]))
            active = [b for b in active if b is not out]
        hi = min(volume, (pending[0][2] if pending else volume + 1) - 1)
        if not active:
            segments.append(SegmentViews(t, hi, (), {}, {}, F(0), F(0)))
            t = hi + 1
            continue
        for b in active:
            price = slate.prices[b[0]]
            if b[3] is not None and price > 0:
                hi = min(hi, t + b[3] // price - 1)
        segments.append(SegmentViews(t, hi, slate.ranking, slate.prices,
                                     slate.payoffs, slate.revenue,
                                     slate.welfare))
        for b in active:
            if b[3] is not None:
                b[3] -= (hi - t + 1) * slate.prices[b[0]]
        t = hi + 1
    return tuple(segments)


# -- reference day walks -------------------------------------------------------

# The walks over a day's segments that summed its totals and counted each
# bidder's queries, from before the timeline counted both as it ran, kept
# apart from their names and their reading each segment off the day's
# columns.
def reference_day_totals(day: KeywordDay) -> DayTotals:
    """Sum a keyword day's segments on their scaled ints: the one summation
    of a day.  Unslotted bidders pay and gain nothing, so an advertiser
    never slotted is in neither dict."""
    rev = wel = 0
    paid: Dict[str, int] = {}
    gained: Dict[str, int] = {}
    for lo, hi, ids, prices, values in zip(day.lo, day.hi, day.ids,
                                           day.prices, day.values):
        n = hi - lo + 1
        rev += n * sum(prices)
        wel += n * sum(values)
        for adv, p, v in zip(ids, prices, values):
            paid[adv] = paid.get(adv, 0) + n * p
            gained[adv] = gained.get(adv, 0) + n * (v - p)
    D = day.D if len(day) else 1  # no queries, nothing to convert
    return DayTotals(D, rev, wel, paid, gained)


def reference_entered(day: KeywordDay) -> Dict[str, int]:
    """The queries each bidder of a keyword day is active in, summed over
    the segments whose active ids list it; one in none is absent."""
    entered: Dict[str, int] = {}
    for lo, hi, ids in zip(day.lo, day.hi, day.ids):
        for adv in ids:
            entered[adv] = entered.get(adv, 0) + hi - lo + 1
    return entered


def edge_spend(day, edges: Iterable[Tuple[str, str]]
               ) -> Dict[Tuple[str, str], F]:
    """What each (advertiser, keyword) of ``edges`` paid over a simulated
    ``day``, read off the keyword's ``DayTotals``; 0 where the advertiser
    was never slotted there."""
    return {(adv, kw): paid_fractions(day.segments[kw].totals).get(adv, ZERO)
            for adv, kw in edges}


def paid_fractions(totals: DayTotals) -> Dict[str, F]:
    """A day's per-advertiser payments as exact ``Fraction``s."""
    return {adv: F(x, totals.D) for adv, x in totals.int_paid.items()}


# The best-response knapsack before its cost axis moved to scaled ints,
# kept verbatim: every cell adds and compares Fractions, and None marks an
# unreachable level.
def reference_knapsack(tabs: List[Tuple[str, PartitionTable]],
                       budget: Fraction,
                       candidates: Dict[str, List[Tuple[int, Fraction,
                                                        Fraction]]],
                       unit: Fraction) -> Tuple[Dict[str, int], Fraction]:
    """Min-cost table over integerized utility targets; returns witness.

    ``unit`` converts exact payoffs to integer levels: level = floor(u/unit).
    With ``unit`` an exact common divisor of all payoffs the rounding is
    lossless and the result is the true optimum.
    """
    levels: Dict[str, List[Tuple[int, Fraction, int]]] = {}
    total = 0
    for kw, _ in tabs:
        lv = [(x, c, int(u // unit)) for x, c, u in candidates[kw]]
        levels[kw] = lv
        total += max(l for _, _, l in lv) if lv else 0
    best_cost: List[Optional[Fraction]] = [None] * (total + 1)
    best_cost[0] = ZERO
    parents: List[List[Optional[Tuple[int, int]]]] = []
    for kw, _ in tabs:
        nxt: List[Optional[Fraction]] = [None] * (total + 1)
        par: List[Optional[Tuple[int, int]]] = [None] * (total + 1)
        for p in range(total + 1):
            for x, c, lvl in levels[kw]:
                q = p - lvl if p > lvl else 0
                prev = best_cost[q]
                if prev is None:
                    continue
                tot = prev + c
                if tot > budget:
                    continue
                if nxt[p] is None or tot < nxt[p]:
                    nxt[p] = tot
                    par[p] = (x, q)
        best_cost = nxt
        parents.append(par)
    opt = 0
    for p in range(total, -1, -1):
        if best_cost[p] is not None:
            opt = p
            break
    queries: Dict[str, int] = {}
    p = opt
    for (kw, _), par in zip(reversed(tabs), reversed(parents)):
        x, q = par[p]
        queries[kw] = x
        p = q
    return queries, Fraction(opt)


# The best-response knapsack as it was before it merged Pareto fronts, kept
# verbatim apart from the names: every layer scans every level it can reach,
# over the candidates whose level can make up that target.
def _scan_cells(best: Sequence[int], lv: List[Tuple[int, int, int]],
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


def scan_knapsack(tabs: List[Tuple[str, PartitionTable]], budget: Fraction,
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
    scans ``_scan_cells`` makes, and a bisection of the last layer, whose
    cost never falls as its level rises.

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
        best, par = zip(*_scan_cells(best, lv, range(len(best) + lv[-1][2]),
                                     over))
        parents.append(par)
    lv = layers[-1]
    opt, top = 0, len(best) + lv[-1][2]  # within budget at opt, not at top
    while top - opt > 1:
        mid = (opt + top) // 2
        if next(_scan_cells(best, lv, (mid,), over))[0] < over:
            opt = mid
        else:
            top = mid
    _, (x, p) = next(_scan_cells(best, lv, (opt,), over))
    queries = {tabs[-1][0]: x}
    for (kw, _), par in zip(reversed(tabs[:-1]), reversed(parents)):
        x, p = par[p]
        queries[kw] = x
    return queries, Fraction(opt)


# The knapsack's candidates before they were generated one per payoff level,
# kept verbatim apart from the names, a shorter docstring and a cap read
# from the module: the fptas grid listed point by point, one (x, C, U) per
# candidate prefix, and the knapsack's own cut to the first per level.
def reference_subpartition(table: PartitionTable, eps: Fraction, m: int,
                           cap: int) -> Tuple[int, ...]:
    """Volume-independent candidate prefix lengths for one keyword.

    Each exact segment of length L is carved into G = ceil(m/eps^2) equal
    blocks of floor(L/G) queries plus L mod G single queries (all singles
    when L < G); candidates are the piece endpoints.  ``cap`` truncates the
    table at a prefix length first (and ends the grid exactly there).  A
    grid of more than ``WORK_CAP`` points raises ``ScaleError`` before it
    is built.
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
        if len(points) + (g if a else 0) + b > bestresp.WORK_CAP + 1:
            raise bestresp.ScaleError(
                "fptas grid on %s would pass %d points; use a larger eps"
                % (table.keyword, bestresp.WORK_CAP))
        pos = lo
        if a >= 1:
            for _ in range(g):
                pos += a
                points.append(pos)
        for _ in range(b):
            pos += 1
            points.append(pos)
    return tuple(points)


def reference_candidate_values(table: PartitionTable, xs: Iterable[int],
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


def first_per_level(table: PartitionTable,
                    candidates: Iterable[Tuple[int, int, int]],
                    unit: Fraction) -> List[Tuple[int, int, int]]:
    """(x, C, level) for the first of ``candidates`` (x, C, U) on each
    level floor(U / (D * unit)), levels rising: what the knapsack kept."""
    per_level = table.D * unit.numerator
    lv: List[Tuple[int, int, int]] = []
    for x, c, u in candidates:
        lvl = u * unit.denominator // per_level
        if not lv or lvl > lv[-1][2]:
            lv.append((x, c, lvl))
    return lv


def reference_level_candidates(table: PartitionTable, xs: Iterable[int],
                               budget: Fraction, unit: Fraction
                               ) -> List[Tuple[int, int, int]]:
    """The first candidate per level among the prefix lengths ``xs`` that
    fit the budget, swept one by one."""
    return first_per_level(table, reference_candidate_values(table, xs,
                                                             budget), unit)


# The exact dp's two-keyword segment-configuration scan before it moved to
# ints over one common denominator, kept verbatim apart from the name and
# the cap, read from the module so a test can lower it: it enumerates the
# configurations twice on ``Fraction`` views, once to count the work and
# once to scan.
def reference_config_pair(ta: PartitionTable, tb: PartitionTable,
                          budget: Fraction) -> Tuple[int, int, int]:
    """Exact two-keyword optimum by segment-configuration enumeration."""
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
    if work > bestresp.WORK_CAP:
        raise bestresp.ScaleError(
            "exact dp would scan ~%d points (cap %d); use the fptas instead"
            % (work, bestresp.WORK_CAP))

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


# -- reference best-response values -------------------------------------------

# The best-response layer's arithmetic before it moved to the tables' ints,
# kept verbatim apart from the names, with ``_rounded``'s unit and
# projection and ``fptas_as2``'s grid blocks and inner eps cut out of their
# solvers, and ``verify_eps_ne``'s verdicts out of its loop: every step is
# ``Fraction`` arithmetic on ``prefix()`` and ``payoffs``.
def reference_exact_value(tables: Dict[str, PartitionTable],
                          queries: Dict[str, int]) -> Tuple[F, F]:
    payoff = cost = ZERO
    for kw, x in queries.items():
        u, c = tables[kw].prefix(x)
        payoff += u
        cost += c
    return payoff, cost


def reference_committed(tables: Dict[str, PartitionTable],
                        queries: Dict[str, int]) -> Dict[str, F]:
    """Each keyword's committed budget: exactly its prefix's cost."""
    return {kw: tables[kw].prefix(x)[1] for kw, x in queries.items()}


def reference_utility_unit(tabs: List[Tuple[str, PartitionTable]]) -> F:
    """Exact common divisor of all per-query payoffs: 1/lcm(denominators)."""
    den = 1
    for _, t in tabs:
        for u in t.payoffs:
            den = den * u.denominator // math.gcd(den, u.denominator)
    return Fraction(1, den)


def reference_rounded_unit(tables: Dict[str, PartitionTable],
                           afford: Dict[str, int], eps: F,
                           sizes: Dict[str, int]) -> Optional[F]:
    """The rounded knapsack's unit eps*P/M, None when P = 0; a
    ``ScaleError`` when the projected table passes ``WORK_CAP``."""
    m = len(tables)
    peak = max([ZERO, *(tables[kw].prefix(x)[0] for kw, x in afford.items())])
    if peak == 0:
        return None
    unit = eps * peak / m
    projected = (m * math.floor(m / eps) + 1) * sum(sizes.values())
    if projected > bestresp.WORK_CAP:
        raise bestresp.ScaleError(
            "rounded dp would need up to %d cells (cap %d); use a larger eps"
            % (projected, bestresp.WORK_CAP))
    return unit


def reference_fptas_scale(m: int, eps: F) -> Tuple[int, F]:
    """The fptas's G = ceil(M/eps^2) and its rounding's eps/(1+eps)."""
    return math.ceil(m / (eps * eps)), eps / (1 + eps)


def reference_eps_verdict(have: F, eps: F, alg: F,
                          exact: bool) -> Tuple[str, Optional[F]]:
    """(status, upper) of one advertiser: against the exact optimum
    ``alg``, or bracketed by the scheme's payoff ``alg`` at eps/2, whose
    upper bound alg/(1-delta) it returns too."""
    if exact:
        ok = have >= (1 - eps) * alg
        return ("certified" if ok else "violated"), None
    delta = eps / 2
    upper = alg / (1 - delta)
    if have >= (1 - eps) * upper:
        status = "certified"
    elif have < (1 - eps) * alg:
        status = "violated"
    else:
        status = "inconclusive"
    return status, upper


# -- reference marginal rates -------------------------------------------------

# One advertiser's marginal rates (the old ``equilibrium.marginal_payoffs``,
# now an entry of ``verify_bme``'s ``marginals``) as they were read when
# they came from whole-day partition tables, kept verbatim apart from the
# name and the read of the next query's cost (``PartitionTable.query_cost``
# had no other caller and is gone).
def reference_marginals(instance: Instance, advertiser: str, profile: Profile,
                        reserve: Fraction = ZERO) -> Dict[str, dict]:
    """Per-keyword marginal rates of one advertiser under a profile, read
    from her whole-day partition tables (``tables_for``)."""
    tables = tables_for(instance, advertiser, profile, reserve=reserve)
    out: Dict[str, dict] = {}
    for kw, t in tables.items():
        b = profile.committed(advertiser, kw)
        v = t.max_affordable(b)
        mp_minus = t.rate(t.segment_of(v)) if v > 0 else None
        mp_plus = t.rate(t.segment_of(v + 1)) if v < t.volume else None
        nxt = t.costs[t.segment_of(v + 1)] if v < t.volume else None
        payoff, cost = t.prefix(v)
        out[kw] = {
            "budget": b,
            "queries": v,
            "cost": cost,
            "payoff": payoff,
            "mp_minus": mp_minus,
            "mp_plus": mp_plus,
            "next_cost": nxt,
        }
    return out


# -- reference report encoding -------------------------------------------------

# The report encoder from before the CLI wrote its JSON itself, kept verbatim
# apart from its name and its rate sentinel, now ``partition.INFINITE``: it
# builds the tree that ``json.dumps(..., sort_keys=True, indent=2)`` then
# encoded.
def reference_enc(x):
    """Recursively JSON-encode engine values; exact rationals become
    {"exact", "approx"} pairs and the infinite rate sentinel becomes "inf"."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return {"exact": format_rational(x), "approx": _approx(x, 6)}
    if x is INFINITE:
        return "inf"
    if isinstance(x, dict):
        return {str(k): reference_enc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, frozenset, set)):
        seq = sorted(x) if isinstance(x, (set, frozenset)) else x
        return [reference_enc(v) for v in seq]
    raise TypeError("cannot encode %r" % type(x))


# -- reference day accounting --------------------------------------------------

# ``simulate_day``'s accounting and ``cli._day_result`` from before a
# reported value was built from the day's ints, kept apart from names and
# the per-edge spend that ``DayOutcome`` no longer holds: per-keyword
# ``Fraction``s, one ``Fraction`` sum per advertiser, leftover as budget
# minus spend, and each segment row's revenue and welfare read off its
# ``day_views``.

def _reference_sums(rows: Sequence[Tuple[int, int, int]]) -> Tuple[F, F]:
    L = math.lcm(*[D for D, _, _ in rows])
    xs = ys = 0
    for D, x, y in rows:
        xs += x * (L // D)
        ys += y * (L // D)
    return Fraction(xs, L), Fraction(ys, L)


def reference_simulate_day(instance: Instance, profile: Profile,
                           reserve: F = F(0)) -> SimpleNamespace:
    """The fields of ``simulate_day``'s ``DayOutcome``, by name."""
    segments: Dict[str, KeywordDay] = {}
    keyword_revenue: Dict[str, F] = {}
    keyword_welfare: Dict[str, F] = {}
    participation: Dict[Tuple[str, str], int] = {}
    for row in profile.rows:
        participation[(row.advertiser, row.keyword)] = 0
    days: List[Tuple[int, int, int]] = []
    earned: Dict[str, List[Tuple[int, int, int]]] = {}
    for k in instance.keywords:
        kw = k.id
        segments[kw] = segs = keyword_day(instance, kw, profile.rows_on(kw),
                                          reserve)
        for adv, n in reference_entered(segs).items():
            participation[(adv, kw)] = n
        totals = reference_day_totals(segs)
        D, gained = totals.D, totals.int_gained
        for adv, paid in totals.int_paid.items():
            earned.setdefault(adv, []).append((D, paid, gained[adv]))
        keyword_revenue[kw] = totals.revenue
        keyword_welfare[kw] = totals.welfare
        days.append((D, totals.int_revenue, totals.int_welfare))
    spend: Dict[str, F] = dict.fromkeys(
        (a.id for a in instance.advertisers), ZERO)
    payoff: Dict[str, F] = dict(spend)
    for adv, terms in earned.items():
        spend[adv], payoff[adv] = _reference_sums(terms)
    leftover = {a.id: a.budget - spend[a.id] for a in instance.advertisers}
    revenue, welfare = _reference_sums(days)
    return SimpleNamespace(
        segments=segments, revenue=revenue, welfare=welfare,
        keyword_revenue=keyword_revenue, keyword_welfare=keyword_welfare,
        spend=spend, payoff=payoff, leftover=leftover,
        participation=participation)


def reference_day_result(instance: Instance, day) -> dict:
    keywords = {}
    for k in instance.keywords:
        keywords[k.id] = {
            "revenue": day.keyword_revenue[k.id],
            "welfare": day.keyword_welfare[k.id],
            "segments": [{"from": s.lo, "to": s.hi, "active": s.active,
                          "revenue": s.revenue, "welfare": s.welfare}
                         for s in day_views(day.segments[k.id],
                                            keyword_scores(instance, k.id))],
        }
    advertisers = {a.id: {"spend": day.spend[a.id],
                          "payoff": day.payoff[a.id],
                          "leftover": day.leftover[a.id]}
                   for a in instance.advertisers}
    return {"revenue": day.revenue, "welfare": day.welfare,
            "keywords": keywords, "advertisers": advertisers}


def assert_day_matches_naive(instance, day, ref) -> None:
    """Engine outcome == reference, down to per-query active sets/prices."""
    assert day.revenue == ref["revenue"]
    assert day.welfare == ref["welfare"]
    assert day.keyword_revenue == ref["keyword_revenue"]
    assert day.keyword_welfare == ref["keyword_welfare"]
    assert day.spend == ref["spend"]
    assert day.payoff == ref["payoff"]
    assert day.leftover == ref["leftover"]
    assert edge_spend(day, ref["edge_spend"]) == ref["edge_spend"]
    for key, count in ref["participation"].items():
        assert day.participation.get(key, 0) == count, key
    for k in instance.keywords:
        timeline = ref["per_query"][k.id]
        for seg in day_views(day.segments[k.id],
                             keyword_scores(instance, k.id)):
            for q in range(seg.lo, seg.hi + 1):
                got_active, got_prices = timeline[q - 1]
                assert tuple(sorted(seg.active)) == got_active, (k.id, q)
                for i in seg.active:
                    assert seg.prices[i] == got_prices[i], (k.id, q, i)


# -- reference loaders ---------------------------------------------------------

# The instance and profile loaders' walk from before the column loaders,
# kept verbatim apart from names: a path per record, built before any error,
# and the ids and pairs listed for a second, duplicate-finding pass.  Their
# decoding, key checks and rational reading (``_rational``) are the module's own.

def parse_rational(value, path: str, errors: List[dict]) -> Fraction:
    """A JSON scalar's exact rational, as ``model._rational`` reads it; a
    refused value is an error at ``path`` and reads 0.  The error-recording
    wrapper the loaders called per value before they read by column."""
    x = _rational(value)
    if isinstance(x, str):
        _err(errors, path, x)
        return ZERO
    return x


def _ref_int_field(item: dict, key: str, path: str, errors: List[dict],
                   default: int = 0) -> int:
    value = item.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    _err(errors, path + "." + key,
         "expected an integer, got %s" % type(value).__name__)
    return 0


def _ref_str_field(item: dict, key: str, path: str, errors: List[dict]) -> str:
    value = item.get(key, "")
    if isinstance(value, str) and value:
        return value
    _err(errors, path + "." + key, "expected a non-empty string")
    return ""


def _ref_objects(doc: dict, key: str, required: Sequence[str],
                 optional: Sequence[str], errors: List[dict]):
    items = doc.get(key, [])
    if not isinstance(items, list):
        _err(errors, "$." + key, "expected a list")
        return
    need = frozenset(required)
    allowed = need.union(optional)
    for n, item in enumerate(items):
        path = "$.%s[%d]" % (key, n)
        if isinstance(item, dict):
            if not need <= item.keys() <= allowed:
                _check_keys(item, path, required, optional, errors)
            yield path, item
        else:
            _err(errors, path, "expected an object")


def _ref_unique(keys, message: str, errors: List[dict]) -> None:
    seen = set()
    for path, key in keys:
        if key in seen:
            _err(errors, path, message % (key,))
        seen.add(key)


def reference_load_instance(document) -> Instance:
    """``model.load_instance`` as it was: the same instance or errors."""
    doc = _decode(document, "instance")
    errors: List[dict] = []
    _check_keys(doc, "$", ("slots", "keywords", "advertisers", "edges"), (),
                errors)
    if errors:
        raise ModelError(errors)

    slots_doc = doc["slots"]
    gamma: Tuple[Fraction, ...] = ()
    if not isinstance(slots_doc, dict):
        _err(errors, "$.slots", "expected an object")
    else:
        _check_keys(slots_doc, "$.slots", ("count", "clickability"), (),
                    errors)
        count = _ref_int_field(slots_doc, "count", "$.slots", errors)
        click = slots_doc.get("clickability", [])
        if not isinstance(click, list):
            _err(errors, "$.slots.clickability", "expected a list")
            click = []
        gamma = tuple(
            parse_rational(v, "$.slots.clickability[%d]" % n, errors)
            for n, v in enumerate(click)
        )
        if count < 1:
            _err(errors, "$.slots.count", "slot count must be >= 1")
        if len(gamma) != count:
            _err(errors, "$.slots.clickability",
                 "expected %d values, got %d" % (count, len(gamma)))
        for n, g in enumerate(gamma):
            if g.numerator <= 0:
                _err(errors, "$.slots.clickability[%d]" % n,
                     "clickability must be positive")
        for n in range(len(gamma) - 1):
            if gamma[n] <= gamma[n + 1]:
                _err(errors, "$.slots.clickability[%d]" % (n + 1),
                     "clickability not strictly decreasing")

    keywords: List[Keyword] = []
    ids: List[Tuple[str, str]] = []  # (path, id) for the duplicate scans
    for path, item in _ref_objects(doc, "keywords", ("id", "volume"), (),
                                   errors):
        kid = _ref_str_field(item, "id", path, errors)
        ids.append((path + ".id", kid))
        vol = _ref_int_field(item, "volume", path, errors)
        if vol < 1:
            _err(errors, path + ".volume", "volume must be a positive integer")
        keywords.append(Keyword(kid, vol))
    _ref_unique(ids, "duplicate keyword id %r", errors)

    advertisers: List[Advertiser] = []
    ids = []
    for path, item in _ref_objects(doc, "advertisers", ("id", "budget"), (),
                                   errors):
        aid = _ref_str_field(item, "id", path, errors)
        ids.append((path + ".id", aid))
        budget = parse_rational(item.get("budget", 0), path + ".budget",
                                errors)
        if budget.numerator < 0:
            _err(errors, path + ".budget", "budget must be nonnegative")
        advertisers.append(Advertiser(aid, budget))
    _ref_unique(ids, "duplicate advertiser id %r", errors)

    edges: List[Edge] = []
    kw_ids = {k.id for k in keywords}
    adv_ids = {a.id for a in advertisers}
    pairs: List[Tuple[str, Tuple[str, str]]] = []
    for path, item in _ref_objects(doc, "edges",
                                   ("advertiser", "keyword", "score"),
                                   ("tag",), errors):
        adv = _ref_str_field(item, "advertiser", path, errors)
        kw = _ref_str_field(item, "keyword", path, errors)
        score = parse_rational(item.get("score", 0), path + ".score", errors)
        tag = item.get("tag", BASE)
        if adv and adv not in adv_ids:
            _err(errors, path + ".advertiser", "unknown advertiser %r" % adv)
        if kw and kw not in kw_ids:
            _err(errors, path + ".keyword", "unknown keyword %r" % kw)
        if score.numerator <= 0:
            _err(errors, path + ".score", "score must be positive")
        if tag not in (BASE, EXTENSION):
            _err(errors, path + ".tag", "tag must be 'base' or 'extension'")
            tag = BASE
        edges.append(Edge(adv, kw, score, tag))
        pairs.append((path, (adv, kw)))
    _ref_unique(pairs, "duplicate edge %r", errors)

    if errors:
        raise ModelError(errors)
    return Instance(SlotParams(gamma), tuple(keywords), tuple(advertisers),
                    tuple(edges))


def reference_load_profile(document, kind: str) -> Profile:
    """``model.load_split`` (``kind`` "split") or ``load_schedule``
    ("schedule") as it was: the same profile or errors."""
    doc = _decode(document, kind)
    errors: List[dict] = []
    _check_keys(doc, "$", ("allocations",), (), errors)
    rows: List[Allocation] = []
    pairs: List[Tuple[str, Tuple[str, str]]] = []
    fields = ("advertiser", "keyword", "queries", "budget") + (
        ("start_query",) if kind == "schedule" else ())
    for path, item in _ref_objects(doc, "allocations", fields, (), errors):
        adv = _ref_str_field(item, "advertiser", path, errors)
        kw = _ref_str_field(item, "keyword", path, errors)
        queries = _ref_int_field(item, "queries", path, errors)
        budget = parse_rational(item.get("budget", 0), path + ".budget",
                                errors)
        start = 1
        if kind == "schedule":
            start = _ref_int_field(item, "start_query", path, errors, 1)
            if start < 1:
                _err(errors, path + ".start_query", "start_query must be >= 1")
        if queries < 0:
            _err(errors, path + ".queries", "queries must be nonnegative")
        if budget.numerator < 0:
            _err(errors, path + ".budget", "budget must be nonnegative")
        rows.append(Allocation(adv, kw, queries, budget, start))
        pairs.append((path, (adv, kw)))
    _ref_unique(pairs, "duplicate allocation %r", errors)
    if errors:
        raise ModelError(errors)
    return Profile(tuple(rows), kind)


def reference_validate_profile(instance: Instance,
                               profile: Profile) -> List[dict]:
    """``model.validate_profile`` as it was: a walk of the rows, each
    row's errors in turn, then the budget caps in advertiser order."""
    errors: List[dict] = []
    committed: Dict[str, List[Fraction]] = {}
    for n, r in enumerate(profile.rows):
        committed.setdefault(r.advertiser, []).append(r.budget)
        kw = instance._kw.get(r.keyword)
        if r.advertiser not in instance._adv:
            _err(errors, "$.allocations[%d].advertiser" % n,
                 "unknown advertiser %r" % r.advertiser)
        elif kw is None:
            _err(errors, "$.allocations[%d].keyword" % n,
                 "unknown keyword %r" % r.keyword)
        elif (r.advertiser, r.keyword) not in instance._edge:
            _err(errors, "$.allocations[%d]" % n, "no edge (%s, %s) in the "
                 "instance" % (r.advertiser, r.keyword))
        else:
            if r.queries > kw.volume:
                _err(errors, "$.allocations[%d].queries" % n,
                     "exceeds keyword volume %d" % kw.volume)
            if r.start_query > kw.volume:
                _err(errors, "$.allocations[%d].start_query" % n,
                     "exceeds keyword volume %d" % kw.volume)
    for adv in sorted(committed):
        if adv not in instance._adv:
            continue
        budgets = committed[adv]
        L = math.lcm(*[b.denominator for b in budgets])
        total = sum([b.numerator * (L // b.denominator) for b in budgets])
        cap = instance.budget(adv)
        if total * cap.denominator > cap.numerator * L:
            _err(errors, "$.allocations", "advertiser %r commits %s > budget %s"
                 % (adv, Fraction(total, L), cap))
    return errors


def reference_serialize_instance(instance: Instance) -> dict:
    """``model.serialize_instance`` as it was, built field by field; its
    sorted ``json.dumps`` defined the instance digest's text."""
    return {
        "slots": {
            "count": instance.slots.count,
            "clickability": [format_rational(g) for g in instance.slots.gamma],
        },
        "keywords": [{"id": k.id, "volume": k.volume} for k in instance.keywords],
        "advertisers": [
            {"id": a.id, "budget": format_rational(a.budget)}
            for a in instance.advertisers
        ],
        "edges": [
            {
                "advertiser": e.advertiser,
                "keyword": e.keyword,
                "score": format_rational(e.score),
                "tag": e.tag,
            }
            for e in instance.edges
        ],
    }


# -- random corpus ------------------------------------------------------------

GAMMA_GRID = [F(1), F(3, 4), F(1, 2), F(1, 4)]
SCORE_GRID = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(4), F(5), F(6)]
RESERVE_GRID = [F(0), F(0), F(0), F(1, 2), F(1)]


def random_instance(rng: random.Random, n_max: int = 5, m_max: int = 4,
                    v_max: int = 25) -> Instance:
    slots = rng.randint(1, 3)
    gamma = tuple(GAMMA_GRID[:slots])
    m = rng.randint(1, m_max)
    n = rng.randint(1, n_max)
    if m >= 3:
        v_max = min(v_max, 12)  # keep the exhaustive oracle in reach
    keywords = tuple(Keyword("k%d" % (j + 1), rng.randint(1, v_max))
                     for j in range(m))
    advertisers = tuple(
        Advertiser("a%d" % (i + 1),
                   F(rng.randint(0, 240), rng.choice([1, 2, 4, 5])))
        for i in range(n))
    edges = []
    for a in advertisers:
        count = rng.randint(1, m)
        for k in rng.sample(keywords, count):
            edges.append(Edge(a.id, k.id, rng.choice(SCORE_GRID)))
    return Instance(SlotParams(gamma), keywords, advertisers, tuple(edges))


def random_profile(rng: random.Random, instance: Instance,
                   schedule: bool = False) -> Profile:
    rows = []
    for a in instance.advertisers:
        kws = instance.keywords_of(a.id)
        if not kws:
            continue
        weights = [rng.randint(0, 4) for _ in kws]
        if sum(weights) == 0:
            weights[rng.randrange(len(kws))] = 1
        total = sum(weights)
        for kw, w in zip(kws, weights):
            if w == 0:
                continue
            start = rng.randint(1, instance.volume(kw)) if schedule else 1
            rows.append(Allocation(a.id, kw, 0, a.budget * w / total, start))
    return Profile(tuple(rows), "schedule" if schedule else "split")


def random_extension_pair(rng: random.Random, v_max: int = 25,
                          gamma: Optional[Tuple[F, ...]] = None
                          ) -> Tuple[Instance, Instance]:
    """A base market with one home keyword per advertiser, plus a broadened
    copy carrying a few extension edges (the shape excess scheduling needs).
    Keyword volumes are drawn from 1..``v_max``; ``gamma``, when given,
    replaces the drawn prefix of ``GAMMA_GRID`` (whose drops are all 1/4)."""
    slots = rng.randint(1, 3)
    gamma = tuple(gamma or GAMMA_GRID[:slots])
    m = rng.randint(1, 4)
    n = rng.randint(1, 5)
    keywords = tuple(Keyword("k%d" % (j + 1), rng.randint(1, v_max))
                     for j in range(m))
    advertisers = tuple(
        Advertiser("a%d" % (i + 1),
                   F(rng.randint(0, 240), rng.choice([1, 2, 4, 5])))
        for i in range(n))
    base_edges = [Edge(a.id, rng.choice(keywords).id, rng.choice(SCORE_GRID))
                  for a in advertisers]
    taken = {(e.advertiser, e.keyword) for e in base_edges}
    ext_edges = list(base_edges)
    for _ in range(rng.randint(1, 3)):
        a = rng.choice(advertisers)
        k = rng.choice(keywords)
        if (a.id, k.id) in taken:
            continue
        taken.add((a.id, k.id))
        ext_edges.append(Edge(a.id, k.id, rng.choice(SCORE_GRID),
                              tag="extension"))
    base = Instance(SlotParams(gamma), keywords, advertisers,
                    tuple(base_edges))
    ext = Instance(SlotParams(gamma), keywords, advertisers,
                   tuple(ext_edges))
    return base, ext
