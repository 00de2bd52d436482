"""Constant-price segmentation of a keyword's query stream.

Within a day, the active set on a keyword only changes when somebody's
remaining budget can no longer cover the current per-query price, or when a
scheduled participant enters.  Between such events every query looks the
same, so the whole stream splits into at most N+1 segments (plus one per
scheduled entry) with constant prices, costs and payoffs.  This module
computes that segmentation exactly by stepping from event to event — never
query by query, so volumes can be astronomically larger than the market.

Scores are fixed for the day, so the timeline ranks its bidders once, by
descending score with ties to the smaller id, and keeps the active set in
that order as bidders enter and leave.  Slot r's price reads only the scores
ranked r+1..K+1 and the reserve, so each reprice looks at the top K+1
alone; bidders below slot K pay 0 and, with nonnegative pools, can never go
broke, so only slotted bidders are checked for eviction.  That is why a
negative reserve or pool is refused.  Each segment still lists every active
bidder, in rank order, with unslotted ones at price and payoff 0.

The event loop runs on Python ints: each keyword day scales gamma, scores,
the reserve and the pools to one common denominator, prices through the
one pricing formula (``auction.slot_prices``) in that unit, and compares,
floors and subtracts exactly.  Every ``Segment`` holds exact ``Fraction``s
again.  No floats are used.

``keyword_day`` is the one way a keyword's day is run: it turns committed
``Allocation`` rows on the keyword into bidders and runs the timeline.  The
day simulator, the partition tables and the auctioneer's entry probes all
go through it.

``PartitionTable`` is the per-(advertiser, keyword) view used by the best
response solvers: the advertiser is assumed present in every query, and the
table records what each query prefix costs and pays.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import auction
from .model import Allocation, Instance, Profile

ZERO = Fraction(0)
INFINITE = float("inf")  # order sentinel for zero-cost rates; never used in arithmetic


@dataclass(frozen=True)
class Segment:
    """A maximal run of queries with a fixed priced slate.

    ``lo``..``hi`` are 1-based inclusive query numbers.  ``ranking`` lists
    (advertiser, score, slot) in rank order, as ``auction.price_query``
    would; prices and payoffs are per query, keyed in the same order.  A
    segment with an empty ranking is dark: those queries go unsold.
    """

    lo: int
    hi: int
    ranking: Tuple[Tuple[str, Fraction, object], ...]
    prices: Dict[str, Fraction]
    payoffs: Dict[str, Fraction]
    revenue: Fraction
    welfare: Fraction

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def active(self) -> Tuple[str, ...]:
        return tuple(adv for adv, _, _ in self.ranking)


class _Bidder:
    __slots__ = ("id", "score", "s", "start", "pool", "rank")

    def __init__(self, id: str, score: Fraction, start: int, pool):
        self.id = id
        self.score = score  # exact, for the segments
        self.s = 0          # score in the day's scaled int unit
        self.start = start
        self.pool = pool    # None = unlimited (the table's subject); scaled int
        self.rank = 0       # position in the day's (-score, id) order


_by_rank = attrgetter("rank")


def _scaled(x, unit: int) -> int:
    """``x * unit`` for a rational ``x`` whose denominator divides ``unit``."""
    return x.numerator * (unit // x.denominator)


def run_keyword_timeline(slots, volume: int, bidders: Iterable[Tuple],
                         reserve: Fraction = ZERO) -> Tuple[Segment, ...]:
    """Advance a keyword's day from event to event.

    ``bidders`` yields (id, score, start_query, pool) with pool None meaning
    unlimited.  Participants below the reserve never enter.  Everyone is
    ranked once; each iteration prices the top K+1 of the ranked active set,
    drops whoever cannot afford one more query, then jumps to the next entry
    or exhaustion event.  A negative reserve or pool is a ValueError.

    The loop runs on ints: with G the lcm of the gamma denominators and S
    that of the score and reserve denominators, D is the lcm of G*S and every
    finite pool's denominator.  Scores and the reserve times D/G, the
    coefficients ``slots.drops`` and gamma times G, and the pools times D
    are all ints, so prices, slot values and pools are ints in units of 1/D
    and the eviction test, the floor ``pool // price`` and the pool updates
    are exact.  Each ``Segment`` gets ``Fraction(x, D)`` back.
    """
    auction.check_reserve(reserve)
    entrants = []
    for i, s, q0, b in bidders:
        if b is not None and b < 0:
            raise ValueError("negative pool %s for %r" % (b, i))
        if s >= reserve:
            entrants.append(_Bidder(i, s, max(1, q0), b))
    gamma = slots.gamma
    g = math.lcm(*(x.denominator for x in gamma))
    s_den = math.lcm(reserve.denominator,
                     *(b.score.denominator for b in entrants))
    D = math.lcm(g * s_den, *(b.pool.denominator for b in entrants
                              if b.pool is not None))
    unit = D // g
    for b in entrants:
        b.s = _scaled(b.score, unit)
        if b.pool is not None:
            b.pool = _scaled(b.pool, D)
    floor = _scaled(reserve, unit)
    drops = [_scaled(x, g) for x in slots.drops]
    clicks = [_scaled(x, g) for x in gamma]
    entrants.sort(key=lambda b: (-b.s, b.id))
    for rank, b in enumerate(entrants):
        b.rank = rank
    pending = sorted(entrants, key=lambda b: (b.start, b.id))
    K = slots.count
    active: List[_Bidder] = []  # ranked by (-score, id)
    slotted: List[_Bidder] = []  # the top K+1 that ``prices`` belong to
    prices: List[int] = []
    priced = None  # the exact view of ``prices``, built once per reprice
    segments: List[Segment] = []
    entered = 0
    t = 1
    while t <= volume:
        while entered < len(pending) and pending[entered].start <= t:
            insort(active, pending[entered], key=_by_rank)
            entered += 1
        # settle the slate: evict slotted members priced beyond their pool,
        # one at a time from the lowest score up — an eviction can only lower
        # the others' prices, so survivors are rechecked before they go too
        while True:
            top = active[:K + 1]
            if top != slotted:  # scores are fixed: same top, same prices
                slotted = top
                prices = auction.slot_prices([b.s for b in slotted], drops,
                                             floor)
                priced = None
            broke = [b for b, p in zip(slotted, prices)
                     if b.pool is not None and p > b.pool]
            if not broke:
                break
            active.remove(min(broke, key=lambda b: (b.s, b.id)))
        next_entry = (pending[entered].start if entered < len(pending)
                      else volume + 1)
        hi = min(volume, next_entry - 1)
        if not active:
            segments.append(Segment(t, hi, (), {}, {}, ZERO, ZERO))
            t = hi + 1
            continue
        for b, price in zip(slotted, prices):
            if b.pool is not None and price > 0:
                hi = min(hi, t + b.pool // price - 1)
        if priced is None:
            priced = _exact_slate(slotted, prices, clicks, D)
        segments.append(_segment(t, hi, active, priced))
        length = hi - t + 1
        for b, price in zip(slotted, prices):
            if b.pool is not None:
                b.pool -= length * price
        t = hi + 1
    return tuple(segments)


def _exact_slate(slotted: Sequence[_Bidder], prices: Sequence[int],
                 clicks: Sequence[int], D: int) -> tuple:
    """The slotted bidders' ranking rows, (id, price) and (id, payoff)
    pairs, revenue and welfare, as exact ``Fraction``s of the scaled ints."""
    rows = []
    price_of = []
    payoff_of = []
    values = 0
    for n, (b, p) in enumerate(zip(slotted, prices)):
        v = clicks[n] * b.s
        rows.append((b.id, b.score, n + 1))
        price_of.append((b.id, Fraction(p, D)))
        payoff_of.append((b.id, Fraction(v - p, D)))
        values += v
    return (tuple(rows), price_of, payoff_of, Fraction(sum(prices), D),
            Fraction(values, D))


def _segment(lo: int, hi: int, active: Sequence[_Bidder],
             priced: tuple) -> Segment:
    """A segment over the ranked active set; bidders past the last slot get
    slot None and price and payoff 0, and dict keys follow rank order."""
    rows, price_of, payoff_of, revenue, welfare = priced
    prices = dict(price_of)
    payoffs = dict(payoff_of)
    rest = active[len(rows):]
    for b in rest:
        prices[b.id] = ZERO
        payoffs[b.id] = ZERO
    return Segment(lo, hi, rows + tuple((b.id, b.score, None) for b in rest),
                   prices, payoffs, revenue, welfare)


def keyword_day(instance: Instance, keyword: str, rows: Iterable[Allocation],
                reserve: Fraction = ZERO) -> Tuple[Segment, ...]:
    """Run a keyword's day for the committed rows on it.

    Each row enters at its start query with its budget as its pool (a
    budget of None is an unlimited pool).  Rows must all be on ``keyword``.
    """
    bidders = [(r.advertiser, instance.score(r.advertiser, keyword),
                r.start_query, r.budget) for r in rows]
    return run_keyword_timeline(instance.slots, instance.volume(keyword),
                                bidders, reserve)


@dataclass(frozen=True)
class PartitionTable:
    """Per-prefix cost and payoff of one advertiser on one keyword.

    Segment ``lam`` covers queries ``breakpoints[lam]+1 .. breakpoints[lam+1]``
    at constant per-query cost ``costs[lam]`` and payoff ``payoffs[lam]``.
    Cumulative sums are precomputed so prefix evaluation is a bisect.
    """

    advertiser: str
    keyword: str
    volume: int
    breakpoints: Tuple[int, ...]          # z_0 = 0 < z_1 < ... < z_Lambda = volume
    costs: Tuple[Fraction, ...]           # per segment
    payoffs: Tuple[Fraction, ...]
    actives: Tuple[Tuple[str, ...], ...]  # ranked active set per segment
    cum_cost: Tuple[Fraction, ...] = field(repr=False, default=())
    cum_payoff: Tuple[Fraction, ...] = field(repr=False, default=())

    def __post_init__(self):
        cc, cu = [ZERO], [ZERO]
        for lam, c in enumerate(self.costs):
            length = self.breakpoints[lam + 1] - self.breakpoints[lam]
            cc.append(cc[-1] + length * c)
            cu.append(cu[-1] + length * self.payoffs[lam])
        object.__setattr__(self, "cum_cost", tuple(cc))
        object.__setattr__(self, "cum_payoff", tuple(cu))

    @property
    def segment_count(self) -> int:
        return len(self.costs)

    def rate(self, lam: int):
        """Marginal payoff per unit cost in segment ``lam``; +inf when free."""
        c = self.costs[lam]
        if c == 0:
            return INFINITE
        return self.payoffs[lam] / c

    def segment_of(self, query: int) -> int:
        """Index of the segment containing a 1-based query number."""
        if not 1 <= query <= self.volume:
            raise ValueError("query %d out of range 1..%d" % (query, self.volume))
        return bisect_left(self.breakpoints, query) - 1

    def prefix(self, l: int) -> Tuple[Fraction, Fraction]:
        """(payoff, cost) of the first ``l`` queries, exactly."""
        if not 0 <= l <= self.volume:
            raise ValueError("prefix length %d out of range 0..%d" % (l, self.volume))
        k = bisect_right(self.breakpoints, l) - 1
        if self.breakpoints[k] == l:
            return self.cum_payoff[k], self.cum_cost[k]
        extra = l - self.breakpoints[k]
        return (self.cum_payoff[k] + extra * self.payoffs[k],
                self.cum_cost[k] + extra * self.costs[k])

    def prefix_cost(self, l: int) -> Fraction:
        return self.prefix(l)[1]

    def prefix_payoff(self, l: int) -> Fraction:
        return self.prefix(l)[0]

    def max_affordable(self, budget: Fraction) -> int:
        """Largest prefix whose exact cost fits the budget."""
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        for lam in range(self.segment_count):
            if self.cum_cost[lam + 1] <= budget:
                continue
            room = budget - self.cum_cost[lam]
            return self.breakpoints[lam] + int(room // self.costs[lam])
        return self.volume

    def query_cost(self, query: int) -> Fraction:
        """Per-query cost c at a 1-based query number."""
        return self.costs[self.segment_of(query)]


def _table_from_timeline(instance: Instance, keyword: str, advertiser: str,
                         segments: Sequence[Segment]) -> PartitionTable:
    breakpoints = [0]
    costs: List[Fraction] = []
    payoffs: List[Fraction] = []
    actives: List[Tuple[str, ...]] = []
    for seg in segments:
        breakpoints.append(seg.hi)
        costs.append(seg.prices[advertiser])
        payoffs.append(seg.payoffs[advertiser])
        actives.append(seg.active)
    return PartitionTable(advertiser, keyword, instance.volume(keyword),
                          tuple(breakpoints), tuple(costs), tuple(payoffs),
                          tuple(actives))


def tables_for(instance: Instance, advertiser: str, others: Profile,
               keywords: Optional[Iterable[str]] = None,
               reserve: Fraction = ZERO) -> Dict[str, PartitionTable]:
    """Partition tables for an advertiser against a committed profile.

    Rivals participate exactly where the profile has a row for them (any of
    the advertiser's own rows are ignored); a row's start query is honored,
    so tables can be computed against mid-stream schedules too.  Keywords
    where the reserve shuts the advertiser out are omitted: she cannot
    appear in a single query there, so there is no stream to segment.
    """
    if keywords is None:
        keywords = instance.keywords_of(advertiser)
    tables: Dict[str, PartitionTable] = {}
    for kw in keywords:
        if instance.score(advertiser, kw) < reserve:
            continue
        # the subject is present from query 1 with an unlimited pool
        rows = [Allocation(advertiser, kw, instance.volume(kw), None)]
        rows += [r for r in others.rows_on(kw) if r.advertiser != advertiser]
        segments = keyword_day(instance, kw, rows, reserve)
        tables[kw] = _table_from_timeline(instance, kw, advertiser, segments)
    return tables
