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
the reserve and the pools to one common denominator D, prices through the
one pricing formula (``auction.slot_prices``) in that unit, and compares,
floors and subtracts exactly.  Gamma and the price coefficients are scaled
once per ``SlotParams`` (``SlotParams.scaled``), and the reserve and sign
tests read numerators, so a run builds no ``Fraction``.  A ``Segment``
keeps the day's ints: D, and for the slotted bidders only, in rank order,
each one's per-query price and value (clicks times score) in units of
1/D.  Its ``prices``, ``payoffs``, ``revenue`` and ``welfare`` are exact
``Fraction`` views of those ints, the first two built on their first read,
the last two on each; ``day_totals`` is the one summation of a whole day
on the ints, and returns them with D, so a caller adding several days
(``simulate_day``) converts once per reported total and only this module
reads a segment's int layout.  Where the settle before a segment dropped
somebody, the segment also keeps the prices the settle asked on its way
(``passed_prices``), from which ``pinning_keeps_day`` tells whether
pinning some pools to their spend would leave the day as it is, and
``pinning_keeps_prefixes`` whether it would leave every prefix of the day
as it is too.  No floats are used: a free segment's rate is the exact
sentinel ``INFINITE``, and ``rate_gt`` is the one order on rates.

``keyword_day`` is the one way a keyword's day is run: it turns committed
``Allocation`` rows on the keyword into bidders and runs the timeline.  The
day simulator, the partition tables, the stability check's marginal rates
and the auctioneer's entry probes all go through it.  One optional
argument, ``stop``, a (bidder, budget) pair, ends the day after the first
segment in which that bidder's running payment exceeds the budget.  A
timeline is causal, so the stopped run is a prefix of the whole day's
segments, its last one whole; without ``stop`` the loop does one more
test per segment and nothing else.  ``subject_day`` is the day a partition
table reads.

``PartitionTable`` is the per-(advertiser, keyword) view used by the best
response solvers and the stability check: the advertiser is assumed
present in every query, and the table records, on its day's ints, what
each query prefix costs and pays.  The solvers read tables of the whole day
(``tables_for``), the stability check tables of the day stopped at her
committed budget, so that day runs only to the first query it cannot buy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import auction
from .model import Allocation, Instance, Profile

ZERO = Fraction(0)
_first = itemgetter(0)


class Segment:
    """A maximal run of queries with a fixed priced slate.

    ``lo``..``hi`` are 1-based inclusive query numbers.  ``ranking`` lists
    (advertiser, score, slot) for every active bidder in rank order, as
    ``auction.price_query`` would.  ``D`` is the keyword day's common
    denominator.  ``int_prices`` and ``int_values`` cover the slotted
    bidders only, the first ``len(int_prices)`` rows of the ranking: each
    one's per-query price and value (clicks times score) in units of 1/D.
    Unslotted bidders pay and gain nothing.

    ``passed_prices`` looks inside the settle at query ``lo`` when it
    dropped somebody (it is empty otherwise): for each bidder with a finite
    pool that sat in a slot and was not broke on a slate the settle passed
    through on its way, (advertiser, the highest such price, in units of
    1/D), in the order first met.

    ``prices`` and ``payoffs`` (per query, keyed in rank order over every
    active bidder), ``revenue`` and ``welfare`` are exact ``Fraction``
    views of those ints.  The two dicts are built on their first read,
    apart from each other; the two sums on each read, which comes once per
    reported segment.  Two segments are equal when their bounds, rankings
    and the four views are, dict key order included.  A segment with an empty
    ranking is dark: those queries go unsold.
    """

    __slots__ = ("lo", "hi", "ranking", "D", "int_prices", "int_values",
                 "passed_prices", "_prices", "_payoffs")

    def __init__(self, lo: int, hi: int,
                 ranking: Tuple[Tuple[str, Fraction, object], ...], D: int,
                 int_prices: Tuple[int, ...], int_values: Tuple[int, ...],
                 passed_prices: Tuple[Tuple[str, int], ...] = ()):
        self.lo = lo
        self.hi = hi
        self.ranking = ranking
        self.D = D
        self.int_prices = int_prices
        self.int_values = int_values
        self.passed_prices = passed_prices

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    @property
    def active(self) -> Tuple[str, ...]:
        return tuple(map(_first, self.ranking))

    def _view(self, scaled: Iterable[int]) -> Dict[str, Fraction]:
        D = self.D
        out = {adv: Fraction(x, D) for (adv, _, _), x in zip(self.ranking,
                                                               scaled)}
        for adv, _, _ in self.ranking[len(self.int_prices):]:
            out[adv] = ZERO
        return out

    @property
    def prices(self) -> Dict[str, Fraction]:
        try:
            return self._prices
        except AttributeError:
            self._prices = self._view(self.int_prices)
            return self._prices

    @property
    def payoffs(self) -> Dict[str, Fraction]:
        try:
            return self._payoffs
        except AttributeError:
            self._payoffs = self._view(
                v - p for p, v in zip(self.int_prices, self.int_values))
            return self._payoffs

    @property
    def revenue(self) -> Fraction:
        return Fraction(sum(self.int_prices), self.D)

    @property
    def welfare(self) -> Fraction:
        return Fraction(sum(self.int_values), self.D)

    def _key(self) -> tuple:
        return (self.lo, self.hi, self.ranking, list(self.prices.items()),
                list(self.payoffs.items()), self.revenue, self.welfare)

    def __eq__(self, other):
        if not isinstance(other, Segment):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None

    def __repr__(self) -> str:
        return ("Segment(lo=%r, hi=%r, ranking=%r, prices=%r, payoffs=%r, "
                "revenue=%r, welfare=%r)" % self._key())


class _Bidder:
    __slots__ = ("id", "score", "s", "start", "pool", "rank", "row")

    def __init__(self, id: str, score: Fraction, start: int, pool):
        self.id = id
        self.score = score  # exact, for the segments
        self.s = 0          # score in the day's scaled int unit
        self.start = start
        self.pool = pool    # None = unlimited (the table's subject); scaled int
        self.rank = 0       # position in the day's (-score, id) order
        self.row = (id, score, None)  # its ranking row when unslotted


_by_rank = attrgetter("rank")


def run_keyword_timeline(slots, volume: int, bidders: Iterable[Tuple],
                         reserve: Fraction = ZERO,
                         stop: Optional[Tuple[str, Fraction]] = None
                         ) -> Tuple[Segment, ...]:
    """Advance a keyword's day from event to event.

    ``bidders`` yields (id, score, start_query, pool) with pool None meaning
    unlimited.  Participants below the reserve never enter.  Everyone is
    ranked once; each iteration prices the top K+1 of the ranked active set,
    drops whoever cannot afford one more query, then jumps to the next entry
    or exhaustion event.  A negative reserve or pool is a ValueError.

    The loop runs on ints: with G the lcm of the gamma denominators and S
    that of the score and reserve denominators, D is the lcm of G*S and every
    finite pool's denominator.  Scores and the reserve times D/G, the
    coefficients ``slots.drops`` and gamma times G (``slots.scaled``), and
    the pools times D are all ints, so prices, slot values and pools are ints
    in units of 1/D and the eviction test, the floor ``pool // price`` and
    the pool updates are exact.  The reserve and sign tests on the way in
    read numerators, and no ``Fraction`` is built.  Each ``Segment`` keeps D
    and its slotted bidders' ints.

    ``stop``, a (bidder id, budget) pair, ends the day after the first
    segment in which that bidder's running payment exceeds the budget, or
    at the day's end if it never does.  A timeline is causal, so the
    stopped run is a prefix of the whole day's segments, its last segment
    whole.  The watched bidder's price is read once per slate and added
    once per segment.
    """
    auction.check_reserve(reserve)
    r_num, r_den = reserve.numerator, reserve.denominator
    s_den = r_den
    p_den = 1
    entrants = []
    for i, s, q0, b in bidders:
        if b is not None and b.numerator < 0:
            raise ValueError("negative pool %s for %r" % (b, i))
        d = s.denominator
        if s.numerator * r_den >= r_num * d:  # s >= reserve
            entrants.append(_Bidder(i, s, max(1, q0), b))
            if s_den % d:
                s_den = math.lcm(s_den, d)
            if b is not None and p_den % b.denominator:
                p_den = math.lcm(p_den, b.denominator)
    g, clicks, drops = slots.scaled
    D = math.lcm(g * s_den, p_den)
    unit = D // g
    for b in entrants:
        s = b.score
        b.s = s.numerator * (unit // s.denominator)
        if b.pool is not None:
            b.pool = b.pool.numerator * (D // b.pool.denominator)
    floor = r_num * (unit // r_den)
    watch = None  # the bidder whose payment ends the day, if any
    if stop is not None:
        who, budget = stop
        watch = next((b for b in entrants if b.id == who), None)
        cap = budget.numerator * D // budget.denominator  # paid > cap: over
        paid = owed = 0  # its payment so far and its price on the slate
    entrants.sort(key=lambda b: (-b.s, b.id))
    for rank, b in enumerate(entrants):
        b.rank = rank
    pending = sorted(entrants, key=lambda b: (b.start, b.id))
    waiting = len(pending)
    top_k = slots.count + 1
    active: List[_Bidder] = []  # ranked by (-score, id)
    slotted: List[_Bidder] = []  # the top K+1 that ``prices`` belong to
    prices: List[int] = []
    slate = None  # segment fields of the settled active set; reset on change
    segments: List[Segment] = []
    entered = 0
    t = 1
    while t <= volume:
        while entered < waiting and pending[entered].start <= t:
            insort(active, pending[entered], key=_by_rank)
            entered += 1
            slate = None
        # settle the slate: evict slotted members priced beyond their pool,
        # one at a time from the lowest score up — an eviction moves the
        # others' prices, so survivors are rechecked before they go too.
        # The settled slate's shortest run, pool // price, bounds the segment
        passed: Optional[Dict[str, int]] = None
        while True:
            if slate is None:  # else the active set is the settled one
                top = active[:top_k]
                if top != slotted:  # scores are fixed: same top, same prices
                    slotted = top
                    prices = auction.slot_prices([b.s for b in top], drops,
                                                 floor)
            worst = None
            run = volume - t + 1  # queries left in the day
            for b, price in zip(slotted, prices):
                pool = b.pool
                if pool is None or not price:
                    continue
                if price > pool:  # broke; in rank order, the first of the
                    # lowest score is the one least by (score, id)
                    if worst is None or b.s < worst.s:
                        worst = b
                elif pool // price < run:
                    run = pool // price
            if worst is None:
                break
            if passed is None:
                passed = {}
            for b, price in zip(slotted, prices):
                if (b.pool is not None and price <= b.pool
                        and price > passed.get(b.id, -1)):
                    passed[b.id] = price
            active.remove(worst)
            slate = None
        next_entry = (pending[entered].start if entered < waiting
                      else volume + 1)
        hi = t + run - 1
        if hi >= next_entry:
            hi = next_entry - 1
        if slate is None:
            slate = _slate(active, prices, clicks)
            if watch is not None:
                owed = next((price for b, price in zip(slotted, prices)
                             if b is watch), 0)
        ranking, int_prices, int_values = slate
        segments.append(Segment(t, hi, ranking, D, int_prices, int_values,
                                tuple(passed.items()) if passed else ()))
        length = hi - t + 1
        if watch is not None:
            paid += length * owed
            if paid > cap:
                break
        for b, price in zip(slotted, prices):
            if b.pool is not None:
                b.pool -= length * price
        t = hi + 1
    return tuple(segments)


def _slate(active: Sequence[_Bidder], prices: Sequence[int],
           clicks: Sequence[int]) -> tuple:
    """The ranking rows of the ranked active set (slot None past the priced
    ones), and the slotted bidders' int prices and values."""
    n = len(prices)
    head = active[:n]
    ranking = tuple([(b.id, b.score, r) for r, b in enumerate(head, 1)]
                    + [b.row for b in active[n:]])
    values = tuple([c * b.s for c, b in zip(clicks, head)])
    return ranking, tuple(prices), values


def keyword_day(instance: Instance, keyword: str, rows: Iterable[Allocation],
                reserve: Fraction = ZERO,
                stop: Optional[Tuple[str, Fraction]] = None
                ) -> Tuple[Segment, ...]:
    """Run a keyword's day for the committed rows on it.

    Each row enters at its start query with its budget as its pool (a
    budget of None is an unlimited pool).  Rows must all be on ``keyword``.
    ``stop`` cuts the day short as in ``run_keyword_timeline``.
    """
    bidders = [(r.advertiser, instance.score(r.advertiser, keyword),
                r.start_query, r.budget) for r in rows]
    return run_keyword_timeline(instance.slots, instance.volume(keyword),
                                bidders, reserve, stop)


class DayTotals(NamedTuple):
    """A keyword day's totals, exactly, as ints in units of 1/``D`` (the
    day's common denominator): its revenue and welfare, and per advertiser
    ever slotted, what it paid and what it gained (value minus price) over
    the day.  ``revenue``, ``welfare`` and ``paid`` are exact ``Fraction``
    views of those ints, built on each read."""

    D: int
    int_revenue: int
    int_welfare: int
    int_paid: Dict[str, int]
    int_gained: Dict[str, int]

    @property
    def revenue(self) -> Fraction:
        return Fraction(self.int_revenue, self.D)

    @property
    def welfare(self) -> Fraction:
        return Fraction(self.int_welfare, self.D)

    @property
    def paid(self) -> Dict[str, Fraction]:
        D = self.D
        return {adv: Fraction(x, D) for adv, x in self.int_paid.items()}


def day_totals(segments: Sequence[Segment],
               advertisers: Optional[Iterable[str]] = None) -> DayTotals:
    """Sum a keyword day's segments on their scaled ints: the one summation
    of a day.  Unslotted bidders pay and gain nothing, so an advertiser
    never slotted is in neither dict; with ``advertisers``, the dicts cover
    only those of them that were slotted."""
    want = None if advertisers is None else set(advertisers)
    rev = wel = 0
    paid: Dict[str, int] = {}
    gained: Dict[str, int] = {}
    for seg in segments:
        n = seg.hi - seg.lo + 1
        prices, values = seg.int_prices, seg.int_values
        rev += n * sum(prices)
        wel += n * sum(values)
        for (adv, _, _), p, v in zip(seg.ranking, prices, values):
            if want is None or adv in want:
                paid[adv] = paid.get(adv, 0) + n * p
                gained[adv] = gained.get(adv, 0) + n * (v - p)
    D = segments[0].D if segments else 1  # no queries, nothing to convert
    return DayTotals(D, rev, wel, paid, gained)


def pinning_keeps_day(segments: Sequence[Segment],
                      bidders: Iterable[str]) -> bool:
    """True when the day is provably unchanged with each of ``bidders``'
    pool pinned to what it pays over ``segments``.

    Pinned, a bidder's pool at query t is what it still pays from t on;
    other pools are untouched.  The two days agree as long as every slate
    a settle looks at finds the same bidders broke.  A bidder broke at its
    whole pool is broke pinned too.  On the slate a settle ends with, a
    slotted bidder pays its price over the whole segment, so its pinned
    pool covers that price and does not end the segment early either.
    That leaves the slates a settle passes through before it ends: this is
    True when none of them asked a bidder not broke there for more than
    its pinned pool (``Segment.passed_prices``).  Otherwise the pinned
    bidder could be dropped there ahead of a higher-scored broke one, so
    this is False, and only a rerun tells the pinned day.
    """
    left = dict.fromkeys(bidders, 0)  # paid from this segment on, in 1/D
    for seg in reversed(segments):
        n = seg.hi - seg.lo + 1
        for (adv, _, _), p in zip(seg.ranking, seg.int_prices):
            if adv in left:
                left[adv] += n * p
        for adv, p in seg.passed_prices:
            if p > left.get(adv, p):
                return False
    return True


def pinning_keeps_prefixes(segments: Sequence[Segment],
                           bidders: Iterable[str]) -> bool:
    """True when ``pinning_keeps_day`` holds for the day and for each of
    its prefixes, the day cut short after any query.

    A timeline is causal, so a cut keeps the settles, and the passed
    prices, of every segment it reaches, and from any such segment on a
    pinned bidder still pays at least its own per-query price there.  So
    it is enough that no passed price asked of one of ``bidders`` exceeds
    its own price on that segment, 0 where it is not slotted.  The test
    reads each segment alone, so it carries over to a day made of these
    segments shifted to a later start and cut short, after segments that
    none of ``bidders`` has entered yet.  It implies ``pinning_keeps_day``.
    """
    want = set(bidders)
    for seg in segments:
        if seg.passed_prices:
            own = dict(zip(map(_first, seg.ranking), seg.int_prices))
            for adv, p in seg.passed_prices:
                if adv in want and p > own.get(adv, 0):
                    return False
    return True


class _Infinite:
    """The type of ``INFINITE``: the rate of a free segment, above every
    exact rate and equal only to itself.  It takes part in no arithmetic."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()


def rate_gt(a, b) -> bool:
    """Exact a > b for two rates, either of which may be ``INFINITE``."""
    if a is INFINITE:
        return b is not INFINITE
    return b is not INFINITE and a > b


class PartitionTable:
    """Per-prefix cost and payoff of one advertiser on one keyword.

    Built in one pass from ``segments``, a day she is in from query 1
    (``subject_day``).  Segment ``lam`` covers queries
    ``breakpoints[lam]+1 .. breakpoints[lam+1]`` at a constant per-query
    cost and payoff, kept as ints in units of 1/``D``, the day's common
    denominator (``int_costs``, ``int_payoffs``; 0 where she is unslotted),
    and summed into ``int_cum_cost`` and ``int_cum_payoff`` so prefix
    evaluation is a bisect.  ``costs``, ``payoffs`` and ``actives`` (the
    ranked active set per segment) are read-only views built on first read.
    A table ends where its day does: at ``volume``, or before it for a day
    stopped at a budget, whose last segment holds the first query that
    budget cannot buy.  Past the last breakpoint is out of range.
    """

    __slots__ = ("advertiser", "keyword", "volume", "segments", "breakpoints",
                 "D", "int_costs", "int_payoffs", "int_cum_cost",
                 "int_cum_payoff", "_costs", "_payoffs", "_actives")

    def __init__(self, advertiser: str, keyword: str, volume: int,
                 segments: Sequence[Segment]):
        self.advertiser = advertiser
        self.keyword = keyword
        self.volume = volume
        self.segments = segments
        self.D = segments[0].D if segments else 1
        self._costs = self._payoffs = self._actives = None
        breakpoints, ic, iu, cc, cu = [0], [], [], [0], [0]
        for seg in segments:
            c = u = 0  # unslotted unless found among the priced rows
            for (adv, _, _), price, value in zip(seg.ranking, seg.int_prices,
                                                 seg.int_values):
                if adv == advertiser:
                    c, u = price, value - price
                    break
            n = seg.hi - seg.lo + 1
            breakpoints.append(seg.hi)
            ic.append(c)
            iu.append(u)
            cc.append(cc[-1] + n * c)
            cu.append(cu[-1] + n * u)
        self.breakpoints = tuple(breakpoints)
        self.int_costs, self.int_payoffs = tuple(ic), tuple(iu)
        self.int_cum_cost, self.int_cum_payoff = tuple(cc), tuple(cu)

    @property
    def costs(self) -> Tuple[Fraction, ...]:
        if self._costs is None:
            self._costs = tuple([Fraction(c, self.D) for c in self.int_costs])
        return self._costs

    @property
    def payoffs(self) -> Tuple[Fraction, ...]:
        if self._payoffs is None:
            self._payoffs = tuple([Fraction(u, self.D)
                                   for u in self.int_payoffs])
        return self._payoffs

    @property
    def actives(self) -> Tuple[Tuple[str, ...], ...]:
        if self._actives is None:
            self._actives = tuple([seg.active for seg in self.segments])
        return self._actives

    def _key(self) -> tuple:
        return (self.advertiser, self.keyword, self.volume, self.breakpoints,
                self.costs, self.payoffs, self.actives)

    def __eq__(self, other):  # which also leaves tables unhashable
        if not isinstance(other, PartitionTable):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return ("PartitionTable(advertiser=%r, keyword=%r, volume=%r, "
                "breakpoints=%r, costs=%r, payoffs=%r, actives=%r)"
                % self._key())

    @property
    def segment_count(self) -> int:
        return len(self.int_costs)

    def rate(self, lam: int):
        """Marginal payoff per unit cost in segment ``lam``; ``INFINITE``
        when free."""
        c = self.int_costs[lam]
        if c == 0:
            return INFINITE
        return Fraction(self.int_payoffs[lam], c)

    def segment_of(self, query: int) -> int:
        """Index of the segment containing a 1-based query number."""
        end = self.breakpoints[-1]
        if not 1 <= query <= end:
            raise ValueError("query %d out of range 1..%d" % (query, end))
        return bisect_left(self.breakpoints, query) - 1

    def prefix(self, l: int) -> Tuple[Fraction, Fraction]:
        """(payoff, cost) of the first ``l`` queries, exactly."""
        end = self.breakpoints[-1]
        if not 0 <= l <= end:
            raise ValueError("prefix length %d out of range 0..%d" % (l, end))
        k = bisect_right(self.breakpoints, l) - 1
        u, c = self.int_cum_payoff[k], self.int_cum_cost[k]
        if self.breakpoints[k] < l:
            extra = l - self.breakpoints[k]
            u += extra * self.int_payoffs[k]
            c += extra * self.int_costs[k]
        return Fraction(u, self.D), Fraction(c, self.D)

    def prefix_cost(self, l: int) -> Fraction:
        return self.prefix(l)[1]

    def max_affordable(self, budget: Fraction) -> int:
        """Largest prefix whose exact cost fits the budget; the last
        breakpoint when every prefix of the table does."""
        if budget.numerator < 0:
            raise ValueError("budget must be nonnegative")
        cap = budget.numerator * self.D // budget.denominator  # in 1/D
        lam = bisect_right(self.int_cum_cost, cap) - 1  # whole segments
        if lam == len(self.int_costs):
            return self.breakpoints[-1]
        room = cap - self.int_cum_cost[lam]
        return self.breakpoints[lam] + room // self.int_costs[lam]


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
        tables[kw] = PartitionTable(
            advertiser, kw, instance.volume(kw),
            subject_day(instance, advertiser, kw, others, reserve))
    return tables


def subject_day(instance: Instance, advertiser: str, keyword: str,
                others: Profile, reserve: Fraction = ZERO,
                budget: Optional[Fraction] = None) -> Tuple[Segment, ...]:
    """The keyword's day as a partition table sees it: the advertiser
    present from query 1 with an unlimited pool, rivals exactly where
    ``others`` has a row for them (any of the advertiser's own rows are
    ignored), each from its start query.  With ``budget``, the day stops
    after the first segment in which her payment exceeds it."""
    rows = [Allocation(advertiser, keyword, instance.volume(keyword), None)]
    rows += [r for r in others.rows_on(keyword) if r.advertiser != advertiser]
    return keyword_day(instance, keyword, rows, reserve,
                       None if budget is None else (advertiser, budget))
