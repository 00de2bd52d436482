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
tests read numerators, so a run builds no ``Fraction``.  It returns a
``KeywordDay``: per-segment int columns of bounds, ids, prices and values,
with the day's totals and each bidder's queries counted by the loop, which
every reader in the engine reads as they are.  From the prices a settle
asked on its way where it dropped somebody (``KeywordDay.passed``),
``pinning_keeps_prefixes`` tells whether pinning some pools to their spend
would leave the day, and every prefix of it, as it is.  No floats are used: a free segment's rate is the exact sentinel
``INFINITE``, and ``rate_gt`` is the one order on rates.

``keyword_day`` runs a keyword's day from committed ``Allocation`` rows on
it.  The day simulator, the partition tables (``tables_for``, which adds
the subject unlimited from query 1), the auctioneer's entry probes and the
stability check's read of the profile's own day all go through it.  The
stability check's tails alone run the timeline directly, with its one
optional argument, ``stop``: a (bidder, budget) pair that ends the day
after the first segment in which that bidder's running payment exceeds
the budget.  A timeline is causal, so the stopped run is a prefix of the
whole day's segments, its last one whole.

``PartitionTable`` is the per-(advertiser, keyword) view used by the best
response solvers and the stability check: the advertiser is assumed
present in every query, and the table records, on its day's ints, what
each query prefix costs and pays.  The solvers read tables of the whole day
(``tables_for``).  The stability check's marginal rates
(``keyword_marginals``) are read, for every subject of a keyword at once,
off the profile's own day there, run once: it agrees with each subject's
table through her last segment in it, and for most subjects it also
settles the next query.  A table is built only for the others, of the
rest of her day, run by the timeline from the query after that segment (a
tail; from query 1 where her row starts late or she holds none), and
stopped at her committed budget, so it runs only to the first query that
budget cannot buy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import auction
from .model import Allocation, Instance, Profile

ZERO = Fraction(0)


class KeywordDay:
    """A keyword's day as ``run_keyword_timeline`` leaves it: int columns.

    ``D`` is the day's common denominator.  Segment n is a maximal run of
    queries ``lo[n]``..``hi[n]`` (1-based, inclusive).  ``ids[n]`` lists its
    active bidders in rank order; the first ``len(prices[n])`` of them are
    slotted, and ``prices[n]`` and ``values[n]`` hold each one's per-query
    price and value (clicks times score) in units of 1/D.  Unslotted bidders
    pay and gain nothing, and a segment with no ids is dark: its queries go
    unsold.  ``passed`` maps segment n, where the settle at ``lo[n]``
    dropped somebody, to the prices that settle asked on its way: for each
    bidder with a finite pool that sat in a slot and was not broke on a
    slate the settle passed through, the highest such price, in units of
    1/D, keyed in the order first met.

    ``totals`` (the day's ``DayTotals``) and ``entered`` (the queries each
    bidder that entered the day was active for, 0 for one dropped by its
    first settle) are packed into dicts on the first read of either, from
    what the event loop counted on its bidders: the queries each entered and
    was dropped on, and what each slotted one paid and was worth at each
    segment's pool update.  A partition table, the day most runs build,
    reads neither.  ``scores`` holds each entrant's exact score, the one
    part of a ranking that the ints cannot give back.  ``len(day)`` is its
    number of segments.
    """

    __slots__ = ("D", "lo", "hi", "ids", "prices", "values", "passed",
                 "totals", "entered", "scores", "_counts")

    def __init__(self, D: int):
        self.D = D
        self.lo, self.hi = [], []
        self.ids, self.prices, self.values = [], [], []
        self.passed: Dict[int, Dict[str, int]] = {}
        self._counts = (), 1, 0, 0  # those of a day of no queries

    def __getattr__(self, name: str):  # totals or entered, unset
        if name not in ("totals", "entered"):
            raise AttributeError(name)
        # the ranked bidders, the query after the last segment, and the
        # revenue and welfare in units of 1/D
        bidders, end, revenue, welfare = self._counts
        entered, paid, gained = {}, {}, {}
        for b in bidders:
            if b.since:
                entered[b.id] = (b.left or end) - b.since
            if b.priced:
                paid[b.id] = b.paid
                gained[b.id] = b.won - b.paid
        self.totals = DayTotals(self.D, revenue, welfare, paid, gained)
        self.entered = entered
        del self._counts  # let the bidders go
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.lo)


class _Bidder:
    __slots__ = ("id", "s", "start", "pool", "rank", "since", "left",
                 "priced", "paid", "won")

    def __init__(self, id: str, s: int, start: int, pool):
        self.id = id
        self.s = s          # score in the day's scaled int unit
        self.start = start
        self.pool = pool    # None = unlimited (the table's subject); scaled int
        self.rank = 0       # position in the day's (-score, id) order
        self.since = 0      # the query it entered the active set on
        self.left = 0       # the query its settle dropped it on
        self.priced = False  # slotted in some segment
        self.paid = 0       # its price times queries, over the day so far
        self.won = 0        # its value times queries, likewise


_by_rank = attrgetter("rank")


def run_keyword_timeline(slots, volume: int, bidders: Iterable[Tuple],
                         reserve: Fraction = ZERO,
                         stop: Optional[Tuple[str, Fraction]] = None
                         ) -> KeywordDay:
    """Advance a keyword's day from event to event.

    ``bidders`` yields (id, score, start_query, pool) with pool None meaning
    unlimited.  Participants below the reserve never enter.  Everyone is
    ranked once; each iteration prices the top K+1 of the ranked active set,
    drops whoever cannot afford one more query, then jumps to the next entry
    or exhaustion event.  A negative reserve or pool is a ValueError.

    The loop runs on ints: with G the lcm of the gamma denominators and S
    that of the reserve's and the entrants' score denominators, D is the lcm
    of G*S and the entrants' finite pool denominators (a bidder the reserve
    shuts out adds to neither).  Scores and the reserve times D/G, the
    coefficients ``slots.drops`` and gamma times G (``slots.scaled``), and
    the pools times D are ints, so prices, values and pools are ints in units
    of 1/D and every test, floor and update is exact.  Each score and pool is
    read once, and no ``Fraction`` built.  Each segment is stored with its
    active ids, prices and values, and added to the day's totals where the
    pools are updated, a pass that also scans the slate for the next settle.

    ``stop``, a (bidder id, budget) pair, ends the day after the first
    segment in which that bidder's running payment exceeds the budget, or
    at the day's end if it never does.  A timeline is causal, so the
    stopped run is a prefix of the whole day's segments, its last segment
    whole.
    """
    auction.check_reserve(reserve)
    r_num, r_den = reserve.numerator, reserve.denominator
    s_den = r_den
    p_den = 1
    entries = []  # each entrant's id, start, and score and pool as int pairs
    scores = {}
    for i, s, q0, b in bidders:
        pn, pd = (None, 1) if b is None else (b.numerator, b.denominator)
        if pn is not None and pn < 0:
            raise ValueError("negative pool %s for %r" % (b, i))
        sn, sd = s.numerator, s.denominator
        if sn * r_den >= r_num * sd:  # s >= reserve
            entries.append((i, max(1, q0), sn, sd, pn, pd))
            scores[i] = s
            if s_den % sd:
                s_den = math.lcm(s_den, sd)
            if p_den % pd:
                p_den = math.lcm(p_den, pd)
    g, clicks, drops = slots.scaled
    D = math.lcm(g * s_den, p_den)
    unit = D // g
    entrants = [_Bidder(i, sn * (unit // sd), q0,
                        None if pn is None else pn * (D // pd))
                for i, q0, sn, sd, pn, pd in entries]
    floor = r_num * (unit // r_den)
    watch = None  # the bidder whose payment ends the day, if any
    if stop is not None:
        who, budget = stop
        watch = next((b for b in entrants if b.id == who), None)
        cap = budget.numerator * D // budget.denominator  # paid > cap: over
    entrants.sort(key=attrgetter("id"))
    pending = sorted(entrants, key=attrgetter("start"))  # by (start, id)
    entrants.sort(key=attrgetter("s"), reverse=True)  # (-score, id): stable
    for rank, b in enumerate(entrants):
        b.rank = rank
    day = KeywordDay(D)
    day.scores = scores
    los, his = day.lo, day.hi
    waiting = len(pending)
    top_k = slots.count + 1
    active, ids = [], []  # bidders ranked by (-score, id), and their ids
    slotted: List[_Bidder] = []  # the top K+1 that ``prices`` belong to
    prices: List[int] = []
    values: List[int] = []
    rev = wel = 0  # the priced top's revenue and welfare per query
    day_rev = day_wel = 0
    changed = True  # the active set moved since the last segment
    # the slate's scan, by each reprice and pool update: the broke member
    worst, least = None, volume  # least by (score, id), the rest's least run
    n_in = 0
    t = 1
    while t <= volume:
        while n_in < waiting and pending[n_in].start <= t:
            b = pending[n_in]
            b.since = t
            n = bisect_right(active, b.rank, key=_by_rank)
            active.insert(n, b)
            ids.insert(n, b.id)
            n_in += 1
            changed = True
        # settle the slate: evict slotted members priced beyond their pool,
        # one at a time from the lowest score up — an eviction moves the
        # others' prices, so survivors are rechecked before they go too.
        # The settled slate's shortest run, pool // price, bounds the segment
        passed: Optional[Dict[str, int]] = None
        while True:
            if changed:  # else the active set is the settled one
                top = active[:top_k]
                if top != slotted:  # scores are fixed: same top, same prices
                    slotted = top
                    prices = auction.slot_prices([b.s for b in top], drops,
                                                 floor)
                    values = [c * b.s for c, b in zip(clicks, top)]
                    rev, wel = sum(prices), sum(values)
                    worst, least = None, volume
                    for b, price in zip(slotted, prices):
                        pool = b.pool
                        if pool is None or not price:
                            continue
                        if price > pool:  # broke; in rank order, the first
                            # of the lowest score is least by (score, id)
                            if worst is None or b.s < worst.s:
                                worst = b
                        elif pool // price < least:
                            least = pool // price
            if worst is None:
                break
            if passed is None:
                passed = {}
            for b, price in zip(slotted, prices):
                if (b.pool is not None and price <= b.pool
                        and price > passed.get(b.id, -1)):
                    passed[b.id] = price
            n = active.index(worst)
            del active[n], ids[n]
            worst.left = t
            changed = True
        next_entry = pending[n_in].start if n_in < waiting else volume + 1
        hi = t + least - 1 if least < volume - t + 1 else volume
        if hi >= next_entry:
            hi = next_entry - 1
        changed = False
        if passed:
            day.passed[len(los)] = passed
        los.append(t)
        his.append(hi)
        day.ids.append(tuple(ids))
        day.prices.append(prices)
        day.values.append(values)
        length = hi - t + 1
        day_rev += length * rev
        day_wel += length * wel
        worst, least = None, volume  # pay the segment, scan the slate
        for b, price, value in zip(slotted, prices, values):
            b.priced = True
            b.paid += length * price
            b.won += length * value
            if b.pool is not None and price:
                b.pool = pool = b.pool - length * price
                if price > pool:
                    if worst is None or b.s < worst.s:
                        worst = b
                elif pool // price < least:
                    least = pool // price
        t = hi + 1
        if watch is not None and watch.paid > cap:
            break
    day._counts = entrants, t, day_rev, day_wel
    return day


def keyword_day(instance: Instance, keyword: str, rows: Iterable[Allocation],
                reserve: Fraction = ZERO) -> KeywordDay:
    """Run a keyword's day for the committed rows on it.

    Each row enters at its start query with its budget as its pool (a
    budget of None is an unlimited pool).  Rows must all be on ``keyword``.
    """
    bidders = [(r.advertiser, instance.score(r.advertiser, keyword),
                r.start_query, r.budget) for r in rows]
    return run_keyword_timeline(instance.slots, instance.volume(keyword),
                                bidders, reserve)


class DayTotals(NamedTuple):
    """A keyword day's totals, exactly, as ints in units of 1/``D`` (the
    day's common denominator): its revenue and welfare, and per advertiser
    ever slotted, what it paid and what it gained (value minus price) over
    the day.  ``revenue`` and ``welfare`` are exact ``Fraction`` views of
    those ints, built on each read."""

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


def pinning_keeps_prefixes(day: KeywordDay, bidders: Iterable[str]) -> bool:
    """True when the day, and each of its prefixes (the day cut short
    after any query), is provably unchanged with each of ``bidders``'
    pools pinned to what it pays there.

    Pinned, a bidder's pool at query t is what it still pays from t on;
    other pools are untouched.  Two days agree as long as every slate a
    settle looks at finds the same bidders broke.  A bidder broke at its
    whole pool is broke pinned too.  On the slate a settle ends with, a
    slotted bidder pays its price over the whole segment, so its pinned
    pool covers that price and does not end the segment early either.
    That leaves the slates a settle passes through before it ends
    (``KeywordDay.passed``): one that asks a bidder not broke there
    for more than its pinned pool could drop it ahead of a higher-scored
    broke one, and then only a rerun tells the pinned day.

    A timeline is causal, so a cut keeps the settles, and the passed
    prices, of every segment it reaches, and from any such segment on a
    pinned bidder still pays at least its own per-query price there.  So
    it is enough that no passed price asked of one of ``bidders`` exceeds
    its own price on that segment, 0 where it is not slotted.  The test
    reads each segment alone, so it carries over to a day made of these
    segments shifted to a later start and cut short, after segments that
    none of ``bidders`` has entered yet.
    """
    want = set(bidders)
    for n, passed in day.passed.items():
        own = dict(zip(day.ids[n], day.prices[n]))
        for adv, p in passed.items():
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


def _rate(cost: int, payoff: int):
    """Payoff per unit cost of a query; ``INFINITE`` when it is free."""
    return INFINITE if cost == 0 else Fraction(payoff, cost)


class PartitionTable:
    """Per-prefix cost and payoff of one advertiser on one keyword.

    Built in one pass from ``segments``, the ``KeywordDay`` of a day she is
    in from query 1 (the day ``tables_for`` runs, or a tail of it that
    ``keyword_marginals`` runs from a later query, numbered from 1), read
    off its columns.  Segment ``lam`` covers queries
    ``breakpoints[lam]+1 .. breakpoints[lam+1]`` at a constant per-query
    cost and payoff, kept as ints in units of 1/``D``, the day's common
    denominator (``int_costs``, ``int_payoffs``; 0 where she is unslotted),
    and summed into ``int_cum_cost`` and ``int_cum_payoff`` so prefix
    evaluation is a bisect.  ``costs``, ``payoffs`` and ``actives`` (the
    ranked active set per segment) are read-only views built on first read.
    A table ends where its day does: at ``volume``, or before it for a tail
    stopped at a budget, whose last segment holds the first query that
    budget cannot buy.  Past the last breakpoint is out of range.
    """

    __slots__ = ("advertiser", "keyword", "volume", "segments", "breakpoints",
                 "D", "int_costs", "int_payoffs", "int_cum_cost",
                 "int_cum_payoff", "_costs", "_payoffs", "_actives")

    def __init__(self, advertiser: str, keyword: str, volume: int,
                 segments: KeywordDay):
        self.advertiser = advertiser
        self.keyword = keyword
        self.volume = volume
        self.segments = segments
        self.D = segments.D
        self._costs = self._payoffs = self._actives = None
        ic, iu, cc, cu = [], [], [0], [0]
        for lo, hi, ids, priced, worth in zip(
                segments.lo, segments.hi, segments.ids, segments.prices,
                segments.values):
            try:
                r = ids.index(advertiser, 0, len(priced))
            except ValueError:  # unslotted there
                c = u = 0
            else:
                c = priced[r]
                u = worth[r] - c
            n = hi - lo + 1
            ic.append(c)
            iu.append(u)
            cc.append(cc[-1] + n * c)
            cu.append(cu[-1] + n * u)
        self.breakpoints = (0, *segments.hi)
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
            self._actives = tuple(self.segments.ids)
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
        return _rate(self.int_costs[lam], self.int_payoffs[lam])

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

    Each table reads the keyword's day with the advertiser present from
    query 1 with an unlimited pool, and rivals exactly where the profile has
    a row for them (any of the advertiser's own rows are ignored); a row's
    start query is honored, so tables can be computed against mid-stream
    schedules too.  Keywords where the reserve shuts the advertiser out are
    omitted: she cannot appear in a single query there, so there is no
    stream to segment.
    """
    if keywords is None:
        keywords = instance.keywords_of(advertiser)
    tables: Dict[str, PartitionTable] = {}
    for kw in keywords:
        if instance.score(advertiser, kw) < reserve:
            continue
        volume = instance.volume(kw)
        rows = [Allocation(advertiser, kw, volume, None)]
        rows += [r for r in others.rows_on(kw) if r.advertiser != advertiser]
        tables[kw] = PartitionTable(advertiser, kw, volume,
                                    keyword_day(instance, kw, rows, reserve))
    return tables


class Marginal(NamedTuple):
    """A subject's marginal figures on one keyword (``keyword_marginals``).

    ``queries`` is what her committed budget buys on her partition table,
    ``cost`` and ``payoff`` those queries' exact totals, ``mp_minus`` the
    rate of the last one (None when she buys none) and ``mp_plus`` and
    ``next_cost`` the rate and cost of the next one (None when the stream is
    exhausted).  ``case`` names how they were read off the profile's own
    day: ``"exhausted"``, ``"quiet"`` or ``"tail"``."""

    queries: int
    cost: Fraction
    payoff: Fraction
    mp_minus: object
    mp_plus: object
    next_cost: Optional[Fraction]
    case: str


def _scaled(x: Fraction, D: int) -> int:
    """``x`` in units of 1/D, for a D its denominator divides."""
    return x.numerator * (D // x.denominator)


def keyword_marginals(instance: Instance, keyword: str, profile: Profile,
                      subjects: Sequence[str], reserve: Fraction
                      ) -> Dict[str, Marginal]:
    """Each subject's marginal figures on ``keyword``, read as from her
    partition table against ``profile`` (``tables_for``), up to the first
    query her committed budget there cannot buy.

    ``subjects`` match the keyword at or above the reserve.  They are read
    off the profile's own day on the keyword, run once for all of them.
    For one whose row there starts at query 1, up to the settle that drops
    her, every settle finds the same bidders broke as in her table's day,
    since she is never the lowest broke bidder, so the two days agree
    through ``v0``, the end of her last segment there.  For one with no row
    there, or a row starting later, ``v0`` is 0.  Then:

    * ``v0`` is the volume: she bought everything (``"exhausted"``);
    * she pays on her last slate, no rival enters at ``v0 + 1`` and every
      slotted rival's pool still covers its price there: the settle that
      dropped her began on that slate and found her alone broke, so her
      table's slate at ``v0 + 1`` is that slate, and its price is more
      than her budget left (``"quiet"``);
    * otherwise the table's day is run from ``v0 + 1`` (``"tail"``), she
      unlimited, stopped at her budget left, the rivals present at ``v0``
      with their pools left, later entries shifted by ``v0`` and the
      evicted left out.  The own day can drop her too early, on a slate
      her unlimited self never meets, so this run cannot be skipped.
    """
    volume = instance.volume(keyword)
    rows = profile.rows_on(keyword)
    row_of = {r.advertiser: r for r in rows}
    alive = {adv for adv in subjects
             if adv in row_of and row_of[adv].start_query <= 1}
    day = (keyword_day(instance, keyword, rows, reserve) if alive
           else KeywordDay(1))
    D, paid, gained = day.D, day.totals.int_paid, day.totals.int_gained
    ids, prices, values = day.ids, day.prices, day.values
    # one pass: for each subject present from query 1, the index of her last
    # segment and everyone's int payments through it; the others have none.
    # Payments are summed only until the last of them leaves
    last: Dict[str, Tuple[int, Dict[str, int]]] = dict.fromkeys(
        subjects, (-1, {}))
    running: Dict[str, int] = {}
    for n, (lo, hi, on) in enumerate(zip(day.lo, day.hi, ids)):
        gone = alive.difference(on)  # who left?
        if gone:
            alive -= gone
            through = dict(running)
            for adv in gone:
                last[adv] = (n - 1, through)
            if not alive:
                break
        length = hi - lo + 1
        for adv, p in zip(on, prices[n]):
            running[adv] = running.get(adv, 0) + length * p
    for adv in alive:
        last[adv] = (len(day) - 1, paid)
    starts = {r.start_query for r in rows}
    out: Dict[str, Marginal] = {}
    for adv in subjects:
        n, through = last[adv]
        v0 = price = value = 0
        own_paid = own_gained = ZERO
        mp_minus = None
        if n >= 0:
            v0 = day.hi[n]
            own_paid = Fraction(paid.get(adv, 0), D)
            own_gained = Fraction(gained.get(adv, 0), D)
            for who, p, v in zip(ids[n], prices[n], values[n]):
                if who == adv:  # else unslotted there: she paid nothing
                    price, value = p, v
                    break
            mp_minus = _rate(price, value - price)
        if v0 == volume:
            out[adv] = Marginal(v0, own_paid, own_gained, mp_minus, None, None,
                                "exhausted")
            continue
        if price and v0 + 1 not in starts and all(
                who == adv or _scaled(row_of[who].budget, D)
                - through.get(who, 0) >= p
                for who, p in zip(ids[n], prices[n])):
            out[adv] = Marginal(v0, own_paid, own_gained, mp_minus, mp_minus,
                                Fraction(price, D), "quiet")
            continue
        bidders = [(adv, instance.score(adv, keyword), 1, None)]
        if n >= 0:
            bidders += [(who, instance.score(who, keyword), 1,
                         row_of[who].budget - Fraction(through.get(who, 0), D))
                        for who in ids[n] if who != adv]
        bidders += [(r.advertiser, instance.score(r.advertiser, keyword),
                     r.start_query - v0, r.budget)
                    for r in rows  # a start below 1 is query 1
                    if max(r.start_query, 1) > v0 and r.advertiser != adv]
        left = profile.committed(adv, keyword) - own_paid
        t = PartitionTable(adv, keyword, volume - v0, run_keyword_timeline(
            instance.slots, volume - v0, bidders, reserve, (adv, left)))
        w = t.max_affordable(left)
        if w:
            u, c = t.prefix(w)
            own_paid, own_gained = own_paid + c, own_gained + u
            mp_minus = t.rate(t.segment_of(w))
        mp_plus = nxt = None
        if w < t.volume:  # then the table holds its query w + 1
            lam = t.segment_of(w + 1)
            mp_plus, nxt = t.rate(lam), Fraction(t.int_costs[lam], t.D)
        out[adv] = Marginal(v0 + w, own_paid, own_gained, mp_minus, mp_plus,
                            nxt, "tail")
    return out
