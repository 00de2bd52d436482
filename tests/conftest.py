"""Shared builders: fixture paths, partition tables from ``Fraction``
costs and payoffs, a per-query reference simulator, the telescoped revenue
identity of a priced slate, the two-run reference acbm probes, the
reprice-everything reference timeline, the all-Fraction reference
knapsack, the table-based reference marginal rates, the tree-building
reference report encoder, and the seeded random corpus used by the
property tests.

The reference simulator walks every query one at a time and knows nothing
about segments or horizons; agreement with the event-driven engine is one of
the core correctness properties.
"""

import math
import random
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from broadmatch.auction import Slate, price_query
from broadmatch.cli import _FIXTURE_DIR, _approx
from broadmatch.model import (Advertiser, Allocation, Edge, Instance, Keyword,
                              Profile, SlotParams, format_rational)
from broadmatch.partition import (INFINITE, PartitionTable, Segment,
                                  keyword_day, tables_for)

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


def fraction_table(advertiser: str, keyword: str, volume: int, breakpoints,
                   costs, payoffs, actives=None) -> PartitionTable:
    """A partition table with the given per-segment ``Fraction`` costs and
    payoffs, built as the engine builds every table: from a day's segments,
    here made up with D the lcm of the denominators and the advertiser
    priced at her place in each segment's active set (alone by default),
    everybody ranked ahead of her at price and value 0."""
    D = math.lcm(*(x.denominator for x in (*costs, *payoffs)))
    segments = []
    for lam, (c, u) in enumerate(zip(costs, payoffs)):
        active = actives[lam] if actives else (advertiser,)
        n = active.index(advertiser)
        ranking = tuple((a, ZERO, r + 1 if r <= n else None)
                        for r, a in enumerate(active))
        price, value = c * D, (c + u) * D
        assert price.denominator == value.denominator == 1
        segments.append(Segment(breakpoints[lam] + 1, breakpoints[lam + 1],
                                ranking, D, (0,) * n + (int(price),),
                                (0,) * n + (int(value),)))
    return PartitionTable(advertiser, keyword, volume, tuple(segments))


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
# more than once, kept verbatim apart from their names: the entrant's cost
# from a run at its whole wallet, then the revenue from a second run with
# the entrant pinned to that cost.
def reference_keyword_revenue(instance: Instance, rows: Sequence[Allocation],
                              kw: str, reserve: Fraction) -> Fraction:
    """The keyword's revenue with exactly ``rows`` (all on it) committed."""
    segs = keyword_day(instance, kw, rows, reserve)
    return sum((len(s) * s.revenue for s in segs), ZERO)


def reference_entry_cost(instance: Instance, rows: Sequence[Allocation],
                         kw: str, entrant: Allocation,
                         reserve: Fraction) -> Fraction:
    """What the entrant actually pays on the keyword, exactly, when it joins
    the other ``rows`` committed there."""
    segs = keyword_day(instance, kw, (*rows, entrant), reserve)
    who = entrant.advertiser
    return sum((len(s) * s.prices[who] for s in segs if who in s.prices), ZERO)


# -- reference timeline -------------------------------------------------------

class SegmentViews(NamedTuple):
    """A segment as the engine's ``Segment`` shows it: bounds, ranking and
    its four exact views."""

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


# -- reference marginal rates -------------------------------------------------

# ``equilibrium.marginal_payoffs`` as it was when it read whole-day partition
# tables, kept verbatim apart from its name and its read of the next query's
# cost (``PartitionTable.query_cost`` had no other caller and is gone).
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


def assert_day_matches_naive(instance, day, ref) -> None:
    """Engine outcome == reference, down to per-query active sets/prices."""
    assert day.revenue == ref["revenue"]
    assert day.welfare == ref["welfare"]
    assert day.keyword_revenue == ref["keyword_revenue"]
    assert day.keyword_welfare == ref["keyword_welfare"]
    assert day.spend == ref["spend"]
    assert day.payoff == ref["payoff"]
    assert day.leftover == ref["leftover"]
    assert day.edge_spend == ref["edge_spend"]
    for key, count in ref["participation"].items():
        assert day.participation.get(key, 0) == count, key
    for k in instance.keywords:
        timeline = ref["per_query"][k.id]
        for seg in day.segments[k.id]:
            for q in range(seg.lo, seg.hi + 1):
                got_active, got_prices = timeline[q - 1]
                assert tuple(sorted(seg.active)) == got_active, (k.id, q)
                for i in seg.active:
                    assert seg.prices[i] == got_prices[i], (k.id, q, i)


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
