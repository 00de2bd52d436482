"""Budget-constrained day simulation.

A day processes every keyword's query stream under a committed profile:
each query runs one auction among the advertisers whose committed budget on
that keyword still covers the current price.  The engine never touches
individual queries — each keyword's day runs through
``partition.keyword_day``, the event-driven segmentation, so a day over
billions of queries costs the same as one over dozens.  The day's totals
stay ints until they are reported: ``partition.day_totals`` gives each
keyword's as ints over its denominator D, an advertiser's spend and payoff
and the day's revenue and welfare add those over the lcm of the Ds, and
each reported value becomes one ``Fraction``.

``simulate_day`` trusts its inputs; run the model validators at the
boundary.  Feeding it a profile whose budgets exceed an advertiser's total
is allowed (useful for what-if pricing), it just simulates those pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .model import Instance, Profile
from .partition import Segment, day_totals, keyword_day

ZERO = Fraction(0)


@dataclass(frozen=True)
class DayOutcome:
    """Everything observable after one simulated day."""

    segments: Dict[str, Tuple[Segment, ...]]
    revenue: Fraction
    welfare: Fraction
    keyword_revenue: Dict[str, Fraction]
    keyword_welfare: Dict[str, Fraction]
    spend: Dict[str, Fraction]                    # per advertiser, whole day
    payoff: Dict[str, Fraction]
    leftover: Dict[str, Fraction]                 # budget minus spend
    edge_spend: Dict[Tuple[str, str], Fraction]   # per (advertiser, keyword)
    participation: Dict[Tuple[str, str], int]     # queries entered per (adv, kw)


def simulate_day(instance: Instance, profile: Profile,
                 reserve: Fraction = ZERO) -> DayOutcome:
    """Simulate the full day under a committed profile, exactly."""
    segments: Dict[str, Tuple[Segment, ...]] = {}
    keyword_revenue: Dict[str, Fraction] = {}
    keyword_welfare: Dict[str, Fraction] = {}
    edge_spend: Dict[Tuple[str, str], Fraction] = {}
    participation: Dict[Tuple[str, str], int] = {}
    for row in profile.rows:
        edge_spend[(row.advertiser, row.keyword)] = ZERO
        participation[(row.advertiser, row.keyword)] = 0
    days: List[Tuple[int, int, int]] = []  # (D, revenue, welfare) per keyword
    # per advertiser, (D, paid, gained) on each keyword it was slotted on
    earned: Dict[str, List[Tuple[int, int, int]]] = {}
    for k in instance.keywords:
        kw = k.id
        segments[kw] = segs = keyword_day(instance, kw, profile.rows_on(kw),
                                          reserve)
        entered: Dict[str, int] = {}
        for seg in segs:
            n = seg.hi - seg.lo + 1
            for adv, _, _ in seg.ranking:
                entered[adv] = entered.get(adv, 0) + n
        for adv, n in entered.items():
            participation[(adv, kw)] = n
        totals = day_totals(segs)
        D, gained = totals.D, totals.int_gained
        for adv, paid in totals.int_paid.items():
            edge_spend[(adv, kw)] = Fraction(paid, D)
            earned.setdefault(adv, []).append((D, paid, gained[adv]))
        keyword_revenue[kw] = totals.revenue
        keyword_welfare[kw] = totals.welfare
        days.append((D, totals.int_revenue, totals.int_welfare))
    spend: Dict[str, Fraction] = dict.fromkeys(
        (a.id for a in instance.advertisers), ZERO)
    payoff: Dict[str, Fraction] = dict(spend)
    for adv, terms in earned.items():
        spend[adv], payoff[adv] = _exact_sums(terms)
    leftover = {a.id: a.budget - spend[a.id] for a in instance.advertisers}
    revenue, welfare = _exact_sums(days)
    return DayOutcome(segments, revenue, welfare, keyword_revenue,
                      keyword_welfare, spend, payoff, leftover, edge_spend,
                      participation)


def _exact_sums(rows: Sequence[Tuple[int, int, int]]) -> Tuple[Fraction,
                                                               Fraction]:
    """The sums of x / D and of y / D over rows ``(D, x, y)``, each as one
    ``Fraction`` over the lcm of the Ds."""
    L = math.lcm(*[D for D, _, _ in rows])
    xs = ys = 0
    for D, x, y in rows:
        xs += x * (L // D)
        ys += y * (L // D)
    return Fraction(xs, L), Fraction(ys, L)


def check_profile_consistency(profile: Profile,
                              outcome: DayOutcome) -> List[dict]:
    """Compare each row's declared query count with simulated participation.

    A split document states, per (advertiser, keyword), how many queries the
    budget is supposed to buy; ``outcome``, the profile's simulated day,
    says how many it actually does.  Returns one record per mismatching row
    (empty list = consistent).
    """
    problems = []
    for row in profile.rows:
        got = outcome.participation[(row.advertiser, row.keyword)]
        if got != row.queries:
            problems.append({
                "advertiser": row.advertiser,
                "keyword": row.keyword,
                "declared": row.queries,
                "simulated": got,
            })
    return problems


def compare_outcomes(a: DayOutcome, b: DayOutcome) -> dict:
    """Side-by-side deltas of two day outcomes on the same instance."""
    kws = sorted(set(a.keyword_revenue) | set(b.keyword_revenue))
    advs = sorted(set(a.spend) | set(b.spend))
    return {
        "revenue": (a.revenue, b.revenue, b.revenue - a.revenue),
        "welfare": (a.welfare, b.welfare, b.welfare - a.welfare),
        "keyword_revenue": {
            kw: (a.keyword_revenue.get(kw, ZERO), b.keyword_revenue.get(kw, ZERO),
                 b.keyword_revenue.get(kw, ZERO) - a.keyword_revenue.get(kw, ZERO))
            for kw in kws
        },
        "spend": {
            adv: (a.spend.get(adv, ZERO), b.spend.get(adv, ZERO),
                  b.spend.get(adv, ZERO) - a.spend.get(adv, ZERO))
            for adv in advs
        },
        "payoff": {
            adv: (a.payoff.get(adv, ZERO), b.payoff.get(adv, ZERO),
                  b.payoff.get(adv, ZERO) - a.payoff.get(adv, ZERO))
            for adv in advs
        },
    }
