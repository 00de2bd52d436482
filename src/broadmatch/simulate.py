"""Budget-constrained day simulation.

A day processes every keyword's query stream under a committed profile:
each query runs one auction among the advertisers whose committed budget on
that keyword still covers the current price.  The engine never touches
individual queries — each keyword's day runs through
``partition.keyword_day``, the event-driven segmentation, so a day over
billions of queries costs the same as one over dozens.

``simulate_day`` trusts its inputs; run the model validators at the
boundary.  Feeding it a profile whose budgets exceed an advertiser's total
is allowed (useful for what-if pricing), it just simulates those pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

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
    spend: Dict[str, Fraction] = {a.id: ZERO for a in instance.advertisers}
    payoff: Dict[str, Fraction] = {a.id: ZERO for a in instance.advertisers}
    edge_spend: Dict[Tuple[str, str], Fraction] = {}
    participation: Dict[Tuple[str, str], int] = {}
    for row in profile.rows:
        edge_spend[(row.advertiser, row.keyword)] = ZERO
        participation[(row.advertiser, row.keyword)] = 0
    for k in instance.keywords:
        kw = k.id
        segments[kw] = segs = keyword_day(instance, kw, profile.rows_on(kw),
                                          reserve)
        for seg in segs:
            for adv, _, _ in seg.ranking:
                participation[(adv, kw)] += len(seg)
        totals = day_totals(segs)
        for adv, paid in totals.paid.items():
            spend[adv] += paid
            edge_spend[(adv, kw)] += paid
            payoff[adv] += totals.gained[adv]
        keyword_revenue[kw] = totals.revenue
        keyword_welfare[kw] = totals.welfare
    leftover = {a.id: a.budget - spend[a.id] for a in instance.advertisers}
    return DayOutcome(segments, sum(keyword_revenue.values(), ZERO),
                      sum(keyword_welfare.values(), ZERO),
                      keyword_revenue, keyword_welfare, spend, payoff,
                      leftover, edge_spend, participation)


def check_profile_consistency(instance: Instance, profile: Profile,
                              outcome: Optional[DayOutcome] = None,
                              reserve: Fraction = ZERO) -> List[dict]:
    """Compare each row's declared query count with simulated participation.

    A split document states, per (advertiser, keyword), how many queries the
    budget is supposed to buy; simulation decides how many it actually does.
    Returns one record per mismatching row (empty list = consistent).
    """
    if outcome is None:
        outcome = simulate_day(instance, profile, reserve)
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
