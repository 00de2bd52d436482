"""Budget-constrained day simulation.

A day processes every keyword's query stream under a committed profile:
each query runs one auction among the advertisers whose committed budget on
that keyword still covers the current price.  The engine never touches
individual queries — it reuses the event-driven segmentation, so a day over
billions of queries costs the same as one over dozens.

``simulate_day`` trusts its inputs; run the model validators at the
boundary.  Feeding it a profile whose budgets exceed an advertiser's total
is allowed (useful for what-if pricing), it just simulates those pools.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .model import Instance, Profile
from .partition import Segment, run_keyword_timeline

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

    def segment_table(self, keyword: str) -> List[dict]:
        """Row-per-segment summary, handy for reports."""
        rows = []
        for seg in self.segments[keyword]:
            rows.append({
                "lo": seg.lo,
                "hi": seg.hi,
                "active": list(seg.active),
                "prices": dict(seg.prices),
                "revenue_per_query": seg.revenue,
            })
        return rows


def _run_keyword(instance: Instance, profile: Profile, kw: str,
                 reserve: Fraction) -> Tuple[str, Tuple[Segment, ...]]:
    bidders = [(r.advertiser, instance.score(r.advertiser, kw),
                r.start_query, r.budget) for r in profile.rows_on(kw)]
    segs = run_keyword_timeline(instance.slots, instance.volume(kw),
                                bidders, reserve)
    return kw, segs


def simulate_day(instance: Instance, profile: Profile,
                 reserve: Fraction = ZERO, jobs: int = 1) -> DayOutcome:
    """Simulate the full day under a committed profile, exactly.

    With ``jobs > 1`` keywords are simulated on a thread pool; results are
    reduced in instance keyword order, so output is identical either way.
    """
    kw_ids = [k.id for k in instance.keywords]
    if jobs > 1 and len(kw_ids) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_keyword, instance, profile, kw, reserve)
                       for kw in kw_ids]
            segments = dict(f.result() for f in futures)
    else:
        segments = dict(_run_keyword(instance, profile, kw, reserve)
                        for kw in kw_ids)

    keyword_revenue: Dict[str, Fraction] = {}
    keyword_welfare: Dict[str, Fraction] = {}
    spend: Dict[str, Fraction] = {a.id: ZERO for a in instance.advertisers}
    payoff: Dict[str, Fraction] = {a.id: ZERO for a in instance.advertisers}
    edge_spend: Dict[Tuple[str, str], Fraction] = {}
    participation: Dict[Tuple[str, str], int] = {}
    for row in profile.rows:
        edge_spend[(row.advertiser, row.keyword)] = ZERO
        participation[(row.advertiser, row.keyword)] = 0
    for kw in kw_ids:
        rev = wel = ZERO
        for seg in segments[kw]:
            n = len(seg)
            rev += n * seg.revenue
            wel += n * seg.welfare
            for adv, _, slot in seg.ranking:
                participation[(adv, kw)] += n
                if slot is None:  # unslotted: in the auction, pays nothing
                    continue
                paid = n * seg.prices[adv]
                spend[adv] += paid
                payoff[adv] += n * seg.payoffs[adv]
                edge_spend[(adv, kw)] += paid
        keyword_revenue[kw] = rev
        keyword_welfare[kw] = wel
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
