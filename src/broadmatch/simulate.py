"""Budget-constrained day simulation.

A day processes every keyword's query stream under a committed profile:
each query runs one auction among the advertisers whose committed budget on
that keyword still covers the current price.  The engine never touches
individual queries — each keyword's day runs through
``partition.keyword_day``, the event-driven segmentation, so a day over
billions of queries costs the same as one over dozens.  It comes back as a
``partition.KeywordDay``, whose event loop has already counted the
keyword's totals, as ints over its denominator D, and the queries each
bidder entered, so the simulator walks no segment.  An advertiser's spend,
payoff and leftover and the day's revenue and welfare add those totals
over the lcm of the Ds, and each reported value is one ``Fraction`` built
from those ints, with no ``Fraction`` arithmetic.  What an advertiser paid
on one keyword is in that keyword's ``DayTotals``.  The report writer reads
each day's columns.

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
from .partition import DayTotals, KeywordDay, keyword_day

ZERO = Fraction(0)


@dataclass(frozen=True)
class DayOutcome:
    """Everything observable after one simulated day.  Each keyword's day
    (``segments``) carries its own ``DayTotals``: what each advertiser paid
    and gained there."""

    segments: Dict[str, KeywordDay]
    revenue: Fraction
    welfare: Fraction
    keyword_revenue: Dict[str, Fraction]
    keyword_welfare: Dict[str, Fraction]
    spend: Dict[str, Fraction]                    # per advertiser, whole day
    payoff: Dict[str, Fraction]
    leftover: Dict[str, Fraction]                 # budget minus spend
    participation: Dict[Tuple[str, str], int]     # queries entered per (adv, kw)


def simulate_day(instance: Instance, profile: Profile,
                 reserve: Fraction = ZERO) -> DayOutcome:
    """Simulate the full day under a committed profile, exactly."""
    segments: Dict[str, KeywordDay] = {}
    totals: Dict[str, DayTotals] = {}
    participation = dict.fromkeys(
        ((r.advertiser, r.keyword) for r in profile.rows), 0)
    # per advertiser, (D, paid, gained) on each keyword it was slotted on
    earned: Dict[str, List[Tuple[int, int, int]]] = {}
    for k in instance.keywords:
        kw = k.id
        segments[kw] = run = keyword_day(instance, kw, profile.rows_on(kw),
                                         reserve)
        for adv, n in run.entered.items():
            participation[(adv, kw)] = n
        totals[kw] = t = run.totals
        for adv, paid in t.int_paid.items():
            earned.setdefault(adv, []).append((t.D, paid, t.int_gained[adv]))
    spend, payoff, leftover = {}, {}, {}  # per advertiser
    for a in instance.advertisers:
        L, paid, gained = _over_lcm(earned.get(a.id, ()))
        b = a.budget
        spend[a.id] = Fraction(paid, L)
        payoff[a.id] = Fraction(gained, L)
        leftover[a.id] = Fraction(b.numerator * L - paid * b.denominator,
                                  b.denominator * L)
    L, revenue, welfare = _over_lcm(
        [(t.D, t.int_revenue, t.int_welfare) for t in totals.values()])
    return DayOutcome(segments, Fraction(revenue, L), Fraction(welfare, L),
                      {kw: t.revenue for kw, t in totals.items()},
                      {kw: t.welfare for kw, t in totals.items()},
                      spend, payoff, leftover, participation)


def _over_lcm(rows: Sequence[Tuple[int, int, int]]) -> Tuple[int, int, int]:
    """L, the lcm of the Ds of rows ``(D, x, y)``, and the sums of x / D and
    of y / D in units of 1/L."""
    L = math.lcm(*[D for D, _, _ in rows])
    xs = ys = 0
    for D, x, y in rows:
        xs += x * (L // D)
        ys += y * (L // D)
    return L, xs, ys


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
