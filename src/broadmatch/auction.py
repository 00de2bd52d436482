"""Single-query slot pricing at the minimum symmetric equilibrium.

Participants are ranked by score (descending, ties by ascending id) and the
occupant of slot r pays, per impression,

    price_r = sum_{j=r}^{K} (gamma_j - gamma_{j+1}) * s_{(j+1)}

with gamma_{K+1} = 0 and s_{(m)} = 0 beyond the last participant.  These are
the lowest prices any symmetric equilibrium of the generalized second-price
auction can support.  An optional reserve acts as a pseudo-score ranked just
below the last participant; participants scoring below the reserve are
excluded.

``slot_prices`` is that formula over an already-ranked score list and the
coefficients ``gamma_j - gamma_{j+1}``; it works on any exact number type.
``price_query`` ranks an active set and calls it on ``Fraction``s.  The day
engine (``partition.run_keyword_timeline``) calls it on Python ints: it
scales one keyword day's scores, reserve and coefficients to a common
denominator, prices the top K+1 of a ranking it keeps across events, and
keeps the prices as ints in the day it returns; only a segment's view turns
them back into exact ``Fraction``s.
No floats are used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from .model import SlotParams

ZERO = Fraction(0)


@dataclass(frozen=True)
class Slate:
    """Priced ranking of one query's active set.

    ``ranking`` lists (advertiser, score, slot) by rank; slot is None for
    participants beyond the last slot.  ``prices`` and ``payoffs`` are per
    impression and cover every participant (unslotted ones at 0).
    """

    slots: SlotParams
    reserve: Fraction
    ranking: Tuple[Tuple[str, Fraction, object], ...]
    prices: Dict[str, Fraction]
    payoffs: Dict[str, Fraction]
    revenue: Fraction
    welfare: Fraction


def slot_prices(scores: Sequence, drops: Sequence, reserve=ZERO) -> list:
    """Per-impression prices, by rank, of the top ``min(K, L)`` bidders.

    ``scores`` are already ranked (descending) and all at or above the
    reserve; L is their count.  ``drops`` are the K coefficients
    ``gamma_j - gamma_{j+1}`` (``SlotParams.drops``).  Slot r's price reads
    only the scores ranked r+1..K+1 and the reserve, so a caller holding a
    longer ranking may pass just its first K+1 scores.  This is the one
    pricing formula, the suffix sum above, and it is generic over the
    number type: ``price_query`` passes ``Fraction``s, the day engine passes
    ints scaled to one common denominator, and the prices come back in the
    same unit.
    """
    L = len(scores)
    n = min(len(drops), L)
    prices = [0] * n
    suffix = 0
    for j in range(n, 0, -1):
        # the score ranked just below rank j; the reserve stands in at L+1
        suffix += drops[j - 1] * (scores[j] if j < L else reserve)
        prices[j - 1] = suffix
    return prices


def check_reserve(reserve: Fraction) -> None:
    if reserve.numerator < 0:
        raise ValueError("reserve must be nonnegative, got %s" % reserve)


def price_query(active: Iterable[Tuple[str, Fraction]], slots: SlotParams,
                reserve: Fraction = ZERO) -> Slate:
    """Price one query for the given active set.

    ``active`` yields (advertiser id, score) pairs.  An empty active set is
    legal and produces a zero-revenue slate (a "dark" query).  A negative
    reserve is a ValueError: it would price the last slot below zero.
    """
    check_reserve(reserve)
    ranked = sorted(
        ((adv, s) for adv, s in active if s >= reserve),
        key=lambda p: (-p[1], p[0]),
    )
    prices = slot_prices([s for _, s in ranked[:slots.count + 1]],
                         slots.drops, reserve)
    gamma = slots.gamma
    ranking = []
    price_of: Dict[str, Fraction] = {}
    payoffs: Dict[str, Fraction] = {}
    revenue = ZERO
    welfare = ZERO
    for n, (adv, s) in enumerate(ranked):
        if n < len(prices):
            p = prices[n]
            value = gamma[n] * s
            ranking.append((adv, s, n + 1))
            price_of[adv] = p
            payoffs[adv] = value - p
            revenue += p
            welfare += value
        else:  # past the last slot: in the auction, pays and gains nothing
            ranking.append((adv, s, None))
            price_of[adv] = ZERO
            payoffs[adv] = ZERO
    return Slate(slots, reserve, tuple(ranking), price_of, payoffs, revenue,
                 welfare)
