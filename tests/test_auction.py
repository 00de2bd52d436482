from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadmatch.auction import price_query
from broadmatch.model import SlotParams
from conftest import revenue_identity_check

TWO = SlotParams((F(1), F(7, 10)))


def test_pinned_two_slot_prices():
    slate = price_query([("1", F(5)), ("2", F(3)), ("3", F(2))], TWO)
    assert slate.prices == {"1": F(23, 10), "2": F(7, 5), "3": F(0)}
    assert slate.payoffs == {"1": F(27, 10), "2": F(7, 10), "3": F(0)}
    assert slate.revenue == F(37, 10)
    assert slate.welfare == F(71, 10)
    assert slate.ranking == (("1", F(5), 1), ("2", F(3), 2),
                             ("3", F(2), None))


def test_lone_bidder_pays_reserve_rate():
    slate = price_query([("1", F(5))], TWO)
    assert slate.prices["1"] == F(0)
    # the reserve stands in once, directly below the last participant
    slate = price_query([("1", F(5))], TWO, reserve=F(2))
    assert slate.prices["1"] == (F(1) - F(7, 10)) * F(2)


def test_reserve_excludes_low_scores():
    slate = price_query([("1", F(5)), ("2", F(1))], TWO, reserve=F(2))
    assert "2" not in slate.prices
    assert slate.prices["1"] == (F(1) - F(7, 10)) * F(2)


def test_score_tie_breaks_by_id():
    slate = price_query([("b", F(3)), ("a", F(3))], TWO)
    assert [r[0] for r in slate.ranking] == ["a", "b"]


def test_empty_query():
    slate = price_query([], TWO)
    assert slate.revenue == 0 and slate.welfare == 0 and slate.ranking == ()


def test_last_slot_price_uses_first_unslotted_score():
    slate = price_query([("1", F(5)), ("2", F(3)), ("3", F(2)), ("4", F(1))],
                        TWO)
    # slot 2 pays gamma_2 * s_(3)
    assert slate.prices["2"] == F(7, 10) * F(2)
    assert slate.prices["3"] == F(0) and slate.prices["4"] == F(0)


def test_negative_reserve_is_rejected():
    with pytest.raises(ValueError, match="reserve must be nonnegative"):
        price_query([("1", F(5))], TWO, reserve=F(-1))


_score = st.fractions(min_value=F(1, 10), max_value=F(8),
                      max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(
    gammas=st.lists(st.fractions(min_value=F(1, 10), max_value=F(1),
                                 max_denominator=10),
                    min_size=1, max_size=4, unique=True),
    scores=st.lists(_score, min_size=0, max_size=6),
    reserve=st.fractions(min_value=F(0), max_value=F(2), max_denominator=6),
)
def test_payoffs_nonnegative_and_identity_holds(gammas, scores, reserve):
    slots = SlotParams(tuple(sorted(gammas, reverse=True)))
    active = [("a%d" % n, s) for n, s in enumerate(scores)]
    slate = price_query(active, slots, reserve)
    for adv, s, slot in slate.ranking:
        assert slate.payoffs[adv] >= 0
        if slot is not None:
            assert slate.prices[adv] <= slots.gamma[slot - 1] * s
    assert revenue_identity_check(slate) == slate.revenue
    assert slate.revenue == sum(slate.prices.values(), F(0))


def test_identity_on_thousand_random_slates():
    import random
    rng = random.Random(424242)
    grid = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(4), F(5), F(6)]
    for _ in range(1000):
        k = rng.randint(1, 4)
        gamma = tuple(sorted(rng.sample([F(1), F(9, 10), F(3, 4), F(3, 5),
                                         F(1, 2), F(1, 4), F(1, 10)], k),
                             reverse=True))
        slots = SlotParams(gamma)
        n = rng.randint(0, 6)
        active = [("a%d" % i, rng.choice(grid)) for i in range(n)]
        reserve = rng.choice([F(0), F(0), F(1, 2), F(1)])
        slate = price_query(active, slots, reserve)
        assert revenue_identity_check(slate) == slate.revenue
