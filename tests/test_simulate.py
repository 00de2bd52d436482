"""Whole-day simulation: totals, bookkeeping, consistency checks, diffs."""

from fractions import Fraction as F

from broadmatch.simulate import (check_profile_consistency, compare_outcomes,
                                 simulate_day)
from conftest import build_instance, build_schedule, build_split


def small():
    return build_instance(
        ("1", "7/10"), (("k1", 100), ("k2", 100)),
        (("1", "45"), ("2", "37"), ("3", "40"), ("4", "20")),
        (("1", "k1", "5", "base"), ("2", "k1", "3", "base"),
         ("3", "k2", "3/2", "base"), ("4", "k2", "1", "base"),
         ("3", "k1", "2", "extension")))


def natural():
    return build_split((("1", "k1", 50, "45"), ("2", "k1", 100, "37"),
                        ("3", "k2", 100, "40"), ("4", "k2", 100, "20")))


def early():
    return build_schedule((("1", "k1", 19, "45", 1), ("2", "k1", 36, "37", 1),
                           ("3", "k1", 100, "10", 1),
                           ("3", "k2", 100, "30", 1),
                           ("4", "k2", 100, "20", 1)))


def test_natural_day_totals():
    day = simulate_day(small(), natural())
    assert day.keyword_revenue == {"k1": F(45), "k2": F(30)}
    assert day.keyword_welfare == {"k1": F(505), "k2": F(220)}
    assert day.revenue == F(75) and day.welfare == F(725)
    assert day.spend == {"1": F(45), "2": F(0), "3": F(30), "4": F(0)}
    assert day.payoff == {"1": F(205), "2": F(255), "3": F(120), "4": F(70)}
    assert day.leftover == {"1": F(0), "2": F(37), "3": F(10), "4": F(20)}
    assert day.edge_spend == {("1", "k1"): F(45), ("2", "k1"): F(0),
                              ("3", "k2"): F(30), ("4", "k2"): F(0)}
    assert day.participation == {("1", "k1"): 50, ("2", "k1"): 100,
                                 ("3", "k2"): 100, ("4", "k2"): 100}
    assert day.revenue == sum(day.spend.values())


def test_segment_table_rows():
    day = simulate_day(small(), natural())
    k1, k2 = day.segments["k1"], day.segments["k2"]
    assert [(s.lo, s.hi, s.active) for s in k1] == [
        (1, 50, ("1", "2")), (51, 100, ("2",))]
    assert [(s.lo, s.hi, s.active) for s in k2] == [(1, 100, ("3", "4"))]
    assert [0] + [s.hi for s in k1] == [0, 50, 100]
    assert k1[-1].active == ("2",)
    assert k1[0].prices == {"1": F(9, 10), "2": F(0)}
    assert k1[0].revenue == F(9, 10)


def test_reserve_day():
    day = simulate_day(small(), natural(), reserve=F(4))
    # only 1 clears the reserve; it pays the stand-in price 3/10 * 4
    assert day.revenue == F(222, 5)
    assert day.participation == {("1", "k1"): 37, ("2", "k1"): 0,
                                 ("3", "k2"): 0, ("4", "k2"): 0}
    assert [s.active for s in day.segments["k2"]] == [()]


def test_overcommitted_pool_is_simulated_as_given():
    # pools beyond the advertiser's budget are allowed for what-if runs;
    # leftover is measured against the instance budget and can go negative
    day = simulate_day(small(), build_split((("1", "k1", 100, "90"),
                                             ("2", "k1", 100, "37"))))
    assert day.spend["1"] == F(90)           # 100 queries at 9/10
    assert day.leftover["1"] == F(-45)


def test_consistency_of_the_natural_split():
    day = simulate_day(small(), natural())
    assert check_profile_consistency(natural(), day) == []


def test_consistency_mismatch_records():
    day = simulate_day(small(), natural(), reserve=F(4))
    problems = check_profile_consistency(natural(), day)
    assert len(problems) == 4
    assert problems[0] == {"advertiser": "1", "keyword": "k1",
                           "declared": 50, "simulated": 37}


def test_compare_outcomes_deltas():
    base = simulate_day(small(), natural())
    entry = simulate_day(small(), early())
    cmp = compare_outcomes(base, entry)
    assert cmp["revenue"] == (F(75), F(221, 2), F(71, 2))
    assert cmp["welfare"] == (F(725), F(5577, 10), F(-1673, 10))
    assert cmp["keyword_revenue"]["k1"] == (F(45), F(161, 2), F(71, 2))
    assert cmp["keyword_revenue"]["k2"] == (F(30), F(30), F(0))
    assert cmp["spend"]["1"] == (F(45), F(437, 10), F(-13, 10))
    assert cmp["spend"]["2"] == (F(0), F(184, 5), F(184, 5))
    assert cmp["payoff"]["3"] == (F(120), F(1359, 5), F(759, 5))


def test_day_revenue_equals_total_spend_under_schedules():
    for profile in (natural(), early()):
        day = simulate_day(small(), profile)
        assert day.revenue == sum(day.spend.values())
