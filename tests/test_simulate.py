"""Whole-day simulation: totals, bookkeeping, consistency checks, diffs."""

import random
from dataclasses import fields
from fractions import Fraction as F

from broadmatch import cli
from broadmatch.simulate import (DayOutcome, check_profile_consistency,
                                 compare_outcomes, simulate_day)
from conftest import (RESERVE_GRID, build_instance, build_schedule,
                      build_split, day_views, edge_spend, keyword_scores,
                      random_instance, random_profile, reference_day_result,
                      reference_simulate_day)


def small():
    return build_instance(
        ("1", "7/10"), (("k1", 100), ("k2", 100)),
        (("1", "45"), ("2", "37"), ("3", "40"), ("4", "20")),
        (("1", "k1", "5", "base"), ("2", "k1", "3", "base"),
         ("3", "k2", "3/2", "base"), ("4", "k2", "1", "base"),
         ("3", "k1", "2", "extension")))


def views(instance, day, kw):
    """The views of a simulated day's segments on ``kw``."""
    return day_views(day.segments[kw], keyword_scores(instance, kw))


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
    edges = [(r.advertiser, r.keyword) for r in natural().rows]
    assert edge_spend(day, edges) == {("1", "k1"): F(45), ("2", "k1"): F(0),
                                      ("3", "k2"): F(30), ("4", "k2"): F(0)}
    assert day.participation == {("1", "k1"): 50, ("2", "k1"): 100,
                                 ("3", "k2"): 100, ("4", "k2"): 100}
    assert day.revenue == sum(day.spend.values())


def test_segment_table_rows():
    day = simulate_day(small(), natural())
    k1, k2 = views(small(), day, "k1"), views(small(), day, "k2")
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
    assert [s.active for s in views(small(), day, "k2")] == [()]


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


def assert_day_matches_fraction_path(instance, profile, reserve=F(0)):
    """``simulate_day`` and ``cli._day_result`` against the Fraction path of
    ``conftest``: every ``DayOutcome`` field equal, dict key order included,
    each keyword's day compared through its ``day_views``, and the report
    rows identical as JSON and as table text."""
    day = simulate_day(instance, profile, reserve)
    ref = reference_simulate_day(instance, profile, reserve)
    for f in fields(DayOutcome):
        got, want = getattr(day, f.name), getattr(ref, f.name)
        if f.name == "segments":
            got = {kw: views(instance, day, kw) for kw in got}
            want = {kw: views(instance, ref, kw) for kw in want}
        if isinstance(got, dict):
            got, want = list(got.items()), list(want.items())
        assert got == want, f.name
    ours = cli._day_result(instance, day)
    theirs = reference_day_result(instance, ref)
    assert cli._dumps(ours) == cli._dumps(theirs)
    assert cli._lines(ours) == cli._lines(theirs)
    return day


def test_day_accounting_matches_the_fraction_path_on_the_corpus():
    """400 seeded markets of the oracle corpus, splits and late-entry
    schedules, each at a reserve drawn from the grid."""
    rng = random.Random(2024)
    for _ in range(400):
        inst = random_instance(rng)
        prof = random_profile(rng, inst, schedule=rng.random() < 0.5)
        assert_day_matches_fraction_path(inst, prof, rng.choice(RESERVE_GRID))


def test_day_accounting_matches_the_fraction_path_on_edge_cases():
    """Dark segments (before a late entry, after the last bidder runs
    dry), keywords the reserve shuts out, late entries, denominators
    other than 1, and a keyword of 10**400 queries priced beyond float
    range, so that segment, keyword and advertiser rows all take
    ``_approx``'s exact fallback."""
    big = 10 ** 400
    inst = build_instance(
        ("1", "3/4"), (("k1", 12), ("k2", 9), ("k3", big), ("k4", 20)),
        (("a", "7/3"), ("b", "5/2"), ("c", str(big ** 2)),
         ("e", str(big ** 2)), ("d", "1/7"), ("f", "3/2")),
        (("a", "k1", "2", "base"), ("b", "k1", "3/2", "base"),
         ("d", "k1", "1/3", "base"), ("a", "k2", "1/5", "base"),
         ("b", "k2", "1/4", "base"), ("c", "k3", str(big), "base"),
         ("e", "k3", "%d/3" % big, "base"), ("f", "k4", "5", "base")))
    schedule = build_schedule((
        ("a", "k1", 0, "2", 4), ("b", "k1", 0, "2", 1),
        ("d", "k1", 0, "1/7", 6), ("a", "k2", 0, "1/3", 3),
        ("b", "k2", 0, "1/2", 2), ("c", "k3", 0, str(big ** 2), 1),
        ("e", "k3", 0, "%d/7" % big ** 2, 5), ("f", "k4", 0, "3/2", 1)))
    for reserve in (F(0), F(1, 2), F(7, 3)):
        day = assert_day_matches_fraction_path(inst, schedule, reserve)
        assert any(not s.ranking for kw in day.segments
                   for s in views(inst, day, kw))
    day = simulate_day(inst, schedule, F(1, 2))
    assert [s.ranking for s in views(inst, day, "k2")] == [()]
    assert [(s.lo, s.hi, s.active) for s in views(inst, day, "k4")] == [
        (1, 12, ("f",)), (13, 20, ())]
    assert day.participation[("a", "k2")] == 0
    assert any(s.revenue > 2 ** 1024 for s in views(inst, day, "k3"))
    assert day.keyword_revenue["k3"] > 2 ** 1024
    assert day.spend["c"] > 2 ** 1024
