"""Event-driven keyword timelines and per-advertiser partition tables."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadmatch.acbm import excess_budgets
from broadmatch.model import Allocation, Profile, SlotParams
from broadmatch.partition import (INFINITE, KeywordDay, PartitionTable,
                                  keyword_day, pinning_keeps_prefixes,
                                  run_keyword_timeline, tables_for)
from broadmatch.simulate import simulate_day
from conftest import (RESERVE_GRID, assert_day_matches_naive,
                      build_instance, build_schedule, build_split, day_views,
                      fraction_table, naive_day, paid_fractions,
                      random_instance, random_profile, reference_day_totals,
                      reference_entered, reference_timeline, segment_views,
                      stopped_day, stopped_subject_day)

TWO = SlotParams((F(1), F(7, 10)))


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


# -- run_keyword_timeline -----------------------------------------------------

def test_timeline_exhaustion_breakpoint():
    segs = day_views(run_keyword_timeline(TWO, 100, [("1", F(5), 1, F(45)),
                                                     ("2", F(3), 1, F(37))]))
    assert [(s.lo, s.hi, s.active) for s in segs] == [
        (1, 50, ("1", "2")), (51, 100, ("2",))]
    assert segs[0].prices == {"1": F(9, 10), "2": F(0)}
    assert segs[1].prices == {"2": F(0)}
    assert segs[0].revenue == F(9, 10) and segs[1].revenue == 0


def test_eviction_is_one_at_a_time_lowest_score_first():
    # At the opening prices both x (3.3 > 2) and y (2.1 > 1) are broke.
    # Evicting y (the lower score) first drops x's price to 0.9, rescuing x.
    segs = day_views(run_keyword_timeline(TWO, 10, [("x", F(5), 1, F(2)),
                                                    ("y", F(4), 1, F(1)),
                                                    ("z", F(3), 1, None)]))
    assert [(s.lo, s.hi, s.active) for s in segs] == [
        (1, 2, ("x", "z")), (3, 10, ("z",))]
    assert segs[0].prices["x"] == F(9, 10)


def test_eviction_tie_breaks_on_id():
    # a and b tie at score 4 and both are broke; the rule takes the smaller
    # id, so a goes first and b survives at the post-eviction price.
    segs = day_views(run_keyword_timeline(TWO, 10, [("a", F(4), 1, F(0)),
                                                    ("b", F(4), 1, F(2)),
                                                    ("z", F(3), 1, None)]))
    assert [(s.lo, s.hi, s.active) for s in segs] == [
        (1, 2, ("b", "z")), (3, 10, ("z",))]


def test_dark_segments_and_scheduled_entry():
    segs = day_views(run_keyword_timeline(TWO, 10, [("a", F(2), 5, F(3))],
                                          reserve=F(2)))
    assert [(s.lo, s.hi, s.active) for s in segs] == [
        (1, 4, ()), (5, 9, ("a",)), (10, 10, ())]
    assert segs[0].ranking == () and segs[0].revenue == 0
    # lone bidder above the reserve pays the reserve's stand-in price
    assert segs[1].prices == {"a": F(3, 5)}


def test_reserve_excludes_low_scores_entirely():
    segs = day_views(run_keyword_timeline(TWO, 10, [("a", F(2), 1, F(3))],
                                          reserve=F(3)))
    assert [(s.lo, s.hi, s.active) for s in segs] == [(1, 10, ())]


def test_start_query_clamped_to_one():
    segs = day_views(run_keyword_timeline(TWO, 10, [("a", F(1), 0, None)]))
    assert [(s.lo, s.hi, s.active) for s in segs] == [(1, 10, ("a",))]


def test_timeline_is_event_driven_not_per_query():
    # a trillion queries, two events: exhaustion, then darkness
    segs = day_views(run_keyword_timeline(
        TWO, 10**12, [("a", F(2), 1, F(10**6))], reserve=F(1)))
    assert [(s.lo, s.hi) for s in segs] == [(1, 3333333),
                                            (3333334, 10**12)]


def test_negative_reserve_and_pool_are_rejected():
    with pytest.raises(ValueError, match="reserve"):
        run_keyword_timeline(TWO, 10, [("a", F(2), 1, F(3))], reserve=F(-1))
    with pytest.raises(ValueError, match="negative pool"):
        run_keyword_timeline(TWO, 10, [("a", F(2), 1, F(-1))])


_GAMMA_POOL = [F(1), F(9, 10), F(3, 4), F(3, 5), F(1, 2), F(1, 4), F(1, 8)]
_TIE_SCORES = [F(1, 2), F(1), F(3, 2), F(2), F(3)]


def test_top_k_timeline_matches_the_reprice_everything_loop():
    """Field-for-field equality with the old loop (``price_query`` on every
    reprice), dict key order included, on 5,000 seeded keyword days: every
    K in 1..5 against every bidder count in 0..9, tied scores, start
    queries 0..volume, unlimited and zero pools, reserves 0, 1/2 and 2."""
    rng = random.Random(20070601)
    seen = {"tie": 0, "evicted": 0, "unlimited": 0, "zero": 0, "late": 0}
    for case in range(5000):
        k, n = 1 + case % 5, (case // 5) % 10
        slots = SlotParams(tuple(sorted(rng.sample(_GAMMA_POOL, k),
                                        reverse=True)))
        volume = rng.randint(1, 30)
        reserve = rng.choice([F(0), F(1, 2), F(2)])
        ids = ["a%d" % i for i in range(n)]
        rng.shuffle(ids)
        bidders = []
        for i in ids:
            pool = rng.choice([None, F(0), F(rng.randint(1, 60),
                                             rng.choice([1, 2, 4]))])
            bidders.append((i, rng.choice(_TIE_SCORES),
                            rng.randint(0, volume), pool))
        got = run_keyword_timeline(slots, volume, bidders, reserve)
        want = reference_timeline(slots, volume, bidders, reserve)
        assert ([segment_views(g) for g in day_views(got)]
                == [segment_views(w) for w in want]), case
        scores = [s for _, s, _, _ in bidders]
        seen["tie"] += len(set(scores)) < len(scores)
        seen["evicted"] += any(set(a.active) - set(b.active)
                               for a, b in zip(want, want[1:]))
        seen["unlimited"] += any(b[3] is None for b in bidders)
        seen["zero"] += any(b[3] == 0 for b in bidders)
        seen["late"] += any(b[2] > 1 for b in bidders)
    assert min(seen.values()) >= 500, seen


_COPRIME_GAMMA = [F(1), F(8, 9), F(5, 7), F(2, 3), F(4, 9), F(2, 7),
                  F(1, 3), F(1, 9)]
_POOL_DENS = [3, 7, 11, 10 ** 9 + 7]


def _spend(segments, bidder):
    return sum(((s.hi - s.lo + 1) * s.prices[bidder] for s in segments
                if bidder in s.prices), F(0))


def test_int_core_is_exact_across_coprime_denominators():
    """The int core (one common denominator per keyword day) matches the
    reprice-everything ``Fraction`` loop field for field, dict key order
    included, on 3,000 seeded days: gamma over 3, 7 and 9, scores and
    reserves over 3, 6 and 7, pools over 3, 7, 11 and 10^9+7, volumes up
    to 10^9, lone bidders whose pool falls 1/p short of m whole queries
    (m up to 10^9), and every other day rerun with some pools cut to
    exactly what they spent (as acbm pins paid entries and reduced
    rows)."""
    rng = random.Random(19800229)
    seen = {"tie": 0, "evicted": 0, "unlimited": 0, "spent-pool": 0,
            "huge": 0, "mixed-dens": 0, "hair-short": 0}
    for case in range(3000):
        k = 1 + case % 4
        slots = SlotParams(tuple(sorted(rng.sample(_COPRIME_GAMMA, k),
                                        reverse=True)))
        huge = case % 3 == 0
        volume = rng.randint(10 ** 6, 10 ** 9) if huge else rng.randint(1, 40)
        reserve = rng.choice([F(0), F(1, 3), F(5, 6), F(2, 7)])
        scores = [F(rng.randint(1, 24), rng.choice([3, 6, 7]))
                  for _ in range(3)]
        bidders = []
        for n in range(rng.randint(0, 7)):
            top = 10 ** 10 if huge else 200
            pool = rng.choice([None, F(rng.randint(0, top),
                                       rng.choice(_POOL_DENS))])
            bidders.append(("a%d" % n, rng.choice(scores),
                            rng.randint(0, volume // rng.choice([1, 2, 9])),
                            pool))
        if case % 6 == 0:
            # a lone bidder at the reserve's price, a hair short of m
            # queries: the floor must give m - 1, where a float gives m
            reserve = rng.choice([F(1, 3), F(5, 6), F(2, 7)])
            m = rng.randint(10 ** 5, volume)
            pool = (slots.drops[0] * reserve * m
                    - F(1, rng.choice(_POOL_DENS[1:])))
            bidders = [("a0", scores[0] + reserve, 1, pool)]
            seen["hair-short"] += 1
        want = reference_timeline(slots, volume, bidders, reserve)
        if case % 2 and bidders:
            # pin some pools to their exact spend: zero left over, and
            # the same day unless the settle order changes
            bidders = [(i, s, q0, _spend(want, i) if rng.random() < 0.6
                        else b) for i, s, q0, b in bidders]
            want = reference_timeline(slots, volume, bidders, reserve)
            seen["spent-pool"] += 1
        got = run_keyword_timeline(slots, volume, bidders, reserve)
        assert ([segment_views(g) for g in day_views(got)]
                == [segment_views(w) for w in want]), case
        drawn = [s for _, s, _, _ in bidders]
        seen["tie"] += len(set(drawn)) < len(drawn)
        seen["evicted"] += any(set(a.active) - set(b.active)
                               for a, b in zip(want, want[1:]))
        seen["unlimited"] += any(b[3] is None for b in bidders)
        seen["huge"] += huge and len(want) > 1
        seen["mixed-dens"] += len({b[3].denominator for b in bidders
                                   if b[3] is not None}) > 1
    assert min(seen.values()) >= 300, seen


def test_pinning_keeps_prefixes_only_where_pinned_days_are_the_same():
    """Where ``pinning_keeps_prefixes`` is True, rerunning the day with
    those bidders' pools pinned to their spend gives the same segments,
    field for field, and so does the day cut short to each of its
    prefixes, each pinned to its own spend; 3,000 seeded days with drops
    even, falling and rising.  Where it is False the pinned day often does
    differ: the check is not vacuous.  The day's totals match the sums of
    the exact views."""
    rng = random.Random(8191)
    seen = {"kept": 0, "kept-after-evictions": 0, "rerun": 0, "moved": 0}
    for case in range(3000):
        gamma = sorted({F(rng.randint(1, 20), 20)
                        for _ in range(rng.randint(0, 3))} | {F(1)},
                       reverse=True)
        slots = SlotParams(tuple(gamma))
        volume = rng.randint(1, 10)
        bidders = [("o%d" % n, F(rng.randint(1, 12)), rng.randint(1, volume),
                    rng.choice([None, F(rng.randint(0, 30),
                                        rng.choice([1, 2]))]))
                   for n in range(rng.randint(0, 5))]
        watched = ["e%d" % n for n in range(rng.randint(1, 2))]
        bidders += [(i, F(rng.randint(1, 12)), rng.randint(1, volume),
                     F(rng.randint(0, 60))) for i in watched]
        reserve = F(rng.randint(0, 3))
        segs = run_keyword_timeline(slots, volume, bidders, reserve)
        totals = segs.totals
        views = day_views(segs)
        assert totals.revenue == sum((len(g) * g.revenue for g in views), F(0))
        assert totals.welfare == sum((len(g) * g.welfare for g in views), F(0))
        spent = paid_fractions(totals)
        for adv, paid in spent.items():
            assert paid == _spend(views, adv), case
        evicted = any(adv in watched for n in range(len(segs))
                      for adv in segs.passed.get(n, {}))
        if not pinning_keeps_prefixes(segs, watched):
            pinned = [(i, s, q0, spent.get(i, F(0)) if i in watched
                       else b) for i, s, q0, b in bidders]
            seen["rerun"] += 1
            seen["moved"] += ([segment_views(g) for g in views]
                              != [segment_views(g) for g in day_views(
                                  run_keyword_timeline(slots, volume, pinned,
                                                       reserve))])
            continue
        seen["kept"] += 1
        seen["kept-after-evictions"] += evicted
        for n in range(1, volume + 1):
            cut = run_keyword_timeline(slots, n, bidders, reserve)
            paid = paid_fractions(cut.totals)
            pinned = [(i, s, q0, paid.get(i, F(0)) if i in watched else b)
                      for i, s, q0, b in bidders]
            assert ([segment_views(g) for g in day_views(cut)]
                    == [segment_views(g) for g in day_views(
                        run_keyword_timeline(slots, n, pinned, reserve))]), (
                            case, n)
    assert min(seen.values()) >= 20, seen


# -- the day's columns ---------------------------------------------------------

def _check_columns(day, slots, volume, bidders, reserve, stop=None):
    """The day's segment views are the reprice-everything loop's (a prefix
    of them where ``stop`` cuts the day), and the totals and entered counts
    its event loop kept are those the walks over its segments find; a
    bidder dropped by its first settle is counted at 0.  Returns the day."""
    want = reference_timeline(slots, volume, bidders, reserve)
    if stop is not None:
        want = want[:len(day)]
    assert [segment_views(g) for g in day_views(day)] == [segment_views(w)
                                                          for w in want]
    assert day.totals == reference_day_totals(day)
    assert ({adv: n for adv, n in day.entered.items() if n}
            == reference_entered(day))
    return day


def _bidders(instance, keyword, rows):
    return [(r.advertiser, instance.score(r.advertiser, keyword),
             r.start_query, r.budget) for r in rows]


def test_day_columns_match_the_segment_walks_on_the_corpus():
    """On the hundred seeded markets, with and without schedules, each at
    a reserve from the grid: every keyword day ``simulate_day`` runs and
    every day a partition table reads passes ``_check_columns``, and the
    simulated day still equals the per-query ``naive_day``."""
    seen = {"dark": 0, "partial": 0, "broke-at-entry": 0, "late": 0,
            "passed": 0, "unlimited": 0}
    for seed in range(100):
        rng = random.Random(seed)
        instance = random_instance(rng)
        profile = random_profile(rng, instance, schedule=seed % 2 == 1)
        reserve = rng.choice(RESERVE_GRID)
        outcome = simulate_day(instance, profile, reserve)
        days = []
        for kw in instance.keywords:
            rows = profile.rows_on(kw.id)
            days.append(_check_columns(
                outcome.segments[kw.id], instance.slots, kw.volume,
                _bidders(instance, kw.id, rows), reserve))
            seen["late"] += any(r.start_query > 1 for r in rows)
        for adv in instance.advertisers:
            tables = tables_for(instance, adv.id, profile, reserve=reserve)
            for kw, table in tables.items():
                rows = [Allocation(adv.id, kw, 0, None)] + [
                    r for r in profile.rows_on(kw) if r.advertiser != adv.id]
                days.append(_check_columns(
                    table.segments, instance.slots, instance.volume(kw),
                    _bidders(instance, kw, rows), reserve))
                seen["unlimited"] += 1
        for day in days:
            seen["dark"] += not all(day.ids)
            seen["partial"] += any(
                n < day.hi[-1] + 1 - day.lo[0] for n in day.entered.values())
            seen["broke-at-entry"] += 0 in day.entered.values()
            seen["passed"] += bool(day.passed)
        assert_day_matches_naive(instance, outcome,
                                 naive_day(instance, profile, reserve))
    assert min(seen.values()) >= 20, seen


def test_day_columns_on_hand_cases():
    """A dark day, a reserve that shuts everyone out, a late entry after a
    lone bidder runs dry, a bidder broke at its first settle, a day cut by
    ``stop`` and a keyword of 10**400 queries."""
    dark = _check_columns(run_keyword_timeline(TWO, 10, []), TWO, 10, [], F(0))
    assert (dark.lo, dark.hi, dark.ids, dark.entered) == ([1], [10], [()], {})
    assert dark.totals[1:] == (0, 0, {}, {})
    shut = [("a", F(2), 1, F(3)), ("b", F(1), 4, None)]
    day = _check_columns(run_keyword_timeline(TWO, 10, shut, F(3)), TWO, 10,
                         shut, F(3))
    assert (len(day), day.entered, day.totals[1:]) == (1, {}, (0, 0, {}, {}))
    # a alone pays the reserve's 3/5 and runs dry after 5 queries; b enters
    # at query 8 into a dark stream and pays 3/5 twice
    late = [("a", F(2), 1, F(3)), ("b", F(3), 8, F(6, 5))]
    day = _check_columns(run_keyword_timeline(TWO, 10, late, F(2)), TWO, 10,
                         late, F(2))
    assert [(g.lo, g.hi, g.active) for g in day_views(day)] == [
        (1, 5, ("a",)), (6, 7, ()), (8, 9, ("b",)), (10, 10, ())]
    assert day.entered == {"a": 5, "b": 2}
    # x enters at query 3 above z, priced 3/5 on a pool of 1/2: its first
    # settle drops it
    broke = [("x", F(5), 3, F(1, 2)), ("z", F(2), 1, None)]
    day = _check_columns(run_keyword_timeline(TWO, 6, broke), TWO, 6, broke,
                         F(0))
    assert day.entered["x"] == 0 and "x" not in day.totals.int_paid
    assert day.entered["z"] == 6
    bidders = [("1", F(5), 1, F(45)), ("2", F(3), 1, F(37))]
    day = _check_columns(run_keyword_timeline(TWO, 100, bidders,
                                              stop=("1", F(44))),
                         TWO, 100, bidders, F(0), ("1", F(44)))
    assert (len(day), day.entered) == (1, {"1": 50, "2": 50})
    big = 10 ** 400
    huge = [("a", F(2), 1, F(10 ** 6)), ("b", F(1, 3), 1, None)]
    day = _check_columns(run_keyword_timeline(TWO, big, huge, F(1, 3)), TWO,
                         big, huge, F(1, 3))
    # a pays 1/3 a query above b (7/30) until its pool runs dry, then b,
    # alone, pays the reserve's 1/10 to the day's end
    assert day.entered == {"a": 3 * 10 ** 6, "b": big}
    assert day.totals.revenue == (10 ** 6 + 7 * 10 ** 5
                                  + (big - 3 * 10 ** 6) * F(1, 10))


def test_set_up_on_hand_cases():
    """What the set-up decides and ``day_views`` cannot show, or shows only
    through a ranking: D takes the entrants' scores and pools alone, equal
    scores entering at one query in reverse id order rank by id, and three
    bidders entering together at a later query rank by score; each day is
    also the reprice-everything loop's."""
    half = SlotParams((F(1), F(1, 2)))
    base = [("a", F(3), 1, F(10)), ("b", F(2), 1, F(9, 2))]
    shut = base + [("c", F(1, 3), 1, F(50, 7))]  # below the reserve of 1
    day = run_keyword_timeline(half, 40, base, F(1))
    out = run_keyword_timeline(half, 40, shut, F(1))
    assert day.D == out.D == 2 and "c" not in out.scores
    assert day_views(out) == day_views(day)
    assert run_keyword_timeline(half, 40, shut).D == 42  # c in: 3 and 7
    tied = [("c", F(2), 4, F(9)), ("b", F(2), 4, F(9)), ("a", F(2), 4, F(9)),
            ("z", F(5), 1, None)]
    later = [("w", F(1), 1, F(4)), ("y", F(3), 6, F(7, 3)),
             ("x", F(4), 6, None), ("v", F(2), 6, F(5))]
    for bidders, volume, actives, entered in (
            (tied, 16, [("z",), ("z", "a", "b", "c"), ("z", "b", "c"),
                        ("z", "c")], {"z": 16, "a": 6, "b": 12, "c": 13}),
            (later, 20, [("w",), ("x", "y", "v", "w"), ("x", "v", "w"),
                         ("x", "w")], {"x": 15, "y": 1, "v": 8, "w": 20})):
        day = run_keyword_timeline(TWO, volume, bidders)
        views = day_views(day)
        assert [g.active for g in views] == actives
        assert day.entered == entered == reference_entered(day)
        assert ([segment_views(g) for g in views] == [
            segment_views(w) for w in reference_timeline(TWO, volume,
                                                         bidders)])


# -- keyword_day ---------------------------------------------------------------

def test_keyword_day_runs_committed_rows_as_bidders():
    rows = [Allocation("2", "k1", 50, F(37), 51),
            Allocation("1", "k1", 100, F(45)),
            Allocation("3", "k1", 100, None)]
    segs = day_views(keyword_day(small(), "k1", rows, reserve=F(1)))
    assert segs == day_views(run_keyword_timeline(
        small().slots, 100, [("2", F(3), 51, F(37)), ("1", F(5), 1, F(45)),
                             ("3", F(2), 1, None)], F(1)))
    # 3's pool is unlimited: it is still in the day after both rivals leave
    assert segs[-1].active == ("3",) and segs[-1].hi == 100
    assert day_views(keyword_day(small(), "k2", ())) == day_views(
        run_keyword_timeline(small().slots, 100, []))


# -- a day stopped at a bidder's budget ---------------------------------------

def _first_over(segments, bidder, budget):
    """Index of the first segment after which the bidder's running payment,
    summed on the ``Fraction`` views, exceeds the budget; None if none."""
    paid = F(0)
    for n, seg in enumerate(segments):
        paid += len(seg) * seg.prices.get(bidder, F(0))
        if paid > budget:
            return n
    return None


def _check_stop(full, stopped, bidder, budget):
    """The stopped run is a day and the prefix of the whole day that ends
    with the first segment in which the bidder's payment passes the
    budget, or the whole day.  Returns that segment's index, or None."""
    assert type(stopped) is KeywordDay
    assert ([(segment_views(s), list(stopped.passed.get(n, {}).items()))
             for n, s in enumerate(day_views(stopped))]
            == [(segment_views(s), list(full.passed.get(n, {}).items()))
                for n, s in enumerate(day_views(full)[:len(stopped)])])
    first = _first_over(day_views(full), bidder, budget)
    assert len(stopped) == (len(full) if first is None else first + 1)
    return first


def test_stop_ends_the_day_after_the_budget_is_passed():
    # 1 pays 9/10 a query: 45 buys 50 queries, so 44 is passed in segment 1
    bidders = [("1", F(5), 1, F(45)), ("2", F(3), 1, F(37))]
    full = run_keyword_timeline(TWO, 100, bidders)
    assert len(full) == 2
    for budget, n in ((F(0), 1), (F(44), 1), (F(45), 2), (F(10**9), 2)):
        stopped = run_keyword_timeline(TWO, 100, bidders, stop=("1", budget))
        assert len(stopped) == n, budget
        _check_stop(full, stopped, "1", budget)
    # 2 never pays, and nobody is "9": both days run whole
    for who in ("2", "9"):
        stopped = run_keyword_timeline(TWO, 100, bidders, stop=(who, F(0)))
        assert day_views(stopped) == day_views(full)


def test_stop_cuts_subject_days_on_the_corpus():
    """On the hundred seeded markets, with and without schedules and
    reserves: each advertiser's table day on each of its keywords, stopped
    at budgets 0, its committed budget, a fractional share of its whole-day
    payment and that payment itself, and each rival's committed day stopped
    at a share of its pool."""
    seen = {"cut": 0, "whole": 0, "reserve": 0, "late": 0, "zero": 0,
            "fraction": 0, "free": 0, "unslotted": 0}
    for seed in range(100):
        rng = random.Random(seed)
        instance = random_instance(rng)
        profile = random_profile(rng, instance, schedule=seed % 2 == 1)
        reserve = rng.choice(RESERVE_GRID)
        for adv in instance.advertisers:
            tables = tables_for(instance, adv.id, profile, reserve=reserve)
            for kw in instance.keywords_of(adv.id):
                full = stopped_subject_day(instance, adv.id, kw, profile,
                                           reserve)
                if kw in tables:  # the day her table reads
                    assert day_views(tables[kw].segments) == day_views(full)
                total = _spend(day_views(full), adv.id)
                share = total * F(rng.randint(1, 9), 10) + F(1, 7)
                for budget in (F(0), profile.committed(adv.id, kw), share,
                               total):
                    stopped = stopped_subject_day(instance, adv.id, kw,
                                                  profile, reserve, budget)
                    first = _check_stop(full, stopped, adv.id, budget)
                    seen["cut"] += len(stopped) < len(full)
                    seen["whole"] += first is None
                    seen["zero"] += budget == 0
                    seen["fraction"] += budget.denominator > 1
                seen["reserve"] += reserve > 0
                seen["late"] += any(r.start_query > 1
                                    for r in profile.rows_on(kw))
                slots = [(slot, s.prices[adv.id]) for s in day_views(full)
                         for i, _, slot in s.ranking if i == adv.id]
                seen["free"] += any(slot and not p for slot, p in slots)
                seen["unslotted"] += any(slot is None for slot, _ in slots)
        for kw in instance.keywords:
            rows = profile.rows_on(kw.id)
            full = keyword_day(instance, kw.id, rows, reserve)
            assert day_views(stopped_day(instance, kw.id, rows, reserve,
                                         None)) == day_views(full)
            for r in rows:
                budget = r.budget * F(rng.randint(0, 4), 4)
                stopped = stopped_day(instance, kw.id, rows, reserve,
                                      (r.advertiser, budget))
                _check_stop(full, stopped, r.advertiser, budget)
    assert min(seen.values()) >= 20, seen


@st.composite
def _stopped_days(draw):
    k = draw(st.integers(1, 3))
    gamma = sorted(draw(st.lists(st.sampled_from(_GAMMA_POOL), min_size=k,
                                 max_size=k, unique=True)), reverse=True)
    volume = draw(st.integers(1, 40))
    n = draw(st.integers(0, 6))
    pools = st.none() | st.fractions(0, 60, max_denominator=7)
    bidders = [("a%d" % i, draw(st.sampled_from(_TIE_SCORES)),
                draw(st.integers(0, volume)), draw(pools)) for i in range(n)]
    reserve = draw(st.sampled_from([F(0), F(1, 2), F(2)]))
    who = "a%d" % draw(st.integers(0, n))  # a<n> is in no day
    budget = draw(st.fractions(0, 60, max_denominator=7))
    return SlotParams(tuple(gamma)), volume, bidders, reserve, who, budget


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_stopped_days())
def test_a_stopped_day_is_a_prefix_of_the_whole_day(day):
    slots, volume, bidders, reserve, who, budget = day
    full = run_keyword_timeline(slots, volume, bidders, reserve)
    stopped = run_keyword_timeline(slots, volume, bidders, reserve,
                                   (who, budget))
    _check_stop(full, stopped, who, budget)


# -- PartitionTable -----------------------------------------------------------

def table_for_1(budget_2="37"):
    # 1 against 2 (37) and 3 (40) on k1: 23/10 for 26 queries, 3/5 after
    rivals = build_split((("2", "k1", 100, budget_2), ("3", "k1", 100, "40")))
    return tables_for(small(), "1", rivals, keywords=["k1"])["k1"]


def test_table_breakpoints_costs_payoffs():
    t = table_for_1()
    assert t.breakpoints == (0, 26, 100)
    assert t.costs == (F(23, 10), F(3, 5))
    assert t.payoffs == (F(27, 10), F(22, 5))
    assert t.actives == (("1", "2", "3"), ("1", "3"))
    assert t.segment_count == 2
    assert [t.prefix_cost(z) for z in t.breakpoints] == [F(0), F(299, 5),
                                                         F(521, 5)]
    assert (t.D, t.int_cum_cost) == (10, (0, 598, 1042))


def test_table_cumulative_sums_match_its_own_segments():
    """A table's prefix sums at its breakpoints, as ``Fraction``s and as
    ints over its D, equal the ``Fraction`` sums of its own segments; each
    cost and payoff times D is an int; and a table rebuilt from the same
    breakpoints, costs, payoffs and active sets (over the lcm of their
    denominators) equals it and sums them alike, on 300 seeded markets
    with random rival schedules and reserves."""
    seen = 0
    for seed in range(300):
        rng = random.Random(seed)
        instance = random_instance(rng)
        others = random_profile(rng, instance, schedule=rng.random() < 0.5)
        subject = rng.choice(instance.advertisers).id
        reserve = rng.choice(RESERVE_GRID)
        for t in tables_for(instance, subject, others,
                            reserve=reserve).values():
            want = [(F(0), F(0))]
            for lam, (c, u) in enumerate(zip(t.costs, t.payoffs)):
                length = t.breakpoints[lam + 1] - t.breakpoints[lam]
                want.append((want[-1][0] + length * u,
                             want[-1][1] + length * c))
            assert [t.prefix(z) for z in t.breakpoints] == want, seed
            assert t.int_cum_payoff == tuple(u * t.D for u, _ in want)
            assert t.int_cum_cost == tuple(c * t.D for _, c in want)
            assert all((x * t.D).denominator == 1
                       for x in t.costs + t.payoffs), seed
            again = fraction_table(t.advertiser, t.keyword, t.volume,
                                   t.breakpoints, t.costs, t.payoffs,
                                   t.actives)
            assert again == t, (seed, t.keyword)
            for ours, theirs in ((again.int_cum_cost, t.int_cum_cost),
                                 (again.int_cum_payoff, t.int_cum_payoff)):
                assert [x * t.D for x in ours] == [
                    x * again.D for x in theirs], seed
            seen += t.segment_count > 1
    assert seen >= 100, seen


def test_prefix_evaluation_is_exact():
    t = table_for_1()
    assert t.prefix(0) == (F(0), F(0))
    assert t.prefix(26) == (F(351, 5), F(299, 5))
    assert t.prefix(27) == (F(373, 5), F(302, 5))
    assert t.prefix(100) == (F(1979, 5), F(521, 5))
    assert t.prefix_cost(51) == F(374, 5)
    assert t.prefix(51)[0] == F(901, 5)
    for bad in (-1, 101):
        with pytest.raises(ValueError):
            t.prefix(bad)


def test_max_affordable_boundaries():
    t = table_for_1()
    assert t.max_affordable(F(0)) == 0
    assert t.max_affordable(F(299, 5)) == 26          # exact segment edge
    assert t.max_affordable(F(299, 5) + F(59, 100)) == 26  # 0.59 < 0.6
    assert t.max_affordable(F(299, 5) + F(3, 5)) == 27
    assert t.max_affordable(F(10**9)) == 100          # clamps to volume
    with pytest.raises(ValueError):
        t.max_affordable(F(-1))


def test_segment_of_and_query_rates():
    t = table_for_1()
    assert [t.segment_of(q) for q in (1, 26, 27, 100)] == [0, 0, 1, 1]
    for bad in (0, 101):
        with pytest.raises(ValueError):
            t.segment_of(bad)
    assert [t.costs[t.segment_of(q)] for q in (26, 27)] == [F(23, 10), F(3, 5)]
    assert t.payoffs[t.segment_of(1)] == F(27, 10)
    assert t.rate(0) == F(27, 23) and t.rate(1) == F(22, 3)


def test_free_segments_rate_infinite():
    t = tables_for(small(), "3", natural(), keywords=["k1"])["k1"]
    assert t.breakpoints == (0, 19, 36, 100)
    assert t.costs == (F(0), F(0), F(0))
    assert t.payoffs == (F(0), F(7, 5), F(2))
    assert all(t.rate(lam) == INFINITE for lam in range(t.segment_count))
    assert t.max_affordable(F(0)) == 100
    assert t.prefix(100) == (F(759, 5), F(0))


def test_tables_for_skips_zero_budget_rivals():
    # a rival with nothing committed is priced out before the first query
    t = table_for_1(budget_2="0")
    assert t.actives == (("1", "3"),)
    assert t.costs == (F(3, 5),)


def test_tables_for_ignores_subjects_own_rows():
    early = build_schedule((("1", "k1", 19, "45", 1), ("2", "k1", 36, "37", 1),
                            ("3", "k1", 100, "10", 1),
                            ("3", "k2", 100, "30", 1),
                            ("4", "k2", 100, "20", 1)))
    a = tables_for(small(), "3", early, keywords=["k1"])["k1"]
    b = tables_for(small(), "3", natural(), keywords=["k1"])["k1"]
    assert a == b


def test_tables_for_honors_rival_start_queries():
    others = build_schedule((("1", "k1", 100, "45", 1),
                             ("2", "k1", 50, "37", 51)))
    t = tables_for(small(), "3", others, keywords=["k1"])["k1"]
    # 2's entry at query 51 forces a breakpoint; 3 is pushed out of the
    # slots while both rivals are live, then 1 exhausts
    assert t.breakpoints == (0, 50, 56, 100)
    assert t.payoffs == (F(7, 5), F(0), F(7, 5))
    assert t.actives[1] == ("1", "2", "3")


def test_tables_for_defaults_to_all_edges_of_subject():
    tables = tables_for(small(), "3", natural())
    assert sorted(tables) == ["k1", "k2"]


def _check_stopped_table(whole, stopped, budget):
    """A table of the day stopped at ``budget`` agrees with the whole-day
    table on what the budget buys and on every prefix, rate and segment up
    to its last breakpoint, past which it refuses.  Returns whether it
    ends early."""
    last = stopped.breakpoints[-1]
    assert stopped.breakpoints == whole.breakpoints[:len(stopped.breakpoints)]
    assert stopped.max_affordable(budget) == whole.max_affordable(budget)
    assert [stopped.prefix(l) for l in range(last + 1)] == [
        whole.prefix(l) for l in range(last + 1)]
    assert [stopped.segment_of(q) for q in range(1, last + 1)] == [
        whole.segment_of(q) for q in range(1, last + 1)]
    assert [stopped.rate(lam) for lam in range(stopped.segment_count)] == [
        whole.rate(lam) for lam in range(stopped.segment_count)]
    early = last < whole.volume
    if early:
        assert stopped.max_affordable(budget) < last
        for bad in (stopped.segment_of, stopped.prefix):
            with pytest.raises(ValueError):
                bad(last + 1)
    else:
        assert stopped == whole
    return early


def test_stopped_day_tables_agree_with_whole_day_tables_on_the_corpus():
    """On the hundred seeded markets, with and without schedules and
    reserves: each advertiser's table on each keyword she is not priced
    out of, built from her day stopped at budgets 0, her committed budget
    and a fractional share of her whole-day payment, against her
    whole-day table."""
    seen = {"early": 0, "whole": 0, "free": 0, "reserve": 0}
    for seed in range(100):
        rng = random.Random(seed)
        instance = random_instance(rng)
        profile = random_profile(rng, instance, schedule=seed % 2 == 1)
        reserve = rng.choice(RESERVE_GRID)
        for adv in instance.advertisers:
            tables = tables_for(instance, adv.id, profile, reserve=reserve)
            for kw, whole in tables.items():
                total = whole.prefix_cost(whole.volume)
                for budget in (F(0), profile.committed(adv.id, kw),
                               total * F(rng.randint(1, 9), 10) + F(1, 7)):
                    stopped = PartitionTable(
                        adv.id, kw, instance.volume(kw),
                        stopped_subject_day(instance, adv.id, kw, profile,
                                            reserve, budget))
                    early = _check_stopped_table(whole, stopped, budget)
                    seen["early" if early else "whole"] += 1
                    seen["free"] += INFINITE in map(
                        stopped.rate, range(stopped.segment_count))
                    seen["reserve"] += reserve > 0
    assert min(seen.values()) >= 50, seen


@st.composite
def _subject_days(draw):
    """A stopped-day draw with a subject "s" present from query 1 with an
    unlimited pool, at a score the reserve lets in."""
    slots, volume, bidders, reserve, _, budget = draw(_stopped_days())
    score = draw(st.sampled_from([s for s in _TIE_SCORES if s >= reserve]))
    return slots, volume, [("s", score, 1, None)] + bidders, reserve, budget


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_subject_days())
def test_a_stopped_day_table_agrees_with_the_whole_day_table(day):
    slots, volume, bidders, reserve, budget = day
    whole = PartitionTable("s", "k", volume, run_keyword_timeline(
        slots, volume, bidders, reserve))
    stopped = PartitionTable("s", "k", volume, run_keyword_timeline(
        slots, volume, bidders, reserve, ("s", budget)))
    _check_stopped_table(whole, stopped, budget)


# -- the natural day, whole ---------------------------------------------------

def test_global_partition_of_the_natural_day():
    day = simulate_day(small(), natural())
    k1, k2 = day_views(day.segments["k1"]), day_views(day.segments["k2"])
    assert [(s.lo, s.hi, s.active) for s in k1] == [
        (1, 50, ("1", "2")), (51, 100, ("2",))]
    assert [(s.lo, s.hi, s.active) for s in k2] == [(1, 100, ("3", "4"))]
    assert day.spend == {"1": F(45), "2": F(0), "3": F(30), "4": F(0)}
    assert day.leftover == {"1": F(0), "2": F(37), "3": F(10), "4": F(20)}
    info = excess_budgets(small(), day)
    assert {i: rec["top_score"] for i, rec in info.items()} == {
        "1": F(5), "2": F(3), "3": F(3, 2), "4": F(1)}
    holders = {kw: frozenset(e.advertiser for e in small().base_edges()
                             if e.keyword == kw and info[e.advertiser]["excess"])
               for kw in ("k1", "k2")}
    assert holders == {"k1": frozenset({"2"}), "k2": frozenset({"3", "4"})}
    assert k1[-1].active == ("2",)
    assert [0] + [s.hi for s in k1] == [0, 50, 100]


# -- excess holders of the natural day ----------------------------------------

def test_top_score_counts_base_edges_only():
    info = excess_budgets(small(),
                          simulate_day(small().base_instance(), natural()))
    # 3 holds a score-2 extension edge on k1, but her base score stays 3/2
    assert {i: rec["top_score"] for i, rec in info.items()} == {
        "1": F(5), "2": F(3), "3": F(3, 2), "4": F(1)}
    assert {i: rec["excess"] for i, rec in info.items()} == {
        "1": False, "2": True, "3": True, "4": True}
    # so k1's excess holders are its base holders with excess: 2 alone
    assert {e.advertiser for e in small().base_edges()
            if e.keyword == "k1" and info[e.advertiser]["excess"]} == {"2"}
