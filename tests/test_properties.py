"""Seeded random corpus: cross-checks between independent implementations.

Each property runs over one hundred seeded markets (small enough for the
exhaustive oracle), so a failure message always carries the seed to replay.
"""

import random
from fractions import Fraction as F

from broadmatch import acbm
from broadmatch.acbm import allocate_excess
from broadmatch.auction import price_query
from broadmatch.bestresp import (_unstable, _walk, brute_force_oracle,
                                 exact_best_response_dp, fptas_as2,
                                 greedy_local_best_response)
from broadmatch.equilibrium import natural_base_day, verify_bme
from broadmatch.model import Allocation, Profile, all_in_profile
from broadmatch.partition import tables_for
from broadmatch.simulate import simulate_day
from conftest import (GAMMA_GRID, RESERVE_GRID, SCORE_GRID,
                      assert_day_matches_naive, naive_day, random_extension_pair,
                      random_instance, random_profile, revenue_identity_check)

SEEDS = range(100)


def _subject(rng, instance):
    adv = rng.choice(instance.advertisers).id
    return adv, all_in_profile(instance, skip=(adv,))


def test_exact_solver_matches_the_exhaustive_oracle():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        adv, others = _subject(rng, instance)
        reserve = rng.choice(RESERVE_GRID)
        exact = exact_best_response_dp(instance, adv, others, reserve=reserve)
        oracle = brute_force_oracle(instance, adv, others, reserve=reserve)
        assert exact.payoff == oracle.payoff, (seed, exact.meta)
        assert exact.cost <= instance.budget(adv), seed


def test_approximation_meets_its_guarantee():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        adv, others = _subject(rng, instance)
        exact = exact_best_response_dp(instance, adv, others)
        for eps in (F(1, 2), F(1, 4), F(1, 10)):
            approx = fptas_as2(instance, adv, others, eps)
            assert approx.payoff >= (1 - eps) * exact.payoff, (seed, eps)
            assert approx.payoff <= exact.payoff, (seed, eps)


def test_greedy_split_is_stable_for_its_author():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        adv, others = _subject(rng, instance)
        reserve = rng.choice(RESERVE_GRID)
        resp = greedy_local_best_response(instance, adv, others,
                                          reserve=reserve)
        spliced = Profile(others.rows + resp.profile().rows, "split")
        report = verify_bme(instance, spliced, reserve=reserve)
        mine = [v for v in report["e1_violations"] + report["e2_violations"]
                if v["advertiser"] == adv]
        assert mine == [], (seed, mine)


def test_greedy_phases_leave_at_most_one_loose_end():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        adv, others = _subject(rng, instance)
        states = _walk(tables_for(instance, adv, others),
                       instance.budget(adv))
        unstable = [s.kw for s in _unstable(states)]
        assert len(unstable) <= 1, (seed, unstable)


def test_engine_agrees_with_per_query_simulation():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        profile = random_profile(rng, instance,
                                 schedule=rng.random() < 1 / 2)
        reserve = rng.choice(RESERVE_GRID)
        day = simulate_day(instance, profile, reserve)
        assert_day_matches_naive(instance, day,
                                 naive_day(instance, profile, reserve))


def test_revenue_is_the_sum_of_spends():
    for seed in SEEDS:
        rng = random.Random(seed)
        instance = random_instance(rng)
        profile = random_profile(rng, instance,
                                 schedule=rng.random() < 1 / 2)
        day = simulate_day(instance, profile, rng.choice(RESERVE_GRID))
        assert day.revenue == sum(day.spend.values(), F(0)), seed


def test_excess_scheduling_never_loses_revenue():
    for seed in SEEDS:
        rng = random.Random(seed)
        base, ext = random_extension_pair(rng)
        profile, day = natural_base_day(base)
        res = allocate_excess(base, ext, profile, day,
                              fine=rng.random() < 1 / 2)
        assert res["delta"] >= 0, (seed, res["moves"])
        assert res["final_revenue"] == res["initial_revenue"] + res["delta"]


def test_acbm_probes_agree_with_per_query_simulation():
    """The scheduler's probe path against ``naive_day``: every new edge of a
    keyword enters at a random start query with a random budget, alongside
    a random profile's base rows there.  ``_probe`` must give each
    entrant's per-query spend, and the keyword's per-query revenue with
    the entrants pinned to those spends."""
    seen = {"paid": 0, "pair": 0, "late": 0}
    for seed in SEEDS:
        rng = random.Random(seed)
        base, ext = random_extension_pair(rng)
        rows = random_profile(rng, base, schedule=rng.random() < 1 / 2).rows
        reserve = rng.choice(RESERVE_GRID)
        new_on = {}
        for e in ext.extension_edges():
            new_on.setdefault(e.keyword, []).append(e.advertiser)
        for kw, advs in new_on.items():
            on_kw = tuple(r for r in rows if r.keyword == kw)
            entrants = tuple(
                Allocation(i, kw, 0, F(rng.randint(0, 60), rng.choice([1, 2])),
                           rng.randint(1, ext.volume(kw))) for i in advs)
            profile = Profile(on_kw + entrants, "schedule")
            ref = naive_day(ext, profile, reserve)
            revenue, payments, _ = acbm._probe(ext, on_kw, kw, entrants,
                                               reserve)
            pinned = tuple(Allocation(e.advertiser, kw, 0, paid, e.start_query)
                           for e, paid in zip(entrants, payments))
            committed = Profile(on_kw + pinned, "schedule")
            assert revenue == naive_day(ext, committed,
                                        reserve)["keyword_revenue"][kw], seed
            for entrant, paid in zip(entrants, payments):
                assert paid == ref["spend"][entrant.advertiser], seed
                seen["paid"] += paid > 0
                seen["late"] += paid > 0 and entrant.start_query > 1
            seen["pair"] += len(entrants) > 1
    assert min(seen.values()) >= 5, seen


def test_price_telescoping_identity_on_a_thousand_slates():
    rng = random.Random(8128)
    for trial in range(1000):
        slots = rng.randint(1, 4)
        gamma = tuple(GAMMA_GRID[:slots])
        from broadmatch.model import SlotParams
        bidders = [("b%d" % i, rng.choice(SCORE_GRID))
                   for i in range(rng.randint(0, 6))]
        reserve = rng.choice(RESERVE_GRID)
        slate = price_query(bidders, SlotParams(gamma), reserve)
        assert revenue_identity_check(slate) == slate.revenue, trial
