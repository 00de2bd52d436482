"""Acceptance gate: one check per stated criterion, exact equality throughout.

A ``criterion N: PASS``/``FAIL`` line per test is printed in the terminal
summary at the end of the run (see ``pytest_terminal_summary`` in conftest).
"""

import time
from fractions import Fraction as F

from broadmatch.bestresp import (ScaleError, brute_force_oracle,
                                 exact_best_response_dp, fptas_as2,
                                 greedy_local_best_response)
from broadmatch.equilibrium import (dilemma_report, natural_base_day,
                                    verify_bme, verify_eps_ne)
from broadmatch.model import (Instance, Keyword, all_in_profile, load_instance,
                              load_schedule, load_split)
from broadmatch.partition import tables_for
from broadmatch.simulate import simulate_day
from conftest import FIXTURES, build_instance, tri_keyword

import test_properties


def inst(name):
    return load_instance((FIXTURES / name).read_text())


def split(name):
    return load_split((FIXTURES / name).read_text())


def sched(name):
    return load_schedule((FIXTURES / name).read_text())


def test_criterion_1():
    # the two-keyword market: one broadened stream, three entry timings
    base = inst("two-keyword-entry-base.json")
    ext = inst("two-keyword-entry-ext.json")
    day0 = simulate_day(base, split("two-keyword-entry-natural.split.json"))
    assert day0.keyword_revenue["k1"] == F(45)
    assert day0.keyword_welfare["k1"] == F(505)
    assert (day0.revenue, day0.welfare) == (F(75), F(725))

    def k1(name):
        day = simulate_day(ext, sched("two-keyword-entry-%s.schedule.json"
                                      % name))
        return day.keyword_revenue["k1"], day.keyword_welfare["k1"]

    r_a, e_a = k1("early")
    r_b, e_b = k1("late")
    r_c, e_c = k1("tuned")
    assert (r_a, e_a) == (F(161, 2), F(3377, 10))
    assert (r_b, e_b) == (F(75), F(575))
    assert (r_c, e_c) == (F(807, 10), F(3527, 10))
    assert day0.keyword_revenue["k1"] < r_b < r_a
    assert e_a < day0.keyword_welfare["k1"] < e_b


def test_criterion_2():
    # single broadening edge: the advertiser-chosen shift loses revenue,
    # the scheduled late entry gains (stream volumes 992 and 500)
    base = inst("single-extension-base.json")
    ext = inst("single-extension-ext.json")
    assert [k.volume for k in base.keywords] == [992, 500]
    r0 = simulate_day(base, natural_base_day(base)[0]).revenue
    r_shift = simulate_day(
        ext, split("single-extension-advshift.split.json")).revenue
    r_entry = simulate_day(
        ext, sched("single-extension-entry.schedule.json")).revenue
    assert r0 == F(5964, 5)
    assert r_shift == F(4972, 5) < r0
    assert r_entry == F(6412, 5) > r0
    entry_row = [r for r in sched("single-extension-entry.schedule.json").rows
                 if r.advertiser == "3" and r.keyword == "k1"]
    assert [r.start_query for r in entry_row] == [961]


def test_criterion_3():
    # the three-keyword family: two stable splits, opposite revenue effects
    fam = inst("three-keyword-family.json")
    shifted = split("three-keyword-family-shifted.split.json")
    stayhome = split("three-keyword-family-stayhome.split.json")
    assert verify_bme(fam, shifted)["ok"]
    assert verify_bme(fam, stayhome)["ok"]

    marginals = verify_bme(fam, shifted)["marginals"]
    mp2 = marginals.get("2", {})
    mp5 = marginals.get("5", {})
    assert mp2["k1"]["mp_plus"] == F(1, 2)
    assert mp2["k3"]["mp_minus"] == F(14, 3)
    assert mp5["k2"]["mp_minus"] == F(5, 3)
    assert mp5["k3"]["mp_plus"] == F(1, 2)

    small = dilemma_report(fam.base_instance(), fam, [shifted, stayhome])
    assert small["ok"] and small["base_revenue"] == F(273, 10)
    assert [(p["revenue"], p["delta"]) for p in small["profiles"]] == \
        [(F(459, 10), F(93, 5)), (F(417, 10), F(72, 5))]
    assert verify_eps_ne(fam, stayhome, F(0), method="dp")["ok"] is True

    large = inst("three-keyword-family-large.json")
    lshift = split("three-keyword-family-large-shifted.split.json")
    lstay = split("three-keyword-family-large-stayhome.split.json")
    assert verify_eps_ne(large, lshift, F(3, 20), method="dp")["ok"] is True
    assert verify_eps_ne(large, lshift, F(1, 20), method="dp")["ok"] is False
    rep = dilemma_report(large.base_instance(), large, [lshift, lstay])
    assert rep["ok"] and rep["base_revenue"] == F(3885)
    assert [(p["stable"], p["delta"]) for p in rep["profiles"]] == \
        [(True, F(90)), (True, F(-120))]
    assert rep["dilemma"] is True


def test_criterion_4():
    # the greedy walk stops one step short of the exact optimum
    instance = inst("greedy-vs-exact.json")
    others = all_in_profile(instance, skip=("1",))
    greedy = greedy_local_best_response(instance, "1", others)
    exact = exact_best_response_dp(instance, "1", others)
    assert greedy.payoff == F(36)
    assert exact.payoff == F(75, 2)
    assert greedy.payoff < exact.payoff


def test_criterion_5():
    # all three solvers agree, and the all-on-one-keyword split is rejected
    instance = inst("agreeing-methods.json")
    others = all_in_profile(instance, skip=("1",))
    payoffs = {m.payoff for m in (
        greedy_local_best_response(instance, "1", others),
        exact_best_response_dp(instance, "1", others),
        brute_force_oracle(instance, "1", others))}
    assert payoffs == {F(268, 5)}
    rep = verify_bme(instance, split("agreeing-methods-allk2.split.json"))
    assert rep["ok"] is False
    assert {"advertiser": "1", "into": "k1", "outof": "k2",
            "mp_plus": F(21, 5), "mp_minus": F(4)} in rep["e1_violations"]


def test_criterion_6():
    # the hundred-seed random corpus, all eight cross-checks
    test_properties.test_exact_solver_matches_the_exhaustive_oracle()
    test_properties.test_approximation_meets_its_guarantee()
    test_properties.test_greedy_split_is_stable_for_its_author()
    test_properties.test_greedy_phases_leave_at_most_one_loose_end()
    test_properties.test_engine_agrees_with_per_query_simulation()
    test_properties.test_revenue_is_the_sum_of_spends()
    test_properties.test_excess_scheduling_never_loses_revenue()
    test_properties.test_price_telescoping_identity_on_a_thousand_slates()


def _scaled(instance, factor):
    return Instance(instance.slots,
                    tuple(Keyword(k.id, k.volume * factor)
                          for k in instance.keywords),
                    instance.advertisers, instance.edges)


def _best_of(fn, reps=7):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_7():
    # a million-fold volume increase must not slow the event-driven paths;
    # the exact dp refuses honestly and the approximation scheme takes over
    started = time.perf_counter()
    base = inst("two-keyword-entry-base.json")
    big = _scaled(base, 10 ** 6)
    nat = natural_base_day(base)[0]
    others = all_in_profile(base, skip=("1",))
    pairs = [
        (lambda i=base: simulate_day(i, nat),
         lambda i=big: simulate_day(i, nat)),
        (lambda i=base: tables_for(i, "1", others),
         lambda i=big: tables_for(i, "1", others)),
        (lambda i=base: fptas_as2(i, "1", others, F(1, 4)),
         lambda i=big: fptas_as2(i, "1", others, F(1, 4))),
    ]
    for small_fn, big_fn in pairs:
        assert _best_of(big_fn) < 2 * _best_of(small_fn)
    assert (fptas_as2(big, "1", others, F(1, 4)).payoff
            == fptas_as2(base, "1", others, F(1, 4)).payoff)

    small3 = tri_keyword(10)
    big3 = tri_keyword(10 ** 7)
    r = exact_best_response_dp(small3, "s", all_in_profile(small3, skip=("s",)))
    assert r.payoff == F(75)
    try:
        exact_best_response_dp(big3, "s", all_in_profile(big3, skip=("s",)))
        raise AssertionError("expected the dp to refuse at this scale")
    except ScaleError:
        pass
    approx = fptas_as2(big3, "s", all_in_profile(big3, skip=("s",)), F(1, 10))
    assert approx.payoff > 0
    assert time.perf_counter() - started < 60
