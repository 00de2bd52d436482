"""Stability checks, eps Nash certification, dynamics, revenue dilemmas."""

import random
from fractions import Fraction as F

import pytest

from broadmatch.equilibrium import (best_response_dynamics, dilemma_report,
                                    initial_profile, marginal_payoffs,
                                    natural_base_split, verify_bme,
                                    verify_eps_ne)
from broadmatch.model import Allocation, Profile, load_instance, load_split
from broadmatch.partition import INFINITE, subject_day
from broadmatch.simulate import simulate_day
from conftest import (FIXTURES, RESERVE_GRID, build_instance, build_schedule,
                      random_instance, random_profile, reference_marginals)


def inst(name):
    return load_instance((FIXTURES / name).read_text())


def split(name):
    return load_split((FIXTURES / name).read_text())


FAMILY = "three-keyword-family.json"
SHIFTED = "three-keyword-family-shifted.split.json"
STAYHOME = "three-keyword-family-stayhome.split.json"


# -- marginal payoffs ---------------------------------------------------------

def test_marginal_rates_under_the_shifted_split():
    fam, sh = inst(FAMILY), split(SHIFTED)
    mp2 = marginal_payoffs(fam, "2", sh)
    assert mp2["k3"]["queries"] == 14 and mp2["k3"]["mp_minus"] == F(14, 3)
    assert mp2["k3"]["mp_plus"] is None            # stream exhausted
    assert mp2["k1"]["queries"] == 0 and mp2["k1"]["mp_minus"] is None
    assert mp2["k1"]["mp_plus"] == F(1, 2)
    mp5 = marginal_payoffs(fam, "5", sh)
    assert mp5["k2"]["mp_minus"] == F(5, 3)
    assert mp5["k3"]["mp_plus"] == F(1, 2)


def test_free_queries_count_as_already_bought():
    ext = inst("two-keyword-entry-ext.json")
    nat = split("two-keyword-entry-natural.split.json")
    mp = marginal_payoffs(ext, "3", nat)
    # 3 pays nothing on k1 under this profile, so with zero committed she
    # still "buys" the whole stream; there is no next query to move into
    assert mp["k1"]["queries"] == 100
    assert mp["k1"]["cost"] == 0 and mp["k1"]["payoff"] == F(759, 5)
    assert mp["k1"]["mp_minus"] == INFINITE and mp["k1"]["mp_plus"] is None


def _records(mp):
    return [(kw, list(rec.items())) for kw, rec in mp.items()]


def test_marginal_payoffs_match_the_table_reference_on_the_corpus():
    """Field for field, key order included, against the whole-day table
    reading (``conftest.reference_marginals``) for every advertiser of the
    hundred seeded markets, under splits and schedules, with reserves."""
    seen = {"none_bought": 0, "all_bought": 0, "next": 0, "free": 0,
            "omitted": 0, "schedule": 0, "reserve": 0}
    for seed in range(100):
        rng = random.Random(seed)
        instance = random_instance(rng)
        for schedule in (False, True):
            profile = random_profile(rng, instance, schedule)
            reserve = rng.choice(RESERVE_GRID)
            for adv in instance.advertisers:
                got = marginal_payoffs(instance, adv.id, profile, reserve)
                assert _records(got) == _records(reference_marginals(
                    instance, adv.id, profile, reserve)), (seed, adv.id)
                seen["omitted"] += len(got) < len(instance.keywords_of(adv.id))
                for rec in got.values():
                    seen["none_bought"] += rec["queries"] == 0
                    seen["all_bought"] += rec["mp_plus"] is None
                    seen["next"] += rec["mp_plus"] is not None
                    seen["free"] += INFINITE in (rec["mp_minus"],
                                                 rec["mp_plus"])
                    seen["schedule"] += schedule
                    seen["reserve"] += reserve > 0
    assert min(seen.values()) >= 20, seen


def test_next_query_on_a_segment_boundary():
    # two slots; s pays 3/2 while r (pool 2) lasts, queries 1..4, then 1/2
    # until x enters at query 8: her 6 buys exactly the first segment
    market = build_instance(
        ("1", "1/2"), (("k", 10),),
        (("s", "6"), ("r", "2"), ("q", "100"), ("x", "100")),
        (("s", "k", "3", "base"), ("r", "k", "2", "base"),
         ("q", "k", "1", "base"), ("x", "k", "1/2", "base")))
    profile = build_schedule((("s", "k", 4, "6", 1), ("r", "k", 4, "2", 1),
                              ("q", "k", 10, "100", 1),
                              ("x", "k", 3, "100", 8)))
    mp = marginal_payoffs(market, "s", profile)
    assert mp == reference_marginals(market, "s", profile)
    assert mp["k"] == {"budget": F(6), "queries": 4, "cost": F(6),
                       "payoff": F(6), "mp_minus": F(1), "mp_plus": F(5),
                       "next_cost": F(1, 2)}
    # the day stops after the segment holding query 5, before x enters
    whole = subject_day(market, "s", "k", profile)
    stopped = subject_day(market, "s", "k", profile, budget=F(6))
    assert [(g.lo, g.hi) for g in whole] == [(1, 4), (5, 7), (8, 10)]
    assert stopped == whole[:2]


def test_zero_budget_buys_the_free_opening():
    # one slot; s is alone, so free, until r enters at query 4, and is
    # pushed out of the slot when y enters at query 7
    market = build_instance(
        ("1",), (("k", 10), ("h", 10)),
        (("s", "5"), ("r", "100"), ("y", "100")),
        (("s", "k", "2", "base"), ("s", "h", "1", "base"),
         ("r", "k", "1", "base"), ("y", "k", "3", "base")))
    profile = build_schedule((("s", "h", 10, "5", 1),
                              ("r", "k", 7, "100", 4),
                              ("y", "k", 4, "100", 7)))
    mp = marginal_payoffs(market, "s", profile)
    assert mp == reference_marginals(market, "s", profile)
    assert mp["k"] == {"budget": F(0), "queries": 3, "cost": F(0),
                       "payoff": F(6), "mp_minus": INFINITE, "mp_plus": F(1),
                       "next_cost": F(1)}
    whole = subject_day(market, "s", "k", profile)
    assert [(g.lo, g.hi) for g in whole] == [(1, 3), (4, 6), (7, 10)]
    assert subject_day(market, "s", "k", profile, budget=F(0)) == whole[:2]


# -- local stability ----------------------------------------------------------

def test_both_family_splits_are_locally_stable():
    fam = inst(FAMILY)
    for name in (SHIFTED, STAYHOME):
        rep = verify_bme(fam, split(name))
        assert rep["ok"], name
        assert rep["e1_violations"] == [] and rep["e2_violations"] == []
        assert set(rep["marginals"]) == {"1", "2", "3", "4", "5", "6"}


def test_condition_one_violation_is_reported_with_rates():
    rep = verify_bme(inst("agreeing-methods.json"),
                     split("agreeing-methods-allk2.split.json"))
    assert not rep["ok"]
    assert {"advertiser": "1", "into": "k1", "outof": "k2",
            "mp_plus": F(21, 5), "mp_minus": F(4)} in rep["e1_violations"]


def test_condition_one_violation_on_the_shift_pair():
    rep = verify_bme(inst("edge-shift-ext.json"),
                     split("edge-shift-noshift.split.json"))
    assert rep["e1_violations"] == [{
        "advertiser": "3", "into": "k1", "outof": "k2",
        "mp_plus": F(107, 18), "mp_minus": F(17, 3)}]


def test_condition_two_catches_unparked_wallet_money():
    tw = inst("two-keyword-entry-base.json")
    p = Profile((Allocation("1", "k1", 19, F(20)),
                 Allocation("2", "k1", 100, F(37)),
                 Allocation("3", "k2", 100, F(40)),
                 Allocation("4", "k2", 100, F(20))))
    rep = verify_bme(tw, p)
    assert not rep["ok"] and rep["e1_violations"] == []
    assert rep["e2_violations"] == [{
        "advertiser": "1", "keyword": "k1", "available": F(126, 5),
        "next_cost": F(9, 10), "committed_total": F(20), "budget": F(45)}]


def test_saturated_streams_excuse_leftover_money():
    # the natural split parks everything; saturated or free streams leave
    # nothing to flag even on the broadened graph
    ext = inst("two-keyword-entry-ext.json")
    nat = split("two-keyword-entry-natural.split.json")
    assert verify_bme(ext, nat)["ok"]
    assert verify_bme(ext.base_instance(), nat)["ok"]


# -- eps Nash certification ---------------------------------------------------

def test_exact_verdicts_on_the_family_splits():
    fam = inst(FAMILY)
    sh, st = split(SHIFTED), split(STAYHOME)
    assert verify_eps_ne(fam, sh, F(3, 10))["ok"] is True
    rep = verify_eps_ne(fam, sh, F(3, 20))
    assert rep["ok"] is False
    five = rep["per_advertiser"]["5"]
    assert five["status"] == "violated"
    assert five["payoff"] == F(14) and five["optimum"] == F(189, 10)
    assert five["deviation"] == {"k2": 0, "k3": 10}
    # the quieter split is an exact equilibrium: eps 0 certifies
    assert verify_eps_ne(fam, st, F(0))["ok"] is True


def test_bracketing_method_can_be_inconclusive():
    fam, sh = inst(FAMILY), split(SHIFTED)
    rep = verify_eps_ne(fam, sh, F(3, 10), method="fptas")
    assert rep["ok"] is None
    assert rep["per_advertiser"]["5"]["status"] == "inconclusive"
    assert all(d["status"] == "certified"
               for i, d in rep["per_advertiser"].items() if i != "5")
    assert "upper" in rep["per_advertiser"]["5"]


def test_eps_ne_argument_validation():
    fam, sh = inst(FAMILY), split(SHIFTED)
    with pytest.raises(ValueError):
        verify_eps_ne(fam, sh, F(-1, 10))
    with pytest.raises(ValueError):
        verify_eps_ne(fam, sh, F(1, 10), method="annealing")
    with pytest.raises(ValueError):
        verify_eps_ne(fam, sh, F(0), method="fptas")
    # from eps 1 up the bound (1 - eps) * optimum passes every profile
    for method in ("dp", "fptas"):
        with pytest.raises(ValueError):
            verify_eps_ne(fam, sh, F(1), method=method)
        assert verify_eps_ne(fam, sh, F(99, 100), method=method)["ok"] is True


# -- dynamics -----------------------------------------------------------------

def test_dynamics_reach_a_fixed_point_on_disjoint_keywords():
    base = inst("two-keyword-entry-base.json")
    for method in ("greedy", "dp"):
        res = best_response_dynamics(base, method=method)
        assert res["status"] == "fixed-point" and res["rounds"] == 2
        assert simulate_day(base, res["profile"]).revenue == F(75)


def test_dynamics_can_cycle():
    res = best_response_dynamics(inst("agreeing-methods.json"), method="dp")
    assert res["status"] == "cycle"
    assert res["rounds"] == 3 and res["cycle_length"] == 2


def test_dynamics_round_cap():
    res = best_response_dynamics(inst("agreeing-methods.json"), method="dp",
                                 max_rounds=1)
    assert res["status"] == "max-rounds" and res["rounds"] == 1


def test_seeded_shuffle_is_deterministic():
    am = inst("agreeing-methods.json")
    a = best_response_dynamics(am, method="greedy", shuffle_seed=7)
    b = best_response_dynamics(am, method="greedy", shuffle_seed=7)
    assert a["profile"] == b["profile"]
    assert a["status"] == "fixed-point" and a["rounds"] == 3


def test_dynamics_rejects_unknown_knobs():
    am = inst("agreeing-methods.json")
    with pytest.raises(ValueError):
        best_response_dynamics(am, method="magic")


def test_initial_profiles():
    fam = inst(FAMILY)
    top = initial_profile(fam)
    assert top.row("2", "k3").budget == F(42, 5)     # 17/5 beats 3 on k1
    assert top.row("4", "k1").budget == F(1)
    assert top.row("5", "k2").budget == F(42, 5)


# -- natural split and dilemmas ----------------------------------------------

def test_natural_base_split_matches_the_stored_profile():
    ext = inst("two-keyword-entry-ext.json")
    assert natural_base_split(ext) == split("two-keyword-entry-natural.split.json")


def test_natural_base_split_requires_unique_base_keywords():
    two_base = build_instance(
        ("1", "7/10"), (("k1", 10), ("k2", 10)), (("a", "5"), ("b", "5")),
        (("a", "k1", "2", "base"), ("a", "k2", "1", "base"),
         ("b", "k1", "1", "base")))
    with pytest.raises(ValueError, match="ambiguous"):
        natural_base_split(two_base)


def test_family_dilemma_report_small_scale():
    fam = inst(FAMILY)
    rep = dilemma_report(fam.base_instance(), fam,
                         [split(SHIFTED), split(STAYHOME)])
    assert rep["ok"] is True
    assert rep["base_revenue"] == F(273, 10)
    assert [(p["stable"], p["revenue"], p["delta"]) for p in rep["profiles"]] \
        == [(True, F(459, 10), F(93, 5)), (True, F(417, 10), F(72, 5))]
    # at this volume both stable outcomes gain: no dilemma yet
    assert rep["dilemma"] is False


def test_shift_pair_dilemma_report():
    rep = dilemma_report(inst("edge-shift-base.json"),
                         inst("edge-shift-ext.json"),
                         [split("edge-shift-shift.split.json"),
                          split("edge-shift-noshift.split.json")])
    assert rep["ok"] is False                        # second profile unstable
    assert rep["base_revenue"] == F(18)
    shift, noshift = rep["profiles"]
    assert shift["stable"] and shift["delta"] == F(12, 5)
    assert not noshift["stable"]
    assert rep["dilemma"] is False
