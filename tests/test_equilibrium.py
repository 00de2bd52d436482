"""Stability checks, eps Nash certification, dynamics, revenue dilemmas."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broadmatch import bestresp
from broadmatch.equilibrium import (best_response_dynamics, dilemma_report,
                                    initial_profile, natural_base_day,
                                    verify_bme, verify_eps_ne)
from broadmatch.model import (Advertiser, Allocation, Edge, Instance, Keyword,
                              Profile, SlotParams, all_in_profile,
                              load_instance, load_split)
from broadmatch.partition import (INFINITE, keyword_day, keyword_marginals,
                                  tables_for)
from broadmatch.simulate import simulate_day
from conftest import (FIXTURES, GAMMA_GRID, RESERVE_GRID, SCORE_GRID,
                      build_instance, build_schedule, day_views,
                      random_instance, random_profile, reference_marginals,
                      stopped_subject_day)


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
    marginals = verify_bme(fam, sh)["marginals"]
    mp2 = marginals.get("2", {})
    assert mp2["k3"]["queries"] == 14 and mp2["k3"]["mp_minus"] == F(14, 3)
    assert mp2["k3"]["mp_plus"] is None            # stream exhausted
    assert mp2["k1"]["queries"] == 0 and mp2["k1"]["mp_minus"] is None
    assert mp2["k1"]["mp_plus"] == F(1, 2)
    mp5 = marginals.get("5", {})
    assert mp5["k2"]["mp_minus"] == F(5, 3)
    assert mp5["k3"]["mp_plus"] == F(1, 2)


def test_free_queries_count_as_already_bought():
    ext = inst("two-keyword-entry-ext.json")
    nat = split("two-keyword-entry-natural.split.json")
    mp = verify_bme(ext, nat)["marginals"].get("3", {})
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
    hundred seeded markets, under splits and schedules, with reserves; and
    each of the three ways ``partition.keyword_marginals`` reads a subject
    is taken."""
    seen = {"none_bought": 0, "all_bought": 0, "next": 0, "free": 0,
            "omitted": 0, "schedule": 0, "reserve": 0}
    cases = dict.fromkeys(("exhausted", "quiet", "tail"), 0)
    for seed in range(100):
        rng = random.Random(seed)
        instance = random_instance(rng)
        for schedule in (False, True):
            profile = random_profile(rng, instance, schedule)
            reserve = rng.choice(RESERVE_GRID)
            marginals = verify_bme(instance, profile, reserve)["marginals"]
            for adv in instance.advertisers:
                got = marginals.get(adv.id, {})
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
            for kw in instance.keywords:
                subjects = [i for i in instance.advertisers_on(kw.id)
                            if instance.score(i, kw.id) >= reserve]
                for m in keyword_marginals(instance, kw.id, profile,
                                           subjects, reserve).values():
                    cases[m.case] += 1
    assert min(seen.values()) >= 20, seen
    assert min(cases.values()) >= 5, cases


def test_the_own_day_can_drop_a_subject_too_early():
    # two slots, everyone all-in on k.  In the own day the settle at query
    # 1 drops 4 from a slate that asks 5/2 of advertiser 0, then drops 0,
    # tied on score with 1 and first of the two by id, from a slate asking
    # 9/2 of her 4.  Unlimited, she leaves 1 to be dropped there instead,
    # and on the slate after that her price is 3, which her 4 buys once
    market = build_instance(
        ("1", "1/2"), (("k", 9),),
        (("0", "4"), ("1", "1"), ("2", "12"), ("3", "10"), ("4", "4")),
        (("0", "k", "5", "base"), ("1", "k", "5", "base"),
         ("2", "k", "2", "base"), ("3", "k", "4", "base"),
         ("4", "k", "6", "base")))
    profile = all_in_profile(market)
    own = keyword_day(market, "k", profile.rows_on("k"))
    assert [(g.lo, g.hi, g.active) for g in day_views(own)] == [
        (1, 9, ("3", "2"))]
    assert own.passed.get(0, {})["0"] == 5  # 5/2 in units of 1/D
    assert own.D == 2
    found = keyword_marginals(market, "k", profile, list("01234"), F(0))
    assert found["0"].case == "tail" and found["0"].queries == 1
    # the same rows starting at query 0, which a day reads as query 1
    at_zero = Profile(tuple(Allocation(r.advertiser, "k", 0, r.budget, 0)
                            for r in profile.rows), "schedule")
    for rows in (profile, at_zero):
        marginals = verify_bme(market, rows)["marginals"]
        for i in "01234":
            want = reference_marginals(market, i, rows)
            assert _records(marginals[i]) == _records(want), i
    assert marginals["0"]["k"] == {
        "budget": F(4), "queries": 1, "cost": F(3), "payoff": F(2),
        "mp_minus": F(2, 3), "mp_plus": F(2, 3), "next_cost": F(3)}


@st.composite
def _one_keyword_markets(draw):
    """One keyword, 2 to 6 advertisers, at least two of them tied on
    score, a reserve from ``RESERVE_GRID``; a split or a schedule, in which
    an advertiser may hold no row or start late (or at query 0, which a day
    reads as query 1)."""
    k = draw(st.integers(1, 3))
    volume = draw(st.integers(1, 30))
    n = draw(st.integers(2, 6))
    scores = [draw(st.sampled_from(SCORE_GRID)) for _ in range(n)]
    scores[draw(st.integers(1, n - 1))] = scores[0]
    reserve = draw(st.sampled_from(RESERVE_GRID))
    schedule = draw(st.booleans())
    money = st.fractions(0, 40, max_denominator=4)
    advertisers, edges, rows = [], [], []
    for i, score in enumerate(scores):
        adv = "a%d" % i
        committed = draw(money)
        advertisers.append(Advertiser(adv, committed + draw(money)))
        edges.append(Edge(adv, "k", score))
        if draw(st.integers(0, 5)):  # else she holds no row
            start = (draw(st.just(1) | st.integers(0, volume)) if schedule
                     else 1)
            rows.append(Allocation(adv, "k", 0, committed, start))
    instance = Instance(SlotParams(tuple(GAMMA_GRID[:k])),
                        (Keyword("k", volume),), tuple(advertisers),
                        tuple(edges))
    profile = Profile(tuple(rows), "schedule" if schedule else "split")
    return instance, profile, reserve


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_one_keyword_markets())
def test_verify_bme_marginals_match_the_table_reference(market):
    instance, profile, reserve = market
    got = verify_bme(instance, profile, reserve)["marginals"]
    assert list(got) == [a.id for a in instance.advertisers]
    for a in instance.advertisers:
        assert _records(got[a.id]) == _records(reference_marginals(
            instance, a.id, profile, reserve)), a.id


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
    mp = verify_bme(market, profile)["marginals"].get("s", {})
    assert mp == reference_marginals(market, "s", profile)
    assert mp["k"] == {"budget": F(6), "queries": 4, "cost": F(6),
                       "payoff": F(6), "mp_minus": F(1), "mp_plus": F(5),
                       "next_cost": F(1, 2)}
    # the day stops after the segment holding query 5, before x enters
    whole = day_views(tables_for(market, "s", profile)["k"].segments)
    stopped = stopped_subject_day(market, "s", "k", profile, budget=F(6))
    assert [(g.lo, g.hi) for g in whole] == [(1, 4), (5, 7), (8, 10)]
    assert day_views(stopped)[:] == whole[:2]


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
    mp = verify_bme(market, profile)["marginals"].get("s", {})
    assert mp == reference_marginals(market, "s", profile)
    assert mp["k"] == {"budget": F(0), "queries": 3, "cost": F(0),
                       "payoff": F(6), "mp_minus": INFINITE, "mp_plus": F(1),
                       "next_cost": F(1)}
    whole = day_views(tables_for(market, "s", profile)["k"].segments)
    assert [(g.lo, g.hi) for g in whole] == [(1, 3), (4, 6), (7, 10)]
    assert day_views(stopped_subject_day(market, "s", "k", profile,
                                         budget=F(0)))[:] == whole[:2]


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


def test_dynamics_fptas_needs_eps(monkeypatch):
    # no default accuracy: the fptas without eps is refused before any solve
    def refuse(*args, **kwargs):
        raise AssertionError("solved")
    monkeypatch.setattr(bestresp, "fptas_as2", refuse)
    with pytest.raises(ValueError, match="eps"):
        best_response_dynamics(inst("agreeing-methods.json"), method="fptas")


def test_initial_profiles():
    fam = inst(FAMILY)
    top = initial_profile(fam)
    assert top.row("2", "k3").budget == F(42, 5)     # 17/5 beats 3 on k1
    assert top.row("4", "k1").budget == F(1)
    assert top.row("5", "k2").budget == F(42, 5)


# -- natural split and dilemmas ----------------------------------------------

def test_natural_base_split_matches_the_stored_profile():
    ext = inst("two-keyword-entry-ext.json")
    assert natural_base_day(ext)[0] == split(
        "two-keyword-entry-natural.split.json")


def test_natural_base_split_requires_unique_base_keywords():
    two_base = build_instance(
        ("1", "7/10"), (("k1", 10), ("k2", 10)), (("a", "5"), ("b", "5")),
        (("a", "k1", "2", "base"), ("a", "k2", "1", "base"),
         ("b", "k1", "1", "base")))
    with pytest.raises(ValueError, match="ambiguous"):
        natural_base_day(two_base)[0]


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
