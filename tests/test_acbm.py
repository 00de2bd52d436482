"""Excess budgets, entry witnesses, and the revenue-driven entry scheduler."""

import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations

from broadmatch import acbm
from broadmatch.acbm import allocate_excess, excess_budgets, obrev_check
from broadmatch.equilibrium import natural_base_day
from broadmatch.model import Allocation, load_instance, validate_profile
from broadmatch.partition import keyword_day, pinning_keeps_prefixes
from broadmatch.simulate import (DayOutcome, check_profile_consistency,
                                 simulate_day)
from conftest import (FIXTURES, RESERVE_GRID, build_instance, day_views,
                      keyword_scores, random_extension_pair, random_profile,
                      reference_entry_cost, reference_keyword_revenue,
                      segment_views)
from fine_search_misses import quiet_segments


def inst(name):
    return load_instance((FIXTURES / name).read_text())


def pair(stem):
    return inst(stem + "-base.json"), inst(stem + "-ext.json")


ONE = ("1",)  # single slot, clickability one


def excess(instance):
    """``excess_budgets`` on the natural split's base day."""
    return excess_budgets(instance, natural_base_day(instance)[1])


def witness(base, ext):
    """``obrev_check`` on the natural split's base day."""
    return obrev_check(base, ext, natural_base_day(base)[1])


def plan(base, ext, fine=False):
    """``allocate_excess`` from the natural split and its base day, as the
    ``acbm`` command runs it at reserve 0."""
    profile, day = natural_base_day(base)
    return allocate_excess(base, ext, profile, day, fine)


def test_excess_budgets_of_the_two_keyword_pair():
    info = excess(inst("two-keyword-entry-ext.json"))
    assert info["1"] == {"budget": F(45), "spend": F(45), "leftover": F(0),
                         "top_score": F(5), "excess": False}
    assert info["2"]["excess"] and info["2"]["leftover"] == F(37)
    assert info["3"] == {"budget": F(40), "spend": F(30), "leftover": F(10),
                         "top_score": F(3, 2), "excess": True}
    assert info["4"]["excess"]


def test_entry_witness_when_last_actives_are_all_excess():
    base, ext = pair("two-keyword-entry")
    chk = witness(base, ext)
    assert chk["ok"]
    assert chk["witnesses"] == [
        {"advertiser": "3", "keyword": "k1", "condition": "a"}]
    assert chk["excess"] == ["2", "3", "4"]


def test_scheduler_coarse_entry():
    base, ext = pair("two-keyword-entry")
    res = plan(base, ext)
    assert res["moves"] == [{"advertiser": "3", "keyword": "k1",
                             "start_query": 1, "budget": F(0),
                             "delta": F(71, 2), "kind": "entry"}]
    assert res["initial_revenue"] == F(75)
    assert res["final_revenue"] == F(221, 2)
    assert res["delta"] == F(71, 2)
    sched = res["schedule"]
    assert sched.kind == "schedule"
    # 3's base pool is pinned to its exact spend, the new edge costs nothing
    assert sched.committed("3", "k2") == F(30)
    assert sched.committed("3", "k1") == F(0)
    # rows 1 and 2 keep their full pools but restate what they now buy
    assert sched.row("1", "k1").queries == 19
    assert sched.row("2", "k1").queries == 36
    assert validate_profile(ext, sched) == []
    assert check_profile_consistency(
        sched, simulate_day(ext, sched)) == []


def test_scheduler_fine_entry_timing():
    base, ext = pair("two-keyword-entry")
    res = plan(base, ext, fine=True)
    # delaying entry to query 15 keeps the incumbents paying longer
    assert res["moves"] == [{"advertiser": "3", "keyword": "k1",
                             "start_query": 15, "budget": F(0),
                             "delta": F(184, 5), "kind": "entry"}]
    assert res["final_revenue"] == F(559, 5)
    assert res["final_welfare"] == F(3162, 5)
    assert check_profile_consistency(
        res["schedule"], simulate_day(ext, res["schedule"])) == []


def test_witness_screen_is_sufficient_not_necessary():
    # both slots stay with higher-scored excess holders, so no structural
    # witness exists; the fine scheduler still finds a timing-based gain
    base, ext = pair("single-extension")
    chk = witness(base, ext)
    assert chk == {"ok": False, "witnesses": [], "excess": ["1", "2", "3"]}
    coarse = plan(base, ext)
    assert coarse["moves"] == [] and coarse["delta"] == F(0)
    assert coarse["final_revenue"] == F(5964, 5)
    fine = plan(base, ext, fine=True)
    assert fine["moves"] == [{"advertiser": "3", "keyword": "k1",
                              "start_query": 961, "budget": F(0),
                              "delta": F(448, 5), "kind": "entry"}]
    assert fine["final_revenue"] == F(6412, 5)


def test_witness_when_entrant_outscores_an_outsider():
    shared = ((("A", "x", "2", "base"), ("Bb", "x", "4", "base"),
               ("C", "x", "1/2", "base"), ("E", "y", "1", "base")))
    kws = (("x", 10), ("y", 10))
    advs = (("A", "100"), ("Bb", "2"), ("C", "0"), ("E", "10"))
    base = build_instance(ONE, kws, advs, shared)
    ext = build_instance(ONE, kws, advs,
                         shared + (("E", "x", "1", "extension"),))
    info = excess(ext)
    assert {i: r["excess"] for i, r in info.items()} == {
        "A": True, "Bb": False, "C": False, "E": True}
    chk = witness(base, ext)
    assert chk["witnesses"] == [
        {"advertiser": "E", "keyword": "x", "condition": "c"}]
    # E enters below everyone who pays, yet lifts A's price from 1/2 to 1
    res = plan(base, ext)
    assert res["moves"] == [{"advertiser": "E", "keyword": "x",
                             "start_query": 1, "budget": F(0),
                             "delta": F(9, 2), "kind": "entry"}]
    assert res["initial_revenue"] == F(13, 2)
    assert res["final_revenue"] == F(11)


def test_dark_stream_needs_a_pair():
    kws = (("w", 10), ("u", 10), ("z", 10))
    advs = (("E1", "10"), ("E2", "5"))
    shared = (("E1", "w", "1", "base"), ("E2", "u", "1", "base"))
    base = build_instance(ONE, kws, advs, shared)
    ext = build_instance(ONE, kws, advs,
                         shared + (("E1", "z", "3", "extension"),
                                   ("E2", "z", "2", "extension")))
    chk = witness(base, ext)
    # only the higher-scored entrant has a paying companion below her
    assert chk["witnesses"] == [
        {"advertiser": "E1", "keyword": "z", "condition": "b"}]
    res = plan(base, ext)
    assert res["moves"] == [{"advertisers": ["E1", "E2"], "keyword": "z",
                             "start_query": 1, "budgets": [F(10), F(0)],
                             "delta": F(10), "kind": "paired-entry"}]
    assert res["initial_revenue"] == F(0)
    assert res["final_revenue"] == F(10)
    rows = [(r.advertiser, r.keyword, r.queries, r.budget)
            for r in res["schedule"].rows]
    assert ("E1", "z", 5, F(10)) in rows
    assert ("E2", "z", 10, F(0)) in rows
    assert check_profile_consistency(
        res["schedule"], simulate_day(ext, res["schedule"])) == []


def test_no_excess_no_moves():
    base, ext = pair("edge-no-shift")
    chk = witness(base, ext)
    assert chk == {"ok": False, "witnesses": [], "excess": ["1"]}
    res = plan(base, ext)
    assert res["moves"] == [] and res["delta"] == F(0)
    assert res["initial_revenue"] == res["final_revenue"] == F(21)


def _day_views(instance, day):
    """A day's fields, dict key order included, segments as their views."""
    out = {}
    for f in fields(DayOutcome):
        x = getattr(day, f.name)
        if f.name == "segments":
            x = {kw: [segment_views(g) for g in day_views(
                segs, keyword_scores(instance, kw))]
                 for kw, segs in x.items()}
        out[f.name] = list(x.items()) if isinstance(x, dict) else x
    return out


def test_natural_base_day_is_the_broadened_day_before_entry():
    """``allocate_excess`` starts from the base day it is handed: the
    natural split's rows meet the same scores on the same keywords in the
    broadened market, so its day there is the base day, field for field,
    at every reserve; 300 seeded extension pairs."""
    seen = {"shared": 0, "paid": 0, "priced-out": 0}
    for seed in range(300):
        rng = random.Random(seed)
        base, ext = random_extension_pair(rng)
        for reserve in sorted(set(RESERVE_GRID)):
            profile, day = natural_base_day(base, reserve)
            assert _day_views(ext, day) == _day_views(
                ext, simulate_day(ext, profile, reserve)), (seed, reserve)
            seen["shared"] += any(day.segments[e.keyword].ids[0]
                                  for e in ext.extension_edges())
            seen["paid"] += day.revenue > 0
            seen["priced-out"] += any(e.score < reserve
                                      for e in base.edges)
    assert min(seen.values()) >= 50, seen


# -- the probe ---------------------------------------------------------------

def _two_run_probe(ext, on_kw, kw, entrants, reserve):
    """Revenue and payments as the scheduler found them with two runs per
    entrant: each one's cost at its whole wallet beside the others, then the
    revenue with every entrant pinned to its cost."""
    paid = tuple(reference_entry_cost(
        ext, on_kw + tuple(o for o in entrants if o is not e), kw, e, reserve)
        for e in entrants)
    pinned = tuple(Allocation(e.advertiser, kw, 0, p, e.start_query)
                   for e, p in zip(entrants, paid))
    return reference_keyword_revenue(ext, on_kw + pinned, kw, reserve), paid


# GAMMA_GRID's drops are all 1/4; these also draw drops that increase
# down the slots, as in the bundled fixtures' (1, 7/10).
_PROBE_GAMMAS = [None, (F(1), F(9, 10)), (F(1), F(3, 4), F(1, 2)),
                 (F(1), F(7, 10)), (F(1), F(1, 2))]


def test_one_run_probe_matches_the_two_run_reference():
    """``_probe`` runs the keyword's day once with the entrants at their
    whole wallets, and again with them pinned to their costs only when
    ``pinning_keeps_prefixes`` cannot show the pinned day is the same,
    which is what it reports as certified; the two-run reference always
    pins first.  Both must give the same revenue
    and payments, on 4,000 seeded extension pairs with single and paired
    entrants and drops both even and increasing."""
    seen = {"single": 0, "pair": 0, "leftover": 0, "evicted": 0,
            "below-reserve": 0, "rerun": 0, "pinning-moved-the-day": 0}
    for seed in range(4000):
        rng = random.Random(seed)
        base, ext = random_extension_pair(rng,
                                          gamma=rng.choice(_PROBE_GAMMAS))
        rows = random_profile(rng, base, schedule=rng.random() < 1 / 2).rows
        reserve = rng.choice(RESERVE_GRID)
        new_on = {}
        for e in ext.extension_edges():
            new_on.setdefault(e.keyword, []).append(e.advertiser)
        for kw, advs in new_on.items():
            on_kw = tuple(r for r in rows if r.keyword == kw)
            wallets = [Allocation(i, kw, 0, F(rng.randint(0, 60),
                                             rng.choice([1, 2, 3])),
                                  rng.randint(1, ext.volume(kw)))
                       for i in advs]
            groups = [(w,) for w in wallets]
            groups += combinations(wallets, 2)
            for entrants in groups:
                *got, certified = acbm._probe(ext, on_kw, kw, entrants,
                                              reserve)
                assert tuple(got) == _two_run_probe(
                    ext, on_kw, kw, entrants, reserve), (seed, kw, entrants)
                segs = keyword_day(ext, kw, on_kw + entrants, reserve)
                seen["single" if len(entrants) == 1 else "pair"] += 1
                ids = [e.advertiser for e in entrants]
                assert certified == pinning_keeps_prefixes(segs, ids), (
                    seed, kw, entrants)
                if not certified:
                    seen["rerun"] += 1
                    seen["pinning-moved-the-day"] += (
                        got[0] != reference_keyword_revenue(
                            ext, on_kw + entrants, kw, reserve))
                for e, paid in zip(entrants, got[1]):
                    i = e.advertiser
                    if ext.score(i, kw) < reserve:
                        assert paid == 0, (seed, kw, i)
                        seen["below-reserve"] += 1
                        continue
                    seen["leftover"] += 0 < paid < e.budget
                    inside = [i in ids for ids in segs.ids]
                    seen["evicted"] += (True in inside
                                        and not inside[-1]
                                        and paid > 0)
    assert min(seen.values()) >= 5, seen


def test_probe_reruns_where_pinning_moves_the_day():
    """Gamma (1, 9/10), reserve 0, volume 4: X scores 10 with a pool of 5,
    the entrant E scores 5 with a wallet of 100, Y scores 4 unlimited, all
    from query 1.  At its wallet, E outlasts X, which is dropped at query
    2, and pays 3.6 + 3 x 0.4 = 4.8 for revenue 8.9.  Pinned to 4.8, E is
    broke at query 2 beside X (at 3.6, before X goes) and, scoring lower,
    is dropped first; X then pays 0.4 twice and the day's revenue is 8.5.
    The probe must report the day the scheduler commits: 8.5."""
    ext = build_instance(("1", "9/10"), [("k", 4)],
                         [("X", "5"), ("E", "100"), ("Y", "1000")],
                         [("X", "k", "10", "base"), ("E", "k", "5", "base"),
                          ("Y", "k", "4", "base")])
    rows = (Allocation("X", "k", 0, F(5), 1), Allocation("Y", "k", 0, None, 1))
    entrant = Allocation("E", "k", 0, F(100), 1)
    segs = keyword_day(ext, "k", rows + (entrant,), F(0))
    assert sum((len(s) * s.revenue
                for s in day_views(segs, keyword_scores(ext, "k"))),
               F(0)) == F(89, 10)
    assert not pinning_keeps_prefixes(segs, ["E"])
    assert acbm._probe(ext, rows, "k", (entrant,), F(0)) == (
        F(17, 2), (F(24, 5),), False)


# -- the --fine search -------------------------------------------------------

def test_fine_starts_are_exact_integer_roundings():
    """Start k is lo + round(k * w / 63) exactly, w = hi - lo: inside
    [lo, hi] and strictly increasing even where a float quotient of widths
    past 2^53 would overshoot ``hi``; below 2^40 it is the float formula
    the search used before, so no probe moves there."""
    n = acbm.FINE_WINDOW - 1
    rng = random.Random(4 * 10 ** 18)
    for w in [3895396538115722516] + [
            4 * 10 ** 18 + rng.randint(-10 ** 15, 10 ** 15)
            for _ in range(200)]:
        lo = rng.randint(1, 10 ** 6)
        starts = acbm._fine_starts(lo, lo + w)
        assert len(starts) == acbm.FINE_WINDOW
        assert starts[0] == lo and starts[-1] == lo + w
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert starts == [lo + round(F(k * w, n))
                          for k in range(acbm.FINE_WINDOW)], w
    for _ in range(2000):
        w = rng.randint(acbm.FINE_WINDOW, 2 ** 40)
        assert acbm._fine_starts(1, 1 + w) == sorted(
            {1 + round(k * w / n) for k in range(acbm.FINE_WINDOW)}), w
    assert acbm._fine_starts(5, 68) == list(range(5, 69))


def test_search_scans_narrow_segments_whole_and_homes_in_on_wide_ones():
    """Coarse, ``_search`` probes the segment's first query alone.  Fine,
    it probes every start of a segment of at most FINE_WINDOW queries, in
    order.  On a wider one it stays inside the segment, probes each start
    once, no more than FINE_WINDOW per halving, and finds the peak of a
    single-peaked delta; it is a heuristic, so a delta with several peaks
    may be missed (``tests/fine_search_misses.py`` measures how often on
    the scheduler's own probes)."""
    def search(lo, hi, fine, delta):
        calls = []

        def probe(t):
            calls.append(t)
            return (delta(t),)

        return acbm._search(lo, hi, fine, probe), calls

    probed, calls = search(7, 10 ** 9, False, lambda t: -t)
    assert calls == [7] and list(probed) == [7]
    rng = random.Random(64)
    for _ in range(200):
        lo = rng.randint(1, 10 ** 6)
        hi = lo + rng.randint(0, acbm.FINE_WINDOW - 1)
        probed, calls = search(lo, hi, True, lambda t: rng.randint(-9, 9))
        assert calls == list(range(lo, hi + 1))
    for _ in range(200):
        lo = rng.randint(1, 10 ** 6)
        width = rng.randint(acbm.FINE_WINDOW + 1, 10 ** rng.randint(2, 12))
        hi = lo + width - 1
        peak = rng.randint(lo, hi)
        probed, calls = search(lo, hi, True, lambda t: -abs(t - peak))
        assert len(calls) == len(set(calls))
        assert all(lo <= t <= hi for t in calls)
        assert len(calls) <= acbm.FINE_WINDOW * width.bit_length()
        assert peak in probed, (lo, hi, peak)


def test_two_probes_settle_quiet_segments():
    """A quiet segment (nobody pays, it runs to the day's last query, no
    committed row starts later) is settled by probes at lo and lo + 1.
    Against a per-query scan of pinned days run the long way, on 60 seeded
    extension pairs (volumes up to 200) at reserve 0 and 1/2: the lo + 1
    probe is certified, no pinned delta rises on (lo, hi], and the best
    delta and its earliest start are the scan's
    (``tests/fine_search_misses.py`` runs the same check on more seeds)."""
    got = quiet_segments(range(60))
    assert got["uncertified"] == got["rises"] == got["fast_misses"] == 0, got
    assert got["wide"] >= 20, got


def test_quiet_segment_without_the_certificate_is_searched(monkeypatch):
    """Gamma (1, 1), reserve 0, k of 1,000 queries: A (score 10, budget 1)
    and B (4) fill both slots with no bid below them, so nobody pays all
    day and k's one segment is quiet.  E (5) holds 100 unspent on its home
    keyword.  Entering k, E takes slot 2 and prices A at 4, which A cannot
    pay: the settle asks E 4 on its way, drops A, and E then pays 0.  So
    the probe at query 2 is not certified, and the scheduler searches the
    segment like any other."""
    edges = [("A", "k", "10", "base"), ("B", "k", "4", "base"),
             ("E", "h", "5", "base")]
    market = (("1", "1"), [("k", 1000), ("h", 10)],
              [("A", "1"), ("B", "50"), ("E", "100")])
    base = build_instance(*market, edges)
    ext = build_instance(*market, edges + [("E", "k", "5", "extension")])
    rows = (Allocation("A", "k", 0, F(1)), Allocation("B", "k", 0, F(50)))
    assert acbm._probe(ext, rows, "k", (Allocation("E", "k", 0, F(100), 2),),
                       F(0)) == (F(0), (F(0),), False)
    searched = []
    real = acbm._search

    def spy(lo, hi, fine, probe, quiet=False):
        got = real(lo, hi, fine, probe, quiet)
        searched.append((lo, hi, quiet, got, real(lo, hi, fine, probe)))
        return got

    monkeypatch.setattr(acbm, "_search", spy)
    res = plan(base, ext, fine=True)
    assert res["moves"] == [] and res["final_revenue"] == F(0)
    [(lo, hi, quiet, got, full)] = searched
    assert (lo, hi, quiet) == (1, 1000, True)
    assert got == full and len(got) > acbm.FINE_WINDOW
