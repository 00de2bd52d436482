"""Best-response solvers: greedy walk, exact dp, rounding schemes, oracle."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from broadmatch import bestresp
from broadmatch.bestresp import (BRUTE_CAP, BestResponse, ScaleError,
                                 _answer, _config_pair, _exact_value,
                                 _fptas_scale, _grid_size, _knapsack,
                                 _level_candidates, _rounded, _top_level,
                                 _unstable, _utility_unit, _walk,
                                 brute_force_oracle, exact_best_response_dp,
                                 fptas_as2, greedy_local_best_response,
                                 rounded_dp_as1)
from broadmatch.model import all_in_profile, load_instance
from broadmatch.partition import tables_for
from conftest import (FIXTURES, build_instance, build_split, first_per_level,
                      fraction_table, random_instance, random_profile,
                      reference_candidate_values, reference_committed,
                      reference_config_pair, reference_exact_value,
                      reference_fptas_scale, reference_knapsack,
                      reference_level_candidates, reference_rounded_unit,
                      reference_subpartition, reference_utility_unit,
                      scan_knapsack, tri_keyword)


def load(name):
    return load_instance((FIXTURES / name).read_text())


def against_field(name, advertiser):
    inst = load(name)
    return inst, all_in_profile(inst, skip=(advertiser,))


def test_greedy_can_stop_short_of_the_optimum():
    inst, others = against_field("greedy-vs-exact.json", "1")
    res = greedy_local_best_response(inst, "1", others)
    assert res.payoff == F(36)
    assert res.queries == {"k1": 9, "k2": 0}
    assert res.cost == F(18)
    assert sum(res.committed.values()) == F(18)   # whole budget parked


def test_exact_dp_beats_greedy_here():
    inst, others = against_field("greedy-vs-exact.json", "1")
    res = exact_best_response_dp(inst, "1", others)
    assert res.payoff == F(75, 2)
    assert res.queries == {"k1": 0, "k2": 18}
    assert res.method == "dp" and res.meta["work"] > 0


def test_methods_agree_when_the_walk_is_lucky():
    inst, others = against_field("agreeing-methods.json", "1")
    greedy = greedy_local_best_response(inst, "1", others)
    dp = exact_best_response_dp(inst, "1", others)
    brute = brute_force_oracle(inst, "1", others)
    assert greedy.payoff == dp.payoff == brute.payoff == F(268, 5)
    assert dp.queries == brute.queries == {"k1": 10, "k2": 10}
    assert dp.cost == F(12)


def test_dp_matches_oracle_on_both_bundles():
    for name in ("greedy-vs-exact.json", "agreeing-methods.json"):
        inst, others = against_field(name, "1")
        dp = exact_best_response_dp(inst, "1", others)
        brute = brute_force_oracle(inst, "1", others)
        assert dp.payoff == brute.payoff


def test_fptas_guarantee_brackets_the_optimum():
    inst, others = against_field("greedy-vs-exact.json", "1")
    opt = exact_best_response_dp(inst, "1", others).payoff
    for eps in (F(1, 2), F(1, 4), F(1, 10)):
        res = fptas_as2(inst, "1", others, eps)
        assert (1 - eps) * opt <= res.payoff <= opt
        assert res.method == "fptas"
        assert res.meta["inner_eps"] == eps / (1 + eps)
        assert res.meta["grid_sizes"]


def test_rounded_dp_guarantee():
    inst, others = against_field("agreeing-methods.json", "1")
    opt = exact_best_response_dp(inst, "1", others).payoff
    for eps in (F(1, 2), F(1, 10)):
        res = rounded_dp_as1(inst, "1", others, eps)
        assert (1 - eps) * opt <= res.payoff <= opt


def test_rounded_dp_is_independent_of_volume():
    """AS1 offers a keyword at most floor(M/eps) + 1 candidates, one per
    level, so 10**9 affordable queries size a small table: it answers within
    (1-eps) of the optimum, the deepest affordable prefix, where counting
    every prefix refused.  A tiny eps still refuses on its levels."""
    inst = build_instance(("1",), (("k", 10 ** 9),),
                          (("s", "1000000000"), ("r", "1")),
                          (("s", "k", "2", "base"), ("r", "k", "1/2", "base")))
    others = all_in_profile(inst, skip=("s",))
    (t,) = tables_for(inst, "s", others).values()
    afford = t.max_affordable(inst.budget("s"))
    assert afford == 10 ** 9
    opt = t.prefix(afford)[0]
    for eps in (F(1, 2), F(1, 10), F(1, 1000)):
        res = rounded_dp_as1(inst, "s", others, eps)
        assert (1 - eps) * opt <= res.payoff <= opt
    with pytest.raises(ScaleError, match="cells"):
        rounded_dp_as1(inst, "s", others, F(1, 10 ** 400))


def engine_grid(t, g, afford):
    """The fptas grid as the engine offers it where every prefix has a level
    of its own (every per-query payoff positive, a unit of 1/D), checked
    against its counted size."""
    xs = tuple(x for x, _, _ in _level_candidates(t, afford, F(1, t.D), g))
    assert _grid_size(t, g, afford) == len(xs)
    return xs


def test_build_subpartition_endpoints():
    t = fraction_table("a", "k", (0, 100), (F(1),), (F(2),))
    # G = ceil(2 / (1/4)) = 8
    pts = reference_subpartition(t, F(1, 2), 2, cap=t.volume)
    assert pts == (0, 12, 24, 36, 48, 60, 72, 84, 96, 97, 98, 99, 100)
    assert engine_grid(t, 8, t.volume) == pts
    # cut mid-segment at 50: 8 blocks of 6, then 2 singles
    assert engine_grid(t, 8, 50) == reference_subpartition(
        t, F(1, 2), 2, cap=50) == (0, 6, 12, 18, 24, 30, 36, 42, 48, 49, 50)


def test_build_subpartition_short_segments_go_single():
    t = fraction_table("a", "k", (0, 5), (F(1),), (F(2),))
    assert reference_subpartition(t, F(1, 2), 2, cap=t.volume) == (
        0, 1, 2, 3, 4, 5) == engine_grid(t, 8, t.volume)


def test_build_subpartition_spans_segments():
    t = fraction_table("a", "k", (0, 5, 105), (F(1), F(2)),
                       (F(2), F(1)))
    pts = reference_subpartition(t, F(1, 2), 2, cap=t.volume)
    assert pts[:6] == (0, 1, 2, 3, 4, 5)
    assert pts[6:] == (17, 29, 41, 53, 65, 77, 89, 101, 102, 103, 104, 105)
    assert engine_grid(t, 8, t.volume) == pts


def test_single_keyword_needs_no_search():
    # on the base graph advertiser 3 holds one edge, k2
    inst = build_instance(
        ("1", "7/10"), (("k1", 100), ("k2", 100)),
        (("1", "45"), ("2", "37"), ("3", "40"), ("4", "20")),
        (("1", "k1", "5", "base"), ("2", "k1", "3", "base"),
         ("3", "k2", "3/2", "base"), ("4", "k2", "1", "base"),
         ("3", "k1", "2", "extension"))).base_instance()
    others = build_split((("1", "k1", 50, "45"), ("2", "k1", 100, "37"),
                          ("4", "k2", 100, "20")))
    res = exact_best_response_dp(inst, "3", others)
    assert res.queries == {"k2": 100}
    assert res.payoff == F(120) and res.cost == F(30)
    assert res.meta["work"] == 1


def test_free_queries_cost_nothing_even_on_a_zero_budget():
    inst = build_instance(("1", "7/10"), (("k", 10),),
                          (("r", "100"), ("z", "0")),
                          (("r", "k", "5", "base"), ("z", "k", "2", "base")))
    others = all_in_profile(inst, skip=("z",))
    for solver in (greedy_local_best_response, exact_best_response_dp,
                   brute_force_oracle):
        res = solver(inst, "z", others)
        assert res.queries == {"k": 10}
        assert res.payoff == F(14) and res.cost == F(0)


def test_priced_out_subject_stays_home():
    inst = build_instance(("1", "7/10"), (("k", 10),),
                          (("r", "100"), ("z", "0")),
                          (("r", "k", "2", "base"), ("z", "k", "5", "base")))
    others = all_in_profile(inst, skip=("z",))
    res = rounded_dp_as1(inst, "z", others, F(1, 2))
    assert res.payoff == F(0) and res.queries == {"k": 0}
    assert exact_best_response_dp(inst, "z", others).payoff == F(0)


def test_an_advertiser_without_keywords_stays_home():
    inst = build_instance(("1",), (("k", 10),), (("r", "5"), ("z", "3")),
                          (("r", "k", "2", "base"),))
    others = all_in_profile(inst, skip=("z",))
    for res in (exact_best_response_dp(inst, "z", others),
                brute_force_oracle(inst, "z", others),
                rounded_dp_as1(inst, "z", others, F(1, 2)),
                fptas_as2(inst, "z", others, F(1, 2))):
        assert res.queries == res.committed == {}
        assert res.payoff == res.cost == F(0)
    assert res.meta["grid_sizes"] == {}


def _two_keyword(volume):
    """Subject "s" above one rival on each of two keywords of one slot: one
    priced segment per keyword, so the dp scans volume + 1 points."""
    return build_instance(
        ("1",), (("k1", volume), ("k2", volume)),
        (("s", "10"), ("r1", "1"), ("r2", "1")),
        (("s", "k1", "2", "base"), ("s", "k2", "3", "base"),
         ("r1", "k1", "1/2", "base"), ("r2", "k2", "1/2", "base")))


def test_scale_refusals():
    # past WORK_CAP, the two-keyword scan refuses before it starts
    big = _two_keyword(10 ** 7)
    with pytest.raises(ScaleError, match="points"):
        exact_best_response_dp(big, "s", all_in_profile(big, skip=("s",)))
    # three keywords of 100 queries: 101**3 query vectors pass BRUTE_CAP
    tri = tri_keyword(100)
    with pytest.raises(ScaleError, match="search space beyond 1000000 "):
        brute_force_oracle(tri, "s", all_in_profile(tri, skip=("s",)))
    inst, others = against_field("agreeing-methods.json", "1")
    # a tiny eps: the rounded dp and the fptas grid refuse before building
    # (at 1e-400 the level axis alone has ~10^400 entries)
    with pytest.raises(ScaleError, match="cells"):
        rounded_dp_as1(inst, "1", others, F(1, 10 ** 400))
    with pytest.raises(ScaleError, match="cells"):
        fptas_as2(inst, "1", others, F(1, 10 ** 400))
    # eps 1e-6 leaves a 10^9-query segment, all free to its lone bidder, as
    # 10^9 single-query points
    long = build_instance(("1",), (("k1", 10 ** 9),), (("s", "1"),),
                          (("s", "k1", "1", "base"),))
    with pytest.raises(ScaleError, match="grid on k1 would pass 10000000 "):
        fptas_as2(long, "s", all_in_profile(long, skip=("s",)),
                  F(1, 10 ** 6))


def _shut_out(rival_on_k2):
    """Subject "z" below rival "r" on k1, a 2 * 10**7-query stream of one
    slot: every k1 query is free to her and pays her nothing, and she can
    afford all of them.  On k2, of 10 queries, she is shut out the same way
    or bids alone and gains."""
    edges = [("r", "k1", "5", "base"), ("z", "k1", "2", "base"),
             ("z", "k2", "2", "base")]
    if rival_on_k2:
        edges.append(("r", "k2", "5", "base"))
    inst = build_instance(("1",), (("k1", 2 * 10 ** 7), ("k2", 10)),
                          (("r", "100000000"), ("z", "1")), edges)
    return inst, all_in_profile(inst, skip=("z",))


def test_fptas_when_nothing_within_budget_pays():
    """Where no affordable prefix pays, the fptas stays home on every
    keyword and still reports the grid it built on each.  The grids come
    before that check and before the rounded table is sized: a tiny eps
    makes k1's affordable 2 * 10**7 queries single-query points, and the
    grid refuses, whether or not anything pays."""
    inst, others = _shut_out(True)
    res = fptas_as2(inst, "z", others, F(1, 2))
    assert res.queries == {"k1": 0, "k2": 0}
    assert res.payoff == res.cost == F(0)
    assert res.committed == {"k1": F(0), "k2": F(0)}
    # G = ceil(2 / (1/4)) = 8 blocks per segment; k2's 10 queries leave
    # 2 singles
    assert res.meta["grid_sizes"] == {"k1": 9, "k2": 11}
    for rival_on_k2 in (True, False):
        inst, others = _shut_out(rival_on_k2)
        with pytest.raises(ScaleError, match="grid on k1"):
            fptas_as2(inst, "z", others, F(1, 10 ** 400))
    # alone on k2 she gains: there the tiny eps's grid refusal came before
    # the rounded table, which that eps would overflow too, was sized
    res = fptas_as2(inst, "z", others, F(1, 2))
    assert res.queries["k2"] == 10 and res.payoff > 0


def test_eps_validation():
    inst, others = against_field("agreeing-methods.json", "1")
    with pytest.raises(ValueError):
        rounded_dp_as1(inst, "1", others, F(0))
    with pytest.raises(ValueError):
        fptas_as2(inst, "1", others, F(1))
    with pytest.raises(ValueError):
        fptas_as2(inst, "1", others, F(-1, 2))


def test_response_profile_rows():
    inst, others = against_field("greedy-vs-exact.json", "1")
    res = greedy_local_best_response(inst, "1", others)
    prof = res.profile()
    assert [(r.advertiser, r.keyword, r.queries, r.budget)
            for r in prof.rows] == [("1", "k1", 9, F(18))]


def test_greedy_walk_at_the_phase_boundary():
    inst, others = against_field("greedy-vs-exact.json", "1")
    states = _walk(tables_for(inst, "1", others), inst.budget("1"))
    assert sorted(s.kw for s in states) == ["k1", "k2"]
    assert sum(s.committed for s in states) == inst.budget("1")
    assert len(list(_unstable(states))) <= 1


# -- the int-scaled knapsack --------------------------------------------------

def random_table(rng, kw, volume, cost_dens, pay_dens, pay_max):
    """A table of 1..4 segments with zero-cost and equal-cost runs."""
    nseg = rng.randint(1, min(4, volume))
    cuts = sorted(rng.sample(range(1, volume), nseg - 1))
    costs, payoffs = [], []
    for _ in range(nseg):
        roll = rng.random()
        if roll < 0.2:
            costs.append(F(0))
        elif roll < 0.35 and costs:
            costs.append(costs[-1])
        else:
            costs.append(F(rng.randint(1, 60), rng.choice(cost_dens)))
        payoffs.append(F(rng.randint(0, pay_max), rng.choice(pay_dens)))
    return fraction_table("s", kw, (0, *cuts, volume), costs, payoffs)


def random_candidates(rng, t):
    """The empty prefix and 0..30 other ascending prefix lengths."""
    xs = set(rng.sample(range(t.volume + 1), min(rng.randint(0, 30),
                                                 t.volume + 1)))
    return [(x, t.prefix(x)[1], t.prefix(x)[0]) for x in sorted({0, *xs})]


def level_lists(tabs, candidates, unit):
    """``Fraction`` (x, cost, payoff) candidates as ``_knapsack`` takes
    them: the first per level, (x, C, level) with C an int over each
    table's D."""
    def scaled(v, D):
        assert (v * D).denominator == 1
        return (v * D).numerator
    return {kw: first_per_level(t, [(x, scaled(c, t.D), scaled(u, t.D))
                                    for x, c, u in candidates[kw]], unit)
            for kw, t in tabs}


def test_int_knapsack_matches_the_fraction_knapsack():
    """Identical (queries, opt) from the all-Fraction knapsack and the
    int-scaled one on 2,000 seeded cases: 1..4 keywords, the empty prefix
    and 0..30 more candidates each, the int one offered the first per
    level, zero-cost candidates, equal-cost ties, fractional budgets (some
    exactly a candidate's cost), cost denominators and prefix lengths up to
    10^9, under the exact utility unit and under AS1's eps*P/M unit."""
    rng = random.Random(19750101)
    seen = {"exact": 0, "rounded": 0, "zero-cost": 0, "tie": 0, "huge": 0,
            "on-budget": 0}
    for case in range(2000):
        exact = case % 2 == 0
        m = 1 + (case // 2) % 4
        huge = not exact and rng.random() < 0.5
        cost_dens = ([rng.randint(1, 10 ** 9) for _ in range(3)]
                     if rng.random() < 0.5 else [1, 2, 4, 5])
        tabs = []
        for j in range(m):
            volume = (rng.randint(2, 10 ** 9) if huge
                      else rng.randint(1, 10 if exact else 40))
            tabs.append(("k%d" % j, random_table(
                rng, "k%d" % j, volume, cost_dens, [1, 2] if exact
                else [1, 2, 3, 4], 3 if exact else 6)))
        candidates = {kw: random_candidates(rng, t) for kw, t in tabs}
        costs = [c for lv in candidates.values() for _, c, _ in lv]
        if costs and rng.random() < 0.25:
            budget = rng.choice(costs)
            seen["on-budget"] += 1
        else:
            budget = (sum(costs, F(0)) * F(rng.randint(0, 100), 100)
                      + F(rng.randint(0, 3), rng.randint(1, 10 ** 9)))
        if exact:
            unit = _utility_unit(tabs)
        else:
            eps = rng.choice([F(1, 2), F(1, 4), F(1, 5)])
            candidates = {kw: [v for v in lv if v[1] <= budget]
                          for kw, lv in candidates.items()}
            peak = max((u for lv in candidates.values() for _, _, u in lv),
                       default=F(0))
            unit = eps * peak / m if peak > 0 else F(1)
        want = reference_knapsack(tabs, budget, candidates, unit)
        assert _knapsack(tabs, budget, level_lists(tabs, candidates,
                                                   unit)) == want, case
        seen["exact" if exact else "rounded"] += 1
        seen["huge"] += huge
        seen["zero-cost"] += any(c == 0 for _, t in tabs for c in t.costs)
        seen["tie"] += len(set(costs)) < len(costs)
    assert min(seen.values()) >= 200, seen


def merge_events(layers, budget):
    """What the front merge meets, read from the inputs: each of ``layers``
    holds a keyword's (cost, level) candidates, the first per level.  Each
    layer pairs every point of the front below it with each of its
    candidates within the budget, and every layer but the last is merged
    into the next front.  Returns whether a merge dropped a pair because a
    cheaper pair reaches at least its level, and whether two pairs of one
    layer, the last one included, tied on cost."""
    front, dropped, tie = [(F(0), 0)], False, False
    for i, lv in enumerate(layers):
        pairs = sorted((fc + c, fl + lvl) for fc, fl in front
                       for c, lvl in lv if fc + c <= budget)
        front, reach = [], -1  # reach: top level of the cheaper pairs
        for cost, group in itertools.groupby(pairs, key=lambda p: p[0]):
            levels = [lvl for _, lvl in group]
            dropped |= levels[0] <= reach and i < len(layers) - 1
            tie |= len(levels) > 1
            if levels[-1] > reach:
                front.append((cost, levels[-1]))
                reach = levels[-1]
    return dropped, tie


def test_pruned_knapsack_matches_the_fraction_knapsack():
    """The knapsack's pruning against the all-Fraction knapsack on 5 and 6
    keywords, under coarse units that put many candidates on one level,
    with single-candidate keywords and budgets exactly at a candidate's
    cost.  Each pruning must take part at least 200 times, read from the
    inputs: a candidate dropped for sharing its level with an earlier one,
    a merge dropping a pair because a cheaper pair reaches at least its
    level, two pairs of one layer tying on cost, and an optimum below the
    top level."""
    rng = random.Random(20080711)
    seen = {"dropped": 0, "dominated": 0, "cost-tie": 0, "below-top": 0,
            "single": 0, "on-budget": 0}
    for case in range(600):
        m = 5 + case % 2
        tabs = [("k%d" % j, random_table(rng, "k%d" % j, rng.randint(1, 40),
                                         [1, 2, 3], [1, 2, 4], 6))
                for j in range(m)]
        candidates = {}
        for kw, t in tabs:
            xs = sorted({0, *rng.sample(range(t.volume + 1),
                                        min(rng.randint(0, 12), t.volume))})
            if rng.random() < 0.15:
                xs = xs[:1]
                seen["single"] += 1
            candidates[kw] = [(x, t.prefix(x)[1], t.prefix(x)[0]) for x in xs]
        costs = [c for lv in candidates.values() for _, c, _ in lv]
        if rng.random() < 0.5:
            budget = rng.choice(costs)
            seen["on-budget"] += 1
        else:
            budget = sum(costs, F(0)) * F(rng.randint(0, 100), 100)
        peak = max(u for lv in candidates.values() for _, _, u in lv)
        unit = peak / rng.randint(1, 8) if peak > 0 else F(1)
        want = reference_knapsack(tabs, budget, candidates, unit)
        assert _knapsack(tabs, budget, level_lists(tabs, candidates,
                                                   unit)) == want, case
        levels = [[int(u // unit) for _, _, u in candidates[kw]]
                  for kw, _ in tabs]
        firsts = [[(c, lvl) for i, ((_, c, _), lvl)
                   in enumerate(zip(candidates[kw], lv))
                   if i == 0 or lvl > lv[i - 1]]
                  for (kw, _), lv in zip(tabs, levels)]
        dominated, tie = merge_events(firsts, budget)
        seen["dropped"] += any(len(set(lv)) < len(lv) for lv in levels)
        seen["dominated"] += dominated
        seen["cost-tie"] += tie
        seen["below-top"] += want[1] < sum(lv[-1] for lv in levels)
    assert min(seen.values()) >= 200, seen


def test_front_merge_matches_the_level_scan_at_benchmark_scale():
    """Identical (queries, opt), the key order of ``queries`` included, from
    the front merge and the level-scanning int knapsack it replaced
    (``scan_knapsack``), on 24 seeded cases too large for the Fraction
    reference: 3..6 keywords, up to 251 candidates each from
    ``reference_candidate_values`` (whole ranges and sparse samples), the
    front merge offered the first per level, levels into
    the thousands under the exact utility unit and under coarser ones, and
    budgets between costs or exactly at the cost of the optimum there, so
    that the optimum's last candidate costs all the budget its front point
    leaves."""
    rng = random.Random(19690701)
    seen = {"exact": 0, "coarse": 0, "on-cost": 0, "between": 0,
            "wide": 0, "thousands": 0}
    for case in range(24):
        m = 3 + case % 4
        tabs = [("k%d" % j, random_table(rng, "k%d" % j, rng.randint(1, 250),
                                         [1, 2, 3], [1, 2, 4], 4))
                for j in range(m)]
        grids = {kw: range(t.volume + 1) for kw, t in tabs}
        for kw, xs in grids.items():
            if rng.random() < 0.3:
                grids[kw] = sorted({0, *rng.sample(xs, rng.randint(1,
                                                                   len(xs)))})
        if case // 4 % 2 == 0:
            unit = _utility_unit(tabs)
            seen["exact"] += 1
        else:
            unit = F(1, rng.randint(1, 4))
            seen["coarse"] += 1
        budget = (sum((t.prefix(t.volume)[1] for _, t in tabs), F(0))
                  * F(rng.randint(20, 99), 100)
                  + F(1, rng.randint(2, 10 ** 6)))
        candidates = {kw: reference_candidate_values(t, grids[kw], budget)
                      for kw, t in tabs}
        if case // 8 != 1:
            queries, _ = _knapsack(tabs, budget, {
                kw: first_per_level(t, candidates[kw], unit)
                for kw, t in tabs})
            budget = sum((t.prefix(queries[kw])[1] for kw, t in tabs), F(0))
            candidates = {kw: reference_candidate_values(t, grids[kw], budget)
                          for kw, t in tabs}
            seen["on-cost"] += 1
        else:
            seen["between"] += 1
        want = scan_knapsack(tabs, budget, candidates, unit)
        got = _knapsack(tabs, budget, {
            kw: first_per_level(t, candidates[kw], unit) for kw, t in tabs})
        assert (list(got[0].items()), got[1]) == (list(want[0].items()),
                                                  want[1]), case
        seen["wide"] += max(map(len, candidates.values())) > 200
        seen["thousands"] += want[1] >= 1000
    assert min(seen.values()) >= 8, seen


def test_candidate_sweep_equals_per_prefix_lookups():
    """The reference one-sweep int candidates
    (``reference_candidate_values``) equal ``prefix()`` per candidate times
    the table's D, in whose units every cost and payoff is an int, on
    hand-built ``Fraction`` tables and on ``tables_for`` tables of seeded
    markets, over full ``range`` grids, ``reference_subpartition`` grids and
    sparse ascending samples that skip whole segments.  The sweep keeps
    exactly the prefixes whose cost fits the budget, a budget equal
    to a prefix's cost (C * budget.den == budget.num * D) included."""
    rng = random.Random(1969)
    tables = [random_table(rng, "k", rng.randint(2, 10 ** 9) if case % 2
                           else rng.randint(1, 60),
                           [1, 3, rng.randint(1, 10 ** 9)], [1, 2, 5], 9)
              for case in range(200)]
    hand_built = len(tables)
    for seed in range(100):
        market = random.Random(seed)
        instance = random_instance(market)
        others = random_profile(market, instance)
        subject = market.choice(instance.advertisers).id
        tables += tables_for(instance, subject, others).values()
    seen = {"hand-built": 0, "tables_for": 0, "boundary": 0, "cut": 0}
    for case, t in enumerate(tables):
        assert all((x * t.D).denominator == 1
                   for x in t.costs + t.payoffs), case
        seen["hand-built" if case < hand_built else "tables_for"] += 1
        if rng.random() < 0.5:
            budget = t.prefix(rng.randint(0, t.volume))[1]
        else:
            budget = t.prefix(t.volume)[1] * F(rng.randint(0, 120), 100)
        cap = t.max_affordable(budget)
        grids = [reference_subpartition(t, rng.choice([F(1, 2), F(1, 4)]),
                                        rng.randint(1, 6), cap=cap),
                 reference_subpartition(t, F(1, 3), 2, cap=t.volume),
                 sorted(rng.sample(range(t.volume + 1),
                                   min(5, t.volume + 1)))]
        if t.volume <= 60:
            grids += [range(cap + 1), range(t.volume + 1)]
        for xs in grids:
            want = [(x, t.prefix(x)[1] * t.D, t.prefix(x)[0] * t.D)
                    for x in xs if t.prefix(x)[1] <= budget]
            got = reference_candidate_values(t, xs, budget)
            assert got == want, case
            assert all(type(v) is int for triple in got for v in triple)
            seen["boundary"] += any(c * budget.denominator
                                    == budget.numerator * t.D
                                    for _, c, _ in got)
            seen["cut"] += len(got) < len(xs)
    assert min(seen.values()) >= 100, seen


def test_level_candidates_match_the_per_prefix_sweep():
    """``_level_candidates`` equals the first candidate per level of the
    per-prefix sweep (``reference_level_candidates``) on 900 seeded
    hand-built tables of up to 4 segments and 4,000 queries and on the
    tables of 150 seeded markets: over every affordable prefix under AS1's
    eps*P/M unit and under the exact utility unit, and over the listed
    fptas grid (``reference_subpartition``), whose length ``_grid_size``
    counts.  Budgets end mid-segment and on breakpoints; grids have blocks
    and single points only, span several segments, and skip levels."""
    rng = random.Random(20081020)
    tables = [(t, t.prefix(rng.randint(0, t.volume))[1]
               if rng.random() < 0.3 else t.prefix(t.volume)[1]
               * F(rng.randint(0, 120), 100) + F(1, rng.randint(1, 10 ** 6)))
              for t in (random_table(rng, "k", rng.randint(1, 4000),
                                     [1, 3, 7], [1, 2, 5], 9)
                        for _ in range(900))]
    for seed in range(150):
        market = random.Random(seed)
        instance = random_instance(market)
        others = random_profile(market, instance)
        subject = market.choice(instance.advertisers).id
        tables += [(t, instance.budget(subject))
                   for t in tables_for(instance, subject, others).values()]
    seen = {"as1": 0, "exact": 0, "blocks": 0, "singles": 0, "segments": 0,
            "mid-segment": 0, "on-breakpoint": 0, "skips": 0}
    for case, (t, budget) in enumerate(tables):
        afford = t.max_affordable(budget)
        peak = t.prefix(afford)[0]
        eps, m = rng.choice([F(1, 2), F(1, 3), F(1, 4), F(1, 10)]), \
            rng.randint(1, 5)
        units = [("exact", _utility_unit([("k", t)]))]
        if peak > 0:
            units.append(("as1", eps * peak / m))
        for kind, unit in units:
            want = reference_level_candidates(t, range(afford + 1), budget,
                                              unit)
            assert _level_candidates(t, afford, unit) == want, case
            seen[kind] += 1
        g = math.ceil(m / (eps * eps))
        grid = reference_subpartition(t, eps, m, cap=afford)
        assert _grid_size(t, g, afford) == len(grid), case
        got = _level_candidates(t, afford, unit, g)
        assert got == reference_level_candidates(t, grid, budget, unit), case
        lengths = [min(hi, afford) - lo for lo, hi
                   in zip(t.breakpoints, t.breakpoints[1:]) if lo < afford]
        seen["blocks"] += max(lengths, default=0) >= g
        seen["singles"] += 0 < max(lengths, default=0) < g
        seen["segments"] += len(lengths) > 1
        seen["mid-segment" if afford not in t.breakpoints
             else "on-breakpoint"] += 1
        seen["skips"] += any(b[2] - a[2] > 1 for a, b in zip(got, got[1:]))
    assert min(seen.values()) >= 100, seen


def _priced_out(volume):
    """Subject "z", budget 0, above rival "r" on three keywords of
    ``volume`` queries and one slot: every query costs her r's bid."""
    kws = tuple(("k%d" % j, volume) for j in (1, 2, 3))
    edges = [e for kw, _ in kws
             for e in (("r", kw, "2", "base"), ("z", kw, "5", "base"))]
    inst = build_instance(("1",), kws, (("r", "100"), ("z", "0")), edges)
    return inst, all_in_profile(inst, skip=("z",))


def test_brute_force_spans_what_the_budget_buys():
    """The oracle walks each keyword up to what the budget alone affords, so
    a budget-0 subject priced out on three keywords of 100 queries stays
    home, where sizing by volume (101**3 vectors) refused; on
    ``tri_keyword(100)``, which affords every query, it still refuses
    (``test_scale_refusals``)."""
    inst, others = _priced_out(100)
    res = brute_force_oracle(inst, "z", others)
    assert res.queries == {"k1": 0, "k2": 0, "k3": 0}
    assert res.payoff == res.cost == F(0)
    assert exact_best_response_dp(inst, "z", others).queries == res.queries


def deep_keywords(rng):
    """Subject "s" on three keywords of 10**4..10**6 queries and two slots,
    above rival "a" with a small budget and rival "b" below it: her price
    falls once "a" runs dry.  Her own budget affords a few dozen queries."""
    kws, advs = [], [("s", str(F(rng.randint(20, 80), rng.randint(1, 3))))]
    edges = []
    for j in (1, 2, 3):
        kw = "k%d" % j
        kws.append((kw, rng.randint(10 ** 4, 10 ** 6)))
        edges.append(("s", kw, str(rng.randint(4, 9)), "base"))
        for r, bid in (("a", rng.randint(2, 3)), ("b", 1)):
            edges.append((r + kw, kw, str(bid), "base"))
            advs.append((r + kw, str(rng.randint(3, 30))))
    return build_instance(("1", "1/2"), tuple(kws), tuple(advs), tuple(edges))


def test_solvers_match_the_oracle_on_deep_keywords():
    """On 30 seeded markets of three deep keywords, whose volumes put the
    whole query space far past ``BRUTE_CAP``, the oracle walks what a small
    budget buys: the exact dp matches its payoff, and AS1 and the fptas keep
    at least (1-eps) of it.  The budget reaches past the first segment on
    some keyword in most of them."""
    seen = {"cheaper": 0, "approx-below": 0}
    for seed in range(30):
        inst = deep_keywords(random.Random(seed))
        others = all_in_profile(inst, skip=("s",))
        tables = tables_for(inst, "s", others)
        assert math.prod(t.volume + 1 for t in tables.values()) > BRUTE_CAP
        opt = brute_force_oracle(inst, "s", others).payoff
        assert exact_best_response_dp(inst, "s", others).payoff == opt, seed
        for eps in (F(1, 2), F(1, 4)):
            for solver in (rounded_dp_as1, fptas_as2):
                got = solver(inst, "s", others, eps).payoff
                assert (1 - eps) * opt <= got <= opt, (seed, solver, eps)
                seen["approx-below"] += got < opt
        budget = inst.budget("s")
        seen["cheaper"] += any(t.max_affordable(budget) > t.breakpoints[1]
                               for t in tables.values())
    assert seen["cheaper"] >= 10 and seen["approx-below"] >= 1, seen


def test_int_config_pair_matches_the_fraction_scan(monkeypatch):
    """Identical (xa, xb, work) from the int configuration scan and the
    ``Fraction`` one it replaced (``reference_config_pair``) on 1,500
    seeded pairs of tables of up to 4 segments and 30 queries: free
    segments, equal-cost runs, budgets with denominators up to 10^9 (some
    exactly the cost of a pair of prefixes), payoffs from a small set so
    that optima tie, and priced configurations scanned along the first
    keyword (la <= lb) and along the second (la > lb).  With the cap at each
    case's work both answer alike; one below it both refuse, with the same
    text."""
    rng = random.Random(20081019)
    seen = {"free": 0, "fractional": 0, "on-cost": 0, "tie": 0,
            "scan-a": 0, "scan-b": 0}
    for case in range(1500):
        dens = [1, 2, 3, rng.randint(1, 10 ** 9)]
        ta, tb = (random_table(rng, kw, rng.randint(1, 30), dens, [1, 2, 4], 3)
                  for kw in ("a", "b"))
        if rng.random() < 0.25:
            budget = (ta.prefix(rng.randint(0, ta.volume))[1]
                      + tb.prefix(rng.randint(0, tb.volume))[1])
            seen["on-cost"] += 1
        else:
            budget = ((ta.prefix(ta.volume)[1] + tb.prefix(tb.volume)[1])
                      * F(rng.randint(0, 100), 100)
                      + F(rng.randint(0, 3), rng.randint(1, 10 ** 9)))
        want = reference_config_pair(ta, tb, budget)
        assert _config_pair(ta, tb, budget) == want, case
        work = want[2]
        monkeypatch.setattr(bestresp, "WORK_CAP", work)
        assert _config_pair(ta, tb, budget) == want, case
        monkeypatch.setattr(bestresp, "WORK_CAP", work - 1)
        with pytest.raises(ScaleError) as ref:
            reference_config_pair(ta, tb, budget)
        with pytest.raises(ScaleError) as got:
            _config_pair(ta, tb, budget)
        assert str(got.value) == str(ref.value), case
        monkeypatch.undo()
        # what the cases exercise, read from the tables and the budget
        pa = [ta.prefix(x) for x in range(ta.volume + 1)]
        pb = [tb.prefix(x) for x in range(tb.volume + 1)]
        payoffs = [ua + ub for ua, ca in pa for ub, cb in pb
                   if ca + cb <= budget]
        seen["tie"] += payoffs.count(max(payoffs)) > 1
        seen["fractional"] += budget.denominator > 1
        kinds = set()  # of the feasible configurations
        for sa in range(ta.segment_count):
            for sb in range(tb.segment_count):
                za, zb = ta.breakpoints[sa], tb.breakpoints[sb]
                if ta.prefix(za)[1] + tb.prefix(zb)[1] > budget:
                    continue
                la = ta.breakpoints[sa + 1] - za
                lb = tb.breakpoints[sb + 1] - zb
                if ta.costs[sa] and tb.costs[sb]:
                    kinds.add("scan-a" if la <= lb else "scan-b")
                else:
                    kinds.add("free")
        for kind in kinds:
            seen[kind] += 1
    assert min(seen.values()) >= 200, seen


# -- the answer and the rounding on ints, against their Fraction forms --------

def table_groups(rng, count):
    """``count`` groups of 1..4 seeded hand-built tables, their D's coprime
    or sharing factors (denominators up to 10^9, volumes up to 10^6), then
    the tables of 150 seeded markets against their profiles, each with the
    subject's budget."""
    groups = []
    for _ in range(count):
        dens = [1, 3, 7, rng.randint(1, 10 ** 9)]
        group = {}
        for j in range(rng.randint(1, 4)):
            kw = "k%d" % j
            volume = rng.choice([rng.randint(1, 60), rng.randint(1, 10 ** 6)])
            group[kw] = random_table(rng, kw, volume, dens, dens, 10 ** 6)
        full = sum((t.prefix(t.volume)[1] for t in group.values()), F(0))
        groups.append((group, full * F(rng.randint(0, 120), 100)))
    for seed in range(150):
        market = random.Random(seed)
        instance = random_instance(market)
        others = random_profile(market, instance)
        subject = market.choice(instance.advertisers).id
        tables = tables_for(instance, subject, others)
        if tables:
            groups.append((tables, instance.budget(subject)))
    return groups


def test_answer_and_utility_unit_match_the_fraction_references():
    """``_exact_value``, ``_answer``'s payoff, cost and committed budgets,
    and ``_utility_unit`` equal their ``Fraction`` forms (``conftest``) on
    600 seeded groups of hand-built tables and on the tables of 150 seeded
    markets, over query vectors of empty, full-volume and mid-segment
    prefixes, on all keywords or some, the empty vector included.  Tables
    of one group have different D's, so a sum over anything but their lcm
    differs."""
    rng = random.Random(3101)
    seen = {"empty": 0, "full": 0, "mixed-D": 0, "some": 0}
    for case, (tables, _) in enumerate(table_groups(rng, 600)):
        tabs = list(tables.items())
        assert _utility_unit(tabs) == reference_utility_unit(tabs), case
        for _ in range(4):
            queries = {kw: rng.choice([0, t.volume, rng.randint(0, t.volume)])
                       for kw, t in tabs if rng.random() < 0.8}
            want = reference_exact_value(tables, queries)
            assert _exact_value(tables, queries) == want, case
            resp = _answer("s", "dp", tables, queries, {})
            assert (resp.payoff, resp.cost) == want, case
            assert resp.committed == reference_committed(tables, queries)
            seen["empty"] += 0 in queries.values()
            seen["full"] += any(x == tables[kw].volume
                                for kw, x in queries.items())
            seen["some"] += 0 < len(queries) < len(tabs)
        seen["mixed-D"] += len({t.D for t in tables.values()}) > 1
    assert _exact_value({}, {}) == (0, 0)
    assert min(seen.values()) >= 100, seen


def random_eps(rng):
    """An eps in (0, 1) with small or large (up to 10^30) terms."""
    q = rng.choice([rng.randint(2, 12), rng.randint(2, 10 ** 30)])
    return F(rng.randint(1, q - 1), q)


def test_rounding_unit_and_fptas_scale_match_the_fraction_references():
    """floor(M/eps) (``_top_level``), the fptas's G and inner eps
    (``_fptas_scale``) and ``_rounded``'s unit and refusal equal their
    ``Fraction`` forms (``conftest``) for 3,000 random eps in (0, 1), terms
    up to 10^30, and on the seeded table groups, both rounded schemes'
    eps among them.  Each group is offered a candidate count at the
    projected table's cap and one past it, so a floor taken as a ceiling
    (one level more a keyword) refuses where the reference does not."""
    rng = random.Random(3102)
    for _ in range(3000):
        eps, m = random_eps(rng), rng.randint(0, 7)
        assert _top_level(m, eps) == math.floor(m / eps), eps
        assert _fptas_scale(m, eps) == reference_fptas_scale(m, eps), eps
    seen = {"unit": 0, "none": 0, "refused": 0, "large": 0}
    for case, (tables, budget) in enumerate(table_groups(rng, 300)):
        m = len(tables)
        q = rng.choice([rng.randint(2, 50), rng.randint(10 ** 20, 10 ** 30)])
        eps = F(rng.randint(-(-q // 50), q - 1), q)  # levels stay few
        if rng.random() < 0.5:
            eps = reference_fptas_scale(m, eps)[1]
        afford = {kw: t.max_affordable(budget) for kw, t in tables.items()}
        at_cap = bestresp.WORK_CAP // (m * math.floor(m / eps) + 1)
        for total in (m, at_cap, at_cap + 1):
            sizes = dict.fromkeys(tables, 1)
            sizes[next(iter(tables))] += total - m
            try:
                want = reference_rounded_unit(tables, afford, eps, sizes)
            except ScaleError:
                want = "refused"
            try:
                got = _rounded(tables, budget, afford, eps, sizes)[1]
            except ScaleError:
                got = "refused"
            assert got == want, case
            seen["refused" if want == "refused" else
                 "none" if want is None else "unit"] += 1
        seen["large"] += eps.denominator > 10 ** 15
    assert min(seen.values()) >= 50, seen
