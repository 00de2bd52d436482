"""Best-response solvers: greedy walk, exact dp, rounding schemes, oracle."""

import random
from fractions import Fraction as F

import pytest

from broadmatch.bestresp import (BestResponse, ScaleError, _candidate_values,
                                 _knapsack, _unstable, _utility_unit, _walk,
                                 brute_force_oracle,
                                 build_subpartition, exact_best_response_dp,
                                 fptas_as2, greedy_local_best_response,
                                 rounded_dp_as1)
from broadmatch.model import all_in_profile, load_instance
from broadmatch.partition import tables_for
from conftest import (FIXTURES, build_instance, build_split, fraction_table,
                      random_instance, random_profile, reference_knapsack)


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


def test_build_subpartition_endpoints():
    t = fraction_table("a", "k", 100, (0, 100), (F(1),), (F(2),))
    # G = ceil(2 / (1/4)) = 8
    pts = build_subpartition(t, F(1, 2), 2, cap=t.volume)
    assert pts == (0, 12, 24, 36, 48, 60, 72, 84, 96, 97, 98, 99, 100)
    assert len(pts) == 13


def test_build_subpartition_short_segments_go_single():
    t = fraction_table("a", "k", 5, (0, 5), (F(1),), (F(2),))
    assert build_subpartition(t, F(1, 2), 2, cap=t.volume) == (
        0, 1, 2, 3, 4, 5)


def test_build_subpartition_spans_segments():
    t = fraction_table("a", "k", 105, (0, 5, 105), (F(1), F(2)),
                       (F(2), F(1)))
    pts = build_subpartition(t, F(1, 2), 2, cap=t.volume)
    assert pts[:6] == (0, 1, 2, 3, 4, 5)
    assert pts[6:] == (17, 29, 41, 53, 65, 77, 89, 101, 102, 103, 104, 105)


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
    inst, others = against_field("agreeing-methods.json", "1")
    with pytest.raises(ScaleError):
        brute_force_oracle(inst, "1", others, cap=100)
    # a tiny eps: the rounded dp and the fptas grid refuse before building
    # (at 1e-400 the level axis alone has ~10^400 entries)
    with pytest.raises(ScaleError, match="cells"):
        rounded_dp_as1(inst, "1", others, F(1, 10 ** 400))
    with pytest.raises(ScaleError, match="cells"):
        fptas_as2(inst, "1", others, F(1, 10 ** 400))
    # eps 1e-6 leaves a 10^9-query segment as 10^9 single-query points
    long = fraction_table("1", "k1", 10 ** 9, (0, 10 ** 9), (F(1),), (F(1),))
    with pytest.raises(ScaleError, match="grid on k1"):
        build_subpartition(long, F(1, 10 ** 6), 2, cap=long.volume)


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
    return fraction_table("s", kw, volume, (0, *cuts, volume), costs, payoffs)


def random_candidates(rng, t):
    """0..30 ascending prefix lengths (the empty prefix nearly always)."""
    xs = set(rng.sample(range(t.volume + 1), min(rng.randint(0, 30),
                                                 t.volume + 1)))
    if rng.random() < 0.95:
        xs.add(0)
    return [(x, t.prefix(x)[1], t.prefix(x)[0]) for x in sorted(xs)]


def int_candidates(tabs, candidates):
    """``Fraction`` (x, cost, payoff) candidates as ``_knapsack`` takes
    them: (x, C, U) ints over each table's D."""
    def scaled(v, D):
        assert (v * D).denominator == 1
        return (v * D).numerator
    return {kw: [(x, scaled(c, t.D), scaled(u, t.D))
                 for x, c, u in candidates[kw]] for kw, t in tabs}


def test_int_knapsack_matches_the_fraction_knapsack():
    """Identical (queries, opt) from the all-Fraction knapsack and the
    int-scaled one on 2,000 seeded cases: 1..4 keywords, 0..30 candidates
    each, zero-cost candidates, equal-cost ties, fractional budgets (some
    exactly a candidate's cost), cost denominators and prefix lengths up to
    10^9, under the exact utility unit and under AS1's eps*P/M unit."""
    rng = random.Random(19750101)
    seen = {"exact": 0, "rounded": 0, "zero-cost": 0, "tie": 0, "huge": 0,
            "on-budget": 0, "refused": 0}
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
        try:
            want = reference_knapsack(tabs, budget, candidates, unit)
        except TypeError:  # no candidate combination fits: no witness
            with pytest.raises(ValueError, match="zero-cost empty prefix"):
                _knapsack(tabs, budget, int_candidates(tabs, candidates), unit)
            seen["refused"] += 1
            continue
        assert _knapsack(tabs, budget, int_candidates(tabs, candidates),
                         unit) == want, case
        seen["exact" if exact else "rounded"] += 1
        seen["huge"] += huge
        seen["zero-cost"] += any(c == 0 for _, t in tabs for c in t.costs)
        seen["tie"] += len(set(costs)) < len(costs)
    assert seen["refused"] < 100, seen
    assert min(v for k, v in seen.items() if k != "refused") >= 200, seen


def test_pruned_knapsack_matches_the_fraction_knapsack():
    """The knapsack's pruning against the all-Fraction knapsack on 5 and 6
    keywords, under coarse units that put many candidates on one level,
    with single-candidate keywords and budgets exactly at a candidate's
    cost.  Each pruning must take part at least 200 times: a candidate
    dropped for sharing its level with an earlier one (a), a cell scan
    stopped at the first candidate at or past its target level (b), and a
    last layer bisected to an optimum below the top level (d)."""
    rng = random.Random(20080711)
    seen = {"dropped": 0, "broke": 0, "below-top": 0, "single": 0,
            "on-budget": 0}
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
        assert _knapsack(tabs, budget, int_candidates(tabs, candidates),
                         unit) == want, case
        levels = [[int(u // unit) for _, _, u in candidates[kw]]
                  for kw, _ in tabs]
        seen["dropped"] += any(len(set(lv)) < len(lv) for lv in levels)
        seen["broke"] += any(len(set(lv)) > 1 for lv in levels[:-1])
        seen["below-top"] += want[1] < sum(lv[-1] for lv in levels)
    assert min(seen.values()) >= 200, seen


def test_candidate_sweep_equals_per_prefix_lookups():
    """The one-sweep int candidates equal ``prefix()`` per candidate times
    the table's D, in whose units every cost and payoff is an int, on
    hand-built ``Fraction`` tables and on ``tables_for`` tables of seeded
    markets, over full ``range`` grids, ``build_subpartition`` grids and
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
            budget = t.prefix_cost(rng.randint(0, t.volume))
        else:
            budget = t.prefix_cost(t.volume) * F(rng.randint(0, 120), 100)
        cap = t.max_affordable(budget)
        grids = [build_subpartition(t, rng.choice([F(1, 2), F(1, 4)]),
                                    rng.randint(1, 6), cap=cap),
                 build_subpartition(t, F(1, 3), 2, cap=t.volume),
                 sorted(rng.sample(range(t.volume + 1),
                                   min(5, t.volume + 1)))]
        if t.volume <= 60:
            grids += [range(cap + 1), range(t.volume + 1)]
        for xs in grids:
            want = [(x, t.prefix(x)[1] * t.D, t.prefix(x)[0] * t.D)
                    for x in xs if t.prefix(x)[1] <= budget]
            got = _candidate_values(t, xs, budget)
            assert got == want, case
            assert all(type(v) is int for triple in got for v in triple)
            seen["boundary"] += any(c * budget.denominator
                                    == budget.numerator * t.D
                                    for _, c, _ in got)
            seen["cut"] += len(got) < len(xs)
    assert min(seen.values()) >= 100, seen
