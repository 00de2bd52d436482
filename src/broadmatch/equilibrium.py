"""Equilibrium notions over committed budget profiles.

Two solution concepts are checked here:

* A profile is *locally stable* (``verify_bme``) when no advertiser can
  gain by nudging money between her own keywords: every next query on one
  keyword pays at most what the last query on any other already pays
  (condition one), and her money is either fully committed or stuck — on
  every unsaturated keyword, unparked money plus that pool's remainder is
  too small to buy the next query (condition two).
* A profile is an *eps Nash point* (``verify_eps_ne``) when nobody can lift
  her payoff by more than a (1-eps) factor through any unilateral
  reallocation, checked against the exact optimizer or bracketed through
  the approximation scheme's guarantee.

``best_response_dynamics`` iterates single-advertiser responses to a fixed
point or a cycle; ``dilemma_report`` compares the auctioneer's take between
the base matching and a broadened one across candidate stable profiles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import bestresp
from .model import Allocation, Instance, Profile
from .partition import PartitionTable, rate_gt, subject_day
from .simulate import DayOutcome, simulate_day

ZERO = Fraction(0)


def marginal_payoffs(instance: Instance, advertiser: str, profile: Profile,
                     reserve: Fraction = ZERO) -> Dict[str, dict]:
    """Per-keyword marginal rates of one advertiser under a profile.

    For each keyword the advertiser matches in ``instance``, reports how
    many queries her committed budget buys, the payoff-per-cost rate of the
    last bought query (None when she buys none) and of the next one (None
    when the stream is exhausted).  Rates on free queries are
    ``partition.INFINITE``.  Keywords the reserve prices her out of are
    omitted entirely.

    Each keyword's figures are read from her partition table of her day
    (``partition.subject_day``) stopped once her payment passes her
    committed budget: nothing after the first query that budget cannot buy
    is read, so the table may end at the segment holding that query.
    """
    out: Dict[str, dict] = {}
    for kw in instance.keywords_of(advertiser):
        if instance.score(advertiser, kw) < reserve:
            continue
        b = profile.committed(advertiser, kw)
        t = PartitionTable(advertiser, kw, instance.volume(kw),
                           subject_day(instance, advertiser, kw, profile,
                                       reserve, b))
        v = t.max_affordable(b)
        mp_minus = t.rate(t.segment_of(v)) if v > 0 else None
        mp_plus = nxt = None
        if v < t.volume:  # then the table holds query v + 1
            lam = t.segment_of(v + 1)
            mp_plus, nxt = t.rate(lam), Fraction(t.int_costs[lam], t.D)
        payoff, cost = t.prefix(v)
        out[kw] = {
            "budget": b,
            "queries": v,
            "cost": cost,
            "payoff": payoff,
            "mp_minus": mp_minus,
            "mp_plus": mp_plus,
            "next_cost": nxt,
        }
    return out


def verify_bme(instance: Instance, profile: Profile,
               reserve: Fraction = ZERO) -> dict:
    """Check local stability of a committed profile, edge by edge.

    Condition one fails on an ordered keyword pair (l, j) of one advertiser
    when the next query on l pays a strictly better rate than the last
    bought query on j.  Condition two fails for an advertiser who has not
    parked her whole budget although some unsaturated keyword's next query
    is affordable with the money still at her disposal (wallet plus that
    pool's unspent remainder).
    """
    e1: List[dict] = []
    e2: List[dict] = []
    marginals: Dict[str, Dict[str, dict]] = {}
    for adv in instance.advertisers:
        i = adv.id
        if not instance.keywords_of(i):
            continue
        mp = marginal_payoffs(instance, i, profile, reserve)
        marginals[i] = mp
        for l in mp:
            up = mp[l]["mp_plus"]
            if up is None:
                continue
            for j in mp:
                if j == l:
                    continue
                down = mp[j]["mp_minus"]
                if down is None:
                    continue
                if rate_gt(up, down):
                    e1.append({"advertiser": i, "into": l, "outof": j,
                               "mp_plus": up, "mp_minus": down})
        # budget parked on a priced-out keyword can never turn into spend,
        # so it still counts as money at her disposal here
        total = sum((profile.committed(i, kw) for kw in mp), ZERO)
        if total == adv.budget:
            continue
        wallet = adv.budget - total
        for kw in mp:
            rec = mp[kw]
            if rec["queries"] >= instance.volume(kw):
                continue  # stream exhausted: nothing left to buy
            # money she could still direct at this keyword: whatever is not
            # parked anywhere plus this pool's own unspent remainder
            available = wallet + rec["budget"] - rec["cost"]
            if available >= rec["next_cost"]:
                e2.append({"advertiser": i, "keyword": kw,
                           "available": available,
                           "next_cost": rec["next_cost"],
                           "committed_total": total, "budget": adv.budget})
    return {"ok": not e1 and not e2, "e1_violations": e1, "e2_violations": e2,
            "marginals": marginals}


def verify_eps_ne(instance: Instance, profile: Profile, eps: Fraction,
                  method: str = "dp", reserve: Fraction = ZERO) -> dict:
    """Certify or refute the profile as an eps Nash point.

    With the exact method every advertiser's optimum is computed outright
    and the verdict is definite; an optimum past the dp's work cap
    (``bestresp.WORK_CAP``) is a ``ScaleError``.  With the approximation
    scheme, run at accuracy delta = eps/2, the optimum is only bracketed:
    payoff >= (1-eps) * alg/(1-delta) certifies, payoff < (1-eps) * alg
    refutes, anything between is inconclusive for that advertiser.
    ``eps`` must lie in [0, 1), since from 1 up the bound (1-eps) * optimum
    is at most 0 and passes every profile; the scheme needs eps > 0.
    """
    eps = Fraction(eps)
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    if method not in ("dp", "fptas"):
        raise ValueError("method must be dp or fptas")
    if method == "fptas" and eps == 0:
        raise ValueError("eps 0 cannot be certified by the approximation "
                         "scheme; use the exact method")
    delta = eps / 2
    day = simulate_day(instance, profile, reserve)
    per: Dict[str, dict] = {}
    statuses = []
    for adv in instance.advertisers:
        i = adv.id
        if not instance.keywords_of(i):
            continue
        have = day.payoff[i]
        if method == "dp":
            opt = bestresp.exact_best_response_dp(instance, i, profile,
                                                  reserve=reserve)
            ok = have >= (1 - eps) * opt.payoff
            status = "certified" if ok else "violated"
            per[i] = {"payoff": have, "optimum": opt.payoff,
                      "deviation": opt.queries, "status": status}
        else:
            alg = bestresp.fptas_as2(instance, i, profile, delta,
                                     reserve=reserve)
            upper = alg.payoff / (1 - delta)
            if have >= (1 - eps) * upper:
                status = "certified"
            elif have < (1 - eps) * alg.payoff:
                status = "violated"
            else:
                status = "inconclusive"
            per[i] = {"payoff": have, "alg": alg.payoff, "upper": upper,
                      "status": status}
        statuses.append(status)
    if all(s == "certified" for s in statuses):
        ok: Optional[bool] = True
    elif any(s == "violated" for s in statuses):
        ok = False
    else:
        ok = None
    return {"ok": ok, "eps": eps, "method": method, "per_advertiser": per}


def _state_key(profile: Profile) -> Tuple:
    return tuple(sorted((r.advertiser, r.keyword, r.queries, r.budget,
                         r.start_query) for r in profile.rows))


def initial_profile(instance: Instance) -> Profile:
    """Deterministic starting profile for the dynamics: each advertiser's
    whole budget on her matched keyword with the highest score (first in
    instance order on ties)."""
    rows: List[Allocation] = []
    for adv in instance.advertisers:
        kws = instance.keywords_of(adv.id)
        if not kws:
            continue
        best = max(kws, key=lambda kw: (instance.score(adv.id, kw),
                                        -instance.keyword_index(kw)))
        rows.append(Allocation(adv.id, best, 0, adv.budget))
    return Profile(tuple(rows))


def best_response_dynamics(instance: Instance, method: str = "greedy",
                           eps: Optional[Fraction] = None,
                           max_rounds: int = 100,
                           shuffle_seed: Optional[int] = None,
                           reserve: Fraction = ZERO,
                           profile: Optional[Profile] = None) -> dict:
    """Iterate single-advertiser responses until nothing moves.

    Starts from ``profile``, or by default from ``initial_profile``.
    Advertisers respond in ascending id order each round (or a seeded
    shuffle per round).  Stops at a fixed point, on revisiting an earlier
    state (a cycle), or after ``max_rounds`` rounds.
    """
    solver = {
        "greedy": lambda inst, i, prof: bestresp.greedy_local_best_response(
            inst, i, prof, reserve=reserve),
        "dp": lambda inst, i, prof: bestresp.exact_best_response_dp(
            inst, i, prof, reserve=reserve),
        "fptas": lambda inst, i, prof: bestresp.fptas_as2(
            inst, i, prof, eps if eps is not None else Fraction(1, 10),
            reserve=reserve),
    }.get(method)
    if solver is None:
        raise ValueError("unknown method %r" % method)
    state = profile if profile is not None else initial_profile(instance)
    order = sorted(a.id for a in instance.advertisers
                   if instance.keywords_of(a.id))
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    seen = {_state_key(state): 0}
    status, cycle_len = "max-rounds", None
    rounds_done = 0
    for rnd in range(1, max_rounds + 1):
        turn = list(order)
        if rng is not None:
            rng.shuffle(turn)
        nxt = state
        for i in turn:
            resp = solver(instance, i, nxt)
            nxt = nxt.replacing(i, resp.profile().rows)
        rounds_done = rnd
        key = _state_key(nxt)
        if key == _state_key(state):
            status = "fixed-point"
            state = nxt
            break
        if key in seen:
            status = "cycle"
            cycle_len = rnd - seen[key]
            state = nxt
            break
        seen[key] = rnd
        state = nxt
    return {"status": status, "rounds": rounds_done, "cycle_length": cycle_len,
            "profile": state, "method": method}


def natural_base_split(instance: Instance) -> Profile:
    """Whole budget on each advertiser's unique base keyword.

    The reference point for broadened-matching comparisons.  Ambiguous (and
    an error) when somebody holds more than one base edge.
    """
    return _natural_base_day(instance)[0]


def _natural_base_day(instance: Instance, reserve: Fraction = ZERO
                      ) -> Tuple[Profile, DayOutcome]:
    """``natural_base_split`` and its base day at ``reserve``.

    The split's query counts come from its base day at reserve 0, so at
    reserve 0 that day is returned as it is, not run again.
    """
    base = instance.base_instance()
    rows: List[Allocation] = []
    for adv in base.advertisers:
        kws = base.keywords_of(adv.id)
        if not kws:
            continue
        if len(kws) > 1:
            raise ValueError(
                "advertiser %s matches %d base keywords; the natural "
                "all-in split is ambiguous — supply one explicitly"
                % (adv.id, len(kws)))
        rows.append(Allocation(adv.id, kws[0], 0, adv.budget))
    day = simulate_day(base, Profile(tuple(rows)))
    fixed = Profile(tuple(
        Allocation(r.advertiser, r.keyword,
                   day.participation[(r.advertiser, r.keyword)], r.budget)
        for r in rows))
    if reserve:
        day = simulate_day(base, fixed, reserve)
    return fixed, day


def dilemma_report(base: Instance, ext: Instance, profiles: List[Profile],
                   reserve: Fraction = ZERO) -> dict:
    """Revenue movement from broadening the matching, per stable profile.

    Each candidate profile is first checked for local stability on the
    broadened instance (a failed check marks the report not ok); its day
    revenue is then compared with the base day under the all-in base
    split, ``natural_base_split``.  A mix of gains and losses across
    stable profiles is the auctioneer's dilemma: whether broadening pays
    depends on which stable point the advertisers settle into.
    """
    base_day = _natural_base_day(base, reserve)[1]
    rows = []
    ok = True
    for prof in profiles:
        check = verify_bme(ext, prof, reserve)
        day = simulate_day(ext, prof, reserve)
        if not check["ok"]:
            ok = False
        rows.append({
            "stable": check["ok"],
            "e1_violations": check["e1_violations"],
            "e2_violations": check["e2_violations"],
            "revenue": day.revenue,
            "delta": day.revenue - base_day.revenue,
            "welfare": day.welfare,
        })
    deltas = [r["delta"] for r in rows if r["stable"]]
    return {
        "ok": ok,
        "base_revenue": base_day.revenue,
        "base_welfare": base_day.welfare,
        "profiles": rows,
        "dilemma": bool(deltas) and any(d > 0 for d in deltas)
                   and any(d < 0 for d in deltas),
    }
