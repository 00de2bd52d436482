"""The scheduler's ``--fine`` entry search against an exhaustive scan.

The search (``acbm._search``) settles a quiet segment with two probes,
scans any other segment of at most FINE_WINDOW queries whole and samples a
wider one; this compares it with an exhaustive per-query scan on seeded
extension pairs.  The scan probes every query of every segment, so it is
kept out of the test suite (``test_acbm`` runs a small seeded slice of the
quiet-segment check).  Run it as

    PYTHONPATH=src python tests/fine_search_misses.py [SEEDS]

(default 2,000 seeds); it prints the counts and fails if a narrow segment,
which the search scans whole, ever misses, or if the two-probe rule's
claim fails on a quiet segment.
"""

import random
import sys
from fractions import Fraction as F

from broadmatch import acbm
from broadmatch.acbm import excess_budgets
from broadmatch.equilibrium import natural_base_day
from broadmatch.model import Allocation
from broadmatch.partition import keyword_day
from broadmatch.simulate import simulate_day
from conftest import random_extension_pair, random_profile


def _first_round(seed: int, reserve: F = F(0)):
    """The scheduler's first-round entries on a seeded extension pair
    (volumes up to 200): for every extension edge of an excess holder,
    (ext, keyword, rows committed there, entrant, wallet, initial day).
    The initial day is the natural split's base day, as in the scheduler."""
    rng = random.Random(seed)
    base, ext = random_extension_pair(rng, v_max=200)
    profile, day = natural_base_day(base, reserve)
    info = excess_budgets(base, day)
    for e in ext.extension_edges():
        i, j = e.advertiser, e.keyword
        if info[i]["excess"]:
            yield ext, j, profile.rows_on(j), i, info[i]["leftover"], day


def _scheduled(seed: int, reserve: F):
    """Entries beside a random schedule of the same pair's base market,
    whose rows start anywhere in their keyword's day: for every extension
    edge, (ext, keyword, rows committed there, entrant, a drawn wallet,
    the day of those rows)."""
    rng = random.Random(seed)
    base, ext = random_extension_pair(rng, v_max=200)
    profile = random_profile(rng, base, schedule=True)
    day = simulate_day(ext, profile, reserve)
    for e in ext.extension_edges():
        j = e.keyword
        yield (ext, j, profile.rows_on(j), e.advertiser,
               F(rng.randint(0, 240), rng.choice([1, 2])), day)


def fine_search_misses(seeds) -> dict:
    """The ``--fine`` search against an exhaustive per-query scan.

    Every extension edge of an excess holder is probed, as in the
    scheduler's first round, at every start of every segment of the
    initial day.  Per (edge, segment), the search's best delta is compared
    with the scan's best.  Counts narrow (at most FINE_WINDOW queries) and
    wide segments, misses among each, and for each wide miss the shortfall
    as a fraction of the best delta; a round misses when the best delta
    over all its edges and segments falls short of the scan's.
    """
    out = {"narrow": 0, "narrow_misses": 0, "wide": 0, "wide_misses": 0,
           "shortfalls": [], "rounds": 0, "round_misses": 0}
    for seed in seeds:
        found_all = best_all = None
        for ext, j, on_j, i, avail, day in _first_round(seed):

            def probe(t):
                rev, _, certified = acbm._probe(
                    ext, on_j, j, (Allocation(i, j, 0, avail, t),), F(0))
                return rev - day.keyword_revenue[j], certified

            segs = day.segments[j]
            for lo, hi in zip(segs.lo, segs.hi):
                found = max(d for d, _ in acbm._search(
                    lo, hi, True, probe).values())
                best = max(probe(t)[0] for t in range(lo, hi + 1))
                wide = hi - lo + 1 > acbm.FINE_WINDOW
                out["wide" if wide else "narrow"] += 1
                if found < best:
                    out["wide_misses" if wide else "narrow_misses"] += 1
                    if best > 0:
                        out["shortfalls"].append((best - found) / best)
                found_all = found if found_all is None else max(found_all,
                                                                found)
                best_all = best if best_all is None else max(best_all, best)
        if best_all is not None and best_all > 0:
            out["rounds"] += 1
            out["round_misses"] += found_all < best_all
    return out


def quiet_segments(seeds, reserves=(F(0), F(1, 2))) -> dict:
    """The two-probe rule against an exhaustive per-query scan.

    Entrants come from the scheduler's first round and from beside a
    random schedule (``_scheduled``).  On every segment of their keyword's
    day that ``acbm._quiet`` selects, at each reserve, the scan runs the
    entrant's pinned day at every start the long way: one run at the
    wallet for what it pays, one run pinned to that.  Counts quiet
    segments, the wide ones among them, those after a committed row that
    starts past query 1 (``late``), and three failures of the claim: the
    probe at lo + 1 lacks the certificate (``uncertified``); a pinned
    delta rises somewhere on (lo, hi] (``rises``); the search's (best
    delta, earliest best start) differs from the scan's (``fast_misses``).
    """
    out = {"quiet": 0, "wide": 0, "late": 0, "uncertified": 0, "rises": 0,
           "fast_misses": 0}
    for reserve in reserves:
        for seed in seeds:
            for ext, j, on_j, i, avail, day in (*_first_round(seed, reserve),
                                                *_scheduled(seed, reserve)):

                def probe(t):
                    rev, _, certified = acbm._probe(
                        ext, on_j, j, (Allocation(i, j, 0, avail, t),),
                        reserve)
                    return rev - day.keyword_revenue[j], certified

                def pinned_delta(t):
                    entrant = Allocation(i, j, 0, avail, t)
                    totals = keyword_day(ext, j, on_j + (entrant,),
                                         reserve).totals
                    paid = F(totals.int_paid.get(i, 0), totals.D)
                    pinned = Allocation(i, j, 0, paid, t)
                    totals = keyword_day(ext, j, on_j + (pinned,),
                                         reserve).totals
                    return totals.revenue - day.keyword_revenue[j]

                segs = day.segments[j]
                for n, (lo, hi) in enumerate(zip(segs.lo, segs.hi)):
                    if not acbm._quiet(segs, n, on_j, ext.volume(j)):
                        continue
                    out["quiet"] += 1
                    out["wide"] += hi - lo + 1 > acbm.FINE_WINDOW
                    out["late"] += any(r.start_query > 1 for r in on_j)
                    scan = [pinned_delta(t) for t in range(lo, hi + 1)]
                    out["uncertified"] += lo < hi and not probe(lo + 1)[1]
                    out["rises"] += any(b > a for a, b in zip(scan[1:],
                                                              scan[2:]))
                    probed = acbm._search(lo, hi, True, probe, quiet=True)
                    t, (delta, _) = max(sorted(probed.items()),
                                        key=lambda kv: kv[1][0])
                    best = max(scan)
                    out["fast_misses"] += (delta, t) != (
                        best, lo + scan.index(best))
    return out


if __name__ == "__main__":
    seeds = range(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
    got = fine_search_misses(seeds)
    shortfalls = got.pop("shortfalls")
    print(got)
    if shortfalls:
        print("wide-miss shortfalls: max %s, median %s"
              % (max(shortfalls), sorted(shortfalls)[len(shortfalls) // 2]))
    quiet = quiet_segments(seeds)
    print(quiet)
    sys.exit(1 if got["narrow_misses"] or quiet["uncertified"]
             or quiet["rises"] or quiet["fast_misses"] else 0)
