"""How often the scheduler's ``--fine`` entry search misses the best start.

The search (``acbm._search``) scans a segment of at most FINE_WINDOW queries
whole and samples a wider one; this compares it with an exhaustive
per-query scan on seeded extension pairs.  The scan probes every query of
every segment, so it is kept out of the test suite.  Run it as

    PYTHONPATH=src python tests/fine_search_misses.py [SEEDS]

(default 2,000 seeds); it prints the counts and fails if a narrow segment,
which the search scans whole, ever misses.
"""

import random
import sys
from fractions import Fraction as F

from broadmatch import acbm
from broadmatch.acbm import excess_budgets
from broadmatch.equilibrium import natural_base_split
from broadmatch.model import Allocation
from broadmatch.simulate import simulate_day
from conftest import random_extension_pair


def fine_search_misses(seeds) -> dict:
    """The ``--fine`` search against an exhaustive per-query scan.

    For each seeded extension pair (volumes up to 200), every extension
    edge of an excess holder is probed, as in the scheduler's first round,
    at every start of every segment of the initial day.  Per (edge,
    segment), the search's best delta is compared with the scan's best.
    Counts narrow (at most FINE_WINDOW queries) and wide segments, misses
    among each, and for each wide miss the shortfall as a fraction of the
    best delta; a round misses when the best delta over all its edges and
    segments falls short of the scan's.
    """
    out = {"narrow": 0, "narrow_misses": 0, "wide": 0, "wide_misses": 0,
           "shortfalls": [], "rounds": 0, "round_misses": 0}
    for seed in seeds:
        rng = random.Random(seed)
        base, ext = random_extension_pair(rng, v_max=200)
        profile = natural_base_split(base)
        day = simulate_day(ext, profile)
        info = excess_budgets(base, profile)
        found_all = best_all = None
        for e in ext.extension_edges():
            i, j = e.advertiser, e.keyword
            if not info[i]["excess"]:
                continue
            on_j = profile.rows_on(j)
            avail = info[i]["leftover"]

            def probe(t):
                rev, _ = acbm._probe(
                    ext, on_j, j, (Allocation(i, j, 0, avail, t),), F(0))
                return (rev - day.keyword_revenue[j],)

            for seg in day.segments[j]:
                found = max(d for d, in
                            acbm._search(seg.lo, seg.hi, True, probe).values())
                best = max(probe(t)[0] for t in range(seg.lo, seg.hi + 1))
                wide = len(seg) > acbm.FINE_WINDOW
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


if __name__ == "__main__":
    got = fine_search_misses(range(int(sys.argv[1]) if len(sys.argv) > 1
                                   else 2000))
    shortfalls = got.pop("shortfalls")
    print(got)
    if shortfalls:
        print("wide-miss shortfalls: max %s, median %s"
              % (max(shortfalls), sorted(shortfalls)[len(shortfalls) // 2]))
    sys.exit(1 if got["narrow_misses"] else 0)
