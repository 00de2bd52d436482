"""Check the knapsack's per-level candidates on real best-response traffic.

    PYTHONPATH=src python tests/level_candidates_check.py

Builds the ``best-response`` benchmark workload's jobs from ``bench/gen.py``
at seeds 1, 9 and 37 and runs each once in process.  Every fptas solve and
every exact dp solve on three or more keywords, the ones ``verify --eps-ne``
makes included, is then replayed on its own tables: each keyword's
``_level_candidates`` list must equal the first candidate per level of the
per-prefix sweep (``conftest.reference_level_candidates``), over every
prefix for the dp and over the listed fptas grid
(``conftest.reference_subpartition``) for the fptas, whose length must be
the solve's ``grid_sizes`` entry.  Not collected by pytest; exits 1 on the
first list that differs.
"""

import contextlib
import io
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
import run  # noqa: E402  (bench/run.py, read only)
from broadmatch import bestresp, cli  # noqa: E402
from broadmatch.partition import tables_for  # noqa: E402
from conftest import (reference_level_candidates,  # noqa: E402
                      reference_subpartition)

WORKLOAD, SEEDS = "best-response", (1, 9, 37)


class Mismatch(Exception):
    pass


def replay(instance, advertiser, others, reserve, eps, meta):
    """Compare one solve's candidate lists with the reference; returns the
    number of lists compared."""
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    budget = instance.budget(advertiser)
    m = len(tables)
    if eps is None:  # the dp: its knapsack runs on three keywords or more
        if m < 3:
            return 0
        unit, g = bestresp._utility_unit(list(tables.items())), None
        grids = {kw: range(t.volume + 1) for kw, t in tables.items()}
    else:
        inner = eps / (1 + eps)
        afford = {kw: t.max_affordable(budget) for kw, t in tables.items()}
        grids = {kw: reference_subpartition(t, eps, m, cap=afford[kw])
                 for kw, t in tables.items()}
        sizes = {kw: len(xs) for kw, xs in grids.items()}
        if sizes != meta["grid_sizes"]:
            raise Mismatch("grid sizes %r != %r" % (meta["grid_sizes"], sizes))
        peak = max([Fraction(0), *(tables[kw].prefix(x)[0]
                                   for kw, x in afford.items())])
        if peak == 0:
            return 0
        unit, g = inner * peak / m, math.ceil(m / (eps * eps))
    for kw, t in tables.items():
        want = reference_level_candidates(t, grids[kw], budget, unit)
        got = bestresp._level_candidates(t, t.max_affordable(budget), unit, g)
        if got != want:
            raise Mismatch("%s on %s: %r != %r" % (advertiser, kw, got, want))
    return m


def main() -> int:
    solves, lists = [], 0
    dp, fptas = bestresp.exact_best_response_dp, bestresp.fptas_as2

    def traced_dp(instance, advertiser, others, reserve=bestresp.ZERO):
        res = dp(instance, advertiser, others, reserve=reserve)
        solves.append((instance, advertiser, others, reserve, None, res.meta))
        return res

    def traced_fptas(instance, advertiser, others, eps,
                     reserve=bestresp.ZERO):
        res = fptas(instance, advertiser, others, eps, reserve=reserve)
        solves.append((instance, advertiser, others, reserve,
                       Fraction(eps), res.meta))
        return res

    bestresp.exact_best_response_dp = traced_dp
    bestresp.fptas_as2 = traced_fptas
    counts = {"dp": 0, "fptas": 0}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                jobs, _ = run.setup(gen, WORKLOAD, seed,
                                    Path(tmp) / str(seed))
                for name, argv, _, _ in jobs:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.run(list(argv))
                    for solve in solves:
                        try:
                            n = replay(*solve)
                        except Mismatch as exc:
                            print("seed %d %s: %s" % (seed, name, exc))
                            return 1
                        if n:
                            counts["dp" if solve[4] is None else "fptas"] += 1
                            lists += n
                    solves.clear()
    finally:
        bestresp.exact_best_response_dp, bestresp.fptas_as2 = dp, fptas
    print("%s at seeds %s: %d fptas and %d dp solves, %d candidate lists, "
          "all equal" % (WORKLOAD, ", ".join(map(str, SEEDS)),
                         counts["fptas"], counts["dp"], lists))
    return 0


if __name__ == "__main__":
    sys.exit(main())
