"""Check the knapsack's per-level candidates, and the values a best response
and an eps Nash check report, on real best-response traffic.

    PYTHONPATH=src python tests/level_candidates_check.py

Builds the ``best-response`` benchmark workload's jobs from ``bench/gen.py``
at seeds 1, 9 and 37 and runs each once in process.  Every dp and fptas
solve, the ones ``verify --eps-ne`` makes included, is then replayed on its
own tables:

* its payoff, cost and committed budgets must equal the ``Fraction`` sums
  of its prefixes (``conftest.reference_exact_value`` and
  ``reference_committed``), and its rounding unit the ``Fraction`` one: the
  dp's reported unit on three keywords or more
  (``reference_utility_unit``), the fptas's unit from ``_rounded``
  (``reference_rounded_unit``, at the inner eps of
  ``reference_fptas_scale``);
* on those solves, each keyword's ``_level_candidates`` list must equal the
  first candidate per level of the per-prefix sweep
  (``conftest.reference_level_candidates``), over every prefix for the dp
  and over the listed fptas grid (``conftest.reference_subpartition``) for
  the fptas, whose length must be the solve's ``grid_sizes`` entry.

Every ``verify_eps_ne`` report's per-advertiser status, and the scheme's
upper bound, must equal the ``Fraction`` brackets
(``conftest.reference_eps_verdict``).  Not collected by pytest; exits 1 on
the first value or list that differs.
"""

import contextlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
import run  # noqa: E402  (bench/run.py, read only)
from broadmatch import bestresp, cli, equilibrium  # noqa: E402
from broadmatch.partition import tables_for  # noqa: E402
from conftest import (reference_committed,  # noqa: E402
                      reference_eps_verdict, reference_exact_value,
                      reference_fptas_scale, reference_level_candidates,
                      reference_rounded_unit, reference_subpartition,
                      reference_utility_unit)

WORKLOAD, SEEDS = "best-response", (1, 9, 37)


class Mismatch(Exception):
    pass


def replay(instance, advertiser, others, reserve, eps, res, unit):
    """Compare one solve's values and candidate lists with the reference;
    returns the number of lists compared.  ``unit`` is the fptas's
    rounding unit, None for the dp."""
    tables = tables_for(instance, advertiser, others, reserve=reserve)
    want = reference_exact_value(tables, res.queries)
    if (res.payoff, res.cost) != want:
        raise Mismatch("%s: payoff and cost %r != %r"
                       % (advertiser, (res.payoff, res.cost), want))
    want = reference_committed(tables, res.queries)
    if res.committed != want:
        raise Mismatch("%s: committed %r != %r"
                       % (advertiser, res.committed, want))
    budget = instance.budget(advertiser)
    m = len(tables)
    if eps is None:  # the dp: its knapsack runs on three keywords or more
        if m < 3:
            return 0
        unit, g = reference_utility_unit(list(tables.items())), None
        if res.meta["unit"] != unit:
            raise Mismatch("%s: dp unit %r != %r"
                           % (advertiser, res.meta["unit"], unit))
        grids = {kw: range(t.volume + 1) for kw, t in tables.items()}
    else:
        g, inner = reference_fptas_scale(m, eps)
        afford = {kw: t.max_affordable(budget) for kw, t in tables.items()}
        grids = {kw: reference_subpartition(t, eps, m, cap=afford[kw])
                 for kw, t in tables.items()}
        sizes = {kw: len(xs) for kw, xs in grids.items()}
        if sizes != res.meta["grid_sizes"]:
            raise Mismatch("grid sizes %r != %r"
                           % (res.meta["grid_sizes"], sizes))
        want = reference_rounded_unit(tables, afford, inner, sizes)
        if unit != want:
            raise Mismatch("%s: fptas unit %r != %r"
                           % (advertiser, unit, want))
        if unit is None:
            return 0
    for kw, t in tables.items():
        want = reference_level_candidates(t, grids[kw], budget, unit)
        got = bestresp._level_candidates(t, t.max_affordable(budget), unit, g)
        if got != want:
            raise Mismatch("%s on %s: %r != %r" % (advertiser, kw, got, want))
    return m


def check_verdicts(eps, method, report):
    """Compare an eps Nash report's statuses and upper bounds with the
    reference; returns the number of advertisers compared."""
    exact = method == "dp"
    for i, rec in report["per_advertiser"].items():
        alg = rec["optimum" if exact else "alg"]
        want = reference_eps_verdict(rec["payoff"], eps, alg, exact)
        if (rec["status"], rec.get("upper")) != want:
            raise Mismatch("%s: eps-ne %r != %r"
                           % (i, (rec["status"], rec.get("upper")), want))
    return len(report["per_advertiser"])


def main() -> int:
    solves, reports, units, lists = [], [], [], 0
    dp, fptas = bestresp.exact_best_response_dp, bestresp.fptas_as2
    rounded, eps_ne = bestresp._rounded, equilibrium.verify_eps_ne

    def traced_dp(instance, advertiser, others, reserve=bestresp.ZERO):
        res = dp(instance, advertiser, others, reserve=reserve)
        solves.append((instance, advertiser, others, reserve, None, res,
                       None))
        return res

    def traced_fptas(instance, advertiser, others, eps,
                     reserve=bestresp.ZERO):
        units.clear()
        res = fptas(instance, advertiser, others, eps, reserve=reserve)
        solves.append((instance, advertiser, others, reserve,
                       Fraction(eps), res, *units))
        return res

    def traced_rounded(*args):
        out = rounded(*args)
        units.append(out[1])
        return out

    def traced_eps_ne(instance, profile, eps, method="dp",
                      reserve=bestresp.ZERO):
        rep = eps_ne(instance, profile, eps, method, reserve)
        reports.append((Fraction(eps), method, rep))
        return rep

    bestresp.exact_best_response_dp = traced_dp
    bestresp.fptas_as2 = traced_fptas
    bestresp._rounded = traced_rounded
    equilibrium.verify_eps_ne = traced_eps_ne
    counts = {"dp": 0, "fptas": 0, "values": 0, "verdicts": 0}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for seed in SEEDS:
                jobs, _ = run.setup(gen, WORKLOAD, seed,
                                    Path(tmp) / str(seed))
                for name, argv, _, _ in jobs:
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.run(list(argv))
                    try:
                        for solve in solves:
                            n = replay(*solve)
                            counts["values"] += 1
                            if n:
                                counts["dp" if solve[4] is None
                                       else "fptas"] += 1
                                lists += n
                        for report in reports:
                            counts["verdicts"] += check_verdicts(*report)
                    except Mismatch as exc:
                        print("seed %d %s: %s" % (seed, name, exc))
                        return 1
                    solves.clear()
                    reports.clear()
    finally:
        bestresp.exact_best_response_dp, bestresp.fptas_as2 = dp, fptas
        bestresp._rounded, equilibrium.verify_eps_ne = rounded, eps_ne
    print("%s at seeds %s: %d solves' values, %d fptas and %d dp solves' "
          "%d candidate lists, %d eps-ne verdicts, all equal"
          % (WORKLOAD, ", ".join(map(str, SEEDS)), counts["values"],
             counts["fptas"], counts["dp"], lists, counts["verdicts"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
