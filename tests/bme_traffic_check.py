"""Check the stability check's marginal rates on real traffic.

    PYTHONPATH=src python tests/bme_traffic_check.py

Builds the 36 ``verify --bme`` markets of the ``market-day`` benchmark
workload from ``bench/gen.py`` at seeds 1, 9 and 37, and requires
``verify_bme``'s marginal records of every advertiser to equal the
whole-day table reading (``conftest.reference_marginals``) field for field,
key order included.  These markets are wider than the seeded corpus (up to
54 advertisers over 20 keywords, volumes up to 9 * 10^8), and most records
are read off the profile's own day without a run of their own.  Not
collected by pytest; exits 1 on
the first advertiser whose records differ.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
from broadmatch.equilibrium import verify_bme  # noqa: E402
from broadmatch.model import load_instance, load_split  # noqa: E402
from conftest import reference_marginals  # noqa: E402

WORKLOAD, SEEDS = "market-day", (1, 9, 37)


def _records(mp):
    return [(kw, list(rec.items())) for kw, rec in mp.items()]


def main() -> int:
    markets = advertisers = 0
    for seed in SEEDS:
        files, jobs = gen.WORKLOADS[WORKLOAD](seed)
        for name, argv, _, _ in jobs:
            if "--bme" not in argv:
                continue
            instance = load_instance(files[name + ".json"])
            profile = load_split(files[name + ".split.json"])
            got = verify_bme(instance, profile)["marginals"]
            want = {a.id: reference_marginals(instance, a.id, profile)
                    for a in instance.advertisers
                    if instance.keywords_of(a.id)}
            if list(got) != list(want):
                print("seed %d %s: advertisers %r != %r"
                      % (seed, name, list(got), list(want)))
                return 1
            for adv, mp in want.items():
                if _records(got[adv]) != _records(mp):
                    print("seed %d %s: advertiser %s: %r != %r"
                          % (seed, name, adv, got[adv], mp))
                    return 1
            markets += 1
            advertisers += len(want)
    print("%d verify --bme markets at seeds %s, %d advertisers, all records "
          "equal" % (markets, ", ".join(map(str, SEEDS)), advertisers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
