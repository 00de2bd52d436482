"""Check the stability check's marginal rates on real traffic.

    PYTHONPATH=src python tests/bme_traffic_check.py

Builds the 36 ``verify --bme`` markets of the ``market-day`` benchmark
workload from ``bench/gen.py`` at seeds 1, 9 and 37, and requires
``verify_bme``'s marginal records of every advertiser to equal the
whole-day table reading (``conftest.reference_marginals``) field for field,
key order included.  These markets are wider than the seeded corpus (up to
54 advertisers over 20 keywords, volumes up to 9 * 10^8), and most records
are read off the profile's own day without a run of their own.

Each seed also counts how ``partition.keyword_marginals`` read its
subjects (``Marginal.case``), called per keyword on the subjects gathered
as ``verify_bme`` gathers them, and prints the counts with the timeline
runs and segments of the tails: the runs it makes itself, apart from the
profile's own days it runs through ``keyword_day``.  A seed at which one
of ``exhausted``, ``quiet`` or ``tail`` is never taken, or whose tails do
not make one run each, fails the check, so the tail path stays covered.
Not collected by pytest; exits 1 on the first failure.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
from broadmatch import partition  # noqa: E402
from broadmatch.equilibrium import verify_bme  # noqa: E402
from broadmatch.model import load_instance, load_split  # noqa: E402
from conftest import ZERO, reference_marginals  # noqa: E402

WORKLOAD, SEEDS = "market-day", (1, 9, 37)
RESERVE = ZERO  # the workload's verify --bme jobs set no reserve
CASES = ("exhausted", "quiet", "tail")


def _records(mp):
    return [(kw, list(rec.items())) for kw, rec in mp.items()]


def _count_cases(instance, profile, cases, runs):
    """Add each subject's case to ``cases``, and the runs and segments of
    every timeline run and of every own day to ``runs``."""
    subjects = {}
    for e in instance.edges:
        if e.score >= RESERVE:
            subjects.setdefault(e.keyword, []).append(e.advertiser)
    timeline, own_day = partition.run_keyword_timeline, partition.keyword_day

    def counted(name, run):
        def wrapper(*args):
            day = run(*args)
            runs[name] += 1
            runs[name + " segments"] += len(day)
            return day
        return wrapper

    partition.run_keyword_timeline = counted("all", timeline)
    partition.keyword_day = counted("own", own_day)
    try:
        for kw, subs in subjects.items():
            for m in partition.keyword_marginals(instance, kw, profile, subs,
                                                 RESERVE).values():
                cases[m.case] += 1
    finally:
        partition.run_keyword_timeline, partition.keyword_day = (timeline,
                                                                 own_day)


def main() -> int:
    markets = advertisers = 0
    for seed in SEEDS:
        cases, runs = Counter(), Counter()
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
            _count_cases(instance, profile, cases, runs)
            markets += 1
            advertisers += len(want)
        tails = runs["all"] - runs["own"]
        segments = runs["all segments"] - runs["own segments"]
        print("seed %d: subjects %s; tails: %d timeline runs, %d segments"
              % (seed, ", ".join("%s %d" % (c, cases[c]) for c in CASES),
                 tails, segments))
        missing = [c for c in CASES if not cases[c]]
        if missing:
            print("seed %d: no subject read as %s" % (seed, ", ".join(missing)))
            return 1
        if tails != cases["tail"]:
            print("seed %d: %d tail subjects made %d tail runs"
                  % (seed, cases["tail"], tails))
            return 1
    print("%d verify --bme markets at seeds %s, %d advertisers, all records "
          "equal" % (markets, ", ".join(map(str, SEEDS)), advertisers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
