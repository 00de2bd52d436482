"""Seeded input generator for the benchmark.

Three market shapes, each built from a ``random.Random`` and written as the
JSON documents the command line reads, through the model's own serializers:

- ``wide_market``: many advertisers over many keywords, each advertiser on
  three keywords, volumes up to 9 * 10^8, with a uniform budget split.
- ``deep_subject``: one subject advertiser ``s`` on a few keywords against
  four rivals, for the best-response solvers.
- ``extension_pair``: a crowded and a thin keyword, one base edge per
  advertiser, and a broadened copy with a few extension edges, for acbm.

Only the random structure (budgets, scores, edges, volumes) comes from the
seed; market sizes are fixed per workload, so the amount of work in a run
barely moves from seed to seed.  The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from broadmatch.model import (Advertiser, Allocation, Edge, Instance, Keyword,
                              Profile, SlotParams, serialize_instance,
                              serialize_profile)
from broadmatch.simulate import simulate_day

WIDE_GAMMA = tuple(Fraction(g) for g in ("1", "3/4", "1/2", "1/4", "1/8"))
FEW_GAMMA = tuple(Fraction(g) for g in ("1", "1/2", "1/4"))
EXT_GAMMA = tuple(Fraction(g) for g in ("1", "3/4", "1/2"))


def rng_for(seed: int, *parts) -> random.Random:
    """An independent stream per (seed, job): adding a job never shifts the
    inputs of the others."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _uniform_split(instance: Instance) -> Profile:
    """Each advertiser's budget in equal shares over all her keywords.
    Declared query counts are 0: the split states money, not outcomes."""
    rows = []
    for a in instance.advertisers:
        kws = instance.keywords_of(a.id)
        for kw in kws:
            rows.append(Allocation(a.id, kw, 0, a.budget / len(kws)))
    return Profile(tuple(rows))


def wide_market(rng: random.Random, n: int,
                m: int) -> Tuple[Instance, Profile]:
    """n advertisers on three random keywords each out of m, five slots,
    volumes d * 10^e up to 9 * 10^8, budgets 50..5000 over {1,2,4,5}, scores
    1..60 over 1..4, and the uniform split."""
    keywords = tuple(Keyword("k%d" % (j + 1),
                             rng.randint(1, 9) * 10 ** rng.randint(3, 8))
                     for j in range(m))
    advertisers = tuple(
        Advertiser("a%d" % (i + 1),
                   Fraction(rng.randint(50, 5000), rng.choice((1, 2, 4, 5))))
        for i in range(n))
    edges = []
    for a in advertisers:
        for k in sorted(rng.sample(range(m), 3)):
            edges.append(Edge(a.id, keywords[k].id,
                              Fraction(rng.randint(1, 60), rng.randint(1, 4))))
    instance = Instance(SlotParams(WIDE_GAMMA), keywords, advertisers,
                        tuple(edges))
    return instance, _uniform_split(instance)


def deep_subject(rng: random.Random, k: int, vol_lo: int,
                 vol_hi: int) -> Tuple[Instance, Profile]:
    """Subject ``s`` on all k keywords, four rivals on one or two of them.

    Three slots with power-of-two clickabilities and integer scores keep
    payoff denominators small, so the exact dp's lcm grid stays under its
    cap at volumes up to 60.  Budgets are 1..4 (subject) and 1..6 (rivals)
    times the largest volume, so streams run out partway through.
    """
    keywords = tuple(Keyword("k%d" % (j + 1), rng.randint(vol_lo, vol_hi))
                     for j in range(k))
    advertisers = [Advertiser("s", Fraction(rng.randint(vol_hi, 4 * vol_hi),
                                            rng.choice((1, 2))))]
    edges = [Edge("s", kw.id, Fraction(rng.randint(3, 9))) for kw in keywords]
    for r in range(4):
        rid = "r%d" % (r + 1)
        advertisers.append(Advertiser(
            rid, Fraction(rng.randint(vol_hi, 6 * vol_hi), rng.choice((1, 2)))))
        for j in sorted(rng.sample(range(k), min(k, rng.randint(1, 2)))):
            edges.append(Edge(rid, keywords[j].id, Fraction(rng.randint(1, 9))))
    instance = Instance(SlotParams(FEW_GAMMA), keywords, tuple(advertisers),
                        tuple(edges))
    return instance, _uniform_split(instance)


def extension_pair(rng: random.Random, n: int,
                   new_edges: int) -> Tuple[Instance, Instance]:
    """A crowded keyword with n - 1 advertisers and a thin one with a
    single advertiser, volumes 10^5..10^6; ``new_edges`` crowded-keyword
    advertisers get an extension edge onto the thin keyword.

    Exactly one entrant holds excess budget after the base day; the others
    are spent out.  A fine acbm run probes query windows in every segment
    an excess holder could enter, so its cost follows the number of such
    entrants and segments: unconstrained draws swing from no probes at all
    to several moves, a tenfold spread in job time between seeds.  Here the
    thin keyword is one segment long (its lone bidder pays nothing) and one
    entrant probes it.  Markets are redrawn until such entrants exist.
    """
    slots = SlotParams(EXT_GAMMA)
    while True:
        keywords = (Keyword("k1", rng.randint(10 ** 5, 10 ** 6)),
                    Keyword("k2", rng.randint(10 ** 5, 10 ** 6)))
        crowded, thin = rng.sample(keywords, 2)
        advertisers = tuple(
            Advertiser("a%d" % (i + 1), Fraction(rng.randint(10 ** 4, 10 ** 6),
                                                 rng.choice((1, 2, 4, 5))))
            for i in range(n))
        lone = rng.randrange(n)
        base_edges = tuple(
            Edge(a.id, (thin if i == lone else crowded).id,
                 Fraction(rng.randint(1, 60), rng.randint(1, 4)))
            for i, a in enumerate(advertisers))
        base = Instance(slots, keywords, advertisers, base_edges)
        day = simulate_day(base, Profile(tuple(
            Allocation(e.advertiser, e.keyword, 0, base.budget(e.advertiser))
            for e in base_edges)))
        holders, spent = [], []
        for i, e in enumerate(base_edges):
            if i != lone:
                excess = day.leftover[e.advertiser] >= e.score
                (holders if excess else spent).append(i)
        if holders and len(spent) >= new_edges - 1:
            break
    entrants = sorted([rng.choice(holders)] + rng.sample(spent, new_edges - 1))
    ext_edges = base_edges + tuple(
        Edge(advertisers[i].id, thin.id,
             Fraction(rng.randint(1, 60), rng.randint(1, 4)), tag="extension")
        for i in entrants)
    return base, Instance(slots, keywords, advertisers, ext_edges)


def dump(doc: dict) -> str:
    """The bytes a document is written as."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def instance_text(instance: Instance) -> str:
    return dump(serialize_instance(instance))


def profile_text(profile: Profile) -> str:
    return dump(serialize_profile(profile))


# -- workloads ---------------------------------------------------------------

# A job is (name, argv with {file} placeholders, expected exit codes, check).
Job = Tuple[str, List[str], Tuple[int, ...], str]

# Each workload repeats a block of fixed market sizes with fresh draws, so a
# run holds dozens of distinct markets and its totals average over their
# structure; sizes are not drawn from the seed.  Kinds alternate within a
# block so that a run cut mid-pass keeps the mix.
MARKET_DAY_BLOCK = [("sim", 120, 24), ("bme", 24, 10), ("sim", 160, 32),
                    ("bme", 30, 12), ("sim", 200, 40), ("bme", 36, 14),
                    ("sim", 240, 48), ("bme", 42, 16), ("sim", 280, 56),
                    ("bme", 48, 18), ("sim", 320, 60), ("bme", 54, 20)]
# (method, keywords)
BEST_RESPONSE_BLOCK = [("dp", 2), ("dp", 3), ("fptas", 4), ("ne", 2),
                       ("dp", 3), ("fptas", 5), ("dp", 2), ("dp", 3),
                       ("fptas", 6), ("ne", 3), ("dp", 3), ("fptas", 4),
                       ("dp", 2), ("dp", 3), ("fptas", 5), ("ne", 3),
                       ("dp", 3), ("fptas", 6)]
# (advertisers, new edges)
ACBM_BLOCK = [(4, 2), (5, 2), (6, 3), (4, 2), (7, 3), (5, 3), (6, 2), (4, 2)]
# Volume range per method.  The dp's lcm grid grows with the product of
# volume and payoff, so its volumes stay at 20..40: cheap enough to run
# dozens per run, and no single market dominates a run's time.
DEEP_VOLUMES = {"dp": (20, 40), "ne": (20, 60), "fptas": (10 ** 6, 10 ** 9)}
BLOCKS = {"market-day": 6, "best-response": 24, "acbm-fine": 12}


def market_day(seed: int) -> Tuple[Dict[str, str], List[Job]]:
    """``simulate --split`` on wide markets and ``verify --bme`` on narrower
    ones, sized so that the two job kinds take overlapping times."""
    files: Dict[str, str] = {}
    jobs: List[Job] = []
    for block in range(BLOCKS["market-day"]):
        for kind, n, m in MARKET_DAY_BLOCK:
            name = "%s%d-n%d-m%d" % (kind, block, n, m)
            inst, split = wide_market(rng_for(seed, name), n, m)
            files[name + ".json"] = instance_text(inst)
            files[name + ".split.json"] = profile_text(split)
            argv = ["{%s.json}" % name, "--split", "{%s.split.json}" % name]
            if kind == "sim":
                jobs.append((name, ["simulate"] + argv, (0,), "day"))
            else:
                jobs.append((name, ["verify"] + argv + ["--bme"], (0, 3), "bme"))
    return files, jobs


def best_response(seed: int) -> Tuple[Dict[str, str], List[Job]]:
    """Exact dp on two and three keywords at volumes 20..40, the fptas on
    four to six keywords at volumes 10^6..10^9, and approximate-Nash
    certification of a uniform split at volumes 20..60."""
    files: Dict[str, str] = {}
    jobs: List[Job] = []
    for block in range(BLOCKS["best-response"]):
        for n, (method, k) in enumerate(BEST_RESPONSE_BLOCK):
            name = "%s%d-%d-k%d" % (method, block, n, k)
            inst, split = deep_subject(rng_for(seed, name), k,
                                       *DEEP_VOLUMES[method])
            files[name + ".json"] = instance_text(inst)
            if method == "ne":
                files[name + ".split.json"] = profile_text(split)
                jobs.append((name, ["verify", "{%s.json}" % name,
                                    "--split", "{%s.split.json}" % name,
                                    "--eps-ne", "1/10", "--method", "fptas"],
                             (0, 3), "eps-ne"))
                continue
            argv = ["best-response", "{%s.json}" % name, "--advertiser", "s",
                    "--method", method]
            if method == "fptas":
                argv += ["--eps", "1/4"]
            jobs.append((name, argv, (0,), "response"))
    return files, jobs


def acbm_fine(seed: int) -> Tuple[Dict[str, str], List[Job]]:
    """``acbm BASE --ext EXT --fine`` on small extension pairs."""
    files: Dict[str, str] = {}
    jobs: List[Job] = []
    for block in range(BLOCKS["acbm-fine"]):
        for n, (adv, e) in enumerate(ACBM_BLOCK):
            name = "acbm%d-%d-n%d-e%d" % (block, n, adv, e)
            base, ext = extension_pair(rng_for(seed, name), adv, e)
            files[name + ".json"] = instance_text(base)
            files[name + ".ext.json"] = instance_text(ext)
            jobs.append((name, ["acbm", "{%s.json}" % name,
                                "--ext", "{%s.ext.json}" % name, "--fine"],
                         (0,), "acbm"))
    return files, jobs


WORKLOADS = {
    "market-day": market_day,
    "best-response": best_response,
    "acbm-fine": acbm_fine,
}
