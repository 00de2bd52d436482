"""Benchmark of whole ``broadmatch`` command-line jobs on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the engine is imported from ``src/``
there and nowhere else.  The seed generates the workload's input files
(``gen.py``) in a scratch directory inside the checkout, removed on exit.

Each job is one in-process ``broadmatch.cli.run(argv)`` call with stdout
captured: the whole path a user runs, minus interpreter start.  Jobs run as
a closed loop from one thread, one client, cycling through the workload's
job set until ``--seconds`` have passed.  Every job's output is checked
(``Checker``); a failed check is counted, never fatal.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the workload's first block of jobs and
reports per-layer metrics (``tracing.py``) per pass, plus the tracing
overhead: the traced pass's time minus the untraced pass's.  Times are in
reference seconds (``SpeedGauge``).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import tracing

if TYPE_CHECKING:  # gen imports the engine, which import_engine() locates
    from gen import Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# Set-up (importing the engine, generating and writing the inputs) runs at
# least five times and until two seconds have passed, at most fifteen
# times; setup_s is the median, so one slow import or file write does not
# show.
SETUP_RUNS = (5, 15)
SETUP_SECONDS = 2.0

# job_s_tail is the job time at this percentile: the highest that leaves at
# least ten jobs beyond it in a 30-second run at the commit that defined the
# benchmark (README.md gives the sample counts).  It is fixed rather than
# derived from each run's count, so a faster commit is not judged at a
# higher percentile than a slower one.
TAIL_PERCENTILE = {"market-day": 80, "best-response": 95, "acbm-fine": 80}

# Wall time on a shared virtual machine drifts with the neighbours' load: on
# 2 shared vCPUs a fixed Python loop ran 2x slower in one 10-second window
# than 20 seconds earlier, and ten runs of one workload spread by more than
# any bound a benchmark may set.  So every time reported is scaled to a
# reference machine speed: a fixed standard-library kernel (ranking and
# pricing with small fractions, the engine's kind of work) is timed between
# jobs at least every half second, and wall seconds are multiplied by
# KERNEL_REF_S over the median of its last five timings.  Raw wall times
# are printed alongside.
KERNEL_REF_S = 0.005
KERNEL_EVERY_S = 0.5

END_TO_END = [("jobs_per_s", "1/s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB")]


def import_engine():
    """Import ``broadmatch.cli`` afresh from this checkout's sources, or
    exit.  Modules imported before are dropped first, so every call pays
    the import a new process pays."""
    if not (SRC / "broadmatch" / "__init__.py").is_file():
        raise SystemExit("bench: no engine sources under %s" % SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "broadmatch" or n.startswith("broadmatch.")]:
        del sys.modules[name]
    cli = importlib.import_module("broadmatch.cli")
    if Path(cli.__file__).resolve().parent != SRC / "broadmatch":
        raise SystemExit("bench: imported broadmatch from %s, not %s"
                         % (cli.__file__, SRC))
    return cli


_GAMMA = [Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4),
          Fraction(1, 8), Fraction(0)]


def _kernel() -> float:
    """Time a fixed standard-library mix shaped like the engine's inner
    loop: rank small-fraction scores, then sum slot prices into a dict."""
    start = time.perf_counter()
    for rep in range(40):
        ranked = sorted((("a%d" % i, Fraction((i * 37 + rep) % 60 + 1, i % 4 + 1))
                         for i in range(12)), key=lambda p: (-p[1], p[0]))
        suffix = Fraction(0)
        prices = {}
        for j in range(4, -1, -1):
            suffix += (_GAMMA[j] - _GAMMA[j + 1]) * ranked[j + 1][1]
            prices[ranked[j][0]] = suffix
    return time.perf_counter() - start


class SpeedGauge:
    """The machine's current speed relative to the reference."""

    def __init__(self):
        self._recent = collections.deque(maxlen=5)
        self._last = -math.inf

    def tick(self) -> None:
        """Time the kernel if KERNEL_EVERY_S has passed since the last time."""
        if time.perf_counter() - self._last >= KERNEL_EVERY_S:
            self._recent.append(_kernel())
            self._last = time.perf_counter()

    def scale(self, seconds: float) -> float:
        """Wall seconds as reference seconds."""
        return seconds * KERNEL_REF_S / statistics.median(self._recent)


# -- output checks ------------------------------------------------------------

def _strip(x):
    """Drop ``approx`` renderings and ``argv``: the digest covers exact
    values only, so a change to decimal formatting cannot break it."""
    if isinstance(x, dict):
        return {k: _strip(v) for k, v in x.items() if k not in ("approx", "argv")}
    if isinstance(x, list):
        return [_strip(v) for v in x]
    return x


def result_digest(doc: dict) -> str:
    blob = json.dumps(_strip(doc.get("result")), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _q(value) -> Fraction:
    return Fraction(value["exact"])


def invariant_errors(kind: str, res: dict, code: int,
                     budgets: Dict[str, Fraction]) -> List[str]:
    """Seed-independent properties of one job's result."""
    errs = []
    if kind == "day":
        kw_total = sum((_q(k["revenue"]) for k in res["keywords"].values()),
                       Fraction(0))
        if _q(res["revenue"]) != kw_total:
            errs.append("revenue != sum of keyword revenues")
        for adv, rec in res["advertisers"].items():
            if _q(rec["spend"]) + _q(rec["leftover"]) != budgets[adv]:
                errs.append("spend + leftover != budget for %s" % adv)
        if not isinstance(res.get("consistency"), list):
            errs.append("no consistency list")
    elif kind == "bme":
        if res["check"] != "bme" or res["ok"] != (code == 0):
            errs.append("verdict and exit code disagree")
        if res["ok"] != (not res["e1_violations"] and not res["e2_violations"]):
            errs.append("verdict and violations disagree")
    elif kind == "eps-ne":
        if res["check"] != "eps-ne" or (res["ok"] is True) != (code == 0):
            errs.append("verdict and exit code disagree")
    elif kind == "response":
        cost = _q(res["cost"])
        if cost > budgets[res["advertiser"]]:
            errs.append("best response costs more than the budget")
        if cost != sum((_q(c) for c in res["committed"].values()), Fraction(0)):
            errs.append("cost != sum of committed budgets")
    elif kind == "acbm":
        delta = _q(res["delta"])
        if delta != _q(res["final_revenue"]) - _q(res["initial_revenue"]):
            errs.append("delta != final - initial revenue")
        if delta < 0:
            errs.append("negative acbm delta")
    return errs


class Checker:
    """Checks each job's exit code, result digest and invariants.

    ``expected`` maps a job name to its reference ``digest`` and
    ``exit_code``: the committed ones for the reference seed.  A job without
    one takes its first run's result as the reference for its repeats.
    """

    def __init__(self, budgets: Dict[str, Dict[str, Fraction]],
                 expected: Optional[Dict[str, dict]] = None):
        self.budgets = budgets
        self.expected = dict(expected or {})

    def check(self, job, code: int, out: str) -> Optional[str]:
        """None if the job's output is right, else why it is not."""
        name, _, codes, kind = job
        try:
            doc = json.loads(out)
        except ValueError:
            return "output is not one JSON document"
        ref = self.expected.get(name)
        if code not in codes or (ref is not None and code != ref["exit_code"]):
            return "unexpected exit code %d" % code
        if doc.get("exit_code") != code or "result" not in doc:
            return "envelope: %r" % doc.get("error")
        try:
            errs = invariant_errors(kind, doc["result"], code, self.budgets[name])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errs = ["malformed result: %r" % exc]
        if errs:
            return "; ".join(errs)
        digest = result_digest(doc)
        if ref is None:
            self.expected[name] = {"digest": digest, "exit_code": code}
        elif digest != ref["digest"]:
            return "result digest %s != reference %s" % (digest, ref["digest"])
        return None


def load_reference(workload: str, seed: int) -> Dict[str, dict]:
    try:
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if doc.get("seed") != seed:
        return {}
    return doc.get("workloads", {}).get(workload, {})


# -- set-up and jobs ----------------------------------------------------------

def setup(gen, workload: str, seed: int,
          workdir: Path) -> Tuple[List[Job], Dict[str, Dict[str, Fraction]]]:
    """Generate the workload's files into ``workdir``; return its jobs with
    real paths, and each job's advertiser budgets for the checks."""
    files, jobs = gen.WORKLOADS[workload](seed)
    workdir.mkdir(parents=True)
    for fname, text in files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    resolved: List[Job] = []
    budgets: Dict[str, Dict[str, Fraction]] = {}
    for name, argv, codes, kind in jobs:
        resolved.append((name, [str(workdir / a[1:-1]) if a.startswith("{")
                                else a for a in argv], codes, kind))
        doc = json.loads(files[argv[1][1:-1]])
        budgets[name] = {a["id"]: Fraction(a["budget"])
                         for a in doc["advertisers"]}
    return resolved, budgets


class Runner:
    """Runs jobs in process and tallies attempts and failures."""

    def __init__(self, cli, checker: Checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0

    def run(self, job: Job) -> float:
        """Run and check one job; return its wall time."""
        buf = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.run(list(job[1]))
        except Exception:
            elapsed = time.perf_counter() - start
            self.failed += 1
            print("job %s raised:\n%s" % (job[0], traceback.format_exc()),
                  file=sys.stderr)
            return elapsed
        elapsed = time.perf_counter() - start
        out = buf.getvalue()
        self.out_bytes += len(out.encode("utf-8"))
        why = self.checker.check(job, code, out)
        if why is not None:
            self.failed += 1
            print("job %s failed its check: %s" % (job[0], why),
                  file=sys.stderr)
        return elapsed


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def timed_loop(runner: Runner, jobs: List[Job], seconds: float,
               gauge: SpeedGauge):
    """Run jobs until ``seconds`` have passed.  Returns each job's time and
    the time spent running and checking jobs (kernel timings excluded), in
    reference seconds and in raw wall seconds."""
    deadline = time.perf_counter() + seconds
    times, raw_times = [], []
    busy = raw_busy = 0.0
    while not times or time.perf_counter() < deadline:
        gauge.tick()
        start = time.perf_counter()
        elapsed = runner.run(jobs[len(times) % len(jobs)])
        step = time.perf_counter() - start
        times.append(gauge.scale(elapsed))
        raw_times.append(elapsed)
        busy += gauge.scale(step)
        raw_busy += step
    return times, busy, raw_times, raw_busy


def _pass(runner: Runner, jobs: List[Job], gauge: SpeedGauge,
          tracer: Optional[tracing.Tracer] = None) -> float:
    """Run each job once; return their total time in reference seconds."""
    total = 0.0
    for job in jobs:
        gauge.tick()
        total += gauge.scale(runner.run(job))
        if tracer is not None:
            tracer.fold()
    return total


def traced_loop(runner: Runner, jobs: List[Job], seconds: float,
                gauge: SpeedGauge):
    """Untraced and traced passes in pairs, while another pair fits.  Times
    are in reference seconds."""
    start = time.perf_counter()
    passes = []
    overheads = []
    while True:
        pair_start = time.perf_counter()
        plain = _pass(runner, jobs, gauge)
        tracer = tracing.Tracer()
        bytes_before = runner.out_bytes
        with tracer:
            traced = _pass(runner, jobs, gauge, tracer)
        tracer.totals["cli.out_bytes"] = runner.out_bytes - bytes_before
        overheads.append(traced - plain)
        values = tracing.layer_values(tracer.totals, tracer.absent)
        passes.append({k: gauge.scale(v) if k.endswith("_s") else v
                       for k, v in values.items()})
        now = time.perf_counter()
        if now + (now - pair_start) > start + seconds:
            break
    counts = [{k: v for k, v in p.items() if k in tracing.COUNT_METRICS}
              for p in passes]
    if any(c != counts[0] for c in counts):
        print("warning: work counts differ between traced passes",
              file=sys.stderr)
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    values["trace.overhead_s"] = statistics.median(overheads)
    absent = sorted(tracer.absent)
    return values, len(passes), absent


# -- main ---------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TAIL_PERCENTILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_engine()
    import gen
    gauge = SpeedGauge()

    scratch = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed,
                                                     os.getpid()))
    try:
        reps: List[float] = []
        while len(reps) < SETUP_RUNS[0] or (sum(reps) < SETUP_SECONDS
                                            and len(reps) < SETUP_RUNS[1]):
            gauge.tick()
            t = time.perf_counter()
            cli = import_engine()
            jobs, budgets = setup(gen, args.workload, args.seed,
                                  scratch / str(len(reps)))
            reps.append(time.perf_counter() - t)
        raw_setup_s = statistics.median(reps)
        setup_s = gauge.scale(raw_setup_s)
        runner = Runner(cli, Checker(budgets,
                                     load_reference(args.workload, args.seed)))
        if args.trace:
            block = jobs[:len(jobs) // gen.BLOCKS[args.workload]]
            values, passes, absent = traced_loop(runner, block, args.seconds,
                                                 gauge)
            units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
            print("%s seed %d: %d traced passes of %d jobs; absent entry "
                  "points: %s" % (args.workload, args.seed, passes, len(block),
                                  ", ".join(absent) or "none"))
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in values.items()}
        else:
            times, busy, raw_times, raw_busy = timed_loop(
                runner, jobs, args.seconds, gauge)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            p = TAIL_PERCENTILE[args.workload]
            correct = runner.attempted - runner.failed
            values = {
                "jobs_per_s": correct / busy,
                "job_s_p50": statistics.median(times),
                "job_s_tail": percentile(times, p),
                "setup_s": setup_s,
                "peak_rss_mib": rss,
            }
            beyond = len(times) - math.ceil(p / 100 * len(times))
            print("%s seed %d: %d jobs in %.2f s; job_s_tail is p%d with %d "
                  "jobs beyond it" % (args.workload, args.seed, len(times),
                                      raw_busy, p, beyond))
            print("raw wall time: jobs_per_s %.6g 1/s, job_s_p50 %.6g s, "
                  "job_s_tail %.6g s, setup_s %.6g s; reference/wall %.4f"
                  % (correct / raw_busy, statistics.median(raw_times),
                     percentile(raw_times, p), raw_setup_s, busy / raw_busy))
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in END_TO_END}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    print("failed_frac %.6g fraction" % (runner.failed / runner.attempted))
    for name, m in metrics.items():
        print("%s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
