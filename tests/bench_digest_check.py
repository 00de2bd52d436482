"""Check every seed-1 benchmark job against its committed digest, once each.

    PYTHONPATH=src python tests/bench_digest_check.py

Builds each workload's seed-1 jobs with ``bench/gen.py`` in a temporary
directory, runs each job once in process and checks its exit code, result
digest and invariants with ``bench/run.py``'s own ``setup``, ``Checker`` and
``load_reference`` (both files are read only).  The timed benchmark runs
cycle through the jobs until their time is up, so they cover every job only
on a fast enough machine; this covers each one whatever the speed.  Not
collected by pytest; prints the counts per workload and exits 1 on the
first job that fails.
"""

import contextlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
import run  # noqa: E402  (bench/run.py, read only)
from broadmatch import cli  # noqa: E402

SEED = 1


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for workload in gen.WORKLOADS:
            expected = run.load_reference(workload, SEED)
            jobs, budgets = run.setup(gen, workload, SEED,
                                      Path(tmp) / workload)
            checker = run.Checker(budgets, expected)
            for job in jobs:
                if job[0] not in expected:
                    print("%s: no reference digest" % job[0])
                    return 1
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.run(list(job[1]))
                except Exception:  # a job that raises fails the check too
                    print("%s raised:" % job[0])
                    traceback.print_exc(file=sys.stdout)
                    return 1
                why = checker.check(job, code, buf.getvalue())
                if why is not None:
                    print("%s: %s" % (job[0], why))
                    return 1
            print("%s seed %d: %d jobs, each matches its reference digest"
                  % (workload, SEED, len(jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
