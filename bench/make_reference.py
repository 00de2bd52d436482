"""Write ``reference.json``: each job's result digest and exit code for the
reference seed, which ``run.py`` then checks every job of that seed against.

    python3 bench/make_reference.py

Regenerate it only for an intended change of the engine's output or of the
generator, and say so in the change.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import run

REFERENCE_SEED = 1


def main() -> int:
    cli = run.import_engine()
    import gen

    scratch = run.ROOT / ".bench_work" / "reference"
    workloads = {}
    try:
        for workload in sorted(gen.WORKLOADS):
            jobs, budgets = run.setup(gen, workload, REFERENCE_SEED,
                                      scratch / workload)
            runner = run.Runner(cli, run.Checker(budgets))
            for job in jobs:
                runner.run(job)
            if runner.failed:
                print("%s: %d jobs failed; reference not written"
                      % (workload, runner.failed), file=sys.stderr)
                return 1
            workloads[workload] = runner.checker.expected
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    doc = {"seed": REFERENCE_SEED, "workloads": workloads}
    run.REFERENCE.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
