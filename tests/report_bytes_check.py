"""Check that reports on real traffic are canonical JSON, byte for byte.

    PYTHONPATH=src python tests/report_bytes_check.py

Builds the first block of the seed-1 ``market-day`` benchmark workload from
``bench/gen.py`` (its twelve largest-document jobs, ~3.5 MB of reports) in a
temporary directory, runs each job in process and requires its stdout to
equal ``json.dumps(json.loads(out), sort_keys=True, indent=2) + "\\n"``.
The benchmark's own check digests parsed results with every ``approx``
dropped, so it cannot see a byte drift in these documents; this can.  Not
collected by pytest; exits 1 on the first job whose bytes differ.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
from broadmatch import cli  # noqa: E402

WORKLOAD, SEED = "market-day", 1


def main() -> int:
    files, jobs = gen.WORKLOADS[WORKLOAD](SEED)
    block = jobs[:len(jobs) // gen.BLOCKS[WORKLOAD]]
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        for name, argv, codes, _ in block:
            argv = [str(root / a[1:-1]) if a.startswith("{") else a
                    for a in argv]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            out = buf.getvalue()
            if code not in codes:
                print("%s: exit code %d" % (name, code))
                return 1
            if out != json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n":
                print("%s: report bytes are not canonical JSON" % name)
                return 1
            total += len(out.encode("utf-8"))
    print("%d %s seed-%d reports, %d bytes, all canonical (Python %s)"
          % (len(block), WORKLOAD, SEED, total, sys.version.split()[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
