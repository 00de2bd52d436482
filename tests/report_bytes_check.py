"""Check that reports on real traffic are canonical JSON, byte for byte,
that each names its instance by the digest of its canonical text, that
their rationals and segment rows add up, and that each ``simulate``
report's participation counts agree with its segment rows.

    PYTHONPATH=src python tests/report_bytes_check.py

Builds the first block of each seed-1 benchmark workload from
``bench/gen.py`` (``market-day``'s twelve largest-document jobs, ~3.5 MB of
reports, then ``best-response`` and ``acbm-fine``) in a temporary
directory, runs each job in process and requires its stdout to equal
``json.dumps(json.loads(out), sort_keys=True, indent=2) + "\\n"``, and its
``instance`` to equal the first 16 hex digits of the sha256 of
``json.dumps(serialize_instance(load_instance(text)), sort_keys=True)``,
``text`` the job's instance file.  Every ``{"approx", "exact"}`` pair must
have ``approx == _approx(Fraction(exact), 6)``, and in each ``simulate``
report the sum over a keyword's segment rows of (to - from + 1) times the
row's revenue must be the keyword's revenue, and the same for welfare.
Each ``simulate`` report is also read against its split file: for every row
of the split, the queries the day simulated for it (the ``simulated`` count
of its ``consistency`` record, or its declared count when it has none) must
be the summed lengths of the keyword's segment rows whose ``active`` list
holds the advertiser.  The engine counts participation in the timeline's
event loop and writes the rows from the day's columns, so this ties the two
together.  The benchmark's own check digests parsed results with every
``approx`` dropped, so it cannot see a byte drift in these documents, a
drift of the instance digest, or a rounding slip in a rational's text;
this can.  Not collected by pytest; exits 1 on the first job that fails a
check.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402  (bench/gen.py, read only)
from broadmatch import cli  # noqa: E402
from broadmatch.cli import _approx  # noqa: E402
from broadmatch.model import load_instance, serialize_instance  # noqa: E402

SEED = 1


def digest(text: str) -> str:
    doc = serialize_instance(load_instance(text))
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def rationals(x):
    """Every ``{"approx", "exact"}`` pair in a parsed report."""
    if isinstance(x, dict):
        if x.keys() == {"approx", "exact"}:
            yield x
        else:
            for v in x.values():
                yield from rationals(v)
    elif isinstance(x, list):
        for v in x:
            yield from rationals(v)


def sums_error(doc: dict) -> str:
    """Why a report's rationals or segment rows do not add up, or ""."""
    for pair in rationals(doc):
        if pair["approx"] != _approx(Fraction(pair["exact"]), 6):
            return "approx %s of %s" % (pair["approx"], pair["exact"])
    if doc["command"] != "simulate":
        return ""
    for kw, day in doc["result"]["keywords"].items():
        for key in ("revenue", "welfare"):
            total = sum(Fraction(row[key]["exact"])
                        * (row["to"] - row["from"] + 1)
                        for row in day["segments"])
            if total != Fraction(day[key]["exact"]):
                return "%s %s: segment rows add to %s" % (kw, key, total)
    return ""


def participation_error(doc: dict, split: dict) -> str:
    """Why a ``simulate`` report's participation counts disagree with its
    segment rows, or ""."""
    simulated = {(r["advertiser"], r["keyword"]): r["simulated"]
                 for r in doc["result"]["consistency"]}
    for row in split["allocations"]:
        key = row["advertiser"], row["keyword"]
        got = simulated.get(key, row["queries"])
        rows = doc["result"]["keywords"][row["keyword"]]["segments"]
        want = sum(r["to"] - r["from"] + 1 for r in rows
                   if row["advertiser"] in r["active"])
        if got != want:
            return "%s on %s: simulated %d, segment rows %d" % (*key, got,
                                                                  want)
    return ""


def check(workload: str, root: Path) -> int:
    files, jobs = gen.WORKLOADS[workload](SEED)
    block = jobs[:len(jobs) // gen.BLOCKS[workload]]
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    total = 0
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
        doc = json.loads(out)
        if out != json.dumps(doc, sort_keys=True, indent=2) + "\n":
            print("%s: report bytes are not canonical JSON" % name)
            return 1
        want = digest(Path(argv[1]).read_text(encoding="utf-8"))
        if doc["instance"] != want:
            print("%s: instance digest %s != %s" % (name, doc["instance"],
                                                     want))
            return 1
        error = sums_error(doc)
        if not error and doc["command"] == "simulate":
            split = json.loads(Path(argv[argv.index("--split") + 1])
                               .read_text(encoding="utf-8"))
            error = participation_error(doc, split)
        if error:
            print("%s: %s" % (name, error))
            return 1
        total += len(out.encode("utf-8"))
    print("%d %s seed-%d reports, %d bytes, all canonical, every instance "
          "digest, approx text, row sum and participation count right "
          "(Python %s)"
          % (len(block), workload, SEED, total, sys.version.split()[0]))
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for workload in gen.WORKLOADS:
            root = Path(tmp) / workload
            root.mkdir()
            if check(workload, root):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
