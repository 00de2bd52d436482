"""End-to-end checks of the command-line front end.

Golden reports live in tests/golden/.  To regenerate one after an intended
output change, run from src/broadmatch/fixtures/:

    python3 -c "from broadmatch.cli import run; run([...])" > ../../../tests/golden/NAME.json

with the argv list shown in GOLDEN_CASES below; for MARKET_GOLDEN_CASES, run
from tests/markets/ and write to ../golden/NAME.json.  Each case whose
subcommand takes ``--format`` is run again with ``--format table``, and its
text is checked against the golden read leaf by leaf (``_golden_lines``).
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broadmatch import bestresp, cli
from broadmatch.bestresp import exact_best_response_dp
from broadmatch.model import load_instance, load_schedule, serialize_instance
from broadmatch.partition import INFINITE, tables_for
from conftest import reference_enc, tri_keyword

GOLDEN = Path(__file__).parent / "golden"
MARKETS = Path(__file__).parent / "markets"

GOLDEN_CASES = {
    "simulate-natural": ["simulate", "two-keyword-entry-base.json",
                         "--split", "two-keyword-entry-natural.split.json"],
    "acbm-fine": ["acbm", "two-keyword-entry-base.json",
                  "--ext", "two-keyword-entry-ext.json", "--fine"],
    "best-response-dp": ["best-response", "greedy-vs-exact.json",
                         "--advertiser", "1", "--method", "dp"],
    "verify-shifted-bme": ["verify", "three-keyword-family.json",
                           "--split", "three-keyword-family-shifted.split.json",
                           "--bme"],
    # advertiser 2 pays nothing on k1 all day: both segments rate "inf"
    "partition-free-rate": ["partition", "two-keyword-entry-base.json",
                            "--advertiser", "2",
                            "--split", "two-keyword-entry-natural.split.json"],
    # a schema-error envelope: the split names what the instance lacks
    "validate-schema-errors": ["validate", "two-keyword-entry-base.json",
                               "--split",
                               "three-keyword-family-shifted.split.json"],
}


# Markets under tests/markets/: a subject on three keywords (the exact dp's
# lcm-grid knapsack) and one on five (the fptas grid and the rounded dp).
MARKET_GOLDEN_CASES = {
    "best-response-dp-three-keywords": [
        "best-response", "three-keyword-subject.json", "--advertiser", "s",
        "--method", "dp"],
    "best-response-fptas-five-keywords": [
        "best-response", "five-keyword-subject.json", "--advertiser", "s",
        "--method", "fptas", "--eps", "1/4"],
}


def _golden_lines(doc, path: str = "") -> list:
    """A golden JSON envelope read as ``--format table`` lines, apart from
    the CLI: one ``path  value`` line per leaf in sorted-key order, where
    each ``{"approx", "exact"}`` object is one leaf, ``exact (x.xxxx)``
    rounded from ``Fraction(exact)`` to 4 places, the rate's ``"inf"`` is
    bare, and any other leaf, an empty ``{}`` or ``[]`` too, is its JSON."""
    if isinstance(doc, dict) and sorted(doc) == ["approx", "exact"]:
        x = F(doc["exact"])
        whole, frac = divmod(round(abs(x) * 10 ** 4), 10 ** 4)
        return ["%s  %s (%s%d.%04d)" % (path, doc["exact"],
                                         "-" if x < 0 else "", whole, frac)]
    if isinstance(doc, dict) and doc:
        return [line for k in sorted(doc)
                for line in _golden_lines(doc[k], path + "." + k if path
                                          else k)]
    if isinstance(doc, list) and doc:
        return [line for n, v in enumerate(doc)
                for line in _golden_lines(v, "%s[%d]" % (path, n))]
    return ["%s  %s" % (path, "inf" if doc == "inf" else json.dumps(doc))]


def _check_golden_table(argv, golden: str, run) -> None:
    """``argv`` with ``--format table`` prints the golden's leaves, its
    ``argv`` two tokens longer, and returns the golden's exit code."""
    doc = json.loads(golden)
    doc["argv"] += ["--format", "table"]
    code, out = run(*argv, "--format", "table")
    assert out.splitlines() == _golden_lines(doc)
    assert code == doc["exit_code"]


@pytest.fixture
def fx(monkeypatch, capsys):
    """Invoke the CLI in-process from inside the bundled-fixtures directory."""
    monkeypatch.chdir(cli._FIXTURE_DIR)

    def invoke(*argv):
        code = cli.run(list(argv))
        return code, capsys.readouterr().out

    return invoke


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(fx, name):
    code, out = fx(*GOLDEN_CASES[name])
    golden = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert out == golden
    assert code == json.loads(golden)["exit_code"]
    if GOLDEN_CASES[name][0] != "validate":  # validate takes no --format
        _check_golden_table(GOLDEN_CASES[name], golden, fx)


@pytest.mark.parametrize("name", sorted(MARKET_GOLDEN_CASES))
def test_market_golden_reports(monkeypatch, capsys, name):
    monkeypatch.chdir(MARKETS)

    def run(*argv):
        code = cli.run(list(argv))
        return code, capsys.readouterr().out

    code, out = run(*MARKET_GOLDEN_CASES[name])
    golden = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert out == golden
    assert code == json.loads(golden)["exit_code"]
    _check_golden_table(MARKET_GOLDEN_CASES[name], golden, run)


def test_reports_are_byte_deterministic(fx):
    first = fx(*GOLDEN_CASES["acbm-fine"])
    second = fx(*GOLDEN_CASES["acbm-fine"])
    assert first == second


def test_acbm_job_runs_its_base_day_once(fx, monkeypatch):
    """At reserve 0 the day that fills in the natural split's query counts
    is the base day, which is also the broadened day before any entry, so
    one base day, then one broadened day per round after a move (the last
    is the final day)."""
    from broadmatch import acbm, equilibrium, simulate
    real = simulate.simulate_day
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for mod in (acbm, equilibrium, simulate):
        monkeypatch.setattr(mod, "simulate_day", counting)
    code, out = fx(*GOLDEN_CASES["acbm-fine"])
    assert code == 0
    assert out == (GOLDEN / "acbm-fine.json").read_text(encoding="utf-8")
    rounds = len(json.loads(out)["result"]["moves"]) + 1
    assert len(calls) == rounds


def test_acbm_job_copies_its_base_market_once(fx, monkeypatch):
    """The natural split's base day is the one place an ``acbm`` job must
    simulate the base market alone; the excess readers read the loaded
    market's base edges and the day they are handed."""
    from broadmatch.model import Instance
    real = Instance.base_instance
    calls = []

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Instance, "base_instance", counting)
    code, out = fx(*GOLDEN_CASES["acbm-fine"])
    assert code == 0
    assert out == (GOLDEN / "acbm-fine.json").read_text(encoding="utf-8")
    assert len(calls) == 1


def test_report_envelope(fx):
    code, out = fx("price", "two-keyword-entry-base.json", "k1")
    doc = json.loads(out)
    assert code == doc["exit_code"] == 0
    assert doc["command"] == "price"
    assert doc["argv"] == ["price", "two-keyword-entry-base.json", "k1"]
    assert re.fullmatch(r"[0-9a-f]{16}", doc["instance"])
    result = doc["result"]
    assert result["prices"] == {
        "1": {"exact": "9/10", "approx": "0.900000"},
        "2": {"exact": "0", "approx": "0.000000"}}
    assert result["revenue"]["exact"] == "9/10"
    assert [r["slot"] for r in result["ranking"]] == [1, 2]


def test_validate_instance_profile_and_extension(fx):
    code, out = fx("validate", "two-keyword-entry-base.json",
                   "--split", "two-keyword-entry-natural.split.json",
                   "--ext", "two-keyword-entry-ext.json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["checked"] == ["instance", "profile", "extension"]
    assert doc["result"]["new_edges"] == [["3", "k1"]]


def test_validate_rejects_malformed_input(fx, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json {", encoding="utf-8")
    code, out = fx("validate", str(bad))
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "schema"
    assert "invalid JSON" in doc["error"]["errors"][0]["message"]


@pytest.mark.parametrize("which", ["instance", "split"])
def test_input_that_is_not_utf8_is_a_usage_error(fx, tmp_path, which):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"slots": "\xff"}')
    argv = (["simulate", str(bad), "--split",
             "two-keyword-entry-natural.split.json"] if which == "instance"
            else ["simulate", "two-keyword-entry-base.json",
                  "--split", str(bad)])
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"] == {
        "type": "usage",
        "message": "cannot read %s: not UTF-8 text ('utf-8' codec can't "
                   "decode byte 0xff in position 11: invalid start byte)"
                   % bad}


@pytest.mark.parametrize("which", ["instance", "split"])
def test_input_nested_too_deep_is_a_schema_error(fx, tmp_path, which):
    """A document nested past the JSON parser's recursion limit is invalid
    JSON, a schema error with exit 2, not an engine error."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    argv = (["validate", str(deep)] if which == "instance"
            else ["simulate", "two-keyword-entry-base.json",
                  "--split", str(deep)])
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "schema"
    [error] = doc["error"]["errors"]
    assert error["path"] == "$"
    assert error["message"].startswith("invalid JSON: ")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit")
@pytest.mark.parametrize("which", ["instance", "split"])
def test_integer_literal_past_the_digit_limit_is_a_schema_error(fx, tmp_path,
                                                                which):
    """An instance ``volume`` or a split's ``queries`` longer than Python's
    int-to-string digit limit is invalid JSON, a schema error with exit 2,
    not an engine error."""
    big = "9" * (sys.get_int_max_str_digits() + 1)
    name = ("two-keyword-entry-base.json" if which == "instance"
            else "two-keyword-entry-natural.split.json")
    doc = json.loads((cli._FIXTURE_DIR / name).read_text(encoding="utf-8"))
    field = doc["keywords"] if which == "instance" else doc["allocations"]
    field[0]["volume" if which == "instance" else "queries"] = -1
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc).replace("-1", big), encoding="utf-8")
    argv = (["validate", str(bad)] if which == "instance"
            else ["simulate", "two-keyword-entry-base.json",
                  "--split", str(bad)])
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "schema"
    [error] = doc["error"]["errors"]
    assert error["path"] == "$"
    assert error["message"].startswith("invalid JSON: ")


# rationals whose mantissa digits plus exponent magnitude pass Python's
# default int-string digit limit (4,300): a power of ten, its reciprocal and
# a decimal of 5,000 fraction digits
LONG_RATIONALS = ("1e5000", "1e-5000", "0." + "0" * 4999 + "1")

# (document, the keys down to its field, argv reading it); the document is
# one of the bundled fixtures with that field's value replaced, as bad.json
_RATIONAL_FIELDS = {
    "budget": ("two-keyword-entry-base.json", ("advertisers", 0, "budget"),
               ("validate", "bad.json")),
    "score": ("two-keyword-entry-base.json", ("edges", 0, "score"),
              ("validate", "bad.json")),
    "clickability": ("two-keyword-entry-base.json",
                     ("slots", "clickability", 1), ("validate", "bad.json")),
    "split-budget": ("two-keyword-entry-natural.split.json",
                     ("allocations", 0, "budget"),
                     ("simulate", "two-keyword-entry-base.json",
                      "--split", "bad.json")),
    "schedule-budget": ("two-keyword-entry-early.schedule.json",
                        ("allocations", 0, "budget"),
                        ("simulate", "two-keyword-entry-base.json",
                         "--schedule", "bad.json")),
}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit")
@pytest.mark.parametrize("field,value", [
    (field, value) for field in _RATIONAL_FIELDS for value in LONG_RATIONALS
] + [("budget", "1e10000000")], ids=lambda x: x if len(x) < 20 else
    "%d-fraction-digits" % (len(x) - 2))
def test_rational_past_the_digit_limit_is_a_schema_error(fx, tmp_path, field,
                                                         value):
    """A rational string past the interpreter's int-string digit limit is
    refused at its field before it is built: a schema error with exit 2.
    It used to be built, slowly for a large exponent (``1e10000000`` took
    seconds), and then fail as an engine error when the digest or the
    report wrote it."""
    name, keys, argv = _RATIONAL_FIELDS[field]
    doc = json.loads((cli._FIXTURE_DIR / name).read_text(encoding="utf-8"))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = "$" + "".join("[%d]" % k if isinstance(k, int) else "." + k
                         for k in keys)
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    started = time.perf_counter()
    code, out = fx(*[str(tmp_path / a) if a == "bad.json" else a
                     for a in argv])
    assert time.perf_counter() - started < 5
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "schema"
    assert {"path": path, "message": "too many digits: mantissa and exponent "
            "pass the interpreter's limit of %d"
            % sys.get_int_max_str_digits()} in doc["error"]["errors"]


def test_missing_file_is_a_usage_error(fx):
    code, out = fx("validate", "no-such-file.json")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["type"] == "usage"
    assert "cannot read" in doc["error"]["message"]


@pytest.mark.parametrize("command", ["partition", "best-response"])
def test_schedule_sets_the_rivals_profile(fx, command):
    """``--schedule FILE`` gives the rivals' rows as ``--split`` does: in
    the late schedule advertiser 3 enters k1 at query 51, so advertiser 1's
    table there is the one ``tables_for`` builds against that schedule, not
    the all-in default, and the best response follows that table.  A
    schedule file that does not exist is a usage error."""
    argv = (command, "two-keyword-entry-ext.json", "--advertiser", "1")
    code, out = fx(*argv, "--schedule", "no-such-file.json")
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "usage"
    assert "cannot read no-such-file.json" in doc["error"]["message"]

    ext = load_instance((cli._FIXTURE_DIR / "two-keyword-entry-ext.json")
                        .read_text(encoding="utf-8"))
    late = load_schedule((cli._FIXTURE_DIR / "two-keyword-entry-late"
                          ".schedule.json").read_text(encoding="utf-8"))
    code, out = fx(*argv, "--schedule", "two-keyword-entry-late.schedule.json")
    assert code == 0
    got = json.loads(out)["result"]
    _, default = fx(*argv)
    assert got != json.loads(default)["result"]
    if command == "partition":
        tables = tables_for(ext, "1", late)
        assert sorted(got["keywords"]) == sorted(tables)
        for kw, table in tables.items():
            rows = got["keywords"][kw]
            assert rows["breakpoints"] == list(table.breakpoints)
            assert [(s["active"], s["cost"]["exact"])
                    for s in rows["segments"]] == [
                (list(a), str(c)) for a, c in zip(table.segments.ids, table.costs)]
        assert ["1", "2", "3"] in [s["active"] for s in
                                   got["keywords"]["k1"]["segments"]]
    else:
        assert got["payoff"]["exact"] == str(
            exact_best_response_dp(ext, "1", late).payoff)


def test_verify_unstable_split_exits_3(fx):
    code, out = fx("verify", "agreeing-methods.json",
                   "--split", "agreeing-methods-allk2.split.json", "--bme")
    doc = json.loads(out)
    assert code == doc["exit_code"] == 3
    assert doc["result"]["ok"] is False
    assert doc["result"]["e1_violations"]


def test_verify_eps_ne_exit_codes(fx):
    argv = ("verify", "three-keyword-family.json",
            "--split", "three-keyword-family-shifted.split.json")
    code, out = fx(*argv, "--eps-ne", "3/10", "--method", "dp")
    assert code == 0 and json.loads(out)["result"]["ok"] is True
    # the approximation bracket cannot certify this margin either way
    code, out = fx(*argv, "--eps-ne", "3/10", "--method", "fptas")
    assert code == 3 and json.loads(out)["result"]["ok"] is None
    code, out = fx(*argv, "--eps-ne", "3/20", "--method", "dp")
    assert code == 3 and json.loads(out)["result"]["ok"] is False


def test_verify_eps_ne_dp_refuses_past_the_work_cap(fx, tmp_path):
    # 45,048,003 projected cells for "s": the dp's one cap refuses at once
    market = tmp_path / "tri.json"
    market.write_text(json.dumps(serialize_instance(tri_keyword(1000))),
                      encoding="utf-8")
    rows = [{"advertiser": "r%d" % j, "keyword": "k%d" % j,
             "queries": 1000, "budget": "1000000000"} for j in (1, 2, 3)]
    rows.append({"advertiser": "s", "keyword": "k1", "queries": 0,
                 "budget": "10000000"})
    split = tmp_path / "tri.split.json"
    split.write_text(json.dumps({"allocations": rows}), encoding="utf-8")
    started = time.perf_counter()
    code, out = fx("verify", str(market), "--split", str(split),
                   "--eps-ne", "0", "--method", "dp")
    assert time.perf_counter() - started < 1
    doc = json.loads(out)
    assert code == doc["exit_code"] == 1
    assert doc["error"]["type"] == "scale"
    assert "45048003 cells" in doc["error"]["message"]


def test_dynamics_reaches_the_fixed_point(fx):
    code, out = fx("dynamics", "two-keyword-entry-base.json")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["status"] == "fixed-point"
    assert doc["result"]["rounds"] == 2
    assert isinstance(doc["result"]["profile"], list)


@pytest.mark.parametrize("argv, reached", [
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--method", "dp"), "exact_best_response_dp"),
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--method", "fptas", "--eps", "1/4"), "fptas_as2"),
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--method", "greedy"), "greedy_local_best_response"),
    (("dynamics", "two-keyword-entry-base.json", "--method", "dp"),
     "exact_best_response_dp"),
    (("dynamics", "two-keyword-entry-base.json", "--method", "fptas",
      "--eps", "1/4"), "fptas_as2"),
])
def test_solvers_rebound_in_bestresp_are_the_ones_run(fx, monkeypatch, argv,
                                                       reached):
    # a tracer wraps a solver by rebinding its name in the module namespace,
    # so the method table must read that namespace on every solve
    calls = dict.fromkeys(("exact_best_response_dp", "fptas_as2",
                           "greedy_local_best_response"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(bestresp, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(bestresp, name, counted)
    code, _ = fx(*argv)
    assert code == 0
    assert calls[reached] > 0
    assert sum(calls.values()) == calls[reached]


def test_fptas_without_eps_is_the_same_usage_envelope(fx):
    code, out = fx("dynamics", "greedy-vs-exact.json", "--method", "fptas")
    assert code == 2
    assert out == (
        '{\n  "argv": [\n    "dynamics",\n    "greedy-vs-exact.json",\n'
        '    "--method",\n    "fptas"\n  ],\n  "command": "dynamics",\n'
        '  "error": {\n    "message": "--eps is required with --method '
        'fptas",\n    "type": "usage"\n  },\n  "exit_code": 2\n}\n')


USAGE_CASES = [
    ("best-response", "greedy-vs-exact.json", "--advertiser", "1",
     "--method", "fptas"),
    ("dynamics", "greedy-vs-exact.json", "--method", "fptas"),
    ("verify", "three-keyword-family.json",
     "--split", "three-keyword-family-shifted.split.json"),
    ("verify", "three-keyword-family.json",
     "--split", "three-keyword-family-shifted.split.json",
     "--bme", "--eps-ne", "1/10"),
    ("compare", "greedy-vs-exact.json",
     "--split", "three-keyword-family-shifted.split.json"),
    ("partition", "greedy-vs-exact.json"),
    ("best-response", "greedy-vs-exact.json"),
    ("acbm", "two-keyword-entry-base.json"),
    ("price", "two-keyword-entry-base.json", "no-such-keyword"),
    ("simulate", "two-keyword-entry-base.json",
     "--split", "two-keyword-entry-natural.split.json",
     "--schedule", "two-keyword-entry-early.schedule.json"),
    ("simulate", "two-keyword-entry-base.json",
     "--split", "two-keyword-entry-natural.split.json",
     "--reserve", "bogus"),
    ("simulate", "two-keyword-entry-base.json",
     "--split", "two-keyword-entry-natural.split.json",
     "--reserve", "-5"),
    ("price", "two-keyword-entry-base.json", "k1", "--reserve=-1/2"),
    ("dynamics", "two-keyword-entry-base.json", "--max-rounds", "-1"),
    ("verify", "three-keyword-family.json",
     "--split", "three-keyword-family-shifted.split.json",
     "--eps-ne", "0", "--method", "fptas"),
    ("simulate", "two-keyword-entry-base.json",
     "--split", "two-keyword-entry-natural.split.json", "--jobs", "2"),
    ("compare", "three-keyword-family.json",
     "--split", "three-keyword-family-stayhome.split.json",
     "--split", "three-keyword-family-shifted.split.json", "--jobs", "2"),
    # an option the subcommand does not take
    ("validate", "two-keyword-entry-base.json", "--reserve", "5"),
    ("fixtures", "--format", "table"),
    ("compare", "three-keyword-family.json",
     "--split", "three-keyword-family-stayhome.split.json",
     "--split", "three-keyword-family-shifted.split.json",
     "--schedule", "two-keyword-entry-early.schedule.json"),
] + [
    # a second --split outside compare
    (command, "three-keyword-family.json", *options,
     "--split", "three-keyword-family-shifted.split.json",
     "--split", "three-keyword-family-stayhome.split.json")
    for command, *options in (("simulate",), ("verify", "--bme"),
                              ("partition", "--advertiser", "5"),
                              ("best-response", "--advertiser", "5"),
                              ("validate",))] + [
    # an advertiser priced against herself
    ("price", "two-keyword-entry-base.json", "k1", "1", "1"),
    # options that the rest of the command line leaves unread
    ("best-response", "greedy-vs-exact.json", "--advertiser", "1",
     "--method", "dp", "--eps", "7"),
    ("dynamics", "greedy-vs-exact.json", "--method", "greedy", "--eps", "5"),
    ("verify", "three-keyword-family.json",
     "--split", "three-keyword-family-shifted.split.json",
     "--bme", "--method", "fptas"),
] + [
    # a rational option past the interpreter's int-string digit limit
    (*argv, option, value)
    for argv, option in (
        (("simulate", "two-keyword-entry-base.json",
          "--split", "two-keyword-entry-natural.split.json"), "--reserve"),
        (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
          "--method", "fptas"), "--eps"),
        (("verify", "three-keyword-family.json",
          "--split", "three-keyword-family-shifted.split.json"), "--eps-ne"))
    for value in LONG_RATIONALS] + [
    # an empty file argument: a path that cannot be read, not an absent one
    ("simulate", "two-keyword-entry-base.json", "--split", ""),
    ("simulate", "two-keyword-entry-base.json", "--schedule", ""),
    ("verify", "three-keyword-family.json", "--split", "", "--bme"),
    ("partition", "greedy-vs-exact.json", "--advertiser", "1", "--split", ""),
    ("best-response", "greedy-vs-exact.json", "--advertiser", "1",
     "--split", ""),
    ("validate", "two-keyword-entry-base.json", "--split", ""),
    ("validate", "two-keyword-entry-base.json", "--schedule", ""),
    ("validate", "two-keyword-entry-base.json", "--ext", ""),
    ("dynamics", "greedy-vs-exact.json", "--init", "")]


@pytest.mark.parametrize("argv", USAGE_CASES,
                         ids=lambda a: " ".join(a[:2]) + " #%d" %
                         USAGE_CASES.index(a))
def test_usage_errors_exit_2(fx, argv):
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "usage"


def test_usage_cases_are_distinct():
    # a repeated case would run twice and take the id of its first copy
    assert len(set(USAGE_CASES)) == len(USAGE_CASES)


@pytest.mark.parametrize("argv", [a for a in USAGE_CASES if "" in a],
                         ids=lambda a: " ".join(a[:2]) + " " + a[a.index("") - 1])
def test_an_empty_file_argument_cannot_be_read(fx, argv):
    """``--split ""`` and the like name a file, the empty path, which
    cannot be read; they are not taken as the option left out."""
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "usage"
    assert doc["error"]["message"].startswith("cannot read : ")


# -- the direct dispatch against the top-level parser ---------------------------

def _parse_outcome(parse, argv) -> tuple:
    """What parsing ``argv`` gives: the namespace's fields, a usage message,
    or the exit code and text of ``--help``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "namespace", vars(parse(list(argv)))
    except cli.UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


def _assert_routes_agree(argv) -> None:
    """``cli._parse``, which hands a subcommand's argv to that subcommand's
    own parser, gives what the top-level parser gives."""
    direct = _parse_outcome(cli._parse, argv)
    assert direct == _parse_outcome(cli._parser().parse_args, argv), argv
    if direct[0] == "exit":
        assert direct[1] == 0 and direct[2].startswith("usage: broadmatch")


_SUBCOMMANDS = sorted(cli._parser().commands)


def test_both_parse_routes_agree_on_listed_argvs():
    """Every usage case, every golden's argv with and without ``--format
    table``, every subcommand's ``--help`` and the argvs that no subcommand
    starts (none, the top-level help, an unknown name)."""
    argvs = [list(a) for a in USAGE_CASES]
    for argv in [*GOLDEN_CASES.values(), *MARKET_GOLDEN_CASES.values()]:
        argvs += [argv, argv + ["--format", "table"]]
    argvs += [[name, flag] for name in _SUBCOMMANDS for flag in ("-h", "--help")]
    argvs += [[], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--help"],
              ["--format", "table", "simulate"], ["", "simulate"]]
    for argv in argvs:
        _assert_routes_agree(argv)
    assert _parse_outcome(cli._parse, ["nosuch"])[1].startswith(
        "argument command: invalid choice: 'nosuch'")


def _option_strings(command: str) -> list:
    return sorted({s for action in cli._parser().commands[command]._actions
                   for s in action.option_strings})


# each subcommand's shortest argv that parses, with the placeholder F for
# any file name
_PARSES = {"validate": ["F"], "price": ["F", "k1"],
           "partition": ["F", "--advertiser", "1"],
           "simulate": ["F", "--split", "F"],
           "best-response": ["F", "--advertiser", "1"],
           "verify": ["F", "--split", "F", "--bme"], "dynamics": ["F"],
           "dilemma": ["F", "F", "--profiles", "F"], "acbm": ["F", "--ext", "F"],
           "compare": ["F"], "fixtures": []}


@st.composite
def _dispatch_argv(draw):
    """A subcommand, then its shortest argv that parses or zero to two drawn
    positionals, then options drawn from its own option strings: with a
    value, alone, as ``--opt=value`` or abbreviated (some prefixes are
    ambiguous), among values good and bad, and now and then ``--``, other
    subcommands' names, ``-h`` or junk; an option may come back, so repeats
    are drawn too."""
    command = draw(st.sampled_from(_SUBCOMMANDS))
    options = [o for o in _option_strings(command) if o not in ("-h", "--help")]
    prefixes = sorted({o[:n] for o in options if o.startswith("--")
                       for n in range(3, len(o))})
    values = ["two-keyword-entry-base.json", "greedy-vs-exact.json", "1",
              "k1", "1/4", "-1", "0", "1e3", "fptas", "dp", "greedy", "table",
              "json", "", "x"]
    junk = ["--", "-", "---", "--nosuch", "-x", "-5", "-1/2", "--=", "-h",
            "-hx", "--format=", *_SUBCOMMANDS[:3]]
    option = st.sampled_from(options + prefixes) if options else st.just("--x")
    value = st.sampled_from(values)
    unit = st.one_of(
        st.tuples(option, value).map(list), st.tuples(option, value).map(list),
        st.tuples(option).map(list),
        st.builds("{}={}".format, option, value).map(lambda t: [t]),
        st.tuples(st.sampled_from(junk)).map(list))
    start = draw(st.one_of(st.just(_PARSES[command]), st.lists(value, max_size=2)))
    return ([command] + [draw(value) if t == "F" else t for t in start]
            + [t for u in draw(st.lists(unit, max_size=4)) for t in u])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_dispatch_argv())
@example(["simulate", "x", "--split", "a", "--split=b"])
@example(["simulate", "x", "--", "--split", "a"])
@example(["simulate", "x", "--sp", "a", "--for", "table"])
@example(["validate", "x", "--s", "a"])
@example(["verify", "x", "--split", "a", "--e", "1/4", "--bme"])
@example(["compare", "x", "--split", "a", "--split", "b", "--split"])
@example(["fixtures", "--", "-h"])
def test_both_parse_routes_agree_on_drawn_argvs(argv):
    _assert_routes_agree(argv)


@pytest.mark.parametrize("keyword,advertiser,message", [
    ("k2", "1", "advertiser '1' has no edge on keyword 'k2'"),
    ("k2", "zz", "unknown advertiser 'zz' (keyword 'k2')"),
    (None, "zz", "unknown advertiser 'zz'"),
    ("nokw", "1", "unknown keyword 'nokw' (advertiser '1')"),
], ids=["no-edge", "unknown-advertiser-on-keyword", "unknown-advertiser",
        "unknown-keyword"])
def test_partition_names_a_bad_advertiser_or_keyword(fx, keyword, advertiser,
                                                      message):
    argv = ["partition", "two-keyword-entry-base.json"]
    argv += [keyword] if keyword else []
    code, out = fx(*argv, "--advertiser", advertiser)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"] == {"type": "usage", "message": message}


def test_rationals_beyond_float_range_encode_from_integers(fx, tmp_path):
    doc = json.loads((cli._FIXTURE_DIR / "two-keyword-entry-base.json")
                     .read_text(encoding="utf-8"))
    doc["advertisers"][0]["budget"] = "1e400"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    code, out = fx("simulate", str(huge),
                   "--split", "two-keyword-entry-natural.split.json")
    assert code == 0
    leftover = json.loads(out)["result"]["advertisers"]["1"]["leftover"]
    assert leftover["exact"] == str(10 ** 400 - 45)
    assert leftover["approx"] == str(10 ** 400 - 45) + ".000000"
    assert cli._approx(-F(10 ** 400) - F(2, 3), 6) == (
        "-%d.666667" % 10 ** 400)
    # in float range the bytes are the float formatting's, as before
    for x in (F(1, 3), F(-7, 2), F(2, 3), F(-1, 10 ** 9), F(10 ** 300, 7)):
        assert cli._approx(x, 6) == "%.6f" % float(x)


def _rounded_exactly(x: F) -> str:
    """x to six places, half to even, from integers alone."""
    q, r = divmod(abs(x.numerator) * 10 ** 6, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    return "%s%d.%06d" % ("-" if x < 0 else "", *divmod(q, 10 ** 6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.fractions() | st.integers().map(F)
       | st.builds(F, st.integers(10 ** 309, 10 ** 420) | st.integers(
           -10 ** 420, -10 ** 309), st.integers(1, 10 ** 6)))
@example(F(-1, 10 ** 9))
@example(F(10 ** 400, 3))
@example(-F(10 ** 400) - F(2, 3))
@example(F(0))
@example(F(5, 10 ** 7))  # a tie in decimal, not in binary
def test_writer_prints_a_rational_as_float_and_str_do(x):
    """The writer's two strings of a rational, at every depth, are
    ``str(x)`` and ``"%.6f" % float(x)``; beyond float range the decimal
    is x rounded to six places exactly.  Checked apart from ``_approx``,
    which the reference encoder calls."""
    try:
        approx = "%.6f" % float(x)
    except OverflowError:
        approx = _rounded_exactly(x)
    want = {"approx": approx, "exact": str(x)}
    doc = json.loads(cli._dumps({"x": x, "list": [x, [x]], "deep": {"y": x}}))
    assert doc == {"x": want, "list": [want, [want]], "deep": {"y": want}}
    assert json.loads(cli._dumps(x)) == want


def test_argparse_rejections_exit_2(fx):
    code, _ = fx("no-such-command")
    assert code == 2
    code, out = fx("--help")
    assert code == 0 and "broadmatch" in out
    code, out = fx("best-response", "--help")
    assert code == 0 and out.startswith("usage: broadmatch best-response")


@pytest.mark.parametrize("argv,command,message", [
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--method", "fptas", "--eps", "-1/2"), "best-response",
     "argument --eps: expected one argument"),
    (("best-response",), "best-response",
     "the following arguments are required: instance"),
    (("no-such-command",), None, "argument command: invalid choice"),
    (("simulate", "two-keyword-entry-base.json",
      "--split", "two-keyword-entry-natural.split.json",
      "--split", "no-such.json"), "simulate",
     "argument --split: may be given only once"),
    (("simulate", "two-keyword-entry-base.json",
      "--split", "two-keyword-entry-natural.split.json",
      "--reserve", "-5"), "simulate",
     "argument --reserve: must be nonnegative, got -5"),
], ids=["option-without-value", "missing-positional", "unknown-subcommand",
        "repeated-split", "negative-reserve"])
def test_argparse_rejections_end_in_an_envelope(monkeypatch, capsys, argv,
                                                command, message):
    monkeypatch.chdir(cli._FIXTURE_DIR)
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["command"] == command and doc["argv"] == list(argv)
    assert doc["error"]["type"] == "usage"
    assert doc["error"]["message"].startswith(message)
    assert err == ""


def test_dynamics_zero_rounds_is_legal(fx):
    code, out = fx("dynamics", "two-keyword-entry-base.json",
                   "--max-rounds", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["status"] == "max-rounds"
    assert doc["result"]["rounds"] == 0


def test_consecutive_runs_share_one_parser_and_leak_nothing(fx):
    assert cli._parser() is cli._parser()
    twice = ("compare", "three-keyword-family.json",
             "--split", "three-keyword-family-shifted.split.json",
             "--split", "three-keyword-family-stayhome.split.json")
    first = fx(*twice)
    assert first[0] == 0
    # an appended --split that outlived its call would make three here
    assert fx(*twice) == first
    code, out = fx(*twice[:4])
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "pass exactly two --split FILE flags")
    # a failed parse leaves no state behind for the next good run
    code, _ = fx("best-response", "greedy-vs-exact.json", "--eps")
    assert code == 2
    code, out = fx(*GOLDEN_CASES["best-response-dp"])
    assert code == 0
    assert out == (GOLDEN / "best-response-dp.json").read_text(
        encoding="utf-8")


def test_engine_errors_exit_1(fx):
    # advertiser 1 holds two base edges: no natural all-in split to start at
    code, out = fx("acbm", "greedy-vs-exact.json",
                   "--ext", "greedy-vs-exact.json")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["type"] == "engine"


@pytest.mark.parametrize("argv,message", [
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--method", "fptas", "--eps", eps),
     "--eps must be in (0, 1) with --method fptas, got " + eps)
    for eps in ("1", "0", "-1", "3/2")] + [
    (("dynamics", "greedy-vs-exact.json", "--method", "fptas", "--eps", "1"),
     "--eps must be in (0, 1) with --method fptas, got 1")] + [
    (("verify", "three-keyword-family.json",
      "--split", "three-keyword-family-shifted.split.json",
      "--eps-ne", eps, "--method", "fptas"),
     "--eps-ne must be below 1 (from 1 up, the check passes every profile), "
     "got " + eps if eps == "2" else
     "--eps-ne must be in (0, 1) with --method fptas (0 needs --method dp), "
     "got " + eps)
    for eps in ("2", "0", "-1")] + [
    (("verify", "three-keyword-family.json",
      "--split", "three-keyword-family-shifted.split.json",
      "--eps-ne=" + eps, "--method", "dp"),
     "--eps-ne must be nonnegative, got " + eps)
    for eps in ("-1", "-1/10")] + [
    (("verify", "three-keyword-family.json",
      "--split", "three-keyword-family-shifted.split.json",
      "--eps-ne", eps, "--method", method),
     "--eps-ne must be below 1 (from 1 up, the check passes every profile), "
     "got " + eps)
    for method, eps in (("dp", "1"), ("dp", "5"), ("fptas", "1"))])
def test_out_of_range_accuracy_names_the_option(fx, argv, message):
    """An accuracy outside what the method takes is the user's to fix:
    a usage envelope, exit 2, naming the option and the value given, not
    the inner solver's own range (the fptas check of ``--eps-ne`` runs at
    half of it).  From ``--eps-ne 1`` up, the bound (1 - E) times the best
    response is at most 0 and would certify every profile, so either
    method refuses it."""
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"] == {"type": "usage", "message": message}


@pytest.mark.parametrize("argv,message", [
    (("price", "two-keyword-entry-base.json", "k1", "2", "1", "2"),
     "advertiser '2' is given twice"),
    (("best-response", "greedy-vs-exact.json", "--advertiser", "1",
      "--eps", "1/4"),
     "--eps is read only with --method fptas, not with --method dp"),
    (("dynamics", "greedy-vs-exact.json", "--eps", "1/4"),
     "--eps is read only with --method fptas, not with --method greedy"),
    (("verify", "three-keyword-family.json",
      "--split", "three-keyword-family-shifted.split.json",
      "--bme", "--method", "dp"),
     "--method is read only with --eps-ne, not with --bme")],
    ids=["price-twice", "best-response-eps", "dynamics-eps", "verify-bme"])
def test_unread_or_repeated_arguments_are_named(fx, argv, message):
    """A repeated ADVERTISER of ``price`` (she would be priced against
    herself) and an option no other part of the command line reads
    (``--eps`` without ``--method fptas``, defaults included; ``--method``
    with ``--bme``) are usage errors naming the id or the option."""
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"] == {"type": "usage", "message": message}


def test_accuracy_at_the_edges_of_its_range_runs(fx):
    argv = ("verify", "three-keyword-family.json",
            "--split", "three-keyword-family-shifted.split.json")
    assert fx(*argv, "--eps-ne", "99/100", "--method", "fptas")[0] == 0
    assert fx(*argv, "--eps-ne", "99/100", "--method", "dp")[0] == 0
    assert fx("best-response", "greedy-vs-exact.json", "--advertiser", "1",
              "--method", "fptas", "--eps", "99/100")[0] == 0


def test_table_formats(fx):
    """``--format table`` prints the envelope one ``path  value`` line per
    leaf, the lines README's quick tour names among them; a failed check
    and an error end in their exit codes there too."""
    code, out = fx("price", "two-keyword-entry-base.json", "k1",
                   "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert "result.revenue  9/10 (0.9000)" in lines
    assert "result.ranking[0].slot  1" in lines
    assert "exit_code  0" in lines

    code, out = fx("simulate", "two-keyword-entry-base.json",
                   "--split", "two-keyword-entry-natural.split.json",
                   "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert "result.revenue  75 (75.0000)" in lines
    assert "result.advertisers.2.leftover  37 (37.0000)" in lines
    assert "exit_code  0" in lines

    code, out = fx("acbm", "two-keyword-entry-base.json",
                   "--ext", "two-keyword-entry-ext.json", "--fine",
                   "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert "result.moves[0].start_query  15" in lines
    assert "result.delta  184/5 (36.8000)" in lines
    assert "exit_code  0" in lines

    code, out = fx("acbm", "two-keyword-entry-base.json",
                   "--ext", "two-keyword-entry-ext.json", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert "result.moves[0].start_query  1" in lines
    assert "result.delta  71/2 (35.5000)" in lines

    code, out = fx("verify", "three-keyword-family.json",
                   "--split", "three-keyword-family-shifted.split.json",
                   "--bme", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert "result.ok  true" in lines
    assert "exit_code  0" in lines

    code, out = fx("verify", "agreeing-methods.json",
                   "--split", "agreeing-methods-allk2.split.json", "--bme",
                   "--format", "table")
    assert code == 3
    lines = out.splitlines()
    assert "result.ok  false" in lines
    assert "exit_code  3" in lines

    code, out = fx("simulate", "two-keyword-entry-base.json",
                   "--split", "missing.split.json", "--format", "table")
    assert code == 2
    lines = out.splitlines()
    assert 'error.type  "usage"' in lines
    assert "exit_code  2" in lines


def test_fixture_listing_and_emission(fx, tmp_path):
    code, out = fx("fixtures")
    doc = json.loads(out)
    assert code == 0
    names = sorted(doc["result"]["fixtures"])
    assert names == sorted(cli.FIXTURES)
    assert all(doc["result"]["fixtures"][n]["files"] for n in names)

    out_dir = tmp_path / "emitted"
    code, out = fx("fixtures", "two-keyword-entry", str(out_dir))
    assert code == 0
    written = json.loads(out)["result"]["written"]
    assert len(written) == 6
    for path in written:
        name = Path(path).name
        assert Path(path).read_bytes() == (cli._FIXTURE_DIR / name).read_bytes()

    code, out = fx("fixtures", "no-such-example")
    assert code == 2 and json.loads(out)["error"]["type"] == "usage"


def test_fixture_file_that_cannot_be_written_is_a_usage_error(fx, tmp_path):
    """A fixture file whose target path is a directory cannot be copied:
    the run ends in a usage envelope naming the file, exit 2."""
    (tmp_path / "two-keyword-entry-base.json").mkdir()
    code, out = fx("fixtures", "two-keyword-entry", str(tmp_path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "usage"
    assert "two-keyword-entry-base.json" in error["message"]


def test_console_script_is_wired():
    """``python -m broadmatch`` runs the CLI, and the installed
    ``broadmatch`` script is declared to call the same ``main``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "broadmatch", "fixtures"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "two-keyword-entry" in proc.stdout
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == [
        'broadmatch = "broadmatch.cli:main"']


# -- the report writer -----------------------------------------------------------

# Keys and strings with all that JSON escapes: quotes, backslashes, control
# characters, non-ASCII, characters beyond the BMP and lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=())
                | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                                   "\ud800", "\udfff", "\U0001f600"]),
                max_size=6)
_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.integers(-2 ** 200, 2 ** 200) | _TEXT)
_EXACT = (st.integers().map(F) | st.fractions()
          | st.builds(F, st.integers(-10 ** 400, 10 ** 400),
                      st.integers(1, 10 ** 30)))
_ENGINE_LEAVES = (_JSON_LEAVES | _EXACT | st.just(INFINITE)
                  | st.sets(st.integers() | _EXACT, max_size=4)
                  | st.frozensets(_TEXT, max_size=4))


def _deepen(tree, key, depth: int):
    for level in range(depth):
        tree = {key: tree} if level % 2 else [tree]
    return tree


def _trees(leaves, keys, tuples=False):
    """Lists (and tuples) and dicts keyed by ``keys`` around ``leaves``,
    inside up to 100 more one-entry lists and dicts."""
    def nest(kids):
        seqs = st.lists(kids, max_size=4)
        if tuples:
            seqs = seqs | seqs.map(tuple)
        return seqs | st.dictionaries(keys, kids, max_size=4)

    return st.builds(_deepen, st.recursive(leaves, nest, max_leaves=12), keys,
                     st.sampled_from([0, 0, 1, 2, 65, 100]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trees(_JSON_LEAVES, _TEXT))
def test_writer_is_json_dumps_on_plain_trees(tree):
    assert cli._dumps(tree) == json.dumps(tree, sort_keys=True,
                                          indent=2) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_trees(_ENGINE_LEAVES, _TEXT | st.integers(), tuples=True))
# an int key and a text key with the same str(): the later one is kept
@example({1: F(1, 2), "1": [F(-3)], 10: 7, "9": None})
@example({"2": 0, 2: (F(10 ** 400, 3), INFINITE)})
# dicts of one key tuple at one depth share their sorted keys; equal
# tuples of other keys (1 == True) do not, and lists mixing text join not
@example([{"b": 1, "a": [F(1, 3)]}, {"b": "x", "a": ("y", "z")},
          {1: 2, "a": 3}, {True: 4, "a": 5}, {"a": {"b": 6, "a": 7}},
          ["p", F(1)], ("q", None), {"r", "s"}])
def test_writer_is_json_dumps_of_the_reference_encoding(tree):
    """Exact rationals, the rate sentinel, tuples, sets and int keys (which
    can collide with their text) are encoded as the tree-building encoder
    encoded them."""
    assert cli._dumps(tree) == json.dumps(reference_enc(tree), sort_keys=True,
                                          indent=2) + "\n"


def test_writer_refuses_what_it_cannot_encode():
    # the engine is float-free: a float in a report is a fault
    for value in (b"bytes", 1j, object(), {"k": [bytearray()]}, 0.5,
                  [float("inf")]):
        with pytest.raises(TypeError):
            reference_enc(value)
        with pytest.raises(TypeError):
            cli._dumps(value)


def test_table_paths_quote_keys_that_are_not_bare():
    """A key that would split a table line or blur its path (a line break,
    a space, a dot, a bracket, a quote, non-ASCII, the empty key) prints as
    its JSON text in brackets; ids are any non-empty strings."""
    doc = {"result": {"x\ny.z": F(21, 10), "a b": [], 'q"': {"k1": INFINITE},
                      "\u00e9": {"": None}, "k-1": ("7", 8)}, "exit_code": 0}
    assert cli._lines(doc).splitlines() == [
        "exit_code  0",
        'result["a b"]  []',
        "result.k-1[0]  \"7\"",
        "result.k-1[1]  8",
        'result["q\\""].k1  inf',
        'result["x\\ny.z"]  21/10 (2.1000)',
        'result["\\u00e9"][""]  null',
    ]


# -- every argv ends in one envelope --------------------------------------------

_RATIONALS = ["0", "0", "1/2", "1/2", "3", "10/3", "0.25", "-1", "-1/2",
              "1e400", "1e-400", "99999999999999999999999", "abc", "1/0", ""]
_IDS = ["1", "2", "3", "4", "99", "k1", "k2", "k9", ""]


def _malformed_documents(root: Path) -> None:
    """Documents the CLI must reject, or survive, without a traceback."""
    (root / "not-json.json").write_text("{not json", encoding="utf-8")
    (root / "empty.json").write_text("", encoding="utf-8")
    (root / "array.json").write_text("[1, 2]", encoding="utf-8")
    (root / "bad-schema.json").write_text('{"slots": 3}', encoding="utf-8")
    (root / "adir").mkdir()
    base = json.loads((root / "two-keyword-entry-base.json").read_text(
        encoding="utf-8"))
    base["advertisers"][0]["budget"] = "1e400"
    base["edges"][0]["score"] = "123456789012345678901234567890/7"
    base["keywords"][1]["volume"] = 10 ** 15
    (root / "huge-base.json").write_text(json.dumps(base), encoding="utf-8")
    base["advertisers"][1]["budget"] = "-5"
    (root / "negative-base.json").write_text(json.dumps(base),
                                             encoding="utf-8")
    split = json.loads((root / "two-keyword-entry-natural.split.json")
                       .read_text(encoding="utf-8"))
    split["allocations"][0]["budget"] = "1e400"
    (root / "huge.split.json").write_text(json.dumps(split), encoding="utf-8")
    split["allocations"][0]["advertiser"] = "99"
    (root / "unknown-id.split.json").write_text(json.dumps(split),
                                                encoding="utf-8")


_BAD_FILES = ["missing.json", "not-json.json", "empty.json", "array.json",
              "bad-schema.json", "adir", "negative-base.json"]


def _file(*good):
    """A document from ``good`` three times in four, a broken one
    otherwise."""
    return st.sampled_from([g for g in good for _ in _BAD_FILES * 3]
                           + [b for b in _BAD_FILES for _ in good])


_INSTANCE = _file("two-keyword-entry-base.json",
                  "two-keyword-entry-base.json", "greedy-vs-exact.json",
                  "three-keyword-family.json", "single-extension-base.json",
                  "huge-base.json")
_SPLIT = _file("two-keyword-entry-natural.split.json",
               "two-keyword-entry-natural.split.json",
               "three-keyword-family-shifted.split.json",
               "single-extension-advshift.split.json", "huge.split.json",
               "unknown-id.split.json")
_VALUES = {
    "--reserve": st.sampled_from(_RATIONALS),
    "--eps": st.sampled_from(_RATIONALS),
    "--eps-ne": st.sampled_from(_RATIONALS),
    "--split": _SPLIT,
    "--init": _SPLIT,
    "--profiles": _SPLIT,
    "--schedule": _file("two-keyword-entry-early.schedule.json",
                        "single-extension-entry.schedule.json"),
    "--ext": _file("two-keyword-entry-ext.json", "single-extension-ext.json"),
    "--advertiser": st.sampled_from(_IDS),
    "--method": st.sampled_from(["greedy", "dp", "fptas", "brute", "x"]),
    "--max-rounds": st.sampled_from(["0", "3", "-1", "x", "10**9"]),
    "--shuffle-seed": st.sampled_from(["0", "7", "-1", "x"]),
    "--format": st.sampled_from(["json", "json", "table", "xml"]),
    "--fine": None, "--bme": None,
}
_COMMON = ["--reserve", "--format"]
_PROFILE = _COMMON + ["--split", "--schedule"]
_COMMANDS = {  # positionals, options always passed, options maybe passed
    "validate": ([_INSTANCE], [], ["--split", "--schedule", "--ext"]),
    "price": ([_INSTANCE, st.sampled_from(["k1", "k2", "k9"]),
               st.lists(st.sampled_from(_IDS), max_size=3)], [], _COMMON),
    "partition": ([_INSTANCE, st.lists(st.sampled_from(_IDS), max_size=1)],
                  ["--advertiser", "--split"], _PROFILE),
    "simulate": ([_INSTANCE], ["--split"], _PROFILE),
    "best-response": ([_INSTANCE], ["--advertiser", "--split"],
                      _PROFILE + ["--method", "--eps"]),
    "verify": ([_INSTANCE], ["--split"],
               _PROFILE + ["--bme", "--eps-ne", "--method"]),
    "dynamics": ([_INSTANCE], [], _COMMON + ["--method", "--eps",
                                             "--max-rounds", "--init",
                                             "--shuffle-seed"]),
    "dilemma": ([_INSTANCE, _VALUES["--ext"]], ["--profiles"], _COMMON),
    "acbm": ([_INSTANCE], ["--ext"], _COMMON + ["--fine"]),
    "compare": ([_INSTANCE], ["--split", "--split"], _COMMON),
    "fixtures": ([st.lists(st.sampled_from(["two-keyword-entry", "nope"]),
                           max_size=1),
                  st.lists(st.sampled_from(["out", "adir/sub",
                                            "not-json.json/sub"]),
                           max_size=1)], [], []),
}


# Bundled markets with the profiles that fit them, and (base, extension,
# splits that fit the extension) pairs, for well-formed runs.
_FITTING = {
    "two-keyword-entry-base.json": [
        ("--split", "two-keyword-entry-natural.split.json")],
    "two-keyword-entry-ext.json": [
        ("--schedule", "two-keyword-entry-early.schedule.json"),
        ("--schedule", "two-keyword-entry-tuned.schedule.json")],
    "single-extension-ext.json": [
        ("--split", "single-extension-advshift.split.json"),
        ("--schedule", "single-extension-entry.schedule.json")],
    "agreeing-methods.json": [("--split", "agreeing-methods-allk2.split.json")],
    "three-keyword-family.json": [
        ("--split", "three-keyword-family-shifted.split.json"),
        ("--split", "three-keyword-family-stayhome.split.json")],
    "edge-shift-ext.json": [("--split", "edge-shift-shift.split.json"),
                            ("--split", "edge-shift-noshift.split.json")],
}
_PAIRS = [# advertiser 1 holds two base edges: acbm refuses, exit 1
          ("greedy-vs-exact.json", "greedy-vs-exact.json", []),
          ("two-keyword-entry-base.json", "two-keyword-entry-ext.json", []),
          ("single-extension-base.json", "single-extension-ext.json",
           ["single-extension-advshift.split.json"]),
          ("edge-shift-base.json", "edge-shift-ext.json",
           ["edge-shift-shift.split.json", "edge-shift-noshift.split.json"]),
          ("edge-no-shift-base.json", "edge-no-shift-ext.json",
           ["edge-no-shift-noshift.split.json"])]


def _ids(market: str, section: str) -> list:
    doc = json.loads((cli._FIXTURE_DIR / market).read_text(encoding="utf-8"))
    return [item["id"] for item in doc[section]]


@st.composite
def _well_formed(draw):
    """A run the CLI accepts, over the bundled fixtures: documents that fit
    each other, ids they hold and option values in range, so that it ends
    in a result (exit 0), a failed check (3) or an engine refusal (1)."""
    command = draw(st.sampled_from([
        "simulate", "verify", "verify", "best-response", "partition", "price",
        "dynamics", "validate", "acbm", "dilemma", "compare"]))
    market = draw(st.sampled_from(sorted(_FITTING)))
    profile = list(draw(st.sampled_from(_FITTING[market])))
    base, ext, splits = draw(st.sampled_from(_PAIRS))
    argv = [command, market]
    if command in ("simulate", "validate"):
        argv += profile
    elif command == "verify":
        argv += profile + draw(st.sampled_from([
            ["--bme"], ["--eps-ne", "0"], ["--eps-ne", "1/10", "--method", "dp"],
            ["--eps-ne", "1/2", "--method", "fptas"]]))
    elif command in ("best-response", "partition"):
        argv += ["--advertiser",
                 draw(st.sampled_from(_ids(market, "advertisers")))]
        argv += draw(st.sampled_from([
            [], profile, ["--method", "greedy"],
            ["--method", "fptas", "--eps", "1/4"] + profile]
            if command == "best-response" else [[], profile]))
    elif command == "price":
        argv.append(draw(st.sampled_from(_ids(market, "keywords"))))
    elif command == "dynamics":
        argv += ["--max-rounds", "3"]
    elif command == "acbm":
        argv = ["acbm", base, "--ext", ext] + draw(
            st.sampled_from([[], ["--fine"]]))
    elif command == "dilemma" and splits:
        argv = ["dilemma", base, ext, "--profiles"] + splits
    else:
        argv = ["compare", "three-keyword-family.json",
                "--split", "three-keyword-family-shifted.split.json",
                "--split", "three-keyword-family-stayhome.split.json"]
    if command != "validate":
        argv += draw(st.sampled_from([[], ["--format", "table"],
                                      ["--reserve", "1/2"]]))
    return argv


@st.composite
def _argv(draw):
    """A well-formed run over the bundled fixtures three times in ten, a
    well-shaped command line six times (its positionals and the options it
    needs, plus some it takes, each value good or bad), free-form tokens
    otherwise."""
    shape = draw(st.sampled_from(["free"] + ["fixtures"] * 3 + ["shaped"] * 6))
    if shape == "free":
        tokens = st.sampled_from(sorted(_COMMANDS) + ["frobnicate", "--nope"]
                                 + _IDS + _RATIONALS + list(_VALUES)
                                 + _BAD_FILES)
        return draw(st.lists(tokens, max_size=6))
    if shape == "fixtures":
        return draw(_well_formed())
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positionals, needed, options = _COMMANDS[command]
    argv = [command]
    for strategy in positionals:
        value = draw(strategy)
        argv += value if isinstance(value, list) else [value]
    if options:
        needed = needed + draw(st.lists(st.sampled_from(options), max_size=3))
    for flag in needed:
        argv.append(flag)
        if _VALUES[flag] is not None:
            argv.append(draw(_VALUES[flag]))
    return argv


# a table line: a top-level key, dotted keys and [n] indices, then the leaf
_TABLE_LINE = re.compile(r"(?:argv|command|error|exit_code|instance|result)"
                         r"(?:\.[^\s.\[\]]+|\[\d+\])*  \S.*")


def _parsed_format(argv) -> str:
    """The ``--format`` argparse reads from ``argv``: ``json`` when it
    rejects ``argv`` or the subcommand takes no ``--format``."""
    try:
        return getattr(cli._parser().parse_args(argv), "format", "json")
    except cli.UsageError:
        return "json"


def test_every_argv_ends_in_one_envelope(tmp_path, monkeypatch):
    """Drawn subcommands, positionals and options, good and bad (missing,
    malformed and huge documents, negative and huge rationals, unknown
    ids and flags): each run returns an exit code in {0, 1, 2, 3} and
    prints nothing on stderr.  With ``--format table`` parsed it prints
    unindented ``path  value`` lines, one of them the top-level
    ``exit_code`` line holding the code returned; otherwise exactly one
    JSON envelope, in the canonical sorted-key two-space-indent form, with
    that exit code and the argv.  ``--help`` prints text by design and is
    not drawn."""
    shutil.copytree(cli._FIXTURE_DIR, tmp_path, dirs_exist_ok=True)
    _malformed_documents(tmp_path)
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_argv())
    # an out-of-range eps, and a tiny eps that once overflowed the fptas table
    @example(["best-response", "greedy-vs-exact.json", "--advertiser", "1",
              "--method", "fptas", "--eps", "3"])
    @example(["best-response", "greedy-vs-exact.json", "--advertiser", "1",
              "--method", "fptas", "--eps", "1e-400"])
    # a table run ending in each exit code the draws rarely reach
    @example(["simulate", "two-keyword-entry-base.json",
              "--split", "two-keyword-entry-natural.split.json",
              "--format", "table"])
    @example(["acbm", "greedy-vs-exact.json", "--ext", "greedy-vs-exact.json",
              "--format", "table"])
    @example(["verify", "agreeing-methods.json",
              "--split", "agreeing-methods-allk2.split.json", "--bme",
              "--format", "table"])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2, 3), argv
        assert err.getvalue() == "", argv
        if _parsed_format(argv) == "table":
            lines = out.getvalue().split("\n")
            assert lines.pop() == "", argv
            assert all(_TABLE_LINE.fullmatch(line) for line in lines), argv
            assert [line for line in lines if line.startswith("exit_code")
                    ] == ["exit_code  %d" % code], argv
            return
        doc = json.loads(out.getvalue())  # exactly one JSON document
        assert out.getvalue() == json.dumps(doc, sort_keys=True,
                                            indent=2) + "\n", argv
        assert doc["exit_code"] == code, argv
        assert doc["argv"] == argv

    check()
