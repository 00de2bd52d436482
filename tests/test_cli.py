"""End-to-end checks of the command-line front end.

Golden reports live in tests/golden/.  To regenerate one after an intended
output change, run from src/broadmatch/fixtures/:

    python3 -c "from broadmatch.cli import run; run([...])" > ../../../tests/golden/NAME.json

with the argv list shown in GOLDEN_CASES below; for MARKET_GOLDEN_CASES, run
from tests/markets/ and write to ../golden/NAME.json.
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

from broadmatch import cli
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


@pytest.mark.parametrize("name", sorted(MARKET_GOLDEN_CASES))
def test_market_golden_reports(monkeypatch, capsys, name):
    monkeypatch.chdir(MARKETS)
    code = cli.run(list(MARKET_GOLDEN_CASES[name]))
    golden = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert code == json.loads(golden)["exit_code"]


def test_reports_are_byte_deterministic(fx):
    first = fx(*GOLDEN_CASES["acbm-fine"])
    second = fx(*GOLDEN_CASES["acbm-fine"])
    assert first == second


def test_acbm_job_runs_its_base_day_once(fx, monkeypatch):
    """At reserve 0 the day that fills in the natural split's query counts
    is the base day, so one base day, then one broadened day per round
    (the first is the initial day, the last the final one)."""
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
    assert len(calls) == 1 + rounds


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
                (list(a), str(c)) for a, c in zip(table.actives, table.costs)]
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
]


@pytest.mark.parametrize("argv", USAGE_CASES,
                         ids=lambda a: " ".join(a[:2]) + " #%d" %
                         USAGE_CASES.index(a))
def test_usage_errors_exit_2(fx, argv):
    code, out = fx(*argv)
    doc = json.loads(out)
    assert code == doc["exit_code"] == 2
    assert doc["error"]["type"] == "usage"


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
    code, out = fx("price", "two-keyword-entry-base.json", "k1",
                   "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == [
        "slot", "advertiser", "score", "price", "payoff"]
    assert "revenue 9/10 (0.9000)" in out

    code, out = fx("simulate", "two-keyword-entry-base.json",
                   "--split", "two-keyword-entry-natural.split.json",
                   "--format", "table")
    assert code == 0 and "total" in out and "leftover" in out

    code, out = fx("acbm", "two-keyword-entry-base.json",
                   "--ext", "two-keyword-entry-ext.json", "--fine",
                   "--format", "table")
    assert code == 0
    assert "enter 3 on k1 at query 15 (+184/5)" in out

    code, out = fx("verify", "three-keyword-family.json",
                   "--split", "three-keyword-family-shifted.split.json",
                   "--bme", "--format", "table")
    assert code == 0
    assert "stable: True" in out


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
    "--format": st.sampled_from(["json", "json", "xml"]),
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


@st.composite
def _argv(draw):
    """A well-shaped command line nine times in ten (its positionals and
    the options it needs, plus some it takes, each value good or bad),
    free-form tokens otherwise."""
    if draw(st.sampled_from([False] * 9 + [True])):
        tokens = st.sampled_from(sorted(_COMMANDS) + ["frobnicate", "--nope"]
                                 + _IDS + _RATIONALS + list(_VALUES)
                                 + _BAD_FILES)
        return draw(st.lists(tokens, max_size=6))
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


def test_every_argv_ends_in_one_envelope(tmp_path, monkeypatch):
    """Drawn subcommands, positionals and options, good and bad (missing,
    malformed and huge documents, negative and huge rationals, unknown
    ids and flags): each run prints exactly one JSON envelope, in the
    canonical sorted-key two-space-indent form, whose exit code is the one
    returned, in {0, 1, 2, 3}, and nothing on stderr.
    ``--format table`` and ``--help`` print text by design and are not
    drawn."""
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
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2, 3), argv
        doc = json.loads(out.getvalue())  # exactly one JSON document
        assert out.getvalue() == json.dumps(doc, sort_keys=True,
                                            indent=2) + "\n", argv
        assert doc["exit_code"] == code, argv
        assert doc["argv"] == argv
        assert err.getvalue() == "", argv

    check()
