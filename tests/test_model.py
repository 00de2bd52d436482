import copy
import dataclasses
import json
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broadmatch.model import (Allocation, ModelError, Profile, all_in_profile,
                              check_extension, digit_limit_error,
                              instance_text, load_instance, load_schedule,
                              load_split, parse_rational,
                              serialize_instance, serialize_profile,
                              validate_profile)
from conftest import (FIXTURES, build_instance, build_split, random_instance,
                      reference_load_instance, reference_load_profile,
                      reference_serialize_instance, reference_validate_profile)


def small():
    return build_instance(
        ("1", "7/10"), (("k1", 100), ("k2", 100)),
        (("1", "45"), ("2", "37"), ("3", "40"), ("4", "20")),
        (("1", "k1", "5", "base"), ("2", "k1", "3", "base"),
         ("3", "k2", "3/2", "base"), ("4", "k2", "1", "base"),
         ("3", "k1", "2", "extension")))


def test_instance_lookups():
    inst = small()
    assert inst.volume("k2") == 100
    assert inst.budget("3") == F(40)
    assert inst.score("3", "k1") == F(2)
    assert inst.has_edge("1", "k1") and not inst.has_edge("1", "k2")
    assert inst.keywords_of("3") == ["k1", "k2"]
    assert inst.base_instance().keywords_of("3") == ["k2"]
    assert inst.advertisers_on("k1") == ["1", "2", "3"]
    assert inst.keyword_index("k2") == 1
    assert len(inst.base_edges()) == 4
    assert [e.keyword for e in inst.extension_edges()] == ["k1"]


def test_edge_lookups_keep_their_orders_and_hand_out_copies():
    # edges listed against keyword order and id order
    inst = build_instance(
        ("1",), (("k1", 10), ("k2", 10), ("k3", 10)),
        (("a", "1"), ("b", "1"), ("c", "1")),
        (("b", "k3", "1", "base"), ("a", "k3", "1", "base"),
         ("b", "k1", "1", "extension"), ("c", "k3", "1", "base")))
    assert inst.keywords_of("b") == ["k1", "k3"]
    assert inst.advertisers_on("k3") == ["a", "b", "c"]
    assert inst.keywords_of("nobody") == [] and inst.advertisers_on("k2") == []
    inst.keywords_of("b").append("k2")
    inst.advertisers_on("k3").clear()
    assert inst.keywords_of("b") == ["k1", "k3"]
    assert inst.advertisers_on("k3") == ["a", "b", "c"]


def test_base_instance_strips_extensions():
    base = small().base_instance()
    assert not base.has_edge("3", "k1")
    assert base.budget("3") == F(40)


def test_instance_round_trip():
    inst = small()
    doc = serialize_instance(inst)
    assert load_instance(json.dumps(doc)) == inst


def test_load_instance_rejects_bad_documents():
    with pytest.raises(ModelError) as err:
        load_instance('{"bogus": 1}')
    assert any("slots" in e["message"] or "$" == e["path"]
               for e in err.value.errors)
    with pytest.raises(ModelError):
        load_instance("not json at all")
    doc = serialize_instance(small())
    doc["slots"]["clickability"] = ["7/10", "1"]  # increasing
    with pytest.raises(ModelError) as err:
        load_instance(json.dumps(doc))
    assert any("decreasing" in e["message"] for e in err.value.errors)


def test_load_instance_rejects_duplicate_edge():
    doc = serialize_instance(small())
    doc["edges"].append(dict(doc["edges"][0]))
    with pytest.raises(ModelError) as err:
        load_instance(json.dumps(doc))
    assert any("duplicate edge" in e["message"] for e in err.value.errors)


def _market(**changes):
    """A valid two-keyword instance document with some sections replaced."""
    doc = {
        "slots": {"count": 2, "clickability": ["1", "1/2"]},
        "keywords": [{"id": "k1", "volume": 10}, {"id": "k2", "volume": 5}],
        "advertisers": [{"id": "a", "budget": "5"}, {"id": "b", "budget": 3}],
        "edges": [{"advertiser": "a", "keyword": "k1", "score": "2"},
                  {"advertiser": "b", "keyword": "k1", "score": 1,
                   "tag": "extension"}],
    }
    doc.update(copy.deepcopy(changes))
    return doc


def _rows(*rows):
    """An allocations document; a fifth value is the row's start query."""
    keys = ("advertiser", "keyword", "queries", "budget", "start_query")
    return {"allocations": [dict(zip(keys, row)) for row in rows]}


FLOAT = 'floats are not exact; quote the value, e.g. "2.3"'
NOT_STR = "expected a non-empty string"
LOADERS = {"instance": load_instance, "split": load_split,
           "schedule": load_schedule}

# name: (loader, document, its errors as (path, message) in report order).
# Between them the documents reach every branch of the loaders' walk; a
# duplicate's index is its item's index in the document, non-objects
# included.
LOADER_ERRORS = {
    "instance-text-not-json": ("instance", "{not json", [
        ("$", "invalid JSON: Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1)")]),
    "instance-not-object": ("instance", [1, 2], [
        ("$", "instance document must be a JSON object")]),
    "instance-missing-and-unknown-key": (
        "instance", {k: v for k, v in _market(bogus=1).items()
                     if k != "edges"}, [
            ("$", "missing key 'edges'"), ("$", "unknown key 'bogus'")]),
    "instance-slots-not-object": ("instance", _market(slots=3), [
        ("$.slots", "expected an object")]),
    "instance-slots-keys-and-types": (
        "instance", _market(slots={"count": "2", "clickability": ["1"],
                                   "x": 1}), [
            ("$.slots", "unknown key 'x'"),
            ("$.slots.count", "expected an integer, got str"),
            ("$.slots.count", "slot count must be >= 1"),
            ("$.slots.clickability", "expected 0 values, got 1")]),
    "instance-slots-zero-count": (
        "instance", _market(slots={"count": 0, "clickability": "1"}), [
            ("$.slots.clickability", "expected a list"),
            ("$.slots.count", "slot count must be >= 1")]),
    "instance-clickability-values": (
        "instance", _market(slots={"count": 4,
                                   "clickability": ["1", 0.5, "1", "-1"]}), [
            ("$.slots.clickability[1]", FLOAT),
            ("$.slots.clickability[1]", "clickability must be positive"),
            ("$.slots.clickability[3]", "clickability must be positive"),
            ("$.slots.clickability[2]",
             "clickability not strictly decreasing")]),
    "instance-sections-not-lists": (
        "instance", _market(keywords={}, advertisers="a", edges=None), [
            ("$.keywords", "expected a list"),
            ("$.advertisers", "expected a list"),
            ("$.edges", "expected a list")]),
    "instance-keyword-items": (
        "instance", _market(keywords=[
            3, {"id": "k1"}, {"id": "", "volume": 2.5},
            {"id": 7, "volume": 0, "note": "x"},
            {"id": "k2", "volume": True}]), [
            ("$.keywords[0]", "expected an object"),
            ("$.keywords[1]", "missing key 'volume'"),
            ("$.keywords[1].volume", "volume must be a positive integer"),
            ("$.keywords[2].id", NOT_STR),
            ("$.keywords[2].volume", "expected an integer, got float"),
            ("$.keywords[2].volume", "volume must be a positive integer"),
            ("$.keywords[3]", "unknown key 'note'"),
            ("$.keywords[3].id", NOT_STR),
            ("$.keywords[3].volume", "volume must be a positive integer"),
            ("$.keywords[4].volume", "expected an integer, got bool"),
            ("$.keywords[4].volume", "volume must be a positive integer"),
            # the repeat is the document's item 3, after a non-object
            ("$.keywords[3].id", "duplicate keyword id ''")]),
    "instance-advertiser-items": (
        "instance", _market(advertisers=[
            {"id": "a", "budget": "-1"}, {"budget": "1/0"},
            {"id": "b", "budget": 2.5}, {"id": "c", "budget": True},
            {"id": "d", "budget": None},
            {"id": "e", "budget": "abc", "cap": 1}, "x"]), [
            ("$.advertisers[0].budget", "budget must be nonnegative"),
            ("$.advertisers[1]", "missing key 'id'"),
            ("$.advertisers[1].id", NOT_STR),
            ("$.advertisers[1].budget", "not a rational: '1/0'"),
            ("$.advertisers[2].budget", FLOAT),
            ("$.advertisers[3].budget",
             "expected integer or rational string, got boolean"),
            ("$.advertisers[4].budget",
             "expected integer or rational string, got NoneType"),
            ("$.advertisers[5]", "unknown key 'cap'"),
            ("$.advertisers[5].budget", "not a rational: 'abc'"),
            ("$.advertisers[6]", "expected an object")]),
    "instance-edge-items": (
        "instance", _market(edges=[
            {"advertiser": "a", "keyword": "k1", "score": "0"},
            {"advertiser": "zz", "keyword": "k9", "score": "-1/2"},
            {"advertiser": "b", "keyword": "k2", "score": 1.5,
             "tag": "broad"},
            {"advertiser": "", "keyword": 4, "score": "1", "weight": 2},
            {"keyword": "k2", "score": "1"}, []]), [
            ("$.edges[0].score", "score must be positive"),
            ("$.edges[1].advertiser", "unknown advertiser 'zz'"),
            ("$.edges[1].keyword", "unknown keyword 'k9'"),
            ("$.edges[1].score", "score must be positive"),
            ("$.edges[2].score", FLOAT),
            ("$.edges[2].score", "score must be positive"),
            ("$.edges[2].tag", "tag must be 'base' or 'extension'"),
            ("$.edges[3]", "unknown key 'weight'"),
            ("$.edges[3].advertiser", NOT_STR),
            ("$.edges[3].keyword", NOT_STR),
            ("$.edges[4]", "missing key 'advertiser'"),
            ("$.edges[4].advertiser", NOT_STR),
            ("$.edges[5]", "expected an object")]),
    "instance-duplicates": (
        "instance", _market(
            keywords=[{"id": "k1", "volume": 10}, {"id": "k1", "volume": 3},
                      {"id": "k2", "volume": 5}, {"id": "k1", "volume": 1}],
            advertisers=[{"id": "a", "budget": "5"},
                         {"id": "a", "budget": 1}, {"id": "b", "budget": 3}],
            edges=[{"advertiser": "a", "keyword": "k1", "score": "2"},
                   {"advertiser": "a", "keyword": "k1", "score": "3",
                    "tag": "extension"},
                   {"advertiser": "b", "keyword": "k2", "score": "1"}]), [
            ("$.keywords[1].id", "duplicate keyword id 'k1'"),
            ("$.keywords[3].id", "duplicate keyword id 'k1'"),
            ("$.advertisers[1].id", "duplicate advertiser id 'a'"),
            ("$.edges[1]", "duplicate edge ('a', 'k1')")]),
    "instance-duplicates-after-a-skipped-item": (
        "instance", _market(
            keywords=["k0", {"id": "k1", "volume": 10},
                      {"id": "k1", "volume": 3}],
            edges=[7, {"advertiser": "a", "keyword": "k1", "score": "2"},
                   {"advertiser": "a", "keyword": "k1", "score": "2"}]), [
            ("$.keywords[0]", "expected an object"),
            ("$.keywords[2].id", "duplicate keyword id 'k1'"),
            ("$.edges[0]", "expected an object"),
            ("$.edges[2]", "duplicate edge ('a', 'k1')")]),
    "instance-advertiser-duplicate-after-a-skipped-item": (
        "instance", _market(advertisers=[
            None, {"id": "a", "budget": "5"}, {"id": "a", "budget": "1"},
            {"id": "b", "budget": 3}]), [
            ("$.advertisers[0]", "expected an object"),
            ("$.advertisers[2].id", "duplicate advertiser id 'a'")]),
    "instance-bytes-not-utf8": ("instance", b'{"slots": "\xff"}', [
        ("$", "invalid text encoding: 'utf-8' codec can't decode byte 0xff "
              "in position 11: invalid start byte")]),
    "split-text-not-json": ("split", '{"allocations": [}', [
        ("$", "invalid JSON: Expecting value: line 1 column 18 (char 17)")]),
    "split-not-object": ("split", "[]", [
        ("$", "split document must be a JSON object")]),
    "schedule-not-object": ("schedule", '"rows"', [
        ("$", "schedule document must be a JSON object")]),
    "split-missing-allocations": ("split", {"rows": []}, [
        ("$", "missing key 'allocations'"), ("$", "unknown key 'rows'")]),
    "split-unknown-key-keeps-walking": (
        "split", dict(_rows(("a", "k1", -1, "1")), extra=True), [
            ("$", "unknown key 'extra'"),
            ("$.allocations[0].queries", "queries must be nonnegative")]),
    "split-bytes-not-utf8": ("split", b'{"allocations": ["\xe9t\xe9"]}', [
        ("$", "invalid text encoding: 'utf-8' codec can't decode byte 0xe9 "
              "in position 18: invalid continuation byte")]),
    "schedule-bytes-not-utf8": ("schedule", b'\xff\xfe{', [
        ("$", "invalid text encoding: 'utf-16-le' codec can't decode byte "
              "0x7b in position 2: truncated data")]),
    "split-allocations-not-list": ("split", {"allocations": {"a": 1}}, [
        ("$.allocations", "expected a list")]),
    "split-items": (
        "split", {"allocations": [
            5, {"advertiser": "a", "keyword": "k1", "queries": 0},
            {"advertiser": "", "keyword": 3, "queries": 1.0, "budget": -2},
            {"advertiser": "a", "keyword": "k2", "queries": "4",
             "budget": 0.25},
            {"advertiser": "a", "keyword": "k3", "queries": 2,
             "budget": "x/y", "start_query": 1}]}, [
            ("$.allocations[0]", "expected an object"),
            ("$.allocations[1]", "missing key 'budget'"),
            ("$.allocations[2].advertiser", NOT_STR),
            ("$.allocations[2].keyword", NOT_STR),
            ("$.allocations[2].queries", "expected an integer, got float"),
            ("$.allocations[2].budget", "budget must be nonnegative"),
            ("$.allocations[3].queries", "expected an integer, got str"),
            ("$.allocations[3].budget", FLOAT),
            ("$.allocations[4]", "unknown key 'start_query'"),
            ("$.allocations[4].budget", "not a rational: 'x/y'")]),
    "split-duplicate-allocation": (
        "split", _rows(("a", "k1", 1, "1"), ("b", "k1", 1, "1"),
                       ("a", "k1", 2, "2"), ("a", "k1", 3, "3")), [
            ("$.allocations[2]", "duplicate allocation ('a', 'k1')"),
            ("$.allocations[3]", "duplicate allocation ('a', 'k1')")]),
    "schedule-items": (
        "schedule", _rows(("a", "k1", 1, "1"), ("a", "k2", 1, "1", 0),
                          ("b", "k1", -3, "1/2", "5"),
                          ("b", "k2", 0, "0", False)), [
            ("$.allocations[0]", "missing key 'start_query'"),
            ("$.allocations[1].start_query", "start_query must be >= 1"),
            ("$.allocations[2].start_query", "expected an integer, got str"),
            ("$.allocations[2].start_query", "start_query must be >= 1"),
            ("$.allocations[2].queries", "queries must be nonnegative"),
            ("$.allocations[3].start_query", "expected an integer, got bool"),
            ("$.allocations[3].start_query", "start_query must be >= 1")]),
    "split-duplicate-after-a-skipped-item": (
        "split", {"allocations": [7] + _rows(
            ("a", "k1", 1, "1"), ("a", "k1", 2, "2"))["allocations"]}, [
            ("$.allocations[0]", "expected an object"),
            ("$.allocations[2]", "duplicate allocation ('a', 'k1')")]),
    "schedule-duplicate-allocation": (
        "schedule", _rows(("a", "k1", 1, "1", 2), ("a", "k1", 1, "1", 3)), [
            ("$.allocations[1]", "duplicate allocation ('a', 'k1')")]),
}


@pytest.mark.parametrize("name", list(LOADER_ERRORS))
def test_loader_error_lists_are_pinned(name):
    """Each malformed document's full error list, as text and parsed."""
    kind, doc, expected = LOADER_ERRORS[name]
    for document in ([doc] if isinstance(doc, (str, bytes))
                     else [json.dumps(doc), doc]):
        with pytest.raises(ModelError) as err:
            LOADERS[kind](document)
        assert [(e["path"], e["message"])
                for e in err.value.errors] == expected, name


def test_missing_and_unknown_keys_are_reported_in_a_fixed_order():
    """Missing keys in the schema's order, unknown ones in the document's,
    so a report's bytes do not depend on string hashing."""
    with pytest.raises(ModelError) as err:
        load_instance({"zz": 1, "slots": {}, "aa": 2})
    assert [e["message"] for e in err.value.errors] == [
        "missing key 'keywords'", "missing key 'advertisers'",
        "missing key 'edges'", "unknown key 'zz'", "unknown key 'aa'"]
    with pytest.raises(ModelError) as err:
        load_schedule({"allocations": [{"keyword": "k1", "b": 1, "a": 2}]})
    assert [e["message"] for e in err.value.errors][:6] == [
        "missing key 'advertiser'", "missing key 'queries'",
        "missing key 'budget'", "missing key 'start_query'",
        "unknown key 'b'", "unknown key 'a'"]


def test_split_forbids_start_query_and_schedule_requires_it():
    rows = [{"advertiser": "1", "keyword": "k1", "queries": 1, "budget": "1"}]
    assert load_split(json.dumps({"allocations": rows}))
    with pytest.raises(ModelError):
        load_schedule(json.dumps({"allocations": rows}))
    rows[0]["start_query"] = 3
    assert load_schedule(json.dumps({"allocations": rows}))
    with pytest.raises(ModelError):
        load_split(json.dumps({"allocations": rows}))


def test_profile_accessors():
    p = build_split([("1", "k1", 50, "45"), ("3", "k1", 10, "10"),
                     ("3", "k2", 100, "30")])
    assert p.committed("3") == F(40)
    assert p.committed("3", "k2") == F(30)
    assert p.committed("2", "k1") == 0
    assert [r.keyword for r in p.rows_of("3")] == ["k1", "k2"]
    assert [r.advertiser for r in p.rows_on("k1")] == ["1", "3"]
    assert p.rows_on("k3") == ()
    q = p.replacing("3", [])
    assert q.rows_of("3") == [] and q.rows_on("k2") == ()
    r = p.replacing("3", [Allocation("3", "k2", 0, F(40))])
    assert r.committed("3") == F(40) and r.committed("3", "k1") == 0


def test_validate_profile_catches_structural_problems():
    inst = small()
    over = build_split([("1", "k1", 50, "46")])  # budget is 45
    assert any("commits" in e["message"]
               for e in validate_profile(inst, over))
    missing = build_split([("1", "k2", 5, "1")])  # no such edge
    assert any("no edge" in e["message"]
               for e in validate_profile(inst, missing))
    toolong = build_split([("1", "k1", 101, "45")])
    assert any("volume" in e["message"]
               for e in validate_profile(inst, toolong))


def test_budget_caps_are_exact_over_mixed_denominators():
    """An advertiser's commitments add up exactly across denominators: at
    the cap is allowed, 1/12 over it is refused, and the message prints
    the exact total."""
    inst = small()  # advertiser 3 holds 40 on k1 and k2
    at_cap = build_split([("3", "k1", 1, "61/3"), ("3", "k2", 1, "59/3")])
    assert validate_profile(inst, at_cap) == []
    over = build_split([("3", "k1", 1, "81/4"), ("3", "k2", 1, "119/6"),
                        ("1", "k1", 1, "45")])
    assert [e["message"] for e in validate_profile(inst, over)] == [
        "advertiser '3' commits 481/12 > budget 40"]


# The parser reads ASCII-digit strings with int() and hands every other
# string to Fraction(str); each must come out as Fraction(str) says.
_RATIONAL_TEXTS = ["007", "0/5", "3/0", "3/", "/3", "+3", "-4/6", " 3",
                   "1_000", "\u0663", "2.5", "1e3", "-", "-0/0", "4/-6",
                   "12/18", "-12", "3 /4", "1" * 5000]


def _assert_parses_as_fraction_does(text):
    errors = []
    got = parse_rational(text, "$.x", errors)
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError):
        assert (got, errors) == (0, [{"path": "$.x",
                                      "message": "not a rational: %r" % text}])
    else:
        assert type(got) is F and got == want and errors == [], text


@pytest.mark.parametrize("text", _RATIONAL_TEXTS)
def test_rational_strings_parse_as_fraction_does(text):
    _assert_parses_as_fraction_does(text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="0123456789-+/ ._e\u0663", max_size=8))
@example("-0")
def test_rational_text_fuzz_parses_as_fraction_does(text):
    _assert_parses_as_fraction_does(text)


def test_all_in_profile():
    inst = small()
    p = all_in_profile(inst)
    assert p.committed("3", "k1") == F(40) and p.committed("3", "k2") == F(40)
    q = all_in_profile(inst, skip=("3",))
    assert q.rows_of("3") == []


def test_check_extension():
    b = small().base_instance()
    e = small()
    chk = check_extension(b, e)
    assert chk["ok"] and chk["new_edges"] == [("3", "k1")]
    bad = build_instance(("1", "7/10"), (("k1", 100), ("k2", 100)),
                         (("1", "45"), ("2", "37"), ("3", "41"), ("4", "20")),
                         (("1", "k1", "5", "base"), ("2", "k1", "3", "base"),
                          ("3", "k2", "3/2", "base"), ("4", "k2", "1", "base")))
    assert not check_extension(b, bad)["ok"]


def test_every_fixture_file_loads_cleanly():
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text()
        if ".split." in path.name or ".schedule." in path.name:
            loader = load_split if ".split." in path.name else load_schedule
            profile = loader(text)
            assert profile.rows
        else:
            inst = load_instance(text)
            doc = serialize_instance(inst)
            assert load_instance(json.dumps(doc)) == inst


# every bundled profile fixture and the instance it is played on
FIXTURE_PROFILES = {
    "two-keyword-entry-natural.split.json": "two-keyword-entry-base.json",
    "two-keyword-entry-early.schedule.json": "two-keyword-entry-ext.json",
    "two-keyword-entry-late.schedule.json": "two-keyword-entry-ext.json",
    "two-keyword-entry-tuned.schedule.json": "two-keyword-entry-ext.json",
    "single-extension-advshift.split.json": "single-extension-ext.json",
    "single-extension-entry.schedule.json": "single-extension-ext.json",
    "agreeing-methods-allk2.split.json": "agreeing-methods.json",
    "three-keyword-family-shifted.split.json": "three-keyword-family.json",
    "three-keyword-family-stayhome.split.json": "three-keyword-family.json",
    "three-keyword-family-large-shifted.split.json":
        "three-keyword-family-large.json",
    "three-keyword-family-large-stayhome.split.json":
        "three-keyword-family-large.json",
    "edge-no-shift-noshift.split.json": "edge-no-shift-ext.json",
    "edge-shift-shift.split.json": "edge-shift-ext.json",
    "edge-shift-noshift.split.json": "edge-shift-ext.json",
}


def test_fixture_profiles_validate_against_their_instances():
    for prof_name, inst_name in FIXTURE_PROFILES.items():
        inst = load_instance((FIXTURES / inst_name).read_text())
        loader = load_split if ".split." in prof_name else load_schedule
        profile = loader((FIXTURES / prof_name).read_text())
        assert validate_profile(inst, profile) == [], prof_name


def test_serialize_profile_round_trip():
    p = build_split([("1", "k1", 50, "45")])
    assert load_split(json.dumps(serialize_profile(p))) == p


def test_text_nested_too_deep_is_invalid_json():
    """Nesting past the parser's recursion limit is a schema error at ``$``,
    not a ``RecursionError``, which the CLI would report as an engine
    error."""
    for kind, load in LOADERS.items():
        for text in ("[" * 100000, b"[" * 100000,
                     '{"allocations": [' + "{" * 100000):
            with pytest.raises(ModelError) as err:
                load(text)
            [error] = err.value.errors
            assert error["path"] == "$", kind
            assert error["message"].startswith("invalid JSON: "), kind


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit")
def test_integer_literal_past_the_digit_limit_is_invalid_json():
    """An integer literal longer than Python's int-to-string digit limit
    makes ``json.loads`` raise a plain ``ValueError``: that is a schema
    error at ``$``, not an engine error, in every loader.  A rational
    string of that length is a schema error already, at its field."""
    big = "9" * (sys.get_int_max_str_digits() + 1)
    inst = json.loads((FIXTURES / "two-keyword-entry-base.json").read_text())
    inst["keywords"][0]["volume"] = -1
    split = {"allocations": [{"advertiser": "1", "keyword": "k1",
                              "budget": "1", "queries": -1}]}
    for load, doc in ((load_instance, inst), (load_split, split),
                      (load_schedule, split)):
        with pytest.raises(ModelError) as err:
            load(json.dumps(doc).replace("-1", big))
        [error] = err.value.errors
        assert error["path"] == "$"
        assert error["message"].startswith("invalid JSON: ")
    inst["advertisers"][0]["budget"] = big
    with pytest.raises(ModelError) as err:
        load_instance(json.dumps(inst).replace("-1", "100"))
    assert [e["path"] for e in err.value.errors] == ["$.advertisers[0].budget"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int-to-string digit limit")
def test_digit_limit_error_reads_the_interpreter_limit():
    """A rational string is refused unbuilt once its mantissa digits plus
    its exponent's magnitude pass ``sys.get_int_max_str_digits()``; up to
    that bound ``Fraction`` builds it and ``str`` writes it.  A limit of 0
    is no bound, and what is no decimal at all is left to ``Fraction``."""
    limit = sys.get_int_max_str_digits()
    for fits, over in (("1e%d" % (limit - 1), "1e%d" % limit),
                       ("1.5E-%d" % (limit - 2), "1.5E-%d" % (limit - 1)),
                       ("-0." + "7" * (limit - 1), "-0." + "7" * limit)):
        assert digit_limit_error(fits) is None, fits
        str(F(fits))
        assert digit_limit_error(over).startswith("too many digits"), over
    for text in ("2/3", "bogus", "1e"):
        assert digit_limit_error(text) is None, text
    assert digit_limit_error("1e" + "9" * (limit + 1)) is not None
    try:
        sys.set_int_max_str_digits(0)
        assert digit_limit_error("1e%d" % limit) is None
    finally:
        sys.set_int_max_str_digits(limit)


def test_instance_text_is_the_sorted_json_of_the_document():
    """``instance_text``, the text the CLI's digest hashes, is the sorted
    ``json.dumps`` of the document built field by field (the digest's text
    before it was written directly), and ``serialize_instance`` is that
    document: for every fixture, a seeded corpus, an empty market and ids
    that JSON escapes."""
    markets = [load_instance(path.read_text()) for path in FIXTURES.glob("*.json")
               if ".split." not in path.name and ".schedule." not in path.name]
    rng = random.Random(11)
    markets += [random_instance(rng) for _ in range(100)]
    markets.append(build_instance(("1",), (), (), ()))
    markets.append(build_instance(
        ("1", "1/3"), (('k "1"\\', 3), ("\u00e9\n\t", 2)),
        (("\u2603", "5/3"), ("\U0001f600", 0)),
        (("\u2603", 'k "1"\\', "7/2", "extension"),
         ("\U0001f600", "\u00e9\n\t", "-2/4", "base"))))
    for inst in markets:
        text = json.dumps(reference_serialize_instance(inst), sort_keys=True)
        assert instance_text(inst) == text
        assert serialize_instance(inst) == reference_serialize_instance(inst)


# -- the column loaders against the walk they replaced --------------------------

REFERENCE_LOADERS = {
    "instance": reference_load_instance,
    "split": lambda document: reference_load_profile(document, "split"),
    "schedule": lambda document: reference_load_profile(document, "schedule")}

# every bundled fixture document, by kind: the valid starting points
_VALID = {"instance": [], "split": [], "schedule": []}
for _path in sorted(FIXTURES.glob("*.json")):
    _VALID["split" if ".split." in _path.name else "schedule"
           if ".schedule." in _path.name else "instance"].append(
        json.loads(_path.read_text()))


def _wide_documents(seed: int = 28, n: int = 120, m: int = 24):
    """A seeded market of n advertisers on three of m keywords each and
    its uniform split, as documents: 360 edges and 360 allocations whose
    budget and score texts repeat.  Over so many rows, mutations land far
    apart, and a repeated row far from the row it copies."""
    rng = random.Random(seed)
    keywords = [{"id": "k%d" % (j + 1),
                 "volume": rng.randint(1, 9) * 10 ** rng.randint(3, 8)}
                for j in range(m)]
    advertisers, edges, rows = [], [], []
    for i in range(n):
        aid = "a%d" % (i + 1)
        budget = F(rng.randint(50, 5000), rng.choice((1, 2, 4, 5)))
        advertisers.append({"id": aid, "budget": str(budget)})
        for j in sorted(rng.sample(range(m), 3)):
            score = F(rng.randint(1, 60), rng.randint(1, 4))
            edges.append({"advertiser": aid, "keyword": "k%d" % (j + 1),
                          "score": str(score), "tag": "base"})
            rows.append({"advertiser": aid, "keyword": "k%d" % (j + 1),
                         "queries": 0, "budget": str(budget / 3)})
    slots = {"count": 3, "clickability": ["1", "4/5", "3/5"]}
    return ({"slots": slots, "keywords": keywords, "advertisers": advertisers,
             "edges": edges}, {"allocations": rows})


# a wide instance and split, each drawn as often as all the fixtures of
# its kind together
_WIDE = dict(zip(("instance", "split"), _wide_documents()))

# values a mutation puts where a field, an item or a section was: wrong
# types, booleans, floats, bad and zero-denominator rationals, empty and
# unknown names, and values that are fine in some places
_ODD = [None, True, False, 0, -1, 1, 7, 2.5, "", "x", "zz", "k1", "1", "a1",
        "0", "-3", "3/2", "1/0", "0/0", "2/-4", " 4", "1e2", [], {}, [1],
        {"id": "k1"}]
_KEYS = ["bogus", "tag", "start_query", "id", "volume", "budget", "score",
         "advertiser", "keyword", "queries", "count", "clickability"]


def _outcome(load, document):
    """A loader's instance or profile, or its error list."""
    try:
        return load(document)
    except ModelError as exc:
        return exc.errors


@st.composite
def _mutated(draw):
    """A fixture document of a drawn kind with one to three mutations: a key
    dropped or added, a value of the wrong type, a bad rational or a
    boolean, an item repeated (a duplicate id, edge or allocation), a name
    the market lacks, an item or a section that is not an object or list."""
    kind = draw(st.sampled_from(sorted(_VALID)))
    wide = kind in _WIDE and draw(st.booleans())
    doc = copy.deepcopy(_WIDE[kind] if wide
                        else draw(st.sampled_from(_VALID[kind])))
    for _ in range(draw(st.integers(1, 3))):
        sections = [v for v in doc.values() if isinstance(v, list) and v]
        objects = [doc] + [v for v in doc.values() if isinstance(v, dict)] + [
            item for v in sections for item in v if isinstance(item, dict)]
        target = draw(st.sampled_from(objects))
        op = draw(st.sampled_from(["drop", "add", "set", "set", "repeat",
                                   "unknown", "item", "section"]))
        if op == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif op == "add":
            target[draw(st.sampled_from(_KEYS))] = draw(st.sampled_from(_ODD))
        elif op == "set" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(
                st.sampled_from(_ODD))
        elif op == "repeat" and sections:
            items = draw(st.sampled_from(sections))
            items.insert(draw(st.integers(0, len(items))),
                         copy.deepcopy(draw(st.sampled_from(items))))
        elif op == "unknown" and target.keys() & {"advertiser", "keyword"}:
            target[draw(st.sampled_from(sorted(
                target.keys() & {"advertiser", "keyword"})))] = "zz"
        elif op == "item" and sections:
            items = draw(st.sampled_from(sections))
            items[draw(st.integers(0, len(items) - 1))] = draw(
                st.sampled_from(_ODD))
        elif op == "section" and doc:
            doc[draw(st.sampled_from(sorted(doc)))] = draw(
                st.sampled_from(_ODD))
    return kind, doc


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_mutated())
def test_one_walk_loaders_match_the_walk_they_replaced(case):
    """On mutated documents, parsed or as text, each loader returns what the
    reference walk of tests/conftest.py returns, or raises the same errors:
    the same paths and messages in the same order, on the fixtures and on
    a wide instance and split, where a duplicate's error must follow every
    other of its section's however far apart the rows are.  The document
    is left as it was."""
    kind, doc = case
    before = copy.deepcopy(doc)
    for document in (doc, json.dumps(doc)):
        assert (_outcome(LOADERS[kind], document)
                == _outcome(REFERENCE_LOADERS[kind], document))
    assert doc == before


def test_one_walk_loaders_match_the_walk_they_replaced_on_fixtures():
    for kind, docs in _VALID.items():
        for doc in docs + [_WIDE[k] for k in (kind,) if k in _WIDE]:
            assert LOADERS[kind](doc) == REFERENCE_LOADERS[kind](doc)


# -- the column validator against the row walk it replaced ---------------------

_PROFILES = [(load_instance((FIXTURES / inst).read_text()),
              (load_split if ".split." in prof else load_schedule)(
                  (FIXTURES / prof).read_text()))
             for prof, inst in sorted(FIXTURE_PROFILES.items())]


@st.composite
def _mutated_profile(draw):
    """A fixture profile and its instance with one to four rows changed: an
    advertiser or keyword the market lacks, a keyword the advertiser may
    hold no edge on, queries and a start query near the keyword's volume, a
    budget that brings the advertiser's commitments to within a share of
    a mixed denominator of her budget, or a row repeated elsewhere."""
    instance, profile = draw(st.sampled_from(_PROFILES))
    rows = list(profile.rows)
    kws = [k.id for k in instance.keywords]
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, len(rows) - 1))
        r = rows[n]
        op = draw(st.sampled_from(["advertiser", "keyword", "edge", "volume",
                                   "volume", "budget", "budget", "repeat"]))
        if op == "advertiser":
            r = dataclasses.replace(r, advertiser="zz")
        elif op == "keyword":
            r = dataclasses.replace(r, keyword="zz")
        elif op == "edge":
            r = dataclasses.replace(r, keyword=draw(st.sampled_from(kws)))
        elif op == "volume" and r.keyword in kws:
            v = instance.volume(r.keyword)
            r = dataclasses.replace(r, queries=v + draw(st.integers(-1, 2)),
                                    start_query=v + draw(st.integers(-2, 1)))
        elif op == "budget" and r.advertiser in instance._adv:
            others = sum((o.budget for m, o in enumerate(rows)
                          if m != n and o.advertiser == r.advertiser), F(0))
            share = F(draw(st.integers(-1, 1)),
                      draw(st.sampled_from([3, 4, 7, 12])))
            r = dataclasses.replace(r, budget=max(
                F(0), instance.budget(r.advertiser) - others + share))
        elif op == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), r)
            continue
        rows[n] = r
    return instance, Profile(tuple(rows), profile.kind)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_mutated_profile())
def test_column_validator_matches_the_walk_it_replaced(case):
    """On mutated fixture profiles, ``validate_profile`` reports what the
    row walk of tests/conftest.py reports: the same paths and messages in
    the same order, the budget caps after every row's errors."""
    instance, profile = case
    assert (validate_profile(instance, profile)
            == reference_validate_profile(instance, profile))
