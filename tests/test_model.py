import json
from fractions import Fraction as F

import pytest

from broadmatch.model import (Allocation, Instance, ModelError, Profile,
                              all_in_profile, check_extension, load_instance,
                              load_schedule, load_split, serialize_instance,
                              serialize_profile, split_of_queries,
                              validate_profile)
from conftest import FIXTURES, build_instance, build_split


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


def test_all_in_profile():
    inst = small()
    p = all_in_profile(inst)
    assert p.committed("3", "k1") == F(40) and p.committed("3", "k2") == F(40)
    q = all_in_profile(inst, skip=("3",))
    assert q.rows_of("3") == []


def test_split_of_queries_prices_a_query_vector():
    inst = small()
    # Default rivals: everyone else all-in.  On k2 advertiser 3 faces only
    # 4 (score 1), so 100 queries cost 100 * (3/10) = 30.
    p = split_of_queries(inst, "3", {"k1": 0, "k2": 100})
    assert p.committed("3", "k2") == F(30)
    row = p.row("3", "k1")
    assert row.queries == 0 and row.budget == 0
    # An explicit empty world prices every query at zero.
    alone = split_of_queries(inst, "3", {"k2": 100}, others=Profile(()))
    assert alone.committed("3", "k2") == 0
    # 1 facing 2 (37) and 3 (40) pays 23/10 for 26 queries, then 3/5 once
    # 2 drops out: 51 queries cost 374/5, past 1's budget of 45.
    with pytest.raises(ModelError) as err:
        split_of_queries(inst, "1", {"k1": 51})
    assert "exceeds budget" in err.value.errors[0]["message"]


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


def test_fixture_profiles_validate_against_their_instances():
    pairs = {
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
    for prof_name, inst_name in pairs.items():
        inst = load_instance((FIXTURES / inst_name).read_text())
        loader = load_split if ".split." in prof_name else load_schedule
        profile = loader((FIXTURES / prof_name).read_text())
        assert validate_profile(inst, profile) == [], prof_name


def test_serialize_profile_round_trip():
    p = build_split([("1", "k1", 50, "45")])
    assert load_split(json.dumps(serialize_profile(p))) == p
