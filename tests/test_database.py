"""Database model: loading, validation, padding, and key encoding."""
from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.database import (
    Database,
    FieldSpec,
    Record,
    SearchQuery,
    load_database,
    pad_to_power_of_two,
)
from qsearch.errors import InputError

from oracles import database_json


def _doc(records, fields=None, key_field="id"):
    return json.dumps({
        "version": 1,
        "fields": fields or [{"name": "id", "bit_width": 4},
                             {"name": "val", "bit_width": 2}],
        "key_field": key_field,
        "records": records,
    })


def test_load_four_records():
    db = load_database(_doc([
        {"id": "0000", "val": "01"},
        {"id": "0001", "val": "10"},
        {"id": "0010", "val": "11"},
        {"id": "0011", "val": "00"},
    ]))
    assert db.size == 4
    assert db.key_width == 4
    assert db.keys()[2] == "0010"


def test_duplicate_key_values_rejected():
    with pytest.raises(InputError, match="record 1: duplicate key value '0101'"):
        load_database(_doc([
            {"id": "0101", "val": "00"},
            {"id": "0101", "val": "01"},
        ]))


def test_width_mismatch_rejected():
    with pytest.raises(InputError, match="record 0 field 'id': value '010' has width 3, declared 4"):
        load_database(_doc([{"id": "010", "val": "00"}]))


def test_non_binary_characters_rejected():
    with pytest.raises(InputError, match="record 0 field 'id': value '01a1' is not a bit string"):
        load_database(_doc([{"id": "01a1", "val": "00"}]))


def test_unknown_key_field_rejected():
    with pytest.raises(InputError, match="unknown key_field 'nope'"):
        load_database(_doc([{"id": "0000", "val": "00"}], key_field="nope"))


def test_missing_field_rejected():
    with pytest.raises(InputError, match=re.escape("record 0: missing fields ['val'], undeclared fields []")):
        load_database(_doc([{"id": "0000"}]))


def test_invalid_json_rejected():
    with pytest.raises(InputError, match="invalid JSON: "):
        load_database("{not json")


def test_wrong_version_rejected():
    doc = json.loads(_doc([{"id": "0000", "val": "00"}]))
    doc["version"] = 2
    with pytest.raises(InputError, match="unsupported version 2"):
        load_database(json.dumps(doc))


def test_padding_leaves_power_of_two_untouched():
    db = load_database(_doc([
        {"id": f"{i:04b}", "val": "00"} for i in range(4)
    ]))
    assert pad_to_power_of_two(db) is db
    assert db.index_bits == 2


def test_padding_five_records_to_eight():
    db = load_database(_doc([
        {"id": s, "val": "00"}
        for s in ["0000", "0011", "0101", "1111", "1000"]
    ]))
    padded = pad_to_power_of_two(db)
    assert padded.size == 8
    assert padded.index_bits == 3
    sentinels = [r for r in padded.records if r.is_sentinel]
    assert len(sentinels) == 3
    # lexicographically smallest unused keys
    assert [r.values["id"] for r in sentinels] == ["0001", "0010", "0100"]
    assert len(set(padded.keys())) == 8


def test_padding_is_idempotent():
    db = load_database(_doc([
        {"id": s, "val": "00"} for s in ["0000", "0011", "0101"]
    ]))
    once = pad_to_power_of_two(db)
    assert pad_to_power_of_two(once) is once


def test_saturated_key_space_is_caught_by_pigeonhole():
    # 5 records under a 2-bit key can never carry distinct keys, so the
    # distinctness check fires at construction; it is also why padding
    # always finds enough unused keys, and needs no check of its own
    with pytest.raises(InputError, match="record 4: duplicate key value '00'"):
        load_database(_doc(
            [{"id": f"{i % 4:02b}", "val": "00"} for i in range(5)],
            fields=[{"name": "id", "bit_width": 2},
                    {"name": "val", "bit_width": 2}],
        ))


def test_padding_exactly_fills_the_key_space():
    db = Database(
        fields=(FieldSpec("id", 2), FieldSpec("val", 1)),
        records=tuple(Record({"id": f"{i:02b}", "val": "0"}) for i in range(3)),
        key_field="id",
    )
    padded = pad_to_power_of_two(db)
    assert padded.size == 4
    assert len(set(padded.keys())) == 4


def test_export_load_round_trip_bit_exact():
    db = load_database(_doc([
        {"id": "0000", "val": "01"},
        {"id": "1001", "val": "10"},
        {"id": "0110", "val": "11"},
    ]))
    again = load_database(database_json(db))
    assert again == db
    assert database_json(again) == database_json(db)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=12, unique=True),
       st.data())
def test_round_trip_random_databases(keys, data):
    records = [
        {"id": format(k, "08b"),
         "val": format(data.draw(st.integers(0, 7)), "03b")}
        for k in keys
    ]
    doc = json.dumps({
        "version": 1,
        "fields": [{"name": "id", "bit_width": 8},
                   {"name": "val", "bit_width": 3}],
        "key_field": "id",
        "records": records,
    })
    db = load_database(doc)
    assert load_database(database_json(db)) == db


def test_encode_key_rejects_bad_width():
    # A key is encoded on the data qubits as its own bit string, so the
    # width check in SearchQuery.validate is the whole of key encoding.
    db = load_database(_doc([{"id": "1010", "val": "00"}]))
    with pytest.raises(InputError, match="query key: value '' has width 0, declared 4"):
        SearchQuery("", "val").validate(db)
    with pytest.raises(InputError, match="query key: value '10100' has width 5, declared 4"):
        SearchQuery("10100", "val").validate(db)


def test_query_validation():
    db = load_database(_doc([{"id": "1010", "val": "00"}]))
    SearchQuery("1010", "val").validate(db)
    with pytest.raises(InputError, match="query key: value '10' has width 2, declared 4"):
        SearchQuery("10", "val").validate(db)
    with pytest.raises(InputError, match="unknown field 'nope'"):
        SearchQuery("1010", "nope").validate(db)


def _valid():
    return json.loads(_doc([{"id": "0000", "val": "01"}, {"id": "0001", "val": "10"}]))


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["fields"][0].update(bit_width=True),
     "field 0 bit_width must be a JSON integer, got boolean"),
    (lambda d: d["fields"][0].update(bit_width=1.9),
     "field 0 bit_width must be a JSON integer, got number"),
    (lambda d: d["fields"][0].update(bit_width=4.0),
     "field 0 bit_width must be a JSON integer, got number"),
    (lambda d: d["fields"][0].update(bit_width="4"),
     "field 0 bit_width must be a JSON integer, got string"),
    (lambda d: d["fields"][0].update(name=1), "field 0 name must be a JSON string, got integer"),
    (lambda d: d.update(key_field=["id"]), "key_field must be a JSON string, got array"),
    (lambda d: d["records"][0].update(id=1),
     "record 0 field 'id' must be a JSON string, got integer"),
    (lambda d: d["records"][0].update(val=None),
     "record 0 field 'val' must be a JSON string, got null"),
    (lambda d: d.update(version=True), "unsupported version True"),
    (lambda d: d.update(version=1.0), "unsupported version 1.0"),
    (lambda d: d.update(fields={"name": "id", "bit_width": 4}),
     "fields must be a JSON array, got object"),
    (lambda d: d["fields"].__setitem__(0, ["id", 4]), "field 0 must be a JSON object, got array"),
    (lambda d: d["fields"].__setitem__(1, {}), "malformed document: missing key 'name'"),
    (lambda d: d.update(records="0000"), "records must be a JSON array, got string"),
    (lambda d: d["records"].__setitem__(1, ["0001", "10"]),
     "record 1 must be a JSON object, got array"),
], ids=["width-bool", "width-float", "width-integral-float", "width-string",
        "name-int", "key-field-list", "value-int", "value-null", "version-bool",
        "version-float", "fields-object", "field-array", "field-empty",
        "records-string", "record-array"])
def test_json_types_are_strict(mutate, message):
    doc = _valid()
    assert load_database(json.dumps(doc)).size == 2
    mutate(doc)
    with pytest.raises(InputError, match=re.escape(message)):
        load_database(json.dumps(doc))


@pytest.mark.parametrize("text", [
    '{"version": 1, "n": ' + "9" * 5000 + "}",
    "[" * 100_000,
], ids=["digit-limit", "deep-nesting"])
def test_undecodable_json_is_a_format_error(text):
    with pytest.raises(InputError, match="invalid JSON: "):
        load_database(text)
