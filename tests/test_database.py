"""Database model: loading, validation, padding, and key encoding."""
from __future__ import annotations

import json

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

from oracles import database_json
from test_cli import refusal_tests


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


def test_query_validation():
    db = load_database(_doc([{"id": "1010", "val": "00"}]))
    SearchQuery("1010", "val").validate(db)


# the refusals of bad files and bad records are rows of test_cli.REFUSALS
globals().update(refusal_tests(__name__))
