"""Classical data model: fixed-width bit-field records with a distinct key
field, loading from JSON, and power-of-two padding.

The file format is normative and bit-exact::

    {"version": 1,
     "fields": [{"name": "id", "bit_width": 4}, ...],
     "key_field": "id",
     "records": [{"id": "0101", "phone": "00110010"}, ...]}

Bit strings are ASCII '0'/'1', most significant bit first; the leftmost
character of the key lands on data qubit offset 0.  Record order defines
the 0-based index.  Padding appends sentinel records with the
lexicographically smallest unused keys; sentinels are flagged in memory so
verification never accepts them as solutions (the format has no flag).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

from .errors import InputError

FORMAT_VERSION = 1


def _check_bits(value: str, width: int, where: str) -> None:
    if len(value) != width:
        raise InputError(
            f"{where}: value {value!r} has width {len(value)}, declared {width}"
        )
    if value.strip("01"):
        raise InputError(f"{where}: value {value!r} is not a bit string")


@dataclass(frozen=True)
class FieldSpec:
    name: str
    bit_width: int

    def __post_init__(self) -> None:
        if self.bit_width < 1:
            raise InputError(f"field {self.name!r}: bit_width must be >= 1")


@dataclass(frozen=True)
class Record:
    values: Mapping[str, str]
    is_sentinel: bool = False


@dataclass(frozen=True)
class Database:
    fields: tuple[FieldSpec, ...]
    records: tuple[Record, ...]
    key_field: str

    def __post_init__(self) -> None:
        names = {f.name for f in self.fields}
        if len(names) != len(self.fields):
            raise InputError("field names must be unique")
        if self.key_field not in names:
            raise InputError(f"unknown key_field {self.key_field!r}")
        if not self.records:
            raise InputError("database needs at least one record")
        widths = {f.name: f.bit_width for f in self.fields}
        seen: set[str] = set()
        for i, rec in enumerate(self.records):
            if rec.values.keys() != names:
                missing = names - set(rec.values)
                extra = set(rec.values) - names
                raise InputError(
                    f"record {i}: missing fields {sorted(missing)}, "
                    f"undeclared fields {sorted(extra)}"
                )
            for name, value in rec.values.items():
                _check_bits(value, widths[name], f"record {i} field {name!r}")
            key = rec.values[self.key_field]
            if key in seen:
                raise InputError(f"record {i}: duplicate key value {key!r}")
            seen.add(key)

    # -- shape -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def key_width(self) -> int:
        return self.field(self.key_field).bit_width

    @property
    def is_power_of_two(self) -> bool:
        return self.size & (self.size - 1) == 0

    @property
    def index_bits(self) -> int:
        """n such that 2^n records after padding."""
        return max((self.size - 1).bit_length(), 0)

    def field(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise InputError(f"unknown field {name!r}")

    def keys(self) -> list[str]:
        return [r.values[self.key_field] for r in self.records]

    def index_of_key(self, value: str) -> int | None:
        for i, rec in enumerate(self.records):
            if rec.values[self.key_field] == value:
                return i
        return None


@dataclass(frozen=True)
class SearchQuery:
    key_value: str
    return_field: str

    def validate(self, db: Database) -> None:
        _check_bits(self.key_value, db.key_width, "query key")
        db.field(self.return_field)


_JSON_NAMES = {
    type(None): "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "array", dict: "object",
}


def _typed(value, kind: type, where: str):
    """``value`` if its JSON type is exactly ``kind``: a boolean is no
    integer, and a number is no string."""
    if type(value) is not kind:
        raise InputError(
            f"{where} must be a JSON {_JSON_NAMES[kind]}, "
            f"got {_JSON_NAMES[type(value)]}"
        )
    return value


def load_database(document: str) -> Database:
    """Parse and validate a database JSON document.  Types are strict:
    ``version`` and ``bit_width`` are integers, names, ``key_field`` and
    record values are strings; nothing is coerced."""
    try:
        doc = json.loads(document)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the digit limit, and deep
        # nesting exhausts the decoder's recursion
        raise InputError(f"invalid JSON: {exc}") from exc
    _typed(doc, dict, "top-level document")
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError(f"unsupported version {version!r}")
    try:
        fields = []
        for i, entry in enumerate(_typed(doc["fields"], list, "fields")):
            _typed(entry, dict, f"field {i}")
            fields.append(FieldSpec(
                _typed(entry["name"], str, f"field {i} name"),
                _typed(entry["bit_width"], int, f"field {i} bit_width"),
            ))
        key_field = _typed(doc["key_field"], str, "key_field")
        records = tuple(
            Record({name: _typed(value, str, f"record {i} field {name!r}")
                    for name, value in _typed(entry, dict, f"record {i}").items()})
            for i, entry in enumerate(_typed(doc["records"], list, "records"))
        )
    except KeyError as exc:
        raise InputError(f"malformed document: missing key {exc}") from exc
    return Database(fields=tuple(fields), records=records, key_field=key_field)


def load_database_file(path: str) -> Database:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return load_database(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def pad_to_power_of_two(db: Database) -> Database:
    """Append sentinel records until the record count is a power of two.

    Sentinel keys are the lexicographically smallest bit strings not yet in
    use; all other sentinel fields are zero.  Idempotent on power-of-two
    databases; key distinctness is preserved.  Keys never run out:
    :class:`Database` rejects duplicate keys of m bits, so it holds at most
    2^m records, and so does their power-of-two ceiling ``1 << index_bits``.
    """
    if db.is_power_of_two:
        return db
    target = 1 << db.index_bits
    width = db.key_width
    used = set(db.keys())
    sentinels: list[Record] = []
    candidate = 0
    while len(db.records) + len(sentinels) < target:
        key = format(candidate, f"0{width}b")
        candidate += 1
        if key in used:
            continue
        used.add(key)
        values = {
            f.name: key if f.name == db.key_field else "0" * f.bit_width
            for f in db.fields
        }
        sentinels.append(Record(values, is_sentinel=True))
    return replace(db, records=db.records + tuple(sentinels))

