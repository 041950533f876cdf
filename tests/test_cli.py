"""End-to-end CLI contract: subcommands, exit codes, determinism, and the
refusal table: every bad input exits 3 with its exact message."""
from __future__ import annotations

import ast
import contextlib
import functools
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import defaultdict
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearch
from qsearch.cli import main
from qsearch.database import load_database
from qsearch.errors import InputError, QsearchError
from qsearch.grover import check_database, optimal_iterations
from qsearch.kernel import build_target_reflection
from qsearch.qdam import QdamLayout

from oracles import database_json, from_json, is_lowered
from test_builds import built

DATA_DB = os.path.join(os.path.dirname(__file__), "..", "data", "people.json")
SRC_DIR = os.path.dirname(os.path.dirname(qsearch.__file__))
_SEARCH = ["search", "--db", DATA_DB, "--key", "0101", "--return", "phone"]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_estimate_bound_json(capsys):
    code, out, _ = _run(capsys, "estimate", "--n", "10", "--m", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["t_depth_kernel"] == 176
    assert doc["t_cost"] == 4400
    assert doc["mode"] == "bound"


def test_estimate_csv(capsys):
    code, out, _ = _run(capsys, "estimate", "--n", "2", "--m", "2",
                        "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "n"
    assert row.split(",")[0] == "2"


def test_estimate_measured_mode(capsys):
    code, out, _ = _run(capsys, "estimate", "--n", "3", "--m", "2",
                        "--mode", "measured")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "measured"
    assert doc["t_depth_qdam"] <= 12


def test_search_present_key_solves(capsys):
    code, out, _ = _run(capsys, *_SEARCH)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "SOLVED"
    assert doc["returned_value"] == "01011001"
    expected = math.sin(5 * math.asin(8 ** -0.5)) ** 2
    assert abs(doc["success_probability"] - expected) < 1e-9


def test_search_absent_key_exits_two(capsys):
    code, out, _ = _run(capsys, "search", "--db", DATA_DB,
                        "--key", "1111", "--return", "phone")
    assert code == 2
    assert json.loads(out)["status"] == "KEY_NOT_PRESENT"


def test_importing_the_cli_leaves_numpy_unloaded():
    # the package needs only the standard library
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, qsearch.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.stdout == "False\n"


def test_a_sampled_search_runs_without_numpy():
    # None in sys.modules makes any ``import numpy`` raise ImportError
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    argv = [*_SEARCH, "--shots", "16", "--seed", "7"]
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None\n"
         "from qsearch import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["candidate_index"] == 5


_FUZZ_DOC = {
    "version": 1,
    "fields": [{"name": "id", "bit_width": 2}, {"name": "val", "bit_width": 2}],
    "key_field": "id",
    "records": [{"id": "00", "val": "01"}, {"id": "01", "val": "10"},
                {"id": "11", "val": "11"}],
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(allow_nan=False)
    | st.text("01a", max_size=3) | st.sampled_from(["id", "val", "key_field"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "val", "name", "bit_width"]), inner,
                      max_size=3),
    max_leaves=5,
)


def _slots(node):
    """Every (container, key) pair inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for key in list(keys):
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out.extend(_slots(node[key]))
    return out


@st.composite
def _mutated_documents(draw):
    doc = json.loads(json.dumps(_FUZZ_DOC))
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc)
        if not slots:
            break
        node, key = slots[draw(st.integers(0, len(slots) - 1))]
        if draw(st.booleans()):
            node[key] = draw(_JSON_VALUES)
        else:
            del node[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(_mutated_documents(), st.sampled_from(["00", "11", "10", "0"]))
def test_fuzzed_documents_load_or_fail_cleanly(doc, key):
    text = json.dumps(doc)
    try:
        db = load_database(text)
    except QsearchError:
        db = None
    if db is not None:
        # nothing was coerced: the database writes back the document's values
        back = json.loads(database_json(db))
        fields = [{"name": f["name"], "bit_width": f["bit_width"]} for f in doc["fields"]]
        assert json.dumps(back) == json.dumps(dict(
            version=doc["version"], fields=fields, key_field=doc["key_field"],
            records=doc["records"]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.json")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["search", "--db", path, "--key", key, "--return", "val"])
    # a refusal prints only its message; a search prints one JSON document
    if code == 3:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert code in (0, 2) and err.getvalue() == ""
        json.loads(out.getvalue())


def test_compile_above_the_gate_limit_exits_three(tmp_path, capsys, monkeypatch):
    from qsearch import cli

    out_path = tmp_path / "x.json"
    argv = ["compile", "--db", DATA_DB, "--key", "0101", "--out", str(out_path)]
    # the macro loader holds 175 gates and the lowered kernel 1,990
    monkeypatch.setattr(cli, "MAX_EXPORT_GATES", 175)
    assert _run(capsys, *argv)[0] == 0
    out_path.unlink()
    monkeypatch.setattr(cli, "MAX_EXPORT_GATES", 174)
    for extra, message in (([], "qdam has 175"),
                           (["--part", "kernel", "--lowered"], "kernel has 1990")):
        code, out, err = _run(capsys, *argv, *extra)
        assert code == 3
        assert out == ""
        assert err == f"error: compile writes at most 174 gates, {message}\n"
        assert not out_path.exists()
    # the --out probe opens the path without truncating it, so a file that
    # is there keeps its bytes through a refused run
    out_path.write_bytes(b"kept\n")
    assert _run(capsys, *argv) == (
        3, "", "error: compile writes at most 174 gates, qdam has 175\n")
    assert out_path.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "part", ["m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive"])
def test_lowered_length_counts_every_lowered_compile_part(tmp_path, capsys,
                                                          monkeypatch, part):
    from qsearch import cli
    from qsearch.decompose import lowered_length

    counted, real = [], cli.lower_circuit

    def lowering(circuit):
        lowered = real(circuit)
        counted.append((lowered_length(circuit), len(lowered)))
        return lowered

    monkeypatch.setattr(cli, "lower_circuit", lowering)
    out_path = tmp_path / "x.json"
    code, out, _ = _run(capsys, "compile", "--db", DATA_DB, "--key", "0101",
                        "--part", part, "--lowered", "--out", str(out_path))
    assert code == 0
    [(count, length)] = counted
    assert count == length
    assert out == f"wrote {part} ({length} gates) to {out_path}\n"


def test_search_output_is_byte_deterministic(capsys):
    _, first, _ = _run(capsys, "search", "--db", DATA_DB,
                       "--key", "0011", "--return", "room")
    _, second, _ = _run(capsys, "search", "--db", DATA_DB,
                        "--key", "0011", "--return", "room")
    assert first == second


def test_search_sampled_deterministic_with_seed(capsys):
    args = [*_SEARCH, "--shots", "16", "--seed", "7"]
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_search_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, *_SEARCH, "--out", str(out_path))
    assert code == 0
    assert "SOLVED" in out
    doc = json.loads(out_path.read_text())
    assert doc["status"] == "SOLVED"


@pytest.mark.parametrize(
    "part", ["m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive"]
)
def test_compile_exports_every_part(tmp_path, capsys, part):
    out_path = tmp_path / f"{part}.json"
    code, _, _ = _run(capsys, "compile", "--db", DATA_DB, "--key", "0101",
                      "--part", part, "--out", str(out_path))
    assert code == 0
    circuit = from_json(out_path.read_text())
    assert len(circuit.gates) > 0


def test_compile_lowered_export(tmp_path, capsys):
    out_path = tmp_path / "qdam_low.json"
    code, _, _ = _run(capsys, "compile", "--db", DATA_DB, "--key", "0101",
                      "--part", "qdam", "--lowered", "--out", str(out_path))
    assert code == 0
    circuit = from_json(out_path.read_text())
    assert is_lowered(circuit)


def test_bench_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = _run(capsys, "bench", "--n-min", "2", "--n-max", "4",
                      "--m", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "N,K,td_opt,td_naive,tcost_opt,tcost_naive"
    assert len(lines) == 4


def test_bench_runs_up_to_the_naive_record_bit_cap(tmp_path, capsys):
    # a row is capped by the two reports it runs: at m = 1 the naive
    # report's 2^15 record bits allow n up to 15
    out_path = tmp_path / "bench.csv"
    code, _, err = _run(capsys, "bench", "--n-min", "13", "--n-max", "15",
                        "--m", "1", "--out", str(out_path))
    assert (code, err) == (0, "")
    rows = out_path.read_text().splitlines()[1:]
    assert [row.partition(",")[0] for row in rows] == ["8192", "16384", "32768"]


# -- the refusal table ---------------------------------------------------------


def input_error_sites(text: str, module: str) -> dict[tuple[str, str, int], range]:
    """Each ``raise InputError(...)`` in the source ``text``, keyed
    ``(module, qualname, k)`` for the k-th in its function or method in
    source order, with the lines its call spans."""
    found: dict[tuple[str, str, int], range] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            elif isinstance(child, ast.Raise) and ast.unparse(child).startswith("raise InputError("):
                key = (module, scope, sum(site[1] == scope for site in found))
                found[key] = range(child.exc.lineno, child.exc.end_lineno + 1)
            else:
                visit(child, scope)

    visit(ast.parse(text), "")
    return found


# (module name, line) -> the site whose InputError call spans that line
_SITE_AT = {(f"qsearch.{path.stem}", line): site
            for path in pathlib.Path(qsearch.__file__).parent.glob("*.py")
            for site, lines in input_error_sites(path.read_text(), path.stem).items()
            for line in lines}


class Refusal(NamedTuple):
    """A bad input: the ``test`` case that runs it, ``module::name`` or
    ``module::name[case]``; the CLI argv to ``run``, split at spaces, or a
    call for a raise the CLI cannot reach; the exact ``message``; the
    ``site`` that raises it, the k-th ``raise InputError`` in a function as
    ``(module, qualname, k)``; the ``db`` written first, as JSON unless
    it is bytes; and, where given, the exact gate ``builds`` of the run, as
    :func:`test_builds.built` counts them.  ``{db}`` and ``{out}`` are paths
    in a fresh directory, and ``{people}`` is ``DATA_DB``."""

    test: str
    run: str | Callable[[], object]
    message: str
    site: tuple[str, str, int]
    db: object = None
    builds: dict[str, int] | None = None


_FLAG, _WRITE = ("cli", "_Parser.error", 0), ("cli", "_write", 0)
_KEY_WIDTH, _TYPE = ("database", "_check_bits", 0), ("database", "_typed", 0)
_JSON, _VERSION = ("database", "load_database", 0), ("database", "load_database", 1)
_DUPLICATE = ("database", "Database.__post_init__", 4)
_TOO_FEW, _SEARCH_CAP = ("grover", "check_database", 1), ("grover", "check_database", 2)
_SAMPLING, _SHOTS = ("grover", "run_search", 0), ("grover", "run_search", 1)
_N_CAP, _BIT_CAP = ("resources", "_check_widths", 1), ("resources", "_check_widths", 2)

_TWO_BIT = {"version": 1, "fields": [{"name": "id", "bit_width": 2}], "key_field": "id",
            "records": [{"id": "01"}, {"id": "10"}]}
_ONE_RECORD = dict(_TWO_BIT, records=[{"id": "01"}])
# one key bit more than MAX_SEARCH_BITS = 2^15 record bits allow at 2^n records
_WIDE = {n: (1 << 15 - n) + 1 for n in (1, 2)}


def _keys(width: int, count: int) -> dict:
    """``count`` records of one ``width``-bit key field, holding 0, 1, 2, ..."""
    return dict(_TWO_BIT, fields=[{"name": "id", "bit_width": width}],
                records=[{"id": format(i, f"0{width}b")} for i in range(count)])


def _id_val(*records, mutate=lambda doc: None, **changes) -> dict:
    """A document of a 4-bit key ``id`` and a 2-bit ``val``, then ``mutate``."""
    fields = [{"name": "id", "bit_width": 4}, {"name": "val", "bit_width": 2}]
    doc = dict(_TWO_BIT, fields=fields, records=list(records), **changes)
    mutate(doc)
    return doc


_SEARCH_DB, _ID_VAL = "search --db {db} --key 01 --return id", "search --db {db} --return val"
_PEOPLE = "search --db {people} --key 0101 --return phone"
_NO_DIR = "cannot write {out}/x.json: [Errno 2] No such file or directory: '{out}/x.json'"
_DIGITS = ("invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
           "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit")
_DEEP = ("invalid JSON: maximum recursion depth exceeded while decoding a JSON array "
         "from a unicode string")
_EXPECTING = ("invalid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)")
_BAD_FILE = "test_cli::test_bad_database_file_exits_three_without_traceback"
_BAD_ARGUMENT = "test_cli::test_bad_arguments_exit_three_without_traceback"
_WIDTH_LIMIT = "test_cli::test_estimate_above_the_width_limit_exits_three"
_BAD_INPUT = "test_cli::test_bad_input_exits_three"
_INDEX_WIDTH = "test_resources::test_reports_reject_index_widths_above_their_limit"

# every bad input the package refuses, one row each
REFUSALS = [
    # -- database files
    Refusal("test_cli::test_search_malformed_database_exits_three", _SEARCH_DB, _EXPECTING,
            _JSON, b"{broken"),
    Refusal(f"{_BAD_FILE}[bit-width-not-a-number]", _SEARCH_DB,
            "field 0 bit_width must be a JSON integer, got string", _TYPE,
            dict(_TWO_BIT, fields=[{"name": "id", "bit_width": "x"}])),
    Refusal(f"{_BAD_FILE}[bit-width-infinite]", _SEARCH_DB,
            "field 0 bit_width must be a JSON integer, got number", _TYPE,
            dict(_TWO_BIT, fields=[{"name": "id", "bit_width": 1e999}])),
    Refusal(f"{_BAD_FILE}[record-is-a-list]", _SEARCH_DB,
            "record 0 must be a JSON object, got array", _TYPE,
            dict(_TWO_BIT, records=[["01"], {"id": "10"}])),
    Refusal(f"{_BAD_FILE}[non-ascii-file]", _SEARCH_DB, "cannot read {db}: 'ascii' codec can't "
            "decode byte 0xc3 in position 73: ordinal not in range(128)",
            ("database", "load_database_file", 0),
            json.dumps(dict(_TWO_BIT, key_field="é"), ensure_ascii=False).encode()),
    Refusal(f"{_BAD_FILE}[deep-nesting]", _SEARCH_DB, _DEEP, _JSON, b"[" * 100_000),
    Refusal(f"{_BAD_FILE}[integer-digit-limit]", _SEARCH_DB, _DIGITS, _JSON,
            b'{"version": ' + b"1" * 5000 + b"}"),
    Refusal("test_database::test_invalid_json_rejected", _SEARCH_DB, _EXPECTING, _JSON,
            b"{not json"),
    Refusal("test_database::test_undecodable_json_is_a_format_error[digit-limit]", _SEARCH_DB,
            _DIGITS, _JSON, b'{"version": 1, "n": ' + b"9" * 5000 + b"}"),
    Refusal("test_database::test_undecodable_json_is_a_format_error[deep-nesting]", _SEARCH_DB,
            _DEEP, _JSON, b"[" * 100_000),
    # -- strict JSON types: nothing is coerced
    *(Refusal(f"test_database::test_json_types_are_strict[{case}]", f"{_ID_VAL} --key 0000",
              message, site, _id_val({"id": "0000", "val": "01"}, {"id": "0001", "val": "10"},
                                     mutate=mutate))
      for case, mutate, message, site in [
          ("width-bool", lambda d: d["fields"][0].update(bit_width=True),
           "field 0 bit_width must be a JSON integer, got boolean", _TYPE),
          ("width-float", lambda d: d["fields"][0].update(bit_width=1.9),
           "field 0 bit_width must be a JSON integer, got number", _TYPE),
          ("width-integral-float", lambda d: d["fields"][0].update(bit_width=4.0),
           "field 0 bit_width must be a JSON integer, got number", _TYPE),
          ("width-string", lambda d: d["fields"][0].update(bit_width="4"),
           "field 0 bit_width must be a JSON integer, got string", _TYPE),
          ("name-int", lambda d: d["fields"][0].update(name=1),
           "field 0 name must be a JSON string, got integer", _TYPE),
          ("key-field-list", lambda d: d.update(key_field=["id"]),
           "key_field must be a JSON string, got array", _TYPE),
          ("value-int", lambda d: d["records"][0].update(id=1),
           "record 0 field 'id' must be a JSON string, got integer", _TYPE),
          ("value-null", lambda d: d["records"][0].update(val=None),
           "record 0 field 'val' must be a JSON string, got null", _TYPE),
          ("version-bool", lambda d: d.update(version=True), "unsupported version True", _VERSION),
          ("version-float", lambda d: d.update(version=1.0), "unsupported version 1.0", _VERSION),
          ("fields-object", lambda d: d.update(fields={"name": "id", "bit_width": 4}),
           "fields must be a JSON array, got object", _TYPE),
          ("field-array", lambda d: d["fields"].__setitem__(0, ["id", 4]),
           "field 0 must be a JSON object, got array", _TYPE),
          ("field-empty", lambda d: d["fields"].__setitem__(1, {}),
           "malformed document: missing key 'name'", ("database", "load_database", 2)),
          ("records-string", lambda d: d.update(records="0000"),
           "records must be a JSON array, got string", _TYPE),
          ("record-array", lambda d: d["records"].__setitem__(1, ["0001", "10"]),
           "record 1 must be a JSON object, got array", _TYPE)]),
    Refusal("test_database::test_wrong_version_rejected", f"{_ID_VAL} --key 0000",
            "unsupported version 2", _VERSION, _id_val({"id": "0000", "val": "00"}, version=2)),
    # -- database contents
    Refusal("test_cli::test_search_duplicate_keys_exit_three", _SEARCH_DB,
            "record 1: duplicate key value '01'", _DUPLICATE,
            dict(_TWO_BIT, records=[{"id": "01"}, {"id": "01"}])),
    Refusal("test_database::test_duplicate_key_values_rejected", f"{_ID_VAL} --key 0101",
            "record 1: duplicate key value '0101'", _DUPLICATE,
            _id_val({"id": "0101", "val": "00"}, {"id": "0101", "val": "01"})),
    # 5 records under a 2-bit key can never carry distinct keys, so the
    # distinctness check fires at construction; it is also why padding
    # always finds enough unused keys, and needs no check of its own
    Refusal("test_database::test_saturated_key_space_is_caught_by_pigeonhole", _SEARCH_DB,
            "record 4: duplicate key value '00'", _DUPLICATE,
            dict(_TWO_BIT, records=[{"id": f"{i % 4:02b}"} for i in range(5)])),
    Refusal("test_database::test_width_mismatch_rejected", f"{_ID_VAL} --key 0000",
            "record 0 field 'id': value '010' has width 3, declared 4", _KEY_WIDTH,
            _id_val({"id": "010", "val": "00"})),
    Refusal("test_database::test_non_binary_characters_rejected", f"{_ID_VAL} --key 0000",
            "record 0 field 'id': value '01a1' is not a bit string",
            ("database", "_check_bits", 1), _id_val({"id": "01a1", "val": "00"})),
    Refusal("test_database::test_unknown_key_field_rejected", f"{_ID_VAL} --key 0000",
            "unknown key_field 'nope'", ("database", "Database.__post_init__", 1),
            _id_val({"id": "0000", "val": "00"}, key_field="nope")),
    Refusal("test_database::test_missing_field_rejected", f"{_ID_VAL} --key 0000",
            "record 0: missing fields ['val'], undeclared fields []",
            ("database", "Database.__post_init__", 3), _id_val({"id": "0000"})),
    Refusal(f"{_BAD_INPUT}[zero-bit-width]", _SEARCH_DB, "field 'id': bit_width must be >= 1",
            ("database", "FieldSpec.__post_init__", 0), _keys(0, 0)),
    Refusal(f"{_BAD_INPUT}[repeated-field-name]", _SEARCH_DB, "field names must be unique",
            ("database", "Database.__post_init__", 0), dict(_TWO_BIT, fields=_TWO_BIT["fields"] * 2)),
    Refusal(f"{_BAD_INPUT}[no-records]", _SEARCH_DB, "database needs at least one record",
            ("database", "Database.__post_init__", 2), _keys(2, 0)),
    # -- the query: a key is encoded on the data qubits as its own bit
    # string, so the width check in SearchQuery.validate is all of it
    Refusal("test_cli::test_search_width_mismatch_exits_three",
            "search --db {people} --key 01 --return phone",
            "query key: value '01' has width 2, declared 4", _KEY_WIDTH),
    *(Refusal("test_database::test_encode_key_rejects_bad_width", f"{_ID_VAL} --key={key}",
              f"query key: value '{key}' has width {len(key)}, declared 4", _KEY_WIDTH,
              _id_val({"id": "1010", "val": "00"})) for key in ("", "10100")),
    Refusal(f"{_BAD_INPUT}[unknown-return-field]", "search --db {people} --key 0101 --return x",
            "unknown field 'x'", ("database", "Database.field", 0)),
    # -- search's admission and options; N = 8 takes K = 2 rounds and at most
    # 4K + 4 = 12, a full turn of the Grover angle; a seed alone is refused,
    # not ignored
    *(Refusal(f"test_cli::test_search_above_the_record_bit_limit_exits_three[{n}]",
              f"search --db {{db}} --key {'0' * m} --return id",
              f"search supports m * 2^n <= 32768, got {m} * 2^{n}", _SEARCH_CAP,
              _keys(m, 1 << n)) for n, m in _WIDE.items()),
    *(Refusal(test, f"{_PEOPLE} {options}", message, site) for test, options, message, site in [
        (f"{_BAD_ARGUMENT}[negative-seed]", "--shots 3 --seed -1",
         "sampled mode needs shots and a non-negative seed", _SAMPLING),
        ("test_grover::test_sampled_mode_rejects_a_negative_seed_and_too_many_shots",
         "--shots 3 --seed -1", "sampled mode needs shots and a non-negative seed", _SAMPLING),
        ("test_grover::test_sampled_mode_rejects_a_negative_seed_and_too_many_shots",
         "--shots 1048577 --seed 1", "shots must be in 1..1048576, got 1048577", _SHOTS),
        (f"{_BAD_ARGUMENT}[seed-without-shots]", "--seed 3",
         "sampled mode needs shots and a non-negative seed", _SAMPLING),
        (f"{_BAD_INPUT}[shots-without-seed]", "--shots 32",
         "sampled mode needs shots and a non-negative seed", _SAMPLING),
        (f"{_BAD_ARGUMENT}[too-many-shots]", "--shots 1000000000000 --seed 1",
         "shots must be in 1..1048576, got 1000000000000", _SHOTS),
        ("test_cli::test_search_zero_shots_exits_three", "--shots 0 --seed 7",
         "shots must be in 1..1048576, got 0", _SHOTS),
        ("test_grover::test_sampled_mode_rejects_nonpositive_shots", "--shots 0 --seed 9",
         "shots must be in 1..1048576, got 0", _SHOTS),
        ("test_grover::test_search_rejects_a_nonpositive_iteration_count", "--iterations 0",
         "iteration count must be positive", ("grover", "run_search", 2)),
        (f"{_BAD_ARGUMENT}[too-many-iterations]", "--iterations 100000",
         "at most 12 iterations at N=8, got 100000", ("grover", "run_search", 3))]),
    # -- an --out path is probed before any work, so its refusal builds nothing
    Refusal(f"{_BAD_ARGUMENT}[search-out-dir-missing]", f"{_PEOPLE} --out {{out}}/x.json",
            _NO_DIR, _WRITE, builds={}),
    # -- compile; the lowered lengths over the gate cap are those compile
    # reported when it lowered first
    *(Refusal(f"test_cli::test_compile_one_record_database_exits_three[{part}]",
              f"compile --db {{db}} --key 01 --part {part} --out {{out}}",
              "compile needs at least 2 records", _TOO_FEW, _ONE_RECORD)
      for part in ("m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive")),
    *(Refusal(f"test_cli::test_compile_above_the_record_bit_limit_exits_three[{n}]",
              f"compile --db {{db}} --key {'0' * m} --part {part} --out {{out}}",
              f"compile supports m * 2^n <= 32768, got {m} * 2^{n}", _SEARCH_CAP,
              _keys(m, 1 << n)) for n, m in _WIDE.items() for part in ("kernel", "naive")),
    *(Refusal("test_cli::test_compile_over_the_gate_cap_lowers_nothing",
              f"compile --db {{db}} --key {'0' * 16} --part {part} --lowered --out {{out}}",
              f"compile writes at most 1048576 gates, {part} has {size}",
              ("cli", "_cmd_compile", 0), _keys(16, 2048))
      for part, size in (("naive", 14484480), ("kernel", 1752080))),
    Refusal(f"{_BAD_ARGUMENT}[compile-out-dir-missing]",
            "compile --db {people} --key 0101 --out {out}/x.json", _NO_DIR, _WRITE, builds={}),
    # -- flags and widths; a bench row is checked against both reports' caps
    Refusal(f"{_BAD_ARGUMENT}[bench-out-dir-missing]",
            "bench --n-min 2 --n-max 2 --m 1 --out {out}/x.json", _NO_DIR, _WRITE, builds={}),
    Refusal("test_cli::test_bad_flags_exit_three", "estimate --n 10",
            "the following arguments are required: --m", _FLAG),
    Refusal("test_cli::test_bad_flags_exit_three", "bench --n-min 4 --n-max 2 --m 1 --out {out}",
            "--n-min must not exceed --n-max", ("cli", "_cmd_bench", 0)),
    Refusal("test_resources::test_bound_rejects_nonpositive_widths", "estimate --n 0 --m 1",
            "widths must be positive", ("resources", "_check_widths", 0)),
    *(Refusal(test, argv, f"this report supports {limit}", site) for test, argv, limit, site in [
        # the bound report prints K only where its float floor is exact
        (_INDEX_WIDTH, "estimate --n 110 --m 1", "n <= 109, got 110", _N_CAP),
        (_INDEX_WIDTH, "estimate --n 21 --m 1 --mode measured", "n <= 20, got 21", _N_CAP),
        (_INDEX_WIDTH, "estimate --n 21 --m 1 --mode naive", "n <= 20, got 21", _N_CAP),
        (f"{_WIDTH_LIMIT}[bound]", "estimate --n 110 --m 1", "n <= 109, got 110", _N_CAP),
        (f"{_WIDTH_LIMIT}[measured]", "estimate --n 64 --m 1 --mode measured",
         "n <= 20, got 64", _N_CAP),
        (f"{_WIDTH_LIMIT}[naive]", "estimate --n 64 --m 1 --mode naive", "n <= 20, got 64", _N_CAP),
        # a measured report builds m * 2^n Toffolis, so m is capped with n
        (f"{_WIDTH_LIMIT}[measured-m]", "estimate --n 1 --m 100000000 --mode measured",
         "m * 2^n <= 1048576, got 100000000 * 2^1", _BIT_CAP),
        (f"{_WIDTH_LIMIT}[naive-m]", "estimate --n 1 --m 100000000 --mode naive",
         "m * 2^n <= 32768, got 100000000 * 2^1", _BIT_CAP),
        (f"{_WIDTH_LIMIT}[bench-m]", "bench --n-min 1 --n-max 1 --m 100000000 --out {out}",
         "m * 2^n <= 32768, got 100000000 * 2^1", _BIT_CAP),
        (f"{_WIDTH_LIMIT}[measured-one-over]", "estimate --n 20 --m 2 --mode measured",
         "m * 2^n <= 1048576, got 2 * 2^20", _BIT_CAP),
        # the naive report holds its whole loader, so its own cap is lower
        (f"{_WIDTH_LIMIT}[naive-n20]", "estimate --n 20 --m 1 --mode naive",
         "m * 2^n <= 32768, got 1 * 2^20", _BIT_CAP),
        (f"{_WIDTH_LIMIT}[naive-one-over]", "estimate --n 15 --m 2 --mode naive",
         "m * 2^n <= 32768, got 2 * 2^15", _BIT_CAP),
        ("test_cli::test_bench_past_the_record_bit_cap_exits_three",
         "bench --n-min 15 --n-max 15 --m 2 --out {out}", "m * 2^n <= 32768, got 2 * 2^15",
         _BIT_CAP),
        ("test_resources::test_bench_rejects_out_of_range",
         "bench --n-min 16 --n-max 16 --m 1 --out {out}", "m * 2^n <= 32768, got 1 * 2^16",
         _BIT_CAP),
        ("test_resources::test_bench_rejects_out_of_range",
         "bench --n-min 21 --n-max 21 --m 1 --out {out}", "n <= 20, got 21", _N_CAP)]),
    # -- the three raises the CLI cannot reach, called directly; the CLI
    # pads every database before it admits one
    Refusal("test_grover::test_search_rejects_unpadded_database",
            lambda: check_database(load_database(json.dumps(_keys(2, 3))), "search"),
            "database must be padded to a power of two", ("grover", "check_database", 0)),
    # search admits at least 2 records, and every report starts at n = 1
    Refusal("test_grover::test_optimal_iterations_rejects_tiny_databases",
            lambda: optimal_iterations(1), "search needs at least 2 records",
            ("grover", "optimal_iterations", 0)),
    # SearchQuery.validate checks the key's width and bits first
    Refusal("test_grover::test_reflection_rejects_bad_pattern",
            lambda: build_target_reflection(QdamLayout(1, 2), "1"),
            "pattern '1' does not fit 2 data qubits", ("kernel", "build_target_reflection", 0)),
]


def _bytes(db: object) -> bytes:
    return db if isinstance(db, bytes) else json.dumps(db).encode()


def _fill(text: str, work: pathlib.Path) -> str:
    for name, path in (("db", work / "db.json"), ("out", work / "out"), ("people", DATA_DB)):
        text = text.replace(f"{{{name}}}", str(path))
    return text


def _refuse(row: Refusal, work: pathlib.Path, capsys, monkeypatch) -> None:
    """Run ``row`` in the empty directory ``work``: it raises only the
    InputError of its site, with its exact message; through the CLI it
    exits 3, prints only that message, on stderr, and leaves no file."""
    raised = []

    def record(error, *args):
        frame = sys._getframe(1)
        key = (frame.f_globals["__name__"], frame.f_lineno)
        raised.append(_SITE_AT.get(key, key))
        Exception.__init__(error, *args)

    monkeypatch.setattr(InputError, "__init__", record)
    if callable(row.run):
        with pytest.raises(InputError) as info:
            row.run()
        assert str(info.value) == row.message
    else:
        if row.db is not None:
            (work / "db.json").write_bytes(_bytes(row.db))
        argv, codes = [_fill(arg, work) for arg in row.run.split(" ")], []
        builds = built(lambda: codes.append(main(argv)))
        assert (*codes, *capsys.readouterr()) == (3, "", f"error: {_fill(row.message, work)}\n")
        assert [p.name for p in work.iterdir()] == ["db.json"] * (row.db is not None)
        assert row.builds is None or builds == row.builds
    assert raised == [row.site]


def refusal_tests(module: str) -> dict[str, Callable]:
    """The tests of ``module`` that REFUSALS names, by name; each case runs
    its rows in order, each in a fresh directory."""
    rows, names = defaultdict(list), defaultdict(list)
    for row in REFUSALS:
        rows[row.test].append(row)
    for case in rows:
        if case.startswith(f"{module}::"):
            names[case.partition("::")[2].partition("[")[0]].append(case)

    def build(name, cases):
        def test(case, tmp_path, capsys, monkeypatch):
            for i, row in enumerate(rows[case]):
                (tmp_path / str(i)).mkdir()
                _refuse(row, tmp_path / str(i), capsys, monkeypatch)

        if cases == [f"{module}::{name}"]:  # one case, no parameter
            test = functools.partial(test, cases[0])
        else:
            ids = [case.partition("[")[2][:-1] for case in cases]
            test = pytest.mark.parametrize("case", cases, ids=ids)(test)
        test.__name__, test.refusal_cases = name, cases
        return test

    return {name: build(name, cases) for name, cases in names.items()}


globals().update(refusal_tests(__name__))


@pytest.mark.parametrize("case", [f"{_BAD_FILE}[deep-nesting]", f"{_BAD_FILE}[non-ascii-file]",
                                  "test_cli::test_bad_flags_exit_three"],
                         ids=["deep-nesting", "non-ascii", "missing-flag"])
def test_the_module_entry_point_refuses_without_a_traceback(case, tmp_path):
    # python -m qsearch.cli runs __main__ and sys.exit, which the rows do
    # not: the deepest file, a file it cannot decode and a missing flag
    # each exit 3 with only the row's message
    row = next(row for row in REFUSALS if row.test == case)
    (tmp_path / "db.json").write_bytes(_bytes(row.db or b""))
    argv = [_fill(arg, tmp_path) for arg in row.run.split(" ")]
    run = subprocess.run([sys.executable, "-m", "qsearch.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR), timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (
        3, "", f"error: {_fill(row.message, tmp_path)}\n")
