"""End-to-end CLI contract: subcommands, exit codes, determinism."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsearch
from qsearch.cli import main
from qsearch.database import load_database
from qsearch.errors import QsearchError

from oracles import database_json, from_json, is_lowered

DATA_DB = os.path.join(os.path.dirname(__file__), "..", "data", "people.json")
SRC_DIR = os.path.dirname(os.path.dirname(qsearch.__file__))


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
    code, out, _ = _run(capsys, "search", "--db", DATA_DB,
                        "--key", "0101", "--return", "phone")
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


def test_search_malformed_database_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, err = _run(capsys, "search", "--db", str(bad),
                        "--key", "0101", "--return", "phone")
    assert code == 3
    assert "error" in err


def _assert_exits_three_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    run = subprocess.run(
        [sys.executable, "-m", "qsearch.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 3
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


_GOOD_DOC = {
    "version": 1,
    "fields": [{"name": "id", "bit_width": 2}],
    "key_field": "id",
    "records": [{"id": "01"}, {"id": "10"}],
}


@pytest.mark.parametrize("content", [
    json.dumps(dict(_GOOD_DOC, fields=[{"name": "id", "bit_width": "x"}])).encode(),
    json.dumps(dict(_GOOD_DOC, fields=[{"name": "id", "bit_width": 1e999}])).encode(),
    json.dumps(dict(_GOOD_DOC, records=[["01"], {"id": "10"}])).encode(),
    json.dumps(dict(_GOOD_DOC, key_field="\u00e9"), ensure_ascii=False).encode(),
    b"[" * 100_000,
    b'{"version": ' + b"1" * 5000 + b"}",
], ids=["bit-width-not-a-number", "bit-width-infinite", "record-is-a-list",
        "non-ascii-file", "deep-nesting", "integer-digit-limit"])
def test_bad_database_file_exits_three_without_traceback(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    _assert_exits_three_without_traceback(
        ["search", "--db", str(bad), "--key", "01", "--return", "id"])


_SEARCH = ["search", "--db", DATA_DB, "--key", "0101", "--return", "phone"]
_UNWRITABLE = os.path.join(os.path.dirname(DATA_DB), "no-such-dir", "x.json")


@pytest.mark.parametrize("argv", [
    [*_SEARCH, "--shots", "3", "--seed", "-1"],
    [*_SEARCH, "--shots", "1000000000000", "--seed", "1"],
    [*_SEARCH, "--out", _UNWRITABLE],
    ["compile", "--db", DATA_DB, "--key", "0101", "--out", _UNWRITABLE],
    ["bench", "--n-min", "2", "--n-max", "2", "--m", "1", "--out", _UNWRITABLE],
    [*_SEARCH, "--iterations", "100000"],
    [*_SEARCH, "--seed", "3"],
], ids=["negative-seed", "too-many-shots", "search-out-dir-missing",
        "compile-out-dir-missing", "bench-out-dir-missing", "too-many-iterations",
        "seed-without-shots"])
def test_bad_arguments_exit_three_without_traceback(argv):
    _assert_exits_three_without_traceback(argv)


def test_importing_the_cli_leaves_numpy_unloaded():
    # the package needs only the standard library; numpy is a test dependency
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
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.json")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text)
        code = main(["search", "--db", path, "--key", key, "--return", "val"])
    assert code in (0, 2, 3)


def test_search_zero_shots_exits_three(capsys):
    code, out, err = _run(capsys, "search", "--db", DATA_DB, "--key", "0101",
                          "--return", "phone", "--shots", "0", "--seed", "7")
    assert code == 3
    assert out == ""
    assert "shots" in err


def test_search_duplicate_keys_exit_three(tmp_path, capsys):
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({
        "version": 1,
        "fields": [{"name": "id", "bit_width": 2}],
        "key_field": "id",
        "records": [{"id": "01"}, {"id": "01"}],
    }))
    code, _, err = _run(capsys, "search", "--db", str(dup),
                        "--key", "01", "--return", "id")
    assert code == 3


def _over_the_record_bit_limit(tmp_path, n: int) -> tuple[str, int]:
    """A 2^n-record database with one key bit more than MAX_SEARCH_BITS =
    2^15 record bits allows: its path and its key width."""
    m = (1 << (15 - n)) + 1
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "version": 1,
        "fields": [{"name": "id", "bit_width": m}],
        "key_field": "id",
        "records": [{"id": format(i, f"0{m}b")} for i in range(1 << n)],
    }))
    return str(big), m


@pytest.mark.parametrize("n", [1, 2])
def test_search_above_the_record_bit_limit_exits_three(tmp_path, capsys, n):
    big, m = _over_the_record_bit_limit(tmp_path, n)
    code, out, err = _run(capsys, "search", "--db", big,
                          "--key", "0" * m, "--return", "id")
    assert code == 3
    assert out == ""
    assert err == f"error: search supports m * 2^n <= 32768, got {m} * 2^{n}\n"


@pytest.mark.parametrize("n", [1, 2])
def test_compile_above_the_record_bit_limit_exits_three(tmp_path, capsys, monkeypatch, n):
    from qsearch import cli

    def refuse(*args):
        raise AssertionError("compile built a circuit")

    monkeypatch.setattr(cli, "build_kernel_circuits", refuse)
    monkeypatch.setattr(cli, "build_naive_qdam", refuse)
    big, m = _over_the_record_bit_limit(tmp_path, n)
    for part in ("kernel", "naive"):
        code, out, err = _run(capsys, "compile", "--db", big, "--key", "0" * m,
                              "--part", part, "--out", str(tmp_path / "x.json"))
        assert code == 3
        assert out == ""
        assert err == f"error: compile supports m * 2^n <= 32768, got {m} * 2^{n}\n"
    assert not (tmp_path / "x.json").exists()


def test_compile_above_the_gate_limit_exits_three(tmp_path, capsys, monkeypatch):
    from qsearch import cli

    out_path = tmp_path / "x.json"
    argv = ["compile", "--db", DATA_DB, "--key", "0101", "--out", str(out_path)]
    # the macro loader holds 175 gates and the lowered kernel 2,142
    monkeypatch.setattr(cli, "MAX_EXPORT_GATES", 175)
    assert _run(capsys, *argv)[0] == 0
    out_path.unlink()
    monkeypatch.setattr(cli, "MAX_EXPORT_GATES", 174)
    for extra, message in (([], "qdam has 175"),
                           (["--part", "kernel", "--lowered"], "kernel has 2142")):
        code, out, err = _run(capsys, *argv, *extra)
        assert code == 3
        assert out == ""
        assert err == f"error: compile writes at most 174 gates, {message}\n"
        assert not out_path.exists()


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


def test_compile_over_the_gate_cap_lowers_nothing(tmp_path, capsys, monkeypatch):
    from qsearch import cli

    def refuse(circuit):
        raise AssertionError("compile lowered a circuit over the gate cap")

    monkeypatch.setattr(cli, "lower_circuit", refuse)
    big, out_path = tmp_path / "big.json", tmp_path / "x.json"
    big.write_text(json.dumps({
        "version": 1,
        "fields": [{"name": "id", "bit_width": 16}],
        "key_field": "id",
        "records": [{"id": format(i, "016b")} for i in range(2048)],
    }))
    # the lowered lengths, as compile reported them when it lowered first
    for part, size in (("naive", 15860736), ("kernel", 1891424)):
        code, out, err = _run(capsys, "compile", "--db", str(big), "--key", "0" * 16,
                              "--part", part, "--lowered", "--out", str(out_path))
        assert code == 3
        assert out == ""
        assert err == f"error: compile writes at most 1048576 gates, {part} has {size}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(("part", "unbuilt"), [("m1", ["build_m2"]),
                                               ("oracle", ["build_m1", "build_m2"]),
                                               ("diffusion", ["build_m1", "build_m2"])])
def test_compile_builds_only_the_part_it_exports(tmp_path, capsys, monkeypatch,
                                                 part, unbuilt):
    from qsearch import qdam

    argv = ["compile", "--db", DATA_DB, "--key", "0101", "--part", part,
            "--out", str(tmp_path / "x.json")]
    assert _run(capsys, *argv)[0] == 0
    expected = (tmp_path / "x.json").read_bytes()
    (tmp_path / "x.json").unlink()

    def refuse(*args):
        raise AssertionError(f"compile --part {part} built another part")

    for name in unbuilt:
        monkeypatch.setattr(qdam, name, refuse)
    assert _run(capsys, *argv)[0] == 0
    assert (tmp_path / "x.json").read_bytes() == expected


def test_search_width_mismatch_exits_three(capsys):
    code, _, _ = _run(capsys, "search", "--db", DATA_DB,
                      "--key", "01", "--return", "phone")
    assert code == 3


def test_search_output_is_byte_deterministic(capsys):
    _, first, _ = _run(capsys, "search", "--db", DATA_DB,
                       "--key", "0011", "--return", "room")
    _, second, _ = _run(capsys, "search", "--db", DATA_DB,
                        "--key", "0011", "--return", "room")
    assert first == second


def test_search_sampled_deterministic_with_seed(capsys):
    args = ["search", "--db", DATA_DB, "--key", "0101", "--return", "phone",
            "--shots", "16", "--seed", "7"]
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


def test_search_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out, _ = _run(capsys, "search", "--db", DATA_DB, "--key", "0101",
                        "--return", "phone", "--out", str(out_path))
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


@pytest.mark.parametrize(
    "part", ["m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive"]
)
def test_compile_one_record_database_exits_three(tmp_path, capsys, part):
    db_path = tmp_path / "one.json"
    db_path.write_text(json.dumps(dict(_GOOD_DOC, records=[{"id": "01"}])))
    code, out, err = _run(capsys, "compile", "--db", str(db_path), "--key",
                          "01", "--part", part, "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert out == ""
    assert err == "error: compile needs at least 2 records\n"


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


def test_bench_past_the_record_bit_cap_exits_three(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, out, err = _run(capsys, "bench", "--n-min", "15", "--n-max", "15",
                          "--m", "2", "--out", str(out_path))
    assert (code, out) == (3, "")
    assert err == "error: this report supports m * 2^n <= 32768, got 2 * 2^15\n"
    assert not out_path.exists()


def test_bad_flags_exit_three(capsys):
    code, _, err = _run(capsys, "estimate", "--n", "10")
    assert code == 3
    code, _, _ = _run(capsys, "bench", "--n-min", "4", "--n-max", "2",
                      "--m", "1", "--out", "/tmp/x.csv")
    assert code == 3


_HUGE_M = ["--m", "100000000"]


@pytest.mark.parametrize("argv, limit", [
    (["estimate", "--n", "110", "--m", "1"], "n <= 109"),
    (["estimate", "--n", "64", "--m", "1", "--mode", "measured"], "n <="),
    (["estimate", "--n", "64", "--m", "1", "--mode", "naive"], "n <="),
    # a measured report builds m * 2^n Toffolis, so m is capped with n
    (["estimate", "--n", "1", *_HUGE_M, "--mode", "measured"], "m * 2^n <="),
    (["estimate", "--n", "1", *_HUGE_M, "--mode", "naive"], "m * 2^n <="),
    (["bench", "--n-min", "1", "--n-max", "1", *_HUGE_M, "--out", _UNWRITABLE],
     "m * 2^n <="),
    (["estimate", "--n", "20", "--m", "2", "--mode", "measured"], "m * 2^n <="),
    # the naive report holds its whole loader, so its own cap is lower
    (["estimate", "--n", "20", "--m", "1", "--mode", "naive"], "m * 2^n <="),
    (["estimate", "--n", "15", "--m", "2", "--mode", "naive"], "m * 2^n <="),
], ids=["bound", "measured", "naive", "measured-m", "naive-m", "bench-m",
        "measured-one-over", "naive-n20", "naive-one-over"])
def test_estimate_above_the_width_limit_exits_three(capsys, argv, limit):
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and limit in err

