"""Acceptance suite.

One test per criterion; each prints a PASS line on success so a verbose run
reads as a checklist.  Stated tolerances are asserted exactly as given.
"""
from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from qsearch.circuit import Register
from qsearch.cli import main as cli_main
from qsearch.database import SearchQuery
from qsearch.decompose import lower_circuit
from qsearch.grover import optimal_iterations, run_search
from qsearch.qdam import QdamLayout
from qsearch.resources import bench_scaling, estimate_bounds, measure, measure_naive
from qsearch.sim import SparseState

from conftest import random_lowered_circuit, toy_db
from oracles import (
    amplitude, basis_pattern, build_qdam, dense_statevector, recorded_states, to_complex,
    to_dense,
)

DATA_DB = os.path.join(os.path.dirname(__file__), "..", "data", "people.json")

_DEPTH_FIELDS = (
    "t_depth_m1",
    "t_depth_m2",
    "t_depth_qdam",
    "t_depth_oracle_reflection",
    "t_depth_diffusion",
    "t_depth_kernel",
)


def _passed(number: int, text: str) -> None:
    print(f"CRITERION {number} PASS: {text}")


def _predicted_loader_output(layout: QdamLayout, keys: list[str], q: int) -> int:
    """Exact basis label the loader must produce on |q, 0, 0, ...>: index q,
    one-hot offset q, data = key(q), database = its classical bits, load
    ancillas holding key(q) in block q, every other ancilla |0>."""
    n, m = layout.n, layout.m
    records = 1 << n
    onehot = 1 << (records - 1 - q)
    data = int(keys[q], 2)
    database = int("".join(keys), 2)
    load_bits = ["0"] * (records * m)
    for j, bit in enumerate(keys[q]):
        load_bits[q * m + j] = bit
    # the fan-out and ladder qubits follow the load ancillas
    ancilla = int("".join(load_bits), 2) << layout.total_qubits - layout.fanout
    sizes = layout.register_sizes
    return (
        basis_pattern(sizes, {Register.BINARY_INDEX: q})
        | basis_pattern(sizes, {Register.ONEHOT_INDEX: onehot})
        | basis_pattern(sizes, {Register.DATA: data})
        | basis_pattern(sizes, {Register.DATABASE: database})
        | basis_pattern(sizes, {Register.ANCILLA: ancilla})
    )


def test_criterion_1_loader_semantics():
    """Loader maps |q,0,0,...> to the predicted branch, error < 1e-12."""
    start = time.time()
    for n in (1, 2):
        for m in (1, 2):
            layout = QdamLayout(n, m)
            keys = [format((i * 3 + 1) % (1 << m), f"0{m}b") for i in range(1 << n)]
            lowered = lower_circuit(build_qdam(layout, keys))
            total = layout.total_qubits
            for q in range(1 << n):
                expected = _predicted_loader_output(layout, keys, q)
                start_pattern = basis_pattern(
                    layout.register_sizes, {Register.BINARY_INDEX: q}
                )
                # exact sparse run: any basis label it does not store is 0
                out = SparseState.basis(total, start_pattern)
                out = out.apply(lowered)
                assert abs(amplitude(out, expected) - 1) < 1e-12
                stray = sum(
                    abs(to_complex(a, out.k)) for k, a in out.amplitudes.items()
                    if k != expected
                )
                assert stray < 1e-12
                if total <= 18:  # dense cross-check where a vector fits
                    vec = dense_statevector(lowered, start_pattern, max_qubits=18)
                    ideal = np.zeros(1 << total, dtype=complex)
                    ideal[expected] = 1.0
                    assert np.abs(vec - ideal).max() < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10
    _passed(1, f"loader semantics exact for (n,m) in {{1,2}}^2 ({elapsed:.1f}s)")


def test_criterion_2_t_depth_bounds():
    """Measured depths within 4n / 6(m-1) / 6(n-1) (with clamps) bounds."""
    start = time.time()
    for n in range(1, 9):
        for m in range(1, 7):
            measured = measure(n, m)
            bound = estimate_bounds(n, m)
            for field in _DEPTH_FIELDS:
                assert getattr(measured, field) <= getattr(bound, field), (
                    n, m, field, getattr(measured, field), getattr(bound, field),
                )
    elapsed = time.time() - start
    assert elapsed < 30
    _passed(2, f"measured <= bound componentwise, n in 1..8, m in 1..6 ({elapsed:.1f}s)")


def test_criterion_3_exponential_vs_logarithmic_separation():
    """Naive loader T-depth dominates the optimized one, increasingly so."""
    start = time.time()
    ratios = []
    for n in range(2, 7):
        naive = measure_naive(n, 2).t_depth_qdam
        optimized = measure(n, 2).t_depth_qdam
        ratios.append(naive / optimized)
    assert ratios[-1] >= 10
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.time() - start
    assert elapsed < 60
    _passed(3, f"naive/optimized ratio at n=6 is {ratios[-1]:.0f} (>= 10), "
               f"strictly increasing over n=2..6 ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def reload_probes():
    """N -> the state of the search's reload check, filled by ``search_runs``."""
    return {}


@pytest.fixture(scope="module")
def search_runs(reload_probes):
    runs = {}
    for n in (2, 3, 4, 5, 6, 7):
        db = toy_db(n)
        target = (1 << n) - 2
        with recorded_states() as states:
            runs[1 << n] = run_search(db, SearchQuery(format(target, f"0{n}b"), "val"))
        (reload_probes[1 << n],) = states
    return runs


def test_criterion_4_search_dynamics(search_runs, reload_probes):
    """Success probability equals sin^2((2k+1) asin(1/sqrt(N))) to 1e-9."""
    start = time.time()
    for big_n, result in search_runs.items():
        theta = math.asin(1 / math.sqrt(big_n))
        k_max = optimal_iterations(big_n)
        assert len(result.probabilities) == k_max + 1
        for k, prob in enumerate(result.probabilities):
            expected = math.sin((2 * k + 1) * theta) ** 2
            assert abs(prob - expected) < 1e-9, (big_n, k)
        assert reload_probes[big_n].peak_support <= 4 * big_n
    assert abs(search_runs[4].success_probability - 1.0) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 120
    _passed(4, "probabilities match the closed form to 1e-9 for N in "
               f"{{4,8,16,32,64,128}}; N=4 exact ({elapsed:.1f}s)")


def test_criterion_5_decoupling(search_runs):
    """Probability outside the index-only subspace < 1e-12 at boundaries."""
    for big_n in (4, 8, 16):
        trace = search_runs[big_n].to_json()["trace"]
        assert all(step["off_support_probability"] < 1e-12 for step in trace), big_n
    _passed(5, "off-support probability < 1e-12 at every iteration boundary "
               "for N in {4,8,16}")


def test_criterion_6_query_count(search_runs):
    """Exactly K = floor(pi / (4 asin(1/sqrt(N)))) oracle calls."""
    expected = {4: 1, 8: 2, 16: 3, 32: 4, 64: 6}
    for big_n, k in expected.items():
        independent = math.floor(math.pi / (4 * math.asin(big_n ** -0.5)))
        assert k == max(1, independent)
        assert search_runs[big_n].to_json()["oracle_calls"] == k
        assert search_runs[big_n].iterations == k
        assert k <= math.ceil((math.pi / 4) * math.sqrt(big_n))
    _passed(6, "oracle calls K in {1,2,3,4,6} for N in {4,8,16,32,64}")


def test_criterion_7_cost_headline_and_scaling(capsys):
    """Bound report 176/4400 at n=10, m=8; bench cost scaling over n=2..12."""
    start = time.time()
    code = cli_main(["estimate", "--n", "10", "--m", "8", "--mode", "bound"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["t_depth_kernel"] == 176
    assert doc["t_cost"] == 4400
    rows = bench_scaling(range(2, 13), 1)
    opt_ratios = [
        opt.t_cost / (math.sqrt(opt.database_size) * math.log2(opt.database_size))
        for opt, _ in rows
    ]
    assert all(ratio <= 20 for ratio in opt_ratios)
    naive_scaled = [naive.t_cost / math.sqrt(opt.database_size) for opt, naive in rows]
    assert all(b > a for a, b in zip(naive_scaled, naive_scaled[1:]))
    elapsed = time.time() - start
    assert elapsed < 30
    _passed(7, f"estimate reports 176/4400; bench n=2..12: tcost_opt/(sqrt(N) n) "
               f"<= 20, tcost_naive/sqrt(N) strictly increasing ({elapsed:.1f}s)")


def test_criterion_8_dense_sparse_cross_validation():
    """100 seeded random circuits agree between backends within 1e-10."""
    start = time.time()
    rng = np.random.default_rng(2024)
    for i in range(100):
        n_qubits = int(rng.integers(2, 13))
        n_gates = int(rng.integers(20, 201))
        circuit = random_lowered_circuit(rng, n_qubits, n_gates)
        dense = dense_statevector(circuit, 0)
        sparse = SparseState(n_qubits).apply(circuit)
        assert np.abs(dense - to_dense(sparse)).max() < 1e-10, i
    elapsed = time.time() - start
    assert elapsed < 60
    _passed(8, f"100 random circuits, dense vs sparse within 1e-10 ({elapsed:.1f}s)")


def test_criterion_9_cli_end_to_end(tmp_path, capsys):
    """Search on the bundled example database, plus both failure paths."""
    start = time.time()
    code = cli_main(["search", "--db", DATA_DB, "--key", "0101",
                     "--return", "phone"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "SOLVED"
    assert doc["returned_value"] == "01011001"

    code = cli_main(["search", "--db", DATA_DB, "--key", "1111",
                     "--return", "phone"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["status"] == "KEY_NOT_PRESENT"

    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "fields": "oops"}')
    code = cli_main(["search", "--db", str(bad), "--key", "0101",
                     "--return", "phone"])
    capsys.readouterr()
    assert code == 3
    elapsed = time.time() - start
    assert elapsed < 10
    _passed(9, f"CLI exit codes 0/2/3 on solved/absent/malformed ({elapsed:.1f}s)")
