"""Loader builders: one-hot coupling, data loading, composition, and the
naive baseline."""
from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.circuit import Circuit, GateKind, Register, gate
from qsearch.decompose import lower_circuit
from qsearch.errors import CircuitError
from qsearch.grover import build_kernel_circuits
from qsearch.qdam import (
    QdamLayout,
    build_m1,
    build_m2,
    build_naive_qdam,
    loader_parts,
)
from qsearch.sim import SparseState

from conftest import toy_db
from oracles import (
    basis_pattern,
    build_qdam,
    check_gates,
    macro_counts,
    naive_loader_gates,
    qdam_regions,
    register_bits,
    resource_tally,
    stage1_per_level_gates,
    stage2_per_record_gates,
    to_complex,
)

B = Register.BINARY_INDEX
U = Register.ONEHOT_INDEX
D = Register.DATA


def _index_state(layout, value):
    return SparseState.basis(
        layout.total_qubits, basis_pattern(layout.register_sizes, {B: value})
    )


def test_layout_region_sizes():
    layout = QdamLayout(3, 2)
    assert layout.data - layout.onehot == 8
    assert layout.load - layout.database == 16
    assert layout.fanout - layout.load == 16
    assert layout.ladder_qubits().start - layout.fanout == 3 + 8  # stage 1's, then one per record
    assert len(layout.ladder_qubits()) == 1
    assert layout.total_qubits == 3 + 8 + 2 + 16 + 16 + 11 + 1


def test_the_layout_equals_an_independent_placement():
    # every region start, the ladder, the width and the register sizes
    # against the map the oracle places from the widths alone
    starts = ("onehot", "data", "database", "load", "fanout")
    for n in range(1, 13):
        for m in range(1, 41):
            layout, regions = QdamLayout(n, m), qdam_regions(n, m)
            assert [getattr(layout, name) for name in starts] == [
                regions[name].start for name in starts]
            ladder = layout.ladder_qubits()
            assert (ladder.start, ladder.stop) == (regions["ladder"].start,
                                                   regions["ladder"].stop)
            assert layout.total_qubits == regions["ladder"].stop
            assert layout.register_sizes == {
                B: len(regions["index"]), U: len(regions["onehot"]),
                D: len(regions["data"]), Register.DATABASE: len(regions["database"]),
                Register.ANCILLA: sum(len(regions[name])
                                      for name in ("load", "fanout", "ladder"))}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_kernel_touches_every_fanout_qubit(n):
    # the pool holds what the loader leases and nothing idle
    for m in (1, 2, 3, 4):
        layout = QdamLayout(n, m)
        kernel = build_kernel_circuits(layout, ["0" * m] * (1 << n), "0" * m).kernel()
        touched = {q for _, ops in kernel.gates for q in ops}
        pool = set(range(layout.fanout, layout.ladder_qubits().start))
        assert pool <= touched, sorted(pool - touched)


def _labels(layout):
    """Export label of every flat qubit of a layout, read back from the JSON
    boundary: one X gate per qubit."""
    total = sum(layout.register_sizes.values())
    doc = json.loads(Circuit(layout.register_sizes,
                             [gate(GateKind.X, q) for q in range(total)]).export_json())
    return [entry["qubits"][0] for entry in doc["gates"]]


def test_layout_qubits_are_the_flat_indices_of_their_labels():
    layout = QdamLayout(2, 3)
    label = _labels(layout)
    assert [label[b] for b in range(2)] == ["BINARY_INDEX:0", "BINARY_INDEX:1"]
    assert [label[layout.onehot + i] for i in range(4)] == [
        f"ONEHOT_INDEX:{i}" for i in range(4)]
    assert [label[layout.data + j] for j in range(3)] == [
        f"DATA:{j}" for j in range(3)]
    for i in range(4):
        for j in range(3):
            assert label[layout.database + i * 3 + j] == f"DATABASE:{i * 3 + j}"
            assert label[layout.load + i * 3 + j] == f"ANCILLA:{i * 3 + j}"
    # the fan-out pool, then the ladder, follow the load ancillas
    ladder = layout.ladder_qubits()
    assert [label[q] for q in (*range(layout.fanout, ladder.start), *ladder)] == [
        f"ANCILLA:{q - layout.load}" for q in range(layout.fanout, ladder.stop)]
    assert layout.ladder_qubits()[-1] == layout.total_qubits - 1


@pytest.mark.parametrize(("n", "m"), [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_naive_loader_places_its_qubits_under_their_labels(n, m):
    # the naive loader places its own qubits; read them back through the
    # export of its gates, on all-ones keys so every database bit is prepared
    loader = build_naive_qdam(n, m, ["1" * m] * (1 << n))
    doc = json.loads(Circuit(loader.register_sizes, loader.gates).export_json())
    assert doc["registers"] == {"BINARY_INDEX": n, "DATA": m, "DATABASE": m << n,
                                **({"ANCILLA": n - 1} if n > 1 else {})}
    bits = m << n
    prepare, rest = doc["gates"][:bits], doc["gates"][bits:]
    assert [g["qubits"] for g in prepare] == [[f"DATABASE:{k}"] for k in range(bits)]
    # the AND chain runs from index qubit 0 through ANCILLA:0 .. n-2
    chain = ["BINARY_INDEX:0", *(f"ANCILLA:{k}" for k in range(n - 1))]
    up = [[chain[b - 1], f"BINARY_INDEX:{b}", chain[b]] for b in range(1, n)]
    assert [g["qubits"] for g in rest if g["gate"] == "MCZ"] == [
        [chain[-1], f"DATABASE:{i * m + j}", f"DATA:{j}"]
        for i in range(1 << n) for j in range(m)]
    assert [g["qubits"] for g in rest if g["gate"] == "CCX"] == (up + up[::-1]) * bits
    assert {g["gate"] for g in rest} <= {"X", "H", "CCX", "MCZ"}
    assert {g["qubits"][0].partition(":")[0] for g in rest if g["gate"] == "X"} == (
        {"BINARY_INDEX"})
    assert {g["qubits"][0] for g in rest if g["gate"] == "H"} == {
        f"DATA:{j}" for j in range(m)}


def test_layout_rejects_zero_widths():
    with pytest.raises(CircuitError):
        QdamLayout(0, 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_stage_one_gates_equal_the_per_level_builder(n):
    # the decoder's flat comprehensions emit the gates of one
    # shared-control layer per level, in the same order
    layout = QdamLayout(n, 2)
    assert build_m1(layout).gates == stage1_per_level_gates(layout)


def test_m1_single_bit_mapping_and_zero_t_depth():
    layout = QdamLayout(1, 1)
    lowered = lower_circuit(build_m1(layout))
    assert resource_tally(lowered).t_depth == 0
    for value, hot in [(0, 0b10), (1, 0b01)]:
        out = _index_state(layout, value).apply(lowered)
        key = next(iter(out.amplitudes))
        assert register_bits(layout.register_sizes, key, U) == hot


def test_m1_two_bit_onehot_ordering():
    # value 0..3 map to one-hot 1000, 0100, 0010, 0001
    layout = QdamLayout(2, 1)
    lowered = lower_circuit(build_m1(layout))
    for value in range(4):
        out = _index_state(layout, value).apply(lowered)
        key = next(iter(out.amplitudes))
        assert register_bits(layout.register_sizes, key, U) == 1 << (3 - value)


def test_m1_macro_count_and_depth_bound_n3():
    layout = QdamLayout(3, 1)
    circ = build_m1(layout)
    assert macro_counts(circ)[GateKind.TOFFOLI] == 6  # 2 + 4
    assert resource_tally(lower_circuit(circ)).t_depth <= 8  # 4(n-1)


def test_m1_every_branch_has_hamming_weight_one():
    layout = QdamLayout(3, 1)
    init = layout.register_sizes
    state = SparseState(layout.total_qubits)
    hs = [gate(GateKind.H, b) for b in range(3)]
    from qsearch.circuit import Circuit

    state = state.apply(Circuit(init, hs))
    state = state.apply(lower_circuit(build_m1(layout)))
    assert state.support() == 8
    for key in state.amplitudes:
        hot = register_bits(layout.register_sizes, key, U)
        assert bin(hot).count("1") == 1


def test_m2_loads_spec_example_keys():
    layout = QdamLayout(2, 2)
    keys = ["11", "01", "10", "00"]
    lowered = lower_circuit(build_qdam(layout, keys))
    for value, expect in enumerate(keys):
        out = _index_state(layout, value).apply(lowered)
        key = next(iter(out.amplitudes))
        assert format(register_bits(layout.register_sizes, key, D), "02b") == expect


def test_m2_zero_keys_leave_data_null_with_toffolis_present():
    layout = QdamLayout(2, 2)
    circ = build_m2(layout, loader_parts(layout, ["00"] * 4)[1:])
    assert macro_counts(circ)[GateKind.TOFFOLI] == 8
    lowered = lower_circuit(circ)
    assert resource_tally(lowered).t_depth <= 4
    out = _index_state(layout, 2).apply(lowered)
    key = next(iter(out.amplitudes))
    assert register_bits(layout.register_sizes, key, D) == 0


def test_m2_macro_count_and_block_depth_n3m2():
    layout = QdamLayout(3, 2)
    circ = build_m2(layout, loader_parts(layout, ["00"] * 8)[1:])
    assert macro_counts(circ)[GateKind.TOFFOLI] == 16
    assert resource_tally(lower_circuit(circ)).t_depth <= 4


def test_qdam_depth_bound_n2m2():
    layout = QdamLayout(2, 2)
    lowered = lower_circuit(build_qdam(layout, toy_db(2)))
    assert resource_tally(lowered).t_depth <= 8  # 4n


def test_qdam_on_uniform_state_yields_equal_branches():
    layout = QdamLayout(3, 3)
    db = toy_db(3, value_width=2)
    sizes = layout.register_sizes
    from qsearch.circuit import Circuit

    state = SparseState(layout.total_qubits)
    state = state.apply(Circuit(sizes, [gate(GateKind.H, b) for b in range(3)]))
    state = state.apply(lower_circuit(build_qdam(layout, db)))
    assert state.support() == 8
    amp = 1 / math.sqrt(8)
    for key, value in state.amplitudes.items():
        assert abs(abs(to_complex(value, state.k)) - amp) < 1e-12
        index = register_bits(layout.register_sizes, key, B)
        data = format(register_bits(layout.register_sizes, key, D), "03b")
        assert data == db.keys()[index]


def test_qdam_inverse_restores_every_basis_input():
    layout = QdamLayout(2, 2)
    db = toy_db(2)
    macro = build_qdam(layout, db)
    forward = lower_circuit(macro)
    backward = lower_circuit(macro.inverted())
    for value in range(4):
        start = _index_state(layout, value)
        out = start.apply(forward).apply(backward)
        assert out.support() == 1
        key, amp = next(iter(out.amplitudes.items()))
        assert key == next(iter(start.amplitudes))
        assert abs(abs(to_complex(amp, out.k)) - 1) < 1e-12


def test_naive_matches_optimized_on_index_data_marginals():
    db = toy_db(1, value_width=2)
    opt_layout = QdamLayout(1, 1)
    naive_loader = build_naive_qdam(1, 1, db)
    opt = lower_circuit(build_qdam(opt_layout, db))
    naive_sizes = naive_loader.register_sizes
    naive = lower_circuit(Circuit(naive_sizes, naive_loader.gates))
    for value in range(2):
        out_o = _index_state(opt_layout, value).apply(opt)
        key_o = next(iter(out_o.amplitudes))
        out_n = SparseState.basis(
            naive.total_qubits, basis_pattern(naive_sizes, {B: value}),
        ).apply(naive)
        key_n = next(iter(out_n.amplitudes))
        data = register_bits(opt_layout.register_sizes, key_o, D)
        assert data == register_bits(naive_sizes, key_n, D)
        assert register_bits(naive_sizes, key_n, B) == value


def test_naive_macro_count():
    circ = build_naive_qdam(3, 2, ["00"] * 8)
    assert macro_counts(circ)[GateKind.MCZ] == 16  # m * 2^n


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.randoms(use_true_random=False))
def test_every_macro_has_three_distinct_operands(n, m, rng):
    # the builders emit macro literals past ``gate()``, and the scheduler
    # unpacks every TOFFOLI and MCZ as three operands
    keys = ["".join(rng.choice("01") for _ in range(m)) for _ in range(1 << n)]
    kernel = build_kernel_circuits(QdamLayout(n, m), keys, rng.choice(keys)).kernel()
    naive = build_naive_qdam(n, m, keys)
    macros = [ops for circ in (kernel, naive) for kind, ops in circ.gates
              if kind is GateKind.TOFFOLI or kind is GateKind.MCZ]
    assert macros and all(len(set(ops)) == len(ops) == 3 for ops in macros)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_naive_loader_equals_one_ladder_per_record_bit(n):
    rng = random.Random(400 + n)
    for m in (1, 2, 3):
        keys = ["".join(rng.choice("01") for _ in range(m)) for _ in range(1 << n)]
        flipped = ["".join("1" if b == "0" else "0" for b in key) for key in keys]
        for pattern in (keys, flipped):  # between them, every database X
            circ = build_naive_qdam(n, m, pattern)
            assert circ.gates == naive_loader_gates(n, m, pattern)
            # n = 1 has no chain; each further index bit adds an up and a
            # down Toffoli to every one of the m * 2^n ladders
            assert macro_counts(circ).get(GateKind.TOFFOLI, 0) == (
                2 * (n - 1) * m << n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stage2_record_block_equals_one_layer_per_record(n):
    rng = random.Random(500 + n)
    for m in (1, 2, 3, 4):  # m = 1 has no fan-out lease
        layout = QdamLayout(n, m)
        keys = ["".join(rng.choice("01") for _ in range(m)) for _ in range(1 << n)]
        stage2 = build_m2(layout, loader_parts(layout, keys)[1:])
        assert stage2.gates == stage2_per_record_gates(layout, keys)


def test_every_builder_emits_plain_tuple_gates():
    # a NamedTuple or tuple subclass would cost a Python-level __new__ per gate
    layout = QdamLayout(3, 2)
    keys = ["01", "10", "11", "00", "01", "10", "11", "00"]
    circuits = build_kernel_circuits(layout, keys, "10")
    streams = [
        circuits.stage1, circuits.stage2, circuits.loader,
        circuits.target_reflection, circuits.diffusion, circuits.kernel(),
        circuits.loader.inverted(), lower_circuit(circuits.loader),
        build_naive_qdam(3, 2, keys),
    ]
    for circuit in streams:
        assert all(type(g) is tuple and type(g[1]) is tuple for g in circuit.gates)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_emitted_gate_list_passes_the_gate_check(n):
    # a Circuit stores its gates unchecked, so every builder's output is
    # checked here: arity, distinct operands and every qubit in the width
    rng = random.Random(600 + n)
    for m in (1, 2, 3, 4):
        layout = QdamLayout(n, m)
        keys = ["".join(rng.choice("01") for _ in range(m)) for _ in range(1 << n)]
        circuits = build_kernel_circuits(layout, keys, rng.choice(keys))
        parts = [Circuit(layout.register_sizes, part.gates)
                 for part in circuits.loader_parts]
        kernel, naive = circuits.kernel(), build_naive_qdam(n, m, keys)
        for circuit in (circuits.stage1, *parts, circuits.loader,
                        circuits.loader_inverse, circuits.target_reflection,
                        circuits.diffusion, kernel, lower_circuit(kernel),
                        Circuit(naive.register_sizes, naive.gates)):
            check_gates(circuit)


def test_shape_mismatch_rejected():
    layout = QdamLayout(2, 2)
    with pytest.raises(CircuitError):
        loader_parts(layout, ["00"] * 3)
    with pytest.raises(CircuitError):
        loader_parts(layout, ["000"] * 4)
