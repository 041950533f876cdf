"""Sparse and dense simulation backends."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.circuit import Circuit, GateKind, Register, gate
from qsearch.decompose import lower_circuit
from qsearch.errors import CircuitError
from qsearch.qdam import QdamLayout
from qsearch.sim import (
    SparseState,
    SlicedState,
    negate,
    reflect_about_uniform,
)

from conftest import random_lowered_circuit, toy_db
from oracles import (
    DenseCapError,
    amplitude,
    basis_pattern,
    build_qdam,
    dense_statevector,
    gatewise_apply,
    norm,
    register_bits,
    to_dense,
    walsh_hadamard,
)

A = Register.ANCILLA


def _anc(i, index_bits=0):
    """Flat index of ANCILLA:i after ``index_bits`` binary index qubits."""
    return index_bits + i


def test_hadamard_splits_support():
    state = SparseState(1).apply(Circuit({A: 1}, [gate(GateKind.H, _anc(0))]))
    assert state.support() == 2
    r = 1 / math.sqrt(2)
    assert abs(amplitude(state, 0) - r) < 1e-15
    assert abs(amplitude(state, 1) - r) < 1e-15


def test_t_phase_on_one():
    circ = Circuit({A: 1}, [gate(GateKind.X, _anc(0)), gate(GateKind.T, _anc(0))])
    state = SparseState(1).apply(circ)
    expected = complex(math.sqrt(0.5), math.sqrt(0.5))
    assert abs(amplitude(state, 1) - expected) < 1e-15


def test_diagonal_gates_preserve_support_keys():
    rng = np.random.default_rng(0)
    base = random_lowered_circuit(rng, 4, 30)
    state = SparseState(4).apply(base)
    keys = set(state.amplitudes)
    diag = Circuit({A: 4}, [gate(GateKind.Z, _anc(0)), gate(GateKind.S, _anc(1)),
                            gate(GateKind.T, _anc(2)), gate(GateKind.CZ, _anc(0), _anc(3))])
    after = state.apply(diag)
    assert set(after.amplitudes) == keys


def test_full_qdam_on_uniform_index_state_has_support_eight():
    layout = QdamLayout(3, 3)
    db = toy_db(3, value_width=2)
    sizes = layout.register_sizes
    state = SparseState(layout.total_qubits)
    state = state.apply(Circuit(sizes, [gate(GateKind.H, b) for b in range(3)]))
    state = state.apply(lower_circuit(build_qdam(layout, db)))
    assert state.support() == 8
    for amp in state.amplitudes.values():
        assert abs(abs(amp) - 1 / math.sqrt(8)) < 1e-12


def test_index_probabilities_uniform_and_phase_invariant():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    state = SparseState(3).apply(
        Circuit(sizes, [gate(GateKind.H, 0), gate(GateKind.H, 1)])
    )
    labels = [basis_pattern(sizes, {Register.BINARY_INDEX: q}) for q in range(4)]
    dist = np.array([abs(amplitude(state, k)) ** 2 for k in labels])
    assert np.abs(dist - 0.25).max() < 1e-10
    phased = state.apply(Circuit(sizes, [gate(GateKind.Z, 0),
                                         gate(GateKind.T, 1)]))
    dist = np.array([abs(amplitude(phased, k)) ** 2 for k in labels])
    assert np.abs(dist - 0.25).max() < 1e-10


def test_norm_is_preserved():
    rng = np.random.default_rng(42)
    circ = random_lowered_circuit(rng, 6, 400)
    state = SparseState(6).apply(circ)
    assert abs(norm(state) - 1.0) < 1e-10


def test_interference_prunes_support():
    # H Z H maps |0> -> |1>: the |0> branch cancels and must be dropped
    gates = [gate(GateKind.H, _anc(0)), gate(GateKind.Z, _anc(0)),
             gate(GateKind.H, _anc(0))]
    state = SparseState(1).apply(Circuit({A: 1}, gates))
    assert state.support() == 1
    assert abs(amplitude(state, 1) - 1) < 1e-12


def test_dense_and_sparse_agree_elementwise():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        circ = random_lowered_circuit(rng, n, 80)
        dense = dense_statevector(circ, 0)
        sparse = to_dense(SparseState(n).apply(circ))
        assert np.abs(dense - sparse).max() < 1e-10


def test_sparse_rejects_macro_circuits():
    circ = Circuit({A: 3}, [gate(GateKind.TOFFOLI, _anc(0), _anc(1), _anc(2))])
    with pytest.raises(CircuitError, match="requires a lowered circuit"):
        SparseState(3).apply(circ)


def test_simulators_reject_a_macro_gate_mid_stream():
    state = SparseState(3).apply(Circuit({A: 3}, [gate(GateKind.H, _anc(0))]))
    before = list(state.amplitudes.items())
    lowered = [gate(GateKind.X, _anc(2)), gate(GateKind.T, _anc(0)),
               gate(GateKind.CNOT, _anc(0), _anc(1)), gate(GateKind.H, _anc(2)),
               gate(GateKind.CZ, _anc(1), _anc(2))]
    toffoli = gate(GateKind.TOFFOLI, _anc(0), _anc(1), _anc(2))
    for gates in (
        lowered + [toffoli],                   # the last gate
        [toffoli] + lowered,                   # in the first H-free run
        lowered[:4] + [toffoli] + lowered[4:],  # right after an H
        lowered[:3] + [gate(GateKind.MCZ, _anc(0), _anc(2), _anc(1))] + lowered[3:],
    ):
        circ = Circuit({A: 3}, gates)
        with pytest.raises(CircuitError, match="requires a lowered circuit"):
            state.apply(circ)
        assert list(state.amplitudes.items()) == before
        with pytest.raises(CircuitError, match="requires a lowered circuit"):
            gatewise_apply(state, circ)
        with pytest.raises(CircuitError, match="requires a lowered circuit"):
            dense_statevector(circ, 0)


def _assert_exactly_equal(got, expected):
    """Same keys in the same order, bitwise-equal amplitudes, same peak.
    ``repr`` round-trips a float exactly and tells -0.0 from 0.0."""
    assert ([(k, repr(a)) for k, a in got.amplitudes.items()]
            == [(k, repr(a)) for k, a in expected.amplitudes.items()])
    assert got.peak_support == expected.peak_support


@pytest.mark.parametrize("gates", [
    [],
    [gate(GateKind.H, _anc(q)) for q in (0, 1, 2, 0, 2, 1, 1)],
], ids=["empty", "h-only"])
def test_apply_on_edge_circuits_equals_the_gatewise_oracle(gates):
    start = SparseState(3, {0b000: 0.6 + 0j, 0b101: -0.8j, 0b011: 0.1 + 0j})
    circ = Circuit({A: 3}, gates)
    _assert_exactly_equal(start.apply(circ), gatewise_apply(start, circ))


# every lowered kind, with H drawn four times as often as any other
_RUN_MIX = [GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T,
            GateKind.TDG, GateKind.CNOT, GateKind.CZ] + [GateKind.H] * 4


@st.composite
def _lowered_runs(draw):
    width = draw(st.integers(1, 6))
    kinds = _RUN_MIX if width > 1 else [k for k in _RUN_MIX
                                        if k not in (GateKind.CNOT, GateKind.CZ)]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        arity = 2 if kind in (GateKind.CNOT, GateKind.CZ) else 1
        order = draw(st.permutations(range(width)))
        gates.append(gate(kind, *order[:arity]))
    labels = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                           max_size=8, unique=True))
    parts = st.floats(-1, 1, allow_nan=False)
    amps = {k: complex(draw(parts), draw(parts)) for k in labels}
    return SparseState(width, amps), Circuit({A: width}, gates)


@settings(max_examples=300, deadline=None)
@given(_lowered_runs())
def test_apply_equals_the_gatewise_oracle(case):
    start, circ = case
    before = list(start.amplitudes.items())
    _assert_exactly_equal(start.apply(circ), gatewise_apply(start, circ))
    assert list(start.amplitudes.items()) == before


def _span_free(circuit):
    """The same gates with no fragment spans: ``apply`` runs every gate."""
    return Circuit(circuit.register_sizes, circuit.gates)


def _branch_start(layout, q):
    return SparseState.basis(layout.total_qubits, basis_pattern(
        layout.register_sizes, {Register.BINARY_INDEX: q}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_equals_the_gatewise_oracle_on_every_loader_branch(n):
    # bitwise equality holds only when every gate runs: a skipped fragment
    # gives exactly 1 where running it gives 1.0000000000000002
    layout = QdamLayout(n, n)
    lowered = _span_free(lower_circuit(build_qdam(layout, toy_db(n))))
    assert lowered.fragment_spans == ()
    for q in range(1 << n):
        start = _branch_start(layout, q)
        _assert_exactly_equal(start.apply(lowered), gatewise_apply(start, lowered))


def _loader_cases():
    """toy_db(n) at n 1..3, and random keys at n <= 4, as (layout, keys)."""
    rng = np.random.default_rng(26)
    for n in (1, 2, 3):
        yield pytest.param(QdamLayout(n, n), toy_db(n).keys(), id=f"toy-{n}")
    for n, m in ((1, 3), (2, 1), (3, 2), (4, 2), (4, 3)):
        keys = ["".join(map(str, rng.integers(0, 2, m))) for _ in range(1 << n)]
        yield pytest.param(QdamLayout(n, m), keys, id=f"random-{n}-{m}")


@pytest.mark.parametrize("layout, keys", _loader_cases())
def test_apply_skipping_fragments_agrees_with_the_gatewise_oracle(layout, keys):
    lowered = lower_circuit(build_qdam(layout, keys))
    assert lowered.fragment_spans
    for q in range(1 << layout.n):
        start = _branch_start(layout, q)
        got, expected = start.apply(lowered), gatewise_apply(start, lowered)
        assert list(got.amplitudes) == list(expected.amplitudes)
        for label, a in got.amplitudes.items():
            assert abs(a - expected.amplitudes[label]) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
def test_no_fragment_runs_where_no_toffoli_fires(n):
    # on branch 0 of toy_db(n) every stage-1 Toffoli has a 0 control, and
    # every record bit of key 0 is 0, so nothing fires and no H splits the state
    layout = QdamLayout(n, n)
    lowered = lower_circuit(build_qdam(layout, toy_db(n)))
    start = _branch_start(layout, 0)
    assert start.apply(lowered).peak_support == 1
    assert start.apply(_span_free(lowered)).peak_support == 2


def test_register_mismatch_rejected():
    circ = Circuit({A: 3}, [gate(GateKind.X, _anc(0))])
    with pytest.raises(CircuitError):
        SparseState(2).apply(circ)


def test_to_dense_cap():
    state = SparseState(40)
    with pytest.raises(DenseCapError):
        to_dense(state)


def test_basis_pattern_composition():
    sizes = {Register.BINARY_INDEX: 2, Register.DATA: 3, A: 1}
    pattern = basis_pattern(sizes, {Register.BINARY_INDEX: 0b10,
                                    Register.DATA: 0b011})
    # layout: [index 2 bits][data 3 bits][ancilla 1 bit], MSB first
    assert pattern == (0b10 << 4) | (0b011 << 1)
    state = SparseState.basis(6, pattern)
    assert register_bits(sizes, next(iter(state.amplitudes)), Register.DATA) == 0b011


def test_sliced_state_requires_index_register():
    with pytest.raises(CircuitError):
        SlicedState(0, 2)
    with pytest.raises(CircuitError):
        SlicedState(3, 2)


# -- bit-sliced backend ------------------------------------------------------


def _branch_phase(state, branch):
    """Eighth turns of one branch, read from the three phase bit-planes."""
    return sum((plane >> branch & 1) << i for i, plane in enumerate(state.phase))


@pytest.mark.parametrize("seed", range(6))
def test_sliced_state_matches_sparse_on_every_branch(seed):
    rng = np.random.default_rng(seed)
    n, anc = 3, 4
    sizes = {Register.BINARY_INDEX: n, A: anc}
    qubits = list(range(n + anc))  # index qubits, then ancillas
    kinds = [GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T,
             GateKind.TDG, GateKind.CNOT, GateKind.CZ, GateKind.TOFFOLI,
             GateKind.MCZ]
    arity = {GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.TOFFOLI: 3, GateKind.MCZ: 3}
    gates = []
    for _ in range(60):
        kind = kinds[rng.integers(len(kinds))]
        width = arity.get(kind, 1)
        picked = rng.choice(len(qubits), size=width, replace=False)
        gates.append(gate(kind, *(qubits[i] for i in picked)))
    macro = Circuit(sizes, gates)
    sliced = SlicedState(n, n + anc).run(macro)
    lowered = lower_circuit(macro)
    for q in range(1 << n):
        out = SparseState.basis(n + anc, basis_pattern(sizes, {Register.BINARY_INDEX: q}))
        out = out.apply(lowered)
        assert list(out.amplitudes) == [sliced.basis_label(q)]
        turns = _branch_phase(sliced, q)
        expected = complex(math.cos(math.pi * turns / 4), math.sin(math.pi * turns / 4))
        assert abs(amplitude(out, sliced.basis_label(q)) - expected) < 1e-12


def test_sliced_state_is_value_semantic_and_rejects_h():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    start = SlicedState(2, 3)
    flipped = start.run(Circuit(sizes, [gate(GateKind.X, _anc(0, 2))]))
    assert start.columns[-1] == 0 and flipped.columns[-1] == 0b1111
    with pytest.raises(CircuitError):
        flipped.diagonal_signs()
    with pytest.raises(CircuitError):
        start.run(Circuit(sizes, [gate(GateKind.H, 0)]))
    with pytest.raises(CircuitError):
        start.run(Circuit({A: 4}, []))


def test_diagonal_signs_require_a_sign_diagonal():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    # CZ on the two index qubits negates branch 3 only
    cz = Circuit(sizes, [gate(GateKind.CZ, 0, 1)])
    assert SlicedState(2, 3).run(cz).diagonal_signs() == 0b1000
    # S on index qubit 1 is a quarter turn on branches 1 and 3
    s = Circuit(sizes, [gate(GateKind.S, 1)])
    with pytest.raises(CircuitError):
        SlicedState(2, 3).run(s).diagonal_signs()
    eight_t = Circuit(sizes, [gate(GateKind.T, 1)] * 8)
    assert SlicedState(2, 3).run(eight_t).diagonal_signs() == 0


def test_walsh_hadamard_is_the_unnormalised_hadamard_transform():
    n = 3
    values = [3, -1, 4, 1, -5, 9, 2, -6]
    hadamard = np.array([[1, 1], [1, -1]])
    full = hadamard
    for _ in range(n - 1):
        full = np.kron(full, hadamard)
    assert walsh_hadamard(values) == [int(v) for v in full @ np.array(values)]
    assert walsh_hadamard(walsh_hadamard(values)) == [v << n for v in values]
    assert negate([1, 2, 3], 0b101) == [-1, 2, -3]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_closed_form_diffusion_equals_the_walsh_hadamard_rounds(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        values = [int(v) for v in rng.integers(-1000, 1000, size=1 << n)]
        assert (reflect_about_uniform(values)
                == walsh_hadamard(negate(walsh_hadamard(values), 1)))
