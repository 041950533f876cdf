"""Sparse and dense simulation backends."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qsearch.circuit import Circuit, GateKind, QubitId, Register, gate, q_index
from qsearch.decompose import lower_circuit
from qsearch.errors import CircuitError, DenseCapError, MacroGateError
from qsearch.qdam import QdamLayout, build_qdam
from qsearch.sim import (
    SparseState,
    basis_pattern,
    dense_statevector,
    index_distribution,
)

from conftest import random_lowered_circuit, toy_db

A = Register.ANCILLA


def _anc(i):
    return QubitId(A, i)


def test_hadamard_splits_support():
    state = SparseState.zero({A: 1}).apply(Circuit({A: 1}, [gate(GateKind.H, _anc(0))]))
    assert state.support() == 2
    r = 1 / math.sqrt(2)
    assert abs(state.amplitude(0) - r) < 1e-15
    assert abs(state.amplitude(1) - r) < 1e-15


def test_t_phase_on_one():
    circ = Circuit({A: 1}, [gate(GateKind.X, _anc(0)), gate(GateKind.T, _anc(0))])
    state = SparseState.zero({A: 1}).apply(circ)
    expected = complex(math.sqrt(0.5), math.sqrt(0.5))
    assert abs(state.amplitude(1) - expected) < 1e-15


def test_diagonal_gates_preserve_support_keys():
    rng = np.random.default_rng(0)
    base = random_lowered_circuit(rng, 4, 30)
    state = SparseState.zero({A: 4}).apply(base)
    keys = set(state.amplitudes)
    diag = Circuit({A: 4}, [gate(GateKind.Z, _anc(0)), gate(GateKind.S, _anc(1)),
                            gate(GateKind.T, _anc(2)), gate(GateKind.CZ, _anc(0), _anc(3))])
    after = state.apply(diag)
    assert set(after.amplitudes) == keys


def test_full_qdam_on_uniform_index_state_has_support_eight():
    layout = QdamLayout(3, 3)
    db = toy_db(3, value_width=2)
    sizes = layout.register_sizes
    state = SparseState.zero(sizes)
    state = state.apply(Circuit(sizes, [gate(GateKind.H, q_index(b)) for b in range(3)]))
    state = state.apply(lower_circuit(build_qdam(layout, db)))
    assert state.support() == 8
    for amp in state.amplitudes.values():
        assert abs(abs(amp) - 1 / math.sqrt(8)) < 1e-12


def test_index_distribution_uniform_and_phase_invariant():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    state = SparseState.zero(sizes).apply(
        Circuit(sizes, [gate(GateKind.H, q_index(0)), gate(GateKind.H, q_index(1))])
    )
    dist = index_distribution(state)
    assert np.abs(dist - 0.25).max() < 1e-10
    phased = state.apply(Circuit(sizes, [gate(GateKind.Z, q_index(0)),
                                         gate(GateKind.T, q_index(1))]))
    assert np.abs(index_distribution(phased) - 0.25).max() < 1e-10


def test_norm_is_preserved():
    rng = np.random.default_rng(42)
    circ = random_lowered_circuit(rng, 6, 400)
    state = SparseState.zero({A: 6}).apply(circ)
    assert abs(state.norm() - 1.0) < 1e-10


def test_interference_prunes_support():
    # H Z H maps |0> -> |1>: the |0> branch cancels and must be dropped
    gates = [gate(GateKind.H, _anc(0)), gate(GateKind.Z, _anc(0)),
             gate(GateKind.H, _anc(0))]
    state = SparseState.zero({A: 1}).apply(Circuit({A: 1}, gates))
    assert state.support() == 1
    assert abs(state.amplitude(1) - 1) < 1e-12


def test_dense_and_sparse_agree_elementwise():
    rng = np.random.default_rng(123)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        circ = random_lowered_circuit(rng, n, 80)
        dense = dense_statevector(circ, 0)
        sparse = SparseState.zero({A: n}).apply(circ).to_dense()
        assert np.abs(dense - sparse).max() < 1e-10


def test_sparse_rejects_macro_circuits():
    circ = Circuit({A: 3}, [gate(GateKind.TOFFOLI, _anc(0), _anc(1), _anc(2))])
    with pytest.raises(MacroGateError):
        SparseState.zero({A: 3}).apply(circ)


def test_register_mismatch_rejected():
    circ = Circuit({A: 3}, [gate(GateKind.X, _anc(0))])
    with pytest.raises(CircuitError):
        SparseState.zero({A: 2}).apply(circ)


def test_to_dense_cap():
    state = SparseState.zero({A: 40})
    with pytest.raises(DenseCapError):
        state.to_dense()


def test_basis_pattern_composition():
    sizes = {Register.BINARY_INDEX: 2, Register.DATA: 3, A: 1}
    pattern = basis_pattern(sizes, {Register.BINARY_INDEX: 0b10,
                                    Register.DATA: 0b011})
    # layout: [index 2 bits][data 3 bits][ancilla 1 bit], MSB first
    assert pattern == (0b10 << 4) | (0b011 << 1)
    state = SparseState.basis(sizes, pattern)
    assert state.register_bits(pattern, Register.DATA) == 0b011


def test_index_distribution_requires_index_register():
    with pytest.raises(CircuitError):
        index_distribution(SparseState.zero({A: 2}))
