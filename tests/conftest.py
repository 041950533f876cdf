"""Shared test helpers: toy databases, independent matrix oracles, and a
seeded random-circuit generator."""
from __future__ import annotations

import numpy as np
import pytest

from qsearch.circuit import Circuit, Gate, GateKind, Register, gate
from qsearch.database import Database, FieldSpec, Record

from oracles import to_unitary

LOWERED_1Q = [GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
              GateKind.T, GateKind.TDG]
LOWERED_2Q = [GateKind.CNOT, GateKind.CZ]


def toy_db(n: int, value_width: int = 4) -> Database:
    """Power-of-two database whose keys are all n-bit patterns in order."""
    fields = (FieldSpec("key", n), FieldSpec("val", value_width))
    records = tuple(
        Record({
            "key": format(i, f"0{n}b"),
            "val": format((i * 7 + 3) % (1 << value_width), f"0{value_width}b"),
        })
        for i in range(1 << n)
    )
    return Database(fields=fields, records=records, key_field="key")


def random_lowered_circuit(rng: np.random.Generator, n_qubits: int,
                           n_gates: int) -> Circuit:
    qubits = list(range(n_qubits))  # flat indices of the ANCILLA register
    gates: list[Gate] = []
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            kind = LOWERED_2Q[rng.integers(len(LOWERED_2Q))]
            gates.append(gate(kind, qubits[a], qubits[b]))
        else:
            kind = LOWERED_1Q[rng.integers(len(LOWERED_1Q))]
            gates.append(gate(kind, qubits[rng.integers(n_qubits)]))
    return Circuit({Register.ANCILLA: n_qubits}, gates)


def ideal_toffoli_matrix(k: int, c1: int, c2: int, t: int) -> np.ndarray:
    """Permutation matrix of a Toffoli over k qubits (bit 0 = leftmost)."""
    dim = 1 << k
    mat = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        bits = [(b >> (k - 1 - i)) & 1 for i in range(k)]
        if bits[c1] and bits[c2]:
            bits[t] ^= 1
        out = 0
        for bit in bits:
            out = (out << 1) | bit
        mat[out, b] = 1.0
    return mat


def ideal_mcz_matrix(k: int) -> np.ndarray:
    """Diagonal phase flip of the all-ones branch over k qubits."""
    mat = np.eye(1 << k, dtype=complex)
    mat[-1, -1] = -1.0
    return mat


def columns_on_zero_ancilla(lowered: Circuit, n_main: int, n_anc: int) -> np.ndarray:
    """Operator block on the first ``n_main`` qubits for inputs with all
    trailing ancillas |0>; asserts the ancillas come back clean."""
    unitary = to_unitary(lowered)
    dim = 1 << n_main
    anc_mask = (1 << n_anc) - 1
    block = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        full = unitary[:, col << n_anc]
        for idx in np.nonzero(np.abs(full) > 1e-13)[0]:
            assert (int(idx) & anc_mask) == 0, "borrowed ancilla left dirty"
            block[int(idx) >> n_anc, col] = full[idx]
    return block
