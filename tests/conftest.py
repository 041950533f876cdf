"""Shared test helpers: toy databases, exact ideal matrices, and a seeded
random-circuit generator.  A matrix is a dict (row, col) -> its nonzero
:func:`oracles.exact` entries, as :func:`oracles.to_unitary` returns."""
from __future__ import annotations

import random

from qsearch.circuit import Circuit, Gate, GateKind, Register, gate
from qsearch.database import Database, FieldSpec, Record

from oracles import exact, exact_column

LOWERED_1Q = [GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
              GateKind.T, GateKind.TDG]
LOWERED_2Q = [GateKind.CNOT, GateKind.CZ]

ONE, MINUS_ONE = exact(1), exact(-1)
_HALF_ROOT = exact(1, 1)  # 1/sqrt(2)

# the textbook matrix of each lowered kind, operand 0 the most significant
# bit: w = e^(i pi/4) is (0, 1, 0, 0), i = w^2 and w^7 = -w^3
TEXTBOOK = {
    GateKind.H: {(0, 0): _HALF_ROOT, (0, 1): _HALF_ROOT,
                 (1, 0): _HALF_ROOT, (1, 1): exact(-1, 1)},
    GateKind.X: {(0, 1): ONE, (1, 0): ONE},
    GateKind.Z: {(0, 0): ONE, (1, 1): MINUS_ONE},
    GateKind.S: {(0, 0): ONE, (1, 1): exact((0, 0, 1, 0))},
    GateKind.SDG: {(0, 0): ONE, (1, 1): exact((0, 0, -1, 0))},
    GateKind.T: {(0, 0): ONE, (1, 1): exact((0, 1, 0, 0))},
    GateKind.TDG: {(0, 0): ONE, (1, 1): exact((0, 0, 0, -1))},
    GateKind.CNOT: {(0, 0): ONE, (1, 1): ONE, (3, 2): ONE, (2, 3): ONE},
    GateKind.CZ: {(0, 0): ONE, (1, 1): ONE, (2, 2): ONE, (3, 3): MINUS_ONE},
}


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


def random_keys(rng: random.Random, n: int, m: int) -> list[str]:
    """2^n random m-bit key patterns, repeats allowed."""
    return ["".join(rng.choice("01") for _ in range(m)) for _ in range(1 << n)]


def random_lowered_circuit(rng: random.Random, n_qubits: int,
                           n_gates: int) -> Circuit:
    """``n_gates`` lowered gates on ``n_qubits`` ANCILLA qubits: two-qubit
    with probability 0.4 where there are two qubits."""
    gates: list[Gate] = []
    for _ in range(n_gates):
        if n_qubits >= 2 and rng.random() < 0.4:
            gates.append(gate(rng.choice(LOWERED_2Q), *rng.sample(range(n_qubits), 2)))
        else:
            gates.append(gate(rng.choice(LOWERED_1Q), rng.randrange(n_qubits)))
    return Circuit({Register.ANCILLA: n_qubits}, gates)


def ideal_toffoli_matrix(k: int, *toffolis: tuple[int, int, int]) -> dict:
    """Permutation matrix of Toffolis (c1, c2, t) over k qubits (qubit 0
    the most significant bit), applied in order."""
    mat = {}
    for col in range(1 << k):
        row = col
        for c1, c2, t in toffolis:
            if row >> (k - 1 - c1) & 1 and row >> (k - 1 - c2) & 1:
                row ^= 1 << (k - 1 - t)
        mat[row, col] = ONE
    return mat


def ideal_flip_matrix(k: int, branch: int = -1) -> dict:
    """Diagonal phase flip of one branch over k qubits, the all-ones branch
    by default."""
    flipped = branch % (1 << k)
    return {(b, b): MINUS_ONE if b == flipped else ONE for b in range(1 << k)}


def ideal_reflection_matrix(n: int) -> dict:
    """I - 2|u><u| for the uniform state u on n qubits: 1 - 2^(1-n) on the
    diagonal, -2^(1-n) off it, with 2^(-n) = 1/sqrt(2)^(2n)."""
    size = 1 << n
    return {(row, col): exact(size * (row == col) - 2, 2 * n)
            for row in range(size) for col in range(size)
            if size * (row == col) != 2}


def columns_on_zero_ancilla(lowered: Circuit, n_main: int, n_anc: int) -> dict:
    """Operator block on the first ``n_main`` qubits for inputs with all
    trailing ancillas |0>; asserts the ancillas come back clean."""
    anc_mask = (1 << n_anc) - 1
    block = {}
    for col in range(1 << n_main):
        for row, value in exact_column(lowered, col << n_anc).items():
            assert row & anc_mask == 0, "borrowed ancilla left dirty"
            block[row >> n_anc, col] = value
    return block
