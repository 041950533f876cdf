"""Test-only oracles: a dense state-vector backend, the Walsh-Hadamard
transform, the full loader, the naive loader built one ladder per record
bit, the kernel measurement over built gate lists, and the circuit helpers
that only tests use.

The dense backend applies lowered gates to a full numpy state vector (or
to a batch of columns for unitary extraction).  It shares no code with
the sparse or bit-sliced simulators, so it cross-validates them on small
circuits; the fragment-matrix proofs in ``test_decompose.py`` rest on it.
Bit conventions are those of :mod:`qsearch.circuit`: flat qubit g is bit
``total-1-g`` of a basis label.
"""
from __future__ import annotations

import json
import math

import numpy as np

from qsearch.circuit import (
    REGISTER_ORDER,
    Circuit,
    Gate,
    GateKind,
    Register,
    Schedule,
    gate,
    tally_flat,
)
from qsearch.decompose import mcz_ladder, shared_control_layer
from qsearch.errors import CircuitError, MacroGateError
from qsearch.qdam import _fold_fan_in, build_m1, build_m2
from qsearch.resources import ReportMode, ResourceReport

DEFAULT_DENSE_CAP = 14

_SQRT_HALF = math.sqrt(0.5)
_PHASES = {
    GateKind.Z: -1.0 + 0.0j,
    GateKind.S: 1.0j,
    GateKind.SDG: -1.0j,
    GateKind.T: complex(_SQRT_HALF, _SQRT_HALF),
    GateKind.TDG: complex(_SQRT_HALF, -_SQRT_HALF),
}


class DenseCapError(CircuitError):
    """Dense simulation requested above the qubit cap; use the sparse
    simulator instead."""


# -- dense backend ------------------------------------------------------------


def dense_apply(circuit: Circuit, array: np.ndarray) -> np.ndarray:
    """Apply a lowered circuit to axis 0 of ``array`` (vector or matrix),
    in place.  Raises :class:`MacroGateError` at the first macro gate."""
    k = circuit.total_qubits
    dim = 1 << k
    if array.shape[0] != dim:
        raise CircuitError("state dimension does not match the circuit")
    batch = array.reshape(dim, -1)
    idx = np.arange(dim)

    def pair_view(g: int) -> np.ndarray:
        return batch.reshape(1 << g, 2, -1)

    for kind, flats in circuit.gates:
        if kind is GateKind.H:
            v = pair_view(flats[0])
            a = v[:, 0].copy()
            b = v[:, 1].copy()
            v[:, 0] = (a + b) * _SQRT_HALF
            v[:, 1] = (a - b) * _SQRT_HALF
        elif kind is GateKind.X:
            v = pair_view(flats[0])
            a = v[:, 0].copy()
            v[:, 0] = v[:, 1]
            v[:, 1] = a
        elif kind in _PHASES:
            v = pair_view(flats[0])
            v[:, 1] = v[:, 1] * _PHASES[kind]
        elif kind is GateKind.CNOT:
            c, t = flats
            cbit = 1 << (k - 1 - c)
            tbit = 1 << (k - 1 - t)
            sel = (idx & cbit).astype(bool) & ~(idx & tbit).astype(bool)
            src = idx[sel]
            dst = src ^ tbit
            tmp = batch[src].copy()
            batch[src] = batch[dst]
            batch[dst] = tmp
        elif kind is GateKind.CZ:
            c, t = flats
            mask = (1 << (k - 1 - c)) | (1 << (k - 1 - t))
            sel = (idx & mask) == mask
            batch[sel] = -batch[sel]
        else:
            raise MacroGateError(
                f"simulation requires a lowered circuit, got {kind.value}"
            )
    return batch.reshape(array.shape)


def dense_statevector(
    circuit: Circuit,
    initial: int | np.ndarray = 0,
    max_qubits: int | None = None,
) -> np.ndarray:
    """Run a lowered circuit on a dense vector; ``initial`` is a basis label
    or a prepared vector.  ``max_qubits`` overrides the default cap."""
    k = circuit.total_qubits
    cap = max_qubits if max_qubits is not None else DEFAULT_DENSE_CAP
    if k > cap:
        raise DenseCapError(f"{k} qubits exceeds the dense cap {cap}")
    if isinstance(initial, np.ndarray):
        vec = initial.astype(np.complex128, copy=True)
    else:
        vec = np.zeros(1 << k, dtype=np.complex128)
        vec[initial] = 1.0
    return dense_apply(circuit, vec)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary by running the dense backend on identity columns."""
    dim = 1 << circuit.total_qubits
    return dense_apply(circuit, np.eye(dim, dtype=np.complex128))


def to_unitary(circuit: Circuit, max_qubits: int | None = None) -> np.ndarray:
    """Dense unitary of a lowered circuit, column ordering as documented.

    Only for small circuits; above the cap (``max_qubits``, default
    ``DEFAULT_DENSE_CAP`` = 14 qubits) raises :class:`DenseCapError`.
    """
    if not circuit.is_lowered:
        raise MacroGateError("to_unitary requires a lowered circuit")
    cap = max_qubits if max_qubits is not None else DEFAULT_DENSE_CAP
    if circuit.total_qubits > cap:
        raise DenseCapError(
            f"{circuit.total_qubits} qubits exceeds dense cap {cap}; "
            "use the sparse simulator instead"
        )
    return circuit_unitary(circuit)


def to_dense(state) -> np.ndarray:
    """A :class:`qsearch.sim.SparseState` as a dense vector."""
    if state.total_qubits > DEFAULT_DENSE_CAP:
        raise DenseCapError(f"{state.total_qubits} qubits exceeds the dense cap")
    vec = np.zeros(1 << state.total_qubits, dtype=np.complex128)
    for k, a in state.amplitudes.items():
        vec[k] = a
    return vec


def norm(state) -> float:
    return math.sqrt(sum((a * a.conjugate()).real for a in state.amplitudes.values()))


# -- integer rounds -----------------------------------------------------------


def walsh_hadamard(values: list[int]) -> list[int]:
    """Unnormalised Walsh-Hadamard transform: 2^(n/2) H^n, exactly, on a
    vector of 2^n integer amplitudes."""
    out = list(values)
    size = len(out)
    half = 1
    while half < size:
        for start in range(0, size, 2 * half):
            for i in range(start, start + half):
                a, b = out[i], out[i + half]
                out[i], out[i + half] = a + b, a - b
        half <<= 1
    return out


def success_probability_formula(database_size: int, iterations: int) -> float:
    """Closed-form branch probability after ``iterations`` kernel rounds."""
    theta = math.asin(1.0 / math.sqrt(database_size))
    return math.sin((2 * iterations + 1) * theta) ** 2


# -- circuits -----------------------------------------------------------------


def build_qdam(layout, db) -> Circuit:
    """Full loader: stage 1 then stage 2."""
    return build_m1(layout) + build_m2(layout, db)


def stage2_per_record_gates(layout, keys) -> tuple[Gate, ...]:
    """Stage 2 built one record at a time: a validated X per 1 bit of the
    database, then for record i one :func:`shared_control_layer` call on
    one-hot i over its pairs (database(i, j), load(i, j)) and its own fan-out
    lease, past the 2^(n-1) - 1 that stage 1 leases, then the fan-in of each
    data bit."""
    m = layout.m
    base = (1 << (layout.n - 1)) - 1
    gates = [gate(GateKind.X, layout.database_qubit(i, j))
             for i, key in enumerate(keys)
             for j, bit in enumerate(key) if bit == "1"]
    for i in range(len(keys)):
        pairs = [(layout.database_qubit(i, j), layout.load_qubit(i, j))
                 for j in range(m)]
        lease = layout.fanout_lease(base + i * (m - 1), m - 1)
        gates.extend(shared_control_layer(layout.onehot_qubit(i), pairs, lease))
    for j in range(m):
        column = [layout.load_qubit(i, j) for i in range(len(keys))]
        gates.extend(_fold_fan_in(column, layout.data_qubit(j)))
    return tuple(gates)


def naive_loader_gates(layout, keys) -> tuple[Gate, ...]:
    """The naive loader's gates, built one record bit at a time: a
    validated X per 1 bit of the database, then for record i the X
    conjugation of its 0 index bits around one :func:`mcz_ladder` call
    over ``(*index, database(i, j), data_j)`` per bit j, between two H."""
    n, m = layout.n, layout.m
    gates = [gate(GateKind.X, layout.database_qubit(i, j))
             for i, key in enumerate(keys)
             for j, bit in enumerate(key) if bit == "1"]
    ladder = layout.ladder_qubits()
    for i in range(len(keys)):
        pattern = format(i, f"0{n}b")
        conjugate = [gate(GateKind.X, b) for b in range(n) if pattern[b] == "0"]
        gates.extend(conjugate)
        for j in range(m):
            target = layout.data_qubit(j)
            gates.append(gate(GateKind.H, target))
            gates.extend(mcz_ladder(
                (*range(n), layout.database_qubit(i, j), target), ladder))
            gates.append(gate(GateKind.H, target))
        gates.extend(conjugate)
    return tuple(gates)


def flat_measure_kernel(circuits, iterations: int) -> ResourceReport:
    """:func:`qsearch.resources.measure_kernel` over the built gate lists:
    stage 2's materialized gates forward and standalone, and the loader's
    gates reversed as the inverse loader."""
    layout = circuits.layout
    total = layout.total_qubits
    kernel = Schedule(total)
    t_m1 = kernel.feed(circuits.stage1.gates).tally()
    t_loader = kernel.feed(circuits.stage2.gates).tally()
    t_kernel = (kernel.feed(circuits.target_reflection.gates)
                .feed(reversed(circuits.loader.gates))
                .feed(circuits.diffusion.gates).tally())
    t_m2 = tally_flat(circuits.stage2.gates, total)
    t_oracle = tally_flat(circuits.target_reflection.gates, total)
    t_diff = tally_flat(circuits.diffusion.gates, total)
    return ResourceReport(
        n=layout.n,
        m=layout.m,
        t_depth_m1=t_m1.t_depth,
        t_depth_m2=t_m2.t_depth,
        t_depth_qdam=t_loader.t_depth,
        t_depth_oracle_reflection=t_oracle.t_depth,
        t_depth_diffusion=t_diff.t_depth,
        t_depth_kernel=t_kernel.t_depth,
        query_count=iterations,
        mode=ReportMode.MEASURED,
        qubit_total=layout.total_qubits,
        t_count_total=t_kernel.t_count,
    )


def macro_counts(circuit: Circuit) -> dict[GateKind, int]:
    counts: dict[GateKind, int] = {}
    for kind, _ in circuit.gates:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


_IMPORT_NAME = {("CCX" if kind is GateKind.TOFFOLI else kind.value): kind
                for kind in GateKind}


def from_json(text: str) -> Circuit:
    """Parse :meth:`Circuit.export_json` output back into a circuit."""
    doc = json.loads(text)
    sizes = {Register(name): size for name, size in doc["registers"].items()}
    flat = {}
    for reg in REGISTER_ORDER:
        for offset in range(sizes.get(reg, 0)):
            flat[f"{reg.value}:{offset}"] = len(flat)
    gates = [gate(_IMPORT_NAME[entry["gate"]], *(flat[q] for q in entry["qubits"]))
             for entry in doc["gates"]]
    return Circuit(sizes, gates)
