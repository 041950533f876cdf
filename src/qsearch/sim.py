"""Exact simulation backends.

``SparseState`` stores a normalized amplitude map keyed by basis integers
(bit conventions from :mod:`qsearch.circuit`), so register counts in the
hundreds are fine as long as the support stays small -- which the search
state does by construction.  Diagonal gates update phases in place;
H splits/recombines support; X/CNOT permute keys.  Amplitudes below the
drop tolerance (default 1e-14) are pruned so destructive interference does
not pollute the support.

The dense backend applies the same gates to a full numpy state vector (or
to a batch of columns for unitary extraction) and exists as a
cross-validation oracle for small circuits.
"""
from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .circuit import (
    Circuit,
    GateKind,
    Register,
    REGISTER_ORDER,
    dense_cap,
)
from .errors import CircuitError, DenseCapError, MacroGateError

DROP_TOLERANCE = 1e-14

_SQRT_HALF = math.sqrt(0.5)
_PHASES = {
    GateKind.Z: -1.0 + 0.0j,
    GateKind.S: 1.0j,
    GateKind.SDG: -1.0j,
    GateKind.T: complex(_SQRT_HALF, _SQRT_HALF),
    GateKind.TDG: complex(_SQRT_HALF, -_SQRT_HALF),
}

# compiled opcodes
_OP_H, _OP_X, _OP_PHASE, _OP_CNOT, _OP_CZ = range(5)


def _compile(circuit: Circuit) -> list[tuple]:
    """Turn a lowered circuit into mask-based instructions (cached)."""
    if circuit._compiled is not None:
        return circuit._compiled
    if not circuit.is_lowered:
        raise MacroGateError("simulation requires a lowered circuit")
    total = circuit.total_qubits
    ops: list[tuple] = []
    for kind, flats in circuit.flat_gates():
        masks = tuple(1 << (total - 1 - f) for f in flats)
        if kind is GateKind.H:
            ops.append((_OP_H, masks[0]))
        elif kind is GateKind.X:
            ops.append((_OP_X, masks[0]))
        elif kind is GateKind.CNOT:
            ops.append((_OP_CNOT, masks[0], masks[1]))
        elif kind is GateKind.CZ:
            ops.append((_OP_CZ, masks[0] | masks[1]))
        else:
            ops.append((_OP_PHASE, masks[0], _PHASES[kind]))
    circuit._compiled = ops
    return ops


class SparseState:
    """Amplitude map over the registers' basis labels.  Value-semantic:
    ``apply`` returns a new state and leaves the input untouched."""

    __slots__ = ("register_sizes", "total_qubits", "amplitudes", "tolerance",
                 "peak_support")

    def __init__(
        self,
        register_sizes: Mapping[Register, int],
        amplitudes: Mapping[int, complex] | None = None,
        tolerance: float = DROP_TOLERANCE,
    ):
        self.register_sizes = {reg: int(register_sizes.get(reg, 0))
                               for reg in REGISTER_ORDER}
        self.total_qubits = sum(self.register_sizes.values())
        self.tolerance = tolerance
        if amplitudes is None:
            amplitudes = {0: 1.0 + 0.0j}
        self.amplitudes = dict(amplitudes)
        self.peak_support = len(self.amplitudes)

    @classmethod
    def zero(cls, register_sizes: Mapping[Register, int]) -> "SparseState":
        return cls(register_sizes)

    @classmethod
    def basis(cls, register_sizes: Mapping[Register, int], pattern: int) -> "SparseState":
        return cls(register_sizes, {pattern: 1.0 + 0.0j})

    # -- queries ---------------------------------------------------------

    def support(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return math.sqrt(sum((a * a.conjugate()).real for a in self.amplitudes.values()))

    def amplitude(self, pattern: int) -> complex:
        return self.amplitudes.get(pattern, 0.0 + 0.0j)

    def probability(self, pattern: int) -> float:
        a = self.amplitudes.get(pattern)
        return 0.0 if a is None else (a * a.conjugate()).real

    def register_bits(self, pattern: int, register: Register) -> int:
        """Value of one register inside a basis label."""
        size = self.register_sizes[register]
        shift = register_shift(self.register_sizes, register)
        return (pattern >> shift) & ((1 << size) - 1)

    def to_dense(self) -> np.ndarray:
        if self.total_qubits > dense_cap():
            raise DenseCapError(
                f"{self.total_qubits} qubits exceeds the dense cap"
            )
        vec = np.zeros(1 << self.total_qubits, dtype=np.complex128)
        for k, a in self.amplitudes.items():
            vec[k] = a
        return vec

    # -- evolution -------------------------------------------------------

    def apply(self, circuit: Circuit) -> "SparseState":
        if circuit.total_qubits != self.total_qubits:
            raise CircuitError("circuit registers do not match the state")
        ops = _compile(circuit)
        amps = dict(self.amplitudes)
        tol = self.tolerance
        peak = len(amps)
        for op in ops:
            code = op[0]
            if code == _OP_PHASE:
                _, mask, phase = op
                for k, a in amps.items():
                    if k & mask:
                        amps[k] = a * phase
            elif code == _OP_CNOT:
                _, cmask, tmask = op
                amps = {
                    (k ^ tmask) if (k & cmask) else k: a
                    for k, a in amps.items()
                }
            elif code == _OP_H:
                _, mask = op
                out: dict[int, complex] = {}
                get = out.get
                for k, a in amps.items():
                    ar = a * _SQRT_HALF
                    k0 = k & ~mask
                    k1 = k | mask
                    if k & mask:
                        v0 = get(k0)
                        out[k0] = ar if v0 is None else v0 + ar
                        v1 = get(k1)
                        out[k1] = -ar if v1 is None else v1 - ar
                    else:
                        v0 = get(k0)
                        out[k0] = ar if v0 is None else v0 + ar
                        v1 = get(k1)
                        out[k1] = ar if v1 is None else v1 + ar
                amps = {k: a for k, a in out.items() if abs(a) > tol}
                if len(amps) > peak:
                    peak = len(amps)
            elif code == _OP_X:
                _, mask = op
                amps = {k ^ mask: a for k, a in amps.items()}
            else:  # _OP_CZ
                _, mask = op
                for k, a in amps.items():
                    if (k & mask) == mask:
                        amps[k] = -a
        out_state = SparseState(self.register_sizes, amps, self.tolerance)
        out_state.peak_support = max(peak, self.peak_support)
        return out_state


def register_shift(register_sizes: Mapping[Register, int], register: Register) -> int:
    """Bit position (from the least significant end) of a register's last
    qubit inside a basis label."""
    shift = 0
    seen = False
    for reg in REGISTER_ORDER:
        size = register_sizes.get(reg, 0)
        if reg is register:
            seen = True
            continue
        if seen:
            shift += size
    return shift


def basis_pattern(
    register_sizes: Mapping[Register, int], assignments: Mapping[Register, int]
) -> int:
    """Compose a basis label from per-register values (unassigned -> 0)."""
    pattern = 0
    for reg, value in assignments.items():
        size = register_sizes.get(reg, 0)
        if value < 0 or value >= (1 << size):
            raise CircuitError(f"value {value} does not fit register {reg.value}")
        pattern |= value << register_shift(register_sizes, reg)
    return pattern


def index_distribution(state: SparseState) -> np.ndarray:
    """Marginal probability over the binary-index register."""
    n = state.register_sizes[Register.BINARY_INDEX]
    if n == 0:
        raise CircuitError("state has no binary-index register")
    shift = state.total_qubits - n
    dist = np.zeros(1 << n, dtype=np.float64)
    for k, a in state.amplitudes.items():
        dist[k >> shift] += (a * a.conjugate()).real
    return dist


# -- dense backend ---------------------------------------------------------


def _dense_apply(circuit: Circuit, array: np.ndarray) -> np.ndarray:
    """Apply a lowered circuit to axis 0 of ``array`` (vector or matrix)."""
    if not circuit.is_lowered:
        raise MacroGateError("simulation requires a lowered circuit")
    k = circuit.total_qubits
    dim = 1 << k
    if array.shape[0] != dim:
        raise CircuitError("state dimension does not match the circuit")
    batch = array.reshape(dim, -1)
    idx_cache: dict[int, np.ndarray] = {}

    def pair_view(g: int) -> np.ndarray:
        return batch.reshape(1 << g, 2, -1)

    for kind, flats in circuit.flat_gates():
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
            idx = idx_cache.get(-1)
            if idx is None:
                idx = np.arange(dim)
                idx_cache[-1] = idx
            cbit = 1 << (k - 1 - c)
            tbit = 1 << (k - 1 - t)
            sel = (idx & cbit).astype(bool) & ~(idx & tbit).astype(bool)
            src = idx[sel]
            dst = src ^ tbit
            tmp = batch[src].copy()
            batch[src] = batch[dst]
            batch[dst] = tmp
        else:  # CZ
            c, t = flats
            idx = idx_cache.get(-1)
            if idx is None:
                idx = np.arange(dim)
                idx_cache[-1] = idx
            mask = (1 << (k - 1 - c)) | (1 << (k - 1 - t))
            sel = (idx & mask) == mask
            batch[sel] = -batch[sel]
    return batch.reshape(array.shape)


def dense_statevector(
    circuit: Circuit,
    initial: int | np.ndarray = 0,
    max_qubits: int | None = None,
) -> np.ndarray:
    """Run a lowered circuit on a dense vector; ``initial`` is a basis label
    or a prepared vector.  ``max_qubits`` overrides the default cap."""
    k = circuit.total_qubits
    cap = max_qubits if max_qubits is not None else dense_cap()
    if k > cap:
        raise DenseCapError(f"{k} qubits exceeds the dense cap {cap}")
    if isinstance(initial, np.ndarray):
        vec = initial.astype(np.complex128, copy=True)
    else:
        vec = np.zeros(1 << k, dtype=np.complex128)
        vec[initial] = 1.0
    return _dense_apply(circuit, vec)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full unitary by running the dense backend on identity columns."""
    dim = 1 << circuit.total_qubits
    return _dense_apply(circuit, np.eye(dim, dtype=np.complex128))
