"""Exact simulation backends, each dispatching on the gate kind.  A state
knows only its flat width, the circuit's ``total_qubits``: gate operands
are flat qubit indices, and flat qubit g is bit ``total-1-g`` of a basis
label (conventions of :mod:`qsearch.circuit`).  Where a register sits is
the layouts' business (:mod:`qsearch.qdam`); callers read registers out of
a label through them.

The search hot path never simulates Clifford+T gates.  Loader, target
reflection and inverse loader are reversible permutations with phases, so
:class:`SlicedState` runs their *macro* circuits on every index branch at
once, bit-sliced as in bitslice DES (Biham, FSE 1997): each qubit is one
Python int whose bit q belongs to index branch q.  X, CNOT and TOFFOLI are
integer XOR/AND, and the diagonal gates add eighth turns to a per-branch
counter mod 8 held in three bit-planes, so every phase is exact.  The only
H gates sit at the two ends of the diffusion; :func:`diffusion_signs`
splits them off and bit-slices the rest, and when the rest flips index
branch 0 alone the whole diffusion is the closed form
:func:`reflect_about_uniform`.

``SparseState`` stores a normalized amplitude map keyed by basis integers
and applies *lowered* circuits; a macro gate raises
:class:`CircuitError`.  It is the reference the bit-sliced path is
tested against on Clifford+T, and the search's reload check: one branch
through the lowered loader.  It makes one pass per H-free run of the
circuit: every gate but H maps a basis label to one label times a phase,
so each label goes through the whole run in one inner loop, and only H
splits and recombines the support.  Amplitudes at or below
``DROP_TOLERANCE`` are pruned so destructive interference does not
pollute the support.

A circuit lowered by :func:`qsearch.decompose.lower_circuit` marks each
macro's fragment (``Circuit.fragment_spans``).  On a basis label whose
listed operands are not all 1 a fragment is the identity with phase +1,
as the fragment-matrix tests prove, and ``apply`` is linear, so it skips
a fragment when no label of the support has them all set.  On one branch
of the loader at most n-1 stage-1 and m stage-2 Toffolis fire, out of
(2^n-2) + m 2^n.
"""
from __future__ import annotations

import math
from typing import Mapping

from .circuit import Circuit, Gate, GateKind, LOWERED_KINDS
from .errors import CircuitError

DROP_TOLERANCE = 1e-14

_SQRT_HALF = math.sqrt(0.5)
_PHASES = {
    GateKind.Z: -1.0 + 0.0j,
    GateKind.S: 1.0j,
    GateKind.SDG: -1.0j,
    GateKind.T: complex(_SQRT_HALF, _SQRT_HALF),
    GateKind.TDG: complex(_SQRT_HALF, -_SQRT_HALF),
}
# lowered kinds that map one basis label to one label times a phase
_RUN_KINDS = LOWERED_KINDS - {GateKind.H}

class SparseState:
    """Amplitude map over the basis labels of ``total_qubits`` flat qubits,
    |0...0> by default.  Value-semantic: ``apply`` returns a new state and
    leaves the input untouched."""

    __slots__ = ("total_qubits", "amplitudes", "peak_support")

    def __init__(self, total_qubits: int,
                 amplitudes: Mapping[int, complex] | None = None):
        self.total_qubits = total_qubits
        if amplitudes is None:
            amplitudes = {0: 1.0 + 0.0j}
        self.amplitudes = dict(amplitudes)
        self.peak_support = len(self.amplitudes)

    @classmethod
    def basis(cls, total_qubits: int, label: int) -> "SparseState":
        return cls(total_qubits, {label: 1.0 + 0.0j})

    def support(self) -> int:
        return len(self.amplitudes)

    def apply(self, circuit: Circuit) -> "SparseState":
        """Run a lowered circuit, one H-free run at a time: each label goes
        through the whole run in one inner loop, and the run writes one new
        map.  Phases multiply in gate order, as they would gate by gate.
        A fragment in ``circuit.fragment_spans`` runs only if some label
        has all its listed operands at 1; otherwise it is skipped, as it
        is the identity on every label.  Raises :class:`CircuitError` if
        the circuit holds a macro gate, with the input state untouched."""
        if circuit.total_qubits != self.total_qubits:
            raise CircuitError("circuit width does not match the state")
        total = self.total_qubits
        bit = [1 << (total - 1 - f) for f in range(total)]
        gates = circuit.gates
        amps = self.amplitudes
        peak = len(amps)
        done = 0
        for start, stop, operands in circuit.fragment_spans:
            if start > done:
                amps, peak = _run(amps, gates[done:start], bit, peak)
            mask = 0
            for q in operands:
                mask |= bit[q]
            for k in amps:
                if (k & mask) == mask:  # the fragment acts: run it, once
                    amps, peak = _run(amps, gates[start:stop], bit, peak)
                    break
            done = stop
        amps, peak = _run(amps, gates[done:], bit, peak)
        out_state = SparseState(total, amps)
        out_state.peak_support = max(peak, self.peak_support)
        return out_state


def _run(amps: dict[int, complex], gates: tuple[Gate, ...], bit: list[int],
         peak: int) -> tuple[dict[int, complex], int]:
    """``amps`` after the lowered ``gates``, and the larger of ``peak`` and
    every support an H leaves; ``bit[f]`` is flat qubit f's label bit."""
    # the H gates and any macro end a run
    stops = [i for i, (kind, _) in enumerate(gates) if kind not in _RUN_KINDS]
    stops.append(len(gates))
    phases = _PHASES
    k_h, k_x, k_cnot, k_cz = GateKind.H, GateKind.X, GateKind.CNOT, GateKind.CZ
    start = 0
    for stop in stops:
        if stop > start:
            run = gates[start:stop]
            moved: dict[int, complex] = {}
            for k, a in amps.items():
                for kind, flats in run:
                    if kind is k_cnot:
                        if k & bit[flats[0]]:
                            k ^= bit[flats[1]]
                    elif kind is k_x:
                        k ^= bit[flats[0]]
                    elif kind is k_cz:
                        if k & bit[flats[0]] and k & bit[flats[1]]:
                            a = -a
                    elif k & bit[flats[0]]:
                        a = a * phases[kind]
                moved[k] = a
            amps = moved
        if stop == len(gates):
            break
        kind, flats = gates[stop]
        if kind is not k_h:
            raise CircuitError(
                f"simulation requires a lowered circuit, got {kind.value}"
            )
        mask = bit[flats[0]]
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
        amps = {k: a for k, a in out.items() if abs(a) > DROP_TOLERANCE}
        if len(amps) > peak:
            peak = len(amps)
        start = stop + 1
    return amps, peak


# -- bit-sliced backend ----------------------------------------------------

# eighth turns each diagonal gate adds to the branches it acts on
_EIGHTHS = {
    GateKind.Z: 4, GateKind.CZ: 4, GateKind.MCZ: 4,
    GateKind.S: 2, GateKind.SDG: 6, GateKind.T: 1, GateKind.TDG: 7,
}


class SlicedState:
    """Every index branch of a permutation-with-phases circuit at once.

    The state spans ``total_qubits`` flat qubits, of which the first ``n``
    are the index.  ``columns[f]`` holds flat qubit f in every branch: bit
    q is its value in index branch q.  ``phase`` holds each branch's phase
    in eighth turns mod 8 as three bit-planes, least significant first.
    Branch q starts as |q> on flat qubits 0 .. n-1, every other qubit |0>,
    phase 0.  Macro gates are welcome; H is not.  Value-semantic: ``run``
    returns a new state and leaves the input untouched.
    """

    __slots__ = ("total_qubits", "columns", "phase", "_all", "_index")

    def __init__(self, n: int, total_qubits: int):
        if not 1 <= n <= total_qubits:
            raise CircuitError(f"{n} index qubits do not fit {total_qubits} qubits")
        self.total_qubits = total_qubits
        branches = range(1 << n)
        self._all = (1 << (1 << n)) - 1
        # index qubit b carries weight 2^(n-1-b) in the branch's index
        self._index = tuple(
            sum(1 << q for q in branches if q >> (n - 1 - b) & 1)
            for b in range(n)
        )
        self.columns = [*self._index] + [0] * (total_qubits - n)
        self.phase = [0, 0, 0]

    def run(self, circuit: Circuit) -> "SlicedState":
        if circuit.total_qubits != self.total_qubits:
            raise CircuitError("circuit width does not match the state")
        out = SlicedState.__new__(SlicedState)
        out.total_qubits, out._all, out._index = (
            self.total_qubits, self._all, self._index)
        cols = out.columns = list(self.columns)
        planes = out.phase = list(self.phase)
        full = self._all
        k_x, k_cnot, k_toffoli = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI
        for kind, flats in circuit.gates:
            if kind is k_cnot:
                cols[flats[1]] ^= cols[flats[0]]
            elif kind is k_toffoli:
                cols[flats[2]] ^= cols[flats[0]] & cols[flats[1]]
            elif kind is k_x:
                cols[flats[0]] ^= full
            else:
                turns = _EIGHTHS.get(kind)
                if turns is None:
                    raise CircuitError(
                        f"{kind.value} is not a permutation with phases"
                    )
                mask = full
                for f in flats:
                    mask &= cols[f]
                # ripple-carry add of ``turns`` on the masked branches
                carry = 0
                for i in range(3):
                    add = mask if turns >> i & 1 else 0
                    plane = planes[i]
                    planes[i] = plane ^ add ^ carry
                    carry = (plane & add) | (carry & (plane ^ add))
        return out

    def basis_label(self, branch: int) -> int:
        """Basis label of one branch, bit conventions of :mod:`qsearch.circuit`."""
        label = 0
        for col in self.columns:
            label = label << 1 | (col >> branch & 1)
        return label

    def diagonal_signs(self) -> int:
        """Mask of the negated branches, once it is proven exactly that the
        circuits run so far act as a +-1 diagonal on the binary index:
        every index column unchanged, every other column 0 and every branch
        phase 0 or 4 eighth turns.  Raises :class:`CircuitError` otherwise."""
        n = len(self._index)
        if tuple(self.columns[:n]) != self._index or any(self.columns[n:]):
            raise CircuitError("circuit does not return every branch to the index register")
        if self.phase[0] or self.phase[1]:
            raise CircuitError("circuit leaves a branch phase other than +1 or -1")
        return self.phase[2]


def negate(values: list[int], mask: int) -> list[int]:
    """Flip the sign of every entry whose bit is set in ``mask``."""
    return [-v if mask >> q & 1 else v for q, v in enumerate(values)]


def reflect_about_uniform(values: list[int]) -> list[int]:
    """The diffusion H^n D H^n, with D the flip of index branch 0, on 2^n
    integer amplitudes, scaled by 2^n so it stays exact: v <- 2^n v - 2 sum(v).

    Over integers H^n is the unnormalised Walsh-Hadamard transform W, and
    W W = 2^n I, so W D W v = W W v - 2 (W v)[0] W e_0 = 2^n v - 2 sum(v) 1.
    """
    size = len(values)
    twice_sum = 2 * sum(values)
    return [size * v - twice_sum for v in values]


def diffusion_signs(circuit: Circuit, n: int) -> int:
    """Sign mask of D in a diffusion circuit H^n D H^n over ``n`` index
    qubits, flat 0 .. n-1: one H on every index qubit at each end, and
    between them a permutation with phases that acts as a +-1 diagonal.
    Raises :class:`CircuitError` on any other shape."""
    h = GateKind.H
    hs = {(h, (b,)) for b in range(n)}
    gates = circuit.gates
    # n gates whose set is the n distinct H gates: each qubit exactly once
    if len(gates) < 2 * n or set(gates[:n]) != hs or set(gates[len(gates) - n:]) != hs:
        raise CircuitError("diffusion must start and end with H on every index qubit")
    middle = Circuit(circuit.register_sizes, gates[n:len(gates) - n])
    return SlicedState(n, circuit.total_qubits).run(middle).diagonal_signs()
