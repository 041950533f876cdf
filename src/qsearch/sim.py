"""Exact simulation backends, each dispatching on the gate kind.  A state
knows only its flat width, the circuit's ``total_qubits``: gate operands
are flat qubit indices, and flat qubit g is bit ``total-1-g`` of a basis
label (conventions of :mod:`qsearch.circuit`).  Where a register sits is
the layouts' business (:mod:`qsearch.qdam`); callers read registers out of
a label through them.  Both backends read a diagonal gate's phase from one
table, ``_EIGHTHS``, in eighth turns: no phase is ever a float.

The search hot path never simulates Clifford+T gates.  Loader, target
reflection and inverse loader are reversible permutations with phases, so
:class:`SlicedState` runs their *macro* circuits on every index branch at
once, bit-sliced as in bitslice DES (Biham, FSE 1997): each qubit is one
Python int whose bit q belongs to index branch q.  X, CNOT and TOFFOLI are
integer XOR/AND, and the diagonal gates add eighth turns to a per-branch
counter mod 8 held in three bit-planes, so every phase is exact: S and SDG
(the loader's pads) in two plane updates, the rest by one add carried over
the planes.  Run reversed, a circuit's gates go backwards and each diagonal
adds its negated turns: the adjoint, as X, CNOT, TOFFOLI, CZ and MCZ are
self-adjoint.  The only H gates sit at the two ends of the diffusion;
:func:`diffusion_signs` splits them off and bit-slices the rest, and when
the rest flips index branch 0 alone the whole diffusion is the closed form
:func:`reflect_about_uniform`.

``SparseState`` maps basis labels to exact amplitudes and applies
*lowered* circuits; a macro gate raises :class:`CircuitError`.  It is the
reference the bit-sliced path is tested against on Clifford+T, and the
search's reload check: one branch through the lowered loader.  Every
Clifford+T amplitude lies in Z[ω]/√2^k, ω = e^{iπ/4} (Giles and Selinger,
PRA 87, 032332 (2013), arXiv:1212.0506): four ints (a, b, c, d) stand for
a + bω + cω² + dω³, over one exponent ``k`` for the whole state.  It makes
one pass per H-free run: every other gate maps a label to one label times
a power of ω, so each label sums its eighth turns over the whole run, and
its amplitude turns once at the run's end.  H adds and subtracts the
tuples and raises ``k``; an amplitude of four 0s is dropped, and ``k`` is
lowered while every amplitude is a multiple of √2.  Nothing is rounded.

A circuit lowered by :func:`qsearch.decompose.lower_circuit` marks each
macro's fragment (``Circuit.fragment_spans``).  On a basis label whose
listed operands are not all 1 a fragment is the identity with phase +1,
as the fragment-matrix tests prove, and ``apply`` is linear, so it skips
a fragment when no label of the support has them all set.  On one branch
of the loader at most n-1 stage-1 and m stage-2 Toffolis fire, out of
(2^n-2) + m 2^n.
"""
from __future__ import annotations

from typing import Mapping

from .circuit import Circuit, Gate, GateKind, LOWERED_KINDS
from .errors import CircuitError

# eighth turns each diagonal gate adds to the labels or branches it acts on
_EIGHTHS = {
    GateKind.Z: 4, GateKind.CZ: 4, GateKind.MCZ: 4,
    GateKind.S: 2, GateKind.SDG: 6, GateKind.T: 1, GateKind.TDG: 7,
}
# lowered kinds that map one basis label to one label times a phase
_RUN_KINDS = LOWERED_KINDS - {GateKind.H}

Amplitude = tuple[int, int, int, int]


class SparseState:
    """Exact amplitude map over the basis labels of ``total_qubits`` flat
    qubits, |0...0> by default: label -> (a, b, c, d), the amplitude
    (a + bω + cω² + dω³) / √2^k.  Value-semantic: ``apply`` returns a new
    state and leaves the input untouched."""

    __slots__ = ("total_qubits", "amplitudes", "k", "peak_support")

    def __init__(self, total_qubits: int,
                 amplitudes: Mapping[int, Amplitude] | None = None, k: int = 0):
        self.total_qubits = total_qubits
        if amplitudes is None:
            amplitudes = {0: (1, 0, 0, 0)}
        self.amplitudes = dict(amplitudes)
        self.k = k
        self.peak_support = len(self.amplitudes)

    @classmethod
    def basis(cls, total_qubits: int, label: int) -> "SparseState":
        return cls(total_qubits, {label: (1, 0, 0, 0)})

    def support(self) -> int:
        return len(self.amplitudes)

    def apply(self, circuit: Circuit) -> "SparseState":
        """Run a lowered circuit, one H-free run at a time: each label goes
        through the whole run in one inner loop, and the run writes one new
        map.  A fragment in ``circuit.fragment_spans`` runs only if some
        label has all its listed operands at 1; otherwise it is skipped, as
        it is the identity on every label.  Raises :class:`CircuitError` if
        the circuit holds a macro gate, with the input state untouched."""
        if circuit.total_qubits != self.total_qubits:
            raise CircuitError("circuit width does not match the state")
        top = self.total_qubits - 1
        gates = circuit.gates
        amps, k = self.amplitudes, self.k
        peak = len(amps)
        done = 0
        for start, stop, operands in circuit.fragment_spans:
            if start > done:
                amps, k, peak = _run(amps, k, gates[done:start], top, peak)
            for label in amps:
                for q in operands:
                    if not label >> (top - q) & 1:
                        break
                else:  # the fragment acts: run it, once
                    amps, k, peak = _run(amps, k, gates[start:stop], top, peak)
                    break
            done = stop
        amps, k, peak = _run(amps, k, gates[done:], top, peak)
        out_state = SparseState(self.total_qubits, amps, k)
        out_state.peak_support = max(peak, self.peak_support)
        return out_state


def _run(amps: dict[int, Amplitude], k: int, gates: tuple[Gate, ...], top: int,
         peak: int) -> tuple[dict[int, Amplitude], int, int]:
    """``amps`` and ``k`` after the lowered ``gates``, flat qubit f being label
    bit ``top - f``, and the larger of ``peak`` and every support an H leaves."""
    # the H gates and any macro end a run
    stops = [i for i, (kind, _) in enumerate(gates) if kind not in _RUN_KINDS]
    stops.append(len(gates))
    eighths = _EIGHTHS
    k_h, k_x, k_cnot, k_cz = GateKind.H, GateKind.X, GateKind.CNOT, GateKind.CZ
    start = 0
    for stop in stops:
        if stop > start:
            run = gates[start:stop]
            moved: dict[int, Amplitude] = {}
            for label, amp in amps.items():
                turns = 0
                for kind, flats in run:
                    if kind is k_cnot:
                        if label >> (top - flats[0]) & 1:
                            label ^= 1 << (top - flats[1])
                    elif kind is k_x:
                        label ^= 1 << (top - flats[0])
                    elif kind is k_cz:
                        if label >> (top - flats[0]) & label >> (top - flats[1]) & 1:
                            turns += 4
                    elif label >> (top - flats[0]) & 1:
                        turns += eighths[kind]
                a, b, c, d = amp
                for _ in range(turns & 7):  # ω (a, b, c, d) = (-d, a, b, c)
                    a, b, c, d = -d, a, b, c
                moved[label] = a, b, c, d
            amps = moved
        if stop == len(gates):
            break
        kind, flats = gates[stop]
        if kind is not k_h:
            raise CircuitError(
                f"simulation requires a lowered circuit, got {kind.value}"
            )
        mask = 1 << (top - flats[0])
        out: dict[int, Amplitude] = {}
        get, zero = out.get, (0, 0, 0, 0)
        for label, (a, b, c, d) in amps.items():
            # |0> -> |0> + |1> and |1> -> |0> - |1>, over one more √2
            s = get(low := label & ~mask, zero)
            out[low] = s[0] + a, s[1] + b, s[2] + c, s[3] + d
            if label & mask:
                a, b, c, d = -a, -b, -c, -d
            s = get(high := label | mask, zero)
            out[high] = s[0] + a, s[1] + b, s[2] + c, s[3] + d
        # drop the exact zeros; ``odd`` is odd unless every amplitude is √2
        # times one in Z[ω]: √2 (a, b, c, d) = (b - d, a + c, b + d, c - a)
        amps, odd, k = {}, 0, k + 1
        for label, (a, b, c, d) in out.items():
            if a or b or c or d:
                amps[label] = a, b, c, d
                odd |= a ^ c | b ^ d
        peak = max(peak, len(amps))
        while amps and not odd & 1:  # halve that product, and lower k
            halved, odd, k = {}, 0, k - 1
            for label, (a, b, c, d) in amps.items():
                halved[label] = h = (b - d) >> 1, (a + c) >> 1, (b + d) >> 1, (c - a) >> 1
                odd |= h[0] ^ h[2] | h[1] ^ h[3]
            amps = halved
        start = stop + 1
    return amps, k, peak


# -- bit-sliced backend ----------------------------------------------------


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
        full = self._all = (1 << (1 << n)) - 1
        # index qubit b carries weight 2^k, k = n-1-b, in the branch's index:
        # its column repeats 2^k zeros then 2^k ones over the 2^n branches
        self._index = tuple(
            full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k))
            for k in reversed(range(n))
        )
        self.columns = [*self._index] + [0] * (total_qubits - n)
        self.phase = [0, 0, 0]

    def run(self, circuit: Circuit, reverse: bool = False) -> "SlicedState":
        """The state after ``circuit``, or after its adjoint if ``reverse``."""
        if circuit.total_qubits != self.total_qubits:
            raise CircuitError("circuit width does not match the state")
        out = SlicedState.__new__(SlicedState)
        out.total_qubits, out._all, out._index = (
            self.total_qubits, self._all, self._index)
        cols = out.columns = list(self.columns)
        p0, p1, p2 = self.phase
        full = self._all
        k_x, k_cnot, k_toffoli, k_s, k_sdg = (
            GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.S, GateKind.SDG)
        gates = circuit.gates
        if reverse:
            gates, k_s, k_sdg = reversed(gates), k_sdg, k_s
        for kind, flats in gates:
            if kind is k_cnot:
                cols[flats[1]] ^= cols[flats[0]]
            elif kind is k_toffoli:
                cols[flats[2]] ^= cols[flats[0]] & cols[flats[1]]
            elif kind is k_x:
                cols[flats[0]] ^= full
            elif kind is k_s:  # +2 eighth turns on the branches of flats[0]
                mask = cols[flats[0]]
                p2 ^= mask & p1
                p1 ^= mask
            elif kind is k_sdg:  # -2
                mask = cols[flats[0]]
                p2 ^= mask & ~p1
                p1 ^= mask
            else:
                turns = _EIGHTHS.get(kind)
                if turns is None:
                    raise CircuitError(
                        f"{kind.value} is not a permutation with phases"
                    )
                turns = -turns & 7 if reverse else turns
                mask = full
                for f in flats:
                    mask &= cols[f]
                # add ``turns`` on the masked branches, carrying plane to plane
                add = mask if turns & 1 else 0
                p0, carry = p0 ^ add, p0 & add
                add = mask if turns & 2 else 0
                p1, carry = p1 ^ add ^ carry, (p1 & add) | (carry & (p1 ^ add))
                p2 ^= (mask if turns & 4 else 0) ^ carry
        out.phase = [p0, p1, p2]
        return out

    def basis_label(self, branch: int) -> int:
        """Basis label of one branch, bit conventions of :mod:`qsearch.circuit`:
        its bits joined into one string and read in one pass, where a shift
        per column would copy the label once per qubit."""
        return int("".join(["01"[col >> branch & 1] for col in self.columns]), 2)

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
