"""Gate-level circuit IR over flat qubit indices, with ASAP layer scheduling.

Conventions, fixed once so every exported pattern and basis label is
bit-reproducible:

* A circuit's qubits are the flat indices ``0 .. total-1`` of its named
  registers, laid out register-major in the order BINARY_INDEX,
  ONEHOT_INDEX, DATA, DATABASE, ANCILLA, with offsets ascending inside each
  register.  The layouts in :mod:`qsearch.qdam` name the qubits; the IR
  stores only the indices, and :meth:`Circuit.export_json` turns them back
  into ``"REGISTER:offset"`` labels.
* A gate is a plain ``(kind, qubits)`` tuple, built as a literal: a tuple
  costs about a tenth of a NamedTuple to make, and the builders and the
  lowering make one per gate.  Readers unpack it as ``kind, ops``.  The
  kinds are bound once, to module names or to locals before a loop, and
  never loaded per gate: on Python 3.11 ``GateKind.X`` runs
  ``EnumType.__getattr__``, about 175 ns a load against about 35 ns for a
  plain class attribute.  Builders whose operands are distinct by
  construction emit literals and check their inputs once per call;
  :func:`gate` checks the gate it builds, and a :class:`Circuit` stores
  its gates as given.
* In basis labels the first qubit is the most significant bit: flat qubit
  ``g`` is bit ``total-1-g``, so basis index ``b`` assigns it
  ``(b >> (total-1-g)) & 1``.
* TOFFOLI and MCZ (a CCZ) are three-qubit macro gates.  They are
  first-class in the IR so builders stay readable, and this module
  defines their Clifford+T fragments, :func:`decompose_toffoli` and
  :func:`ccz_gates`.  The sparse simulator rejects macros (lower with
  :func:`qsearch.decompose.lower_circuit` first); the metrics count each
  as its fragment.

Scheduling is as-soon-as-possible list scheduling over the gate-dependency
DAG, done by :class:`Schedule`, the only scheduler; :func:`tally_flat` is
its one-shot form.  A gate is placed in the earliest layer after every
earlier gate that shares one of its qubits.  Two gates may share a layer
only if they act on disjoint qubits.  The T-depth of a circuit is the
number of layers that contain at least one T or TDG gate; the schedule
marks each such layer in a bytearray, one byte per layer, and counts the
marks.  A macro is scheduled in one step, through a max-plus template
derived from its fragment at import, and lands exactly where the
fragment's gates would.  The templates are rank one, which the derivation
checks: a macro's entry is the latest of three operand times plus
offsets, and its exits and its three T layers are that entry plus
constants.  A schedule can be fed in segments and tallied after each, and
each such snapshot is the tally of the prefix fed so far.  All of this is
a pure function of the gate order, so results are deterministic and
circuits are safe to share across workers.

A :class:`Tiling` is disjoint copies of one block of gates, each operand
moved by its own stride per copy; :meth:`Schedule.feed_tiled` schedules a
sequence of tilings, forward or reversed, through :meth:`Schedule.feed`:
when every copy enters at the same times it feeds copy 0's block in place
and copies its exits to the other copies, and otherwise it feeds the
tiling's gates, built once per tiling.
"""
from __future__ import annotations

import enum
import functools
import json
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .errors import CircuitError


class Register(enum.Enum):
    """Named qubit regions, in global ordering."""

    BINARY_INDEX = "BINARY_INDEX"
    ONEHOT_INDEX = "ONEHOT_INDEX"
    DATA = "DATA"
    DATABASE = "DATABASE"
    ANCILLA = "ANCILLA"


REGISTER_ORDER: tuple[Register, ...] = tuple(Register)


class GateKind(enum.Enum):
    H = "H"
    X = "X"
    Z = "Z"
    S = "S"
    SDG = "SDG"
    T = "T"
    TDG = "TDG"
    CNOT = "CNOT"
    CZ = "CZ"
    TOFFOLI = "TOFFOLI"  # macro
    MCZ = "MCZ"  # macro: a CCZ

    # members compare by identity; Enum's own hash runs in Python on every
    # dict lookup, which the simulators and the lowering do per gate
    __hash__ = object.__hash__


# the kinds bound once, for the fragments and the scheduler
_H, _S, _SDG, _T, _TDG = (GateKind.H, GateKind.S, GateKind.SDG,
                          GateKind.T, GateKind.TDG)
_CNOT, _TOFFOLI, _MCZ = GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCZ

LOWERED_KINDS = frozenset(GateKind) - {_TOFFOLI, _MCZ}

_ARITY = {**dict.fromkeys(LOWERED_KINDS, 1), _CNOT: 2, GateKind.CZ: 2,
          _TOFFOLI: 3, _MCZ: 3}

_ADJOINT = {_S: _SDG, _SDG: _S, _T: _TDG, _TDG: _T}

# Export names; macros use the conventional CCX / MCZ spellings.
_EXPORT_NAME = {kind: kind.value for kind in GateKind}
_EXPORT_NAME[_TOFFOLI] = "CCX"


# (kind, flat qubits), controls before the target: a plain tuple, since a
# NamedTuple or tuple subclass pays a Python-level ``__new__`` per gate
Gate = tuple[GateKind, tuple[int, ...]]


def gate(kind: GateKind, *qubits: int) -> Gate:
    """Build a validated gate; controls precede the target."""
    arity = _ARITY[kind]
    if len(qubits) != arity:
        raise CircuitError(f"{kind.value} takes {arity} qubits, got {len(qubits)}")
    if len(set(qubits)) != len(qubits):
        raise CircuitError(f"duplicate operands in {kind.value}: {qubits}")
    return (kind, tuple(qubits))


# where a lowered macro's fragment sits in a gate list, as the half-open
# ``(start, stop)`` of its gates, and the operands that must all be 1 for
# it to act: a Toffoli's two controls, or all three qubits of a CCZ
FragmentSpan = tuple[int, int, tuple[int, ...]]


class Circuit:
    """Ordered gate list over sized registers.  Immutable once built.  It
    stores the gates it is given: the builders emit gates that are valid by
    construction, and :func:`gate` checks hand-written ones.

    ``fragment_spans`` lists, in gate order, the span of every fragment a
    lowering emitted (:func:`qsearch.decompose.lower_circuit` alone fills
    it); it is empty otherwise, and for any circuit composed or inverted
    from others."""

    __slots__ = ("register_sizes", "gates", "total_qubits", "fragment_spans")

    def __init__(
        self,
        register_sizes: Mapping[Register, int],
        gates: Iterable[Gate] = (),
        fragment_spans: tuple[FragmentSpan, ...] = (),
    ):
        sizes = {reg: int(register_sizes.get(reg, 0)) for reg in REGISTER_ORDER}
        if any(v < 0 for v in sizes.values()):
            raise CircuitError("register sizes must be nonnegative")
        self.register_sizes: dict[Register, int] = sizes
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.total_qubits: int = sum(sizes.values())
        self.fragment_spans = fragment_spans

    def flat_gates(self) -> tuple[Gate, ...]:
        # the gates are flat already; the benchmark's tracer patches this name
        return self.gates

    # -- composition ----------------------------------------------------

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.register_sizes != other.register_sizes:
            raise CircuitError("cannot concatenate circuits over different registers")
        return Circuit(self.register_sizes, self.gates + other.gates)

    def inverted(self) -> "Circuit":
        """Adjoint circuit: reversed order, T<->TDG and S<->SDG swapped.

        Macro gates are self-adjoint, so inverting a macro-level circuit and
        lowering afterwards reuses the forward (depth-aligned) fragments.
        """
        adjoint = _ADJOINT.get
        return Circuit(
            self.register_sizes,
            tuple((adjoint(kind, kind), ops) for kind, ops in reversed(self.gates)),
        )

    # -- export ---------------------------------------------------------

    def export_json(self) -> str:
        labels = [
            f"{reg.value}:{offset}"
            for reg, size in self.register_sizes.items()
            for offset in range(size)
        ]
        doc = {
            "registers": {
                reg.value: size
                for reg, size in self.register_sizes.items()
                if size > 0
            },
            "gates": [
                {"gate": _EXPORT_NAME[kind], "qubits": [labels[q] for q in ops]}
                for kind, ops in self.gates
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:
        regs = {r.value: s for r, s in self.register_sizes.items() if s > 0}
        return f"Circuit(registers={regs}, gates={len(self.gates)})"


class Tiling:
    """``copies`` copies of one block of gates: copy i moves each operand q
    of the block to ``q + i * strides[q]``.  The copies are checked to be
    pairwise disjoint and inside ``total_qubits``, so they commute.
    ``spans`` maps each operand, in order of first use, to the slice of
    its copies' qubits; a one-copy tiling is its block as is and has no
    spans, so its strides are never read.  A sequence of tilings is a gate
    stream, tiling by tiling; its reverse takes the last tiling first, each
    copy's block reversed.  ``gates`` builds the copies' gates on first use
    and keeps them."""

    def __init__(self, block: Iterable[Gate], strides: Mapping[int, int],
                 copies: int, total_qubits: int):
        if copies < 1:
            raise CircuitError("a tiling needs at least one copy")
        self.block, self.copies = tuple(block), copies
        self.spans: dict[int, slice] = {}
        # every operand once, in order of first use
        operands = dict.fromkeys(chain.from_iterable(ops for _, ops in self.block))
        if copies == 1:
            if not all(0 <= q < total_qubits for q in operands):
                raise CircuitError("the block leaves the circuit")
            return
        # mark every copy of every operand once, then count the marks: the
        # copies are disjoint iff none was marked twice.  The bound check is
        # explicit, since a stride-1 slice assignment past the end would
        # grow the array instead of raising; ``ones`` is a bytearray, as a
        # bytes value would be copied into one on every assignment
        used, ones = bytearray(total_qubits), bytearray(b"\1" * copies)
        for q in operands:
            step = strides[q]
            if step < 1 or q < 0 or q + (copies - 1) * step >= total_qubits:
                raise CircuitError(f"copies of qubit {q} leave the circuit")
            span = self.spans[q] = slice(q, q + copies * step, step)
            used[span] = ones
        if used.count(1) != len(operands) * copies:
            raise CircuitError("copies of the block overlap")

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The copies' gates, copy by copy."""
        if self.copies == 1:
            return self.block
        kinds = [kind for kind, _ in self.block]
        # each gate's operands in every copy, as one zip of ranges
        ranges = {q: range(span.start, span.stop, span.step)
                  for q, span in self.spans.items()}
        moved = [zip(*(ranges[q] for q in ops)) for _, ops in self.block]
        return tuple(g for ops in zip(*moved) for g in zip(kinds, ops))


class ResourceTally(NamedTuple):
    """Exact T count and T-depth of a circuit, with every macro counted as
    its lowered fragment."""

    t_count: int
    t_depth: int


class _Template(NamedTuple):
    """ASAP timing of one macro's Clifford+T fragment in rank-one max-plus
    form: every exit and T layer is ``E = max_j(e_j + entry[j])`` over the
    operands' entry times ``e_j``, plus a constant.  :meth:`Schedule.feed`
    binds each macro's fields to locals once per call."""

    entry: tuple[int, int, int]  # E = max_j(e_j + entry[j])
    exit: tuple[int, int, int]  # avail[op_i] = E + exit[i]
    t_layers: tuple[int, ...]  # one constant per distinct T layer, ascending
    t_count: int


def _derive_template(fragment: Iterable[Gate]) -> _Template:
    """Schedule a fragment over operands 0, 1, 2 symbolically: each qubit's
    availability is a row of offsets from the three entry times (-inf where
    it does not depend on one), and a gate's layer row is the elementwise
    max of its qubits' rows plus 1 -- the scheduler's own step, in max-plus
    arithmetic.  Only rank one makes one entry per macro exact, so a row
    not equal to entry offsets plus a constant raises :class:`CircuitError`."""
    neg = float("-inf")
    rows = [tuple(0 if i == j else neg for j in range(3)) for i in range(3)]
    t_layers: dict[tuple[float, ...], None] = {}
    t_count = 0
    for kind, ops in fragment:
        layer = tuple(max(col) + 1 for col in zip(*(rows[i] for i in ops)))
        for i in ops:
            rows[i] = layer
        if kind is _T or kind is _TDG:
            t_count += 1
            t_layers[layer] = None
    entry = tuple(x - max(rows[0]) for x in rows[0])
    constants = []
    for row in (*rows, *t_layers):
        offsets = {x - u for x, u in zip(row, entry)}
        if neg in row or len(offsets) != 1:
            raise CircuitError(f"fragment row {row} is not rank one over {entry}")
        constants.append(offsets.pop())
    exits, t_constants = tuple(constants[:3]), tuple(sorted(constants[3:]))
    return _Template(entry, exits, t_constants, t_count)


def ccz_gates(x: int, y: int, z: int) -> list[Gate]:
    """Doubly-controlled Z, 7 T gates in three aligned T layers, no ancilla.

    Phase polynomial (eighth turns): a + b + c + (a^b^c) - (a^b) - (b^c)
    - (a^c).  The -(a^b) term is realized as SDG+T so the first T layer
    needs only one CNOT-pair boundary; S/SDG pairs elsewhere are pure
    schedule padding and cancel exactly.  The 21 gates share 7 operand
    tuples, built once per call.
    """
    cnot, s, sdg, t, tdg = _CNOT, _S, _SDG, _T, _TDG
    xy, yz, zx, xz = (x, y), (y, z), (z, x), (x, z)
    qx, qy, qz = (x,), (y,), (z,)
    return [
        (cnot, xy),   # y = a^b
        (cnot, yz),   # z = a^b^c
        (cnot, zx),   # x = b^c
        (sdg, qy),
        (tdg, qx),    # -(b^c)
        (t, qy),      # SDG+T = -(a^b)
        (t, qz),      # +(a^b^c)
        (cnot, zx),   # x = a
        (cnot, xy),   # y = b
        (s, qz),
        (t, qx),      # +a
        (t, qy),      # +b
        (sdg, qz),    # cancels the S pad
        (cnot, yz),   # z = a^c
        (cnot, zx),   # x = c
        (s, qy),
        (t, qx),      # +c
        (tdg, qz),    # -(a^c)
        (sdg, qy),    # cancels the S pad
        (cnot, zx),   # x = a
        (cnot, xz),   # z = c
    ]


def decompose_toffoli(c1: int, c2: int, target: int) -> list[Gate]:
    """Lowered Toffoli fragment: the CCZ fragment between two H on the
    target, 7 T gates in three scheduler layers, no ancilla.  CNOT pairs
    that touch both T carriers, with S/SDG pads on the third qubit, bound
    the T stages, so they stay aligned whatever the operands' entry times:
    parallel fragments merge their T layers only if they do."""
    if len({c1, c2, target}) != 3:
        raise CircuitError("Toffoli operands must be distinct")
    h = (_H, (target,))
    return [h, *ccz_gates(c1, c2, target), h]


_TEMPLATES = {
    _TOFFOLI: _derive_template(decompose_toffoli(0, 1, 2)),
    _MCZ: _derive_template(ccz_gates(0, 1, 2)),
}


class Schedule:
    """ASAP schedule of a gate stream over flat qubit indices, fed in
    segments: per-qubit availability, the T layers and the T count.

    The T layers are a bytearray with a 1 at each layer that holds a T or
    TDG.  A gate moves the latest layer on by at most 13 (the TOFFOLI
    template's largest exit), so the marks cost at most about 13 bytes per
    gate, before doubling's slack, where a set takes about 60 per T layer.
    ``feed`` extends the stream and ``tally`` reads it at that point, so a
    tally taken between two feeds is exactly the tally of the prefix fed so
    far (a prefix's marks are the stream's at that moment).

    TOFFOLI and MCZ gates are scheduled as their fragments would be,
    through the fragments' rank-one max-plus templates (:class:`_Template`),
    so the tally equals that of the lowered stream; ``feed`` gives each
    macro kind its own branch, over its template's constants.
    """

    __slots__ = ("_avail", "_marks", "_t_count")

    def __init__(self, total_qubits: int):
        self._avail = [0] * total_qubits
        self._marks = bytearray()  # 1 at every layer that holds a T or TDG
        self._t_count = 0

    def feed(self, gates: Iterable[Gate]) -> "Schedule":
        """Schedule ``gates`` after everything fed so far."""
        avail, marks = self._avail, self._marks
        size, t_count = len(marks), self._t_count
        k_t, k_tdg, k_toffoli, k_mcz = _T, _TDG, _TOFFOLI, _MCZ
        # each macro's template as locals; the unpack checks three T layers,
        # ascending, so one capacity check against the last covers all three
        (fa, fb, fc), (fxa, fxb, fxc), (ft1, ft2, ft3), f_n = _TEMPLATES[k_toffoli]
        (za, zb, zc), (zxa, zxb, zxc), (zt1, zt2, zt3), z_n = _TEMPLATES[k_mcz]
        for kind, ops in gates:
            if kind is k_toffoli:
                a, b, c = ops
                entry = avail[a] + fa
                v = avail[b] + fb
                if v > entry:
                    entry = v
                v = avail[c] + fc
                if v > entry:
                    entry = v
                if entry + ft3 >= size:
                    size = _grow(marks, entry + ft3)
                marks[entry + ft1] = marks[entry + ft2] = marks[entry + ft3] = 1
                avail[a], avail[b], avail[c] = entry + fxa, entry + fxb, entry + fxc
                t_count += f_n
            elif kind is k_mcz:
                a, b, c = ops
                entry = avail[a] + za
                v = avail[b] + zb
                if v > entry:
                    entry = v
                v = avail[c] + zc
                if v > entry:
                    entry = v
                if entry + zt3 >= size:
                    size = _grow(marks, entry + zt3)
                marks[entry + zt1] = marks[entry + zt2] = marks[entry + zt3] = 1
                avail[a], avail[b], avail[c] = entry + zxa, entry + zxb, entry + zxc
                t_count += z_n
            elif len(ops) == 1:
                q = ops[0]
                layer = avail[q] + 1
                avail[q] = layer
                if kind is k_t or kind is k_tdg:
                    t_count += 1
                    if layer >= size:
                        size = _grow(marks, layer)
                    marks[layer] = 1
            else:  # every other gate has two operands
                a, b = ops
                layer = avail[a]
                v = avail[b]
                if v > layer:
                    layer = v
                avail[a] = avail[b] = layer + 1
        self._t_count = t_count
        return self

    def feed_tiled(self, *tilings: Tiling, reverse: bool = False) -> "Schedule":
        """Feed the copies of ``tilings`` in order as feeding them one by
        one would, or with ``reverse`` that stream reversed: the last
        tiling first, each copy's block reversed.  Copy i's operand q
        enters at ``avail[q + i * stride]``.  When every operand's copies
        enter at one time, all copies schedule alike: copy 0's block, whose
        operands are real qubits, is fed in place, its T count is taken
        ``copies`` times and its exits are copied to the other copies by
        slice assignment.  Otherwise the tiling's gates are fed."""
        avail = self._avail
        for tiling in reversed(tilings) if reverse else tilings:
            copies, block, spans = tiling.copies, tiling.block, tiling.spans.values()
            if any(avail[span].count(avail[span.start]) != copies for span in spans):
                self.feed(reversed(tiling.gates) if reverse else tiling.gates)
                continue
            t_count = self._t_count
            self.feed(block[::-1] if reverse else block)
            self._t_count += (copies - 1) * (self._t_count - t_count)
            for span in spans:
                avail[span] = [avail[span.start]] * copies
        return self

    def tally(self) -> ResourceTally:
        """The tally of the stream fed so far."""
        return ResourceTally(t_count=self._t_count, t_depth=self._marks.count(1))


def _grow(marks: bytearray, layer: int) -> int:
    """Extend ``marks`` past ``layer``, to at least twice its length, so
    that growing costs amortized O(1) per mark; return the new length."""
    marks.extend(bytes(max(len(marks), layer + 1 - len(marks))))
    return len(marks)


def tally_flat(
    gates: Iterable[Gate], total_qubits: int
) -> ResourceTally:
    """ASAP-schedule a stream of gates over flat qubit indices and tally it
    in one pass: the one-shot form of :class:`Schedule`."""
    return Schedule(total_qubits).feed(gates).tally()


def resource_tally(circuit: Circuit) -> ResourceTally:
    return tally_flat(circuit.gates, circuit.total_qubits)


def q_index(offset: int) -> int:
    # the binary index is register 0; kept for the benchmark's tracer
    return offset
