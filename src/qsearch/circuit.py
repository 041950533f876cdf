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
  lowering make one per gate.  Readers unpack it as ``kind, ops``.
* In basis labels the first qubit is the most significant bit: flat qubit
  ``g`` is bit ``total-1-g``, so basis index ``b`` assigns it
  ``(b >> (total-1-g)) & 1``.
* TOFFOLI and MCZ are macro gates.  They are first-class in the IR so
  builders stay readable.  The sparse simulator rejects them (lower with
  :func:`qsearch.decompose.lower_circuit` first); the metrics accept
  TOFFOLI and 3-operand MCZ and count them as their Clifford+T fragments.

Scheduling is as-soon-as-possible list scheduling over the gate-dependency
DAG, done by :class:`Schedule`, the only scheduler; :func:`tally_flat` is
its one-shot form.  A gate is placed in the earliest layer after every
earlier gate that shares one of its qubits.  Two gates may share a layer
only if they act on disjoint qubits.  The T-depth of a circuit is the
number of layers that contain at least one T or TDG gate.  A macro is
scheduled in one step, through a max-plus template derived once from its
lowered fragment, and lands exactly where the fragment's gates would.  The
templates are rank one, which the derivation checks: a macro costs one
``max`` of three entry terms plus constants.  A schedule can be fed in
segments and tallied after each, and each such snapshot is the tally of
the prefix fed so far.  All of this is a pure function of the gate order,
so results are deterministic and circuits are safe to share across
workers.

A :class:`Tiling` is disjoint copies of one block of gates, each operand
moved by its own stride per copy; :meth:`Schedule.feed_tiled` schedules
them without building them, each distinct vector of entry times once.
"""
from __future__ import annotations

import enum
import functools
import json
from typing import Iterable, Mapping, NamedTuple

from .errors import CircuitError, MacroGateError, OperandOverlapError


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
    MCZ = "MCZ"  # macro, arity >= 2

    # members compare by identity; Enum's own hash runs in Python on every
    # dict lookup, which the simulators and the lowering do per gate
    __hash__ = object.__hash__


LOWERED_KINDS = frozenset(
    {GateKind.H, GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG,
     GateKind.T, GateKind.TDG, GateKind.CNOT, GateKind.CZ}
)

_ARITY = {
    GateKind.H: 1, GateKind.X: 1, GateKind.Z: 1, GateKind.S: 1,
    GateKind.SDG: 1, GateKind.T: 1, GateKind.TDG: 1,
    GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.TOFFOLI: 3,
}

_ADJOINT = {
    GateKind.S: GateKind.SDG, GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T,
}

# Export names; macros use the conventional CCX / MCZ spellings.
_EXPORT_NAME = {kind: kind.value for kind in GateKind}
_EXPORT_NAME[GateKind.TOFFOLI] = "CCX"


# (kind, flat qubits), controls before the target: a plain tuple, since a
# NamedTuple or tuple subclass pays a Python-level ``__new__`` per gate
Gate = tuple[GateKind, tuple[int, ...]]


def gate(kind: GateKind, *qubits: int) -> Gate:
    """Build a validated gate; controls precede the target."""
    arity = _ARITY.get(kind)
    if arity is not None and len(qubits) != arity:
        raise CircuitError(f"{kind.value} takes {arity} qubits, got {len(qubits)}")
    if kind is GateKind.MCZ and len(qubits) < 2:
        raise CircuitError("MCZ takes at least 2 qubits")
    if len(set(qubits)) != len(qubits):
        raise OperandOverlapError(f"duplicate operands in {kind.value}: {qubits}")
    return (kind, tuple(qubits))


class Circuit:
    """Ordered gate list over sized registers.  Immutable once built."""

    __slots__ = ("register_sizes", "gates", "total_qubits")

    def __init__(
        self,
        register_sizes: Mapping[Register, int],
        gates: Iterable[Gate] = (),
        validate: bool = True,
    ):
        sizes = {reg: int(register_sizes.get(reg, 0)) for reg in REGISTER_ORDER}
        if any(v < 0 for v in sizes.values()):
            raise CircuitError("register sizes must be nonnegative")
        self.register_sizes: dict[Register, int] = sizes
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.total_qubits: int = sum(sizes.values())
        if validate:
            self._validate()

    def _validate(self) -> None:
        total = self.total_qubits
        for kind, ops in self.gates:
            if len(set(ops)) != len(ops):
                raise OperandOverlapError(f"duplicate operands in {kind.value}: {ops}")
            for q in ops:
                if not 0 <= q < total:
                    raise CircuitError(f"qubit {q} outside the {total} qubits of {self!r}")

    @property
    def is_lowered(self) -> bool:
        return all(kind in LOWERED_KINDS for kind, _ in self.gates)

    def flat_gates(self) -> tuple[Gate, ...]:
        # the gates are flat already; the benchmark's tracer patches this name
        return self.gates

    # -- composition ----------------------------------------------------

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.register_sizes != other.register_sizes:
            raise CircuitError("cannot concatenate circuits over different registers")
        return Circuit(self.register_sizes, self.gates + other.gates, validate=False)

    def inverted(self) -> "Circuit":
        """Adjoint circuit: reversed order, T<->TDG and S<->SDG swapped.

        Macro gates are self-adjoint, so inverting a macro-level circuit and
        lowering afterwards reuses the forward (depth-aligned) fragments.
        """
        adjoint = _ADJOINT.get
        return Circuit(
            self.register_sizes,
            tuple((adjoint(kind, kind), ops) for kind, ops in reversed(self.gates)),
            validate=False,
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
    pairwise disjoint and inside ``total_qubits``, so they commute."""

    def __init__(self, block: Iterable[Gate], strides: Mapping[int, int],
                 copies: int, total_qubits: int):
        if copies < 1:
            raise CircuitError("a tiling needs at least one copy")
        self.block, self.copies = tuple(block), copies
        # one copy moves nowhere, so its strides are immaterial
        self.strides = {q: strides[q] if copies > 1 else 1
                        for _, ops in self.block for q in ops}
        used = bytearray(total_qubits)
        for q, step in self.strides.items():
            span = slice(q, q + copies * step, step)
            if step < 1 or q < 0 or len(used[span]) < copies or 1 in used[span]:
                raise OperandOverlapError(f"copies of qubit {q} overlap or leave the circuit")
            used[span] = b"\1" * copies

    def gates(self) -> list[Gate]:
        """The copies' gates, copy by copy."""
        copies, strides = self.copies, self.strides
        kinds = [kind for kind, _ in self.block]
        # each gate's operands in every copy, as one zip of ranges
        moved = [zip(*(range(q, q + copies * strides[q], strides[q]) for q in ops))
                 for _, ops in self.block]
        return [g for ops in zip(*moved) for g in zip(kinds, ops)]

    @functools.cached_property
    def local_block(self) -> tuple[Gate, ...]:
        """The block over local qubits 0, 1, ... in operand order."""
        index = {q: k for k, q in enumerate(self.strides)}.__getitem__
        return tuple((kind, tuple(map(index, ops))) for kind, ops in self.block)


class ResourceTally(NamedTuple):
    """Exact gate-count and layering metrics of a circuit, with every macro
    counted as its lowered fragment."""

    t_count: int
    t_depth: int
    cnot_count: int
    total_qubits: int
    total_layers: int


class _Template(NamedTuple):
    """ASAP timing of one macro's Clifford+T fragment in rank-one max-plus
    form: every exit and T layer is ``E = max_j(e_j + entry[j])`` over the
    operands' entry times ``e_j``, plus a constant; one ``max`` per macro."""

    entry: tuple[int, int, int]  # E = max_j(e_j + entry[j])
    exit: tuple[int, int, int]  # avail[op_i] = E + exit[i]
    last: int  # max(exit): the fragment's deepest layer is E + last
    t_layers: tuple[int, ...]  # one constant per distinct T layer
    t_count: int
    cnot_count: int


def _derive_template(fragment: Iterable[Gate]) -> _Template:
    """Schedule a fragment over operands 0, 1, 2 symbolically: each qubit's
    availability is a row of offsets from the three entry times (-inf where
    it does not depend on one), and a gate's layer row is the elementwise
    max of its qubits' rows plus 1 -- the scheduler's own step, in max-plus
    arithmetic.  Only rank one makes one ``max`` per macro exact, so a row
    not equal to entry offsets plus a constant raises :class:`CircuitError`."""
    neg = float("-inf")
    rows = [tuple(0 if i == j else neg for j in range(3)) for i in range(3)]
    t_layers: dict[tuple[float, ...], None] = {}
    t_count = cnot_count = 0
    for kind, ops in fragment:
        layer = tuple(max(col) + 1 for col in zip(*(rows[i] for i in ops)))
        for i in ops:
            rows[i] = layer
        if kind is GateKind.T or kind is GateKind.TDG:
            t_count += 1
            t_layers[layer] = None
        elif kind is GateKind.CNOT:
            cnot_count += 1
    entry = tuple(x - max(rows[0]) for x in rows[0])
    constants = []
    for row in (*rows, *t_layers):
        offsets = {x - u for x, u in zip(row, entry)}
        if neg in row or len(offsets) != 1:
            raise CircuitError(f"fragment row {row} is not rank one over {entry}")
        constants.append(offsets.pop())
    exits, t_constants = tuple(constants[:3]), tuple(constants[3:])
    return _Template(entry, exits, max(exits), t_constants, t_count, cnot_count)


@functools.cache
def _macro_templates() -> dict[GateKind, _Template]:
    """TOFFOLI and 3-operand MCZ templates, derived on first use from the
    fragments that :func:`qsearch.decompose.lower_gates` emits."""
    from . import decompose  # local import; decompose depends on this module

    return {
        GateKind.TOFFOLI: _derive_template(decompose.decompose_toffoli(0, 1, 2)),
        GateKind.MCZ: _derive_template(decompose.ccz_gates(0, 1, 2)),
    }


class Schedule:
    """ASAP schedule of a gate stream over flat qubit indices, fed in
    segments: per-qubit availability, the set of T layers, the T and CNOT
    counts and the deepest layer.

    ``feed`` extends the stream and ``tally`` reads it at that point, so a
    tally taken between two feeds is exactly the tally of the prefix fed so
    far (a prefix's T-layer set is the stream's set at that moment).

    TOFFOLI and 3-operand MCZ gates are scheduled as their lowered
    fragments would be, through the fragments' rank-one max-plus templates
    (:class:`_Template`): one ``max`` of three entry terms plus constants
    per macro, so the tally equals that of the lowered stream.  A wider MCZ
    raises :class:`MacroGateError`: its ladder needs ancillas that only
    :func:`qsearch.decompose.lower_circuit` is given.
    """

    __slots__ = ("total_qubits", "_avail", "_t_layers", "_t_count",
                 "_cnot_count", "_max_layer")

    def __init__(self, total_qubits: int):
        self.total_qubits = total_qubits
        self._avail = [0] * total_qubits
        self._t_layers: set[int] = set()
        self._t_count = self._cnot_count = self._max_layer = 0

    def feed(self, gates: Iterable[Gate]) -> "Schedule":
        """Schedule ``gates`` after everything fed so far."""
        templates = _macro_templates()
        avail = self._avail
        add_t_layer = self._t_layers.add
        t_count, cnot_count = self._t_count, self._cnot_count
        max_layer = self._max_layer
        k_t, k_tdg, k_cnot = GateKind.T, GateKind.TDG, GateKind.CNOT
        k_toffoli, k_mcz = GateKind.TOFFOLI, GateKind.MCZ
        for kind, ops in gates:
            if kind is k_toffoli or kind is k_mcz:
                if len(ops) != 3:
                    raise MacroGateError(
                        f"{len(ops)}-operand {kind.value} needs ladder ancillas; "
                        "lower the circuit first"
                    )
                (ua, ub, uc), (xa, xb, xc), last, t_layers, t_n, cnot_n = (
                    templates[kind])
                a, b, c = ops
                entry = max(avail[a] + ua, avail[b] + ub, avail[c] + uc)
                for t in t_layers:
                    add_t_layer(entry + t)
                avail[a], avail[b], avail[c] = entry + xa, entry + xb, entry + xc
                layer = entry + last
                t_count += t_n
                cnot_count += cnot_n
            else:
                layer = avail[ops[0]]
                for i in ops:
                    if avail[i] > layer:
                        layer = avail[i]
                layer += 1
                for i in ops:
                    avail[i] = layer
                if kind is k_t or kind is k_tdg:
                    t_count += 1
                    add_t_layer(layer)
                elif kind is k_cnot:
                    cnot_count += 1
            if layer > max_layer:
                max_layer = layer
        self._t_count, self._cnot_count = t_count, cnot_count
        self._max_layer = max_layer
        return self

    def feed_tiled(self, tiling: Tiling, reverse: bool = False) -> "Schedule":
        """Feed the copies of ``tiling`` (each reversed if ``reverse``) as
        feeding them one by one would.  Copy i's operand q enters at
        ``avail[q + i * stride]``; a local schedule over the block's qubits
        takes each distinct entry vector once, adding its T layers to this
        schedule's, and the exits go back by slice assignment."""
        copies, strides = tiling.copies, tiling.strides
        if copies == 1:
            return self.feed(tiling.block[::-1] if reverse else tiling.block)
        block = tiling.local_block[::-1] if reverse else tiling.local_block
        avail = self._avail
        spans = [slice(q, q + copies * step, step) for q, step in strides.items()]
        entries = list(zip(*map(avail.__getitem__, spans)))
        local = Schedule(0)
        local._t_layers, local._max_layer = self._t_layers, self._max_layer
        exits = {}
        for entry in dict.fromkeys(entries):
            local._avail = list(entry)
            exits[entry] = local.feed(block)._avail
        for span, column in zip(spans, zip(*map(exits.__getitem__, entries))):
            avail[span] = column
        self._max_layer = local._max_layer
        self._t_count += copies * local._t_count // len(exits)
        self._cnot_count += copies * local._cnot_count // len(exits)
        return self

    def tally(self) -> ResourceTally:
        """The tally of the stream fed so far."""
        return ResourceTally(
            t_count=self._t_count,
            t_depth=len(self._t_layers),
            cnot_count=self._cnot_count,
            total_qubits=self.total_qubits,
            total_layers=self._max_layer,
        )


def tally_flat(
    gates: Iterable[Gate], total_qubits: int
) -> ResourceTally:
    """ASAP-schedule a stream of gates over flat qubit indices and tally it
    in one pass: the one-shot form of :class:`Schedule`."""
    return Schedule(total_qubits).feed(gates).tally()


def resource_tally(circuit: Circuit) -> ResourceTally:
    return tally_flat(circuit.gates, max(circuit.total_qubits, 1))


def q_index(offset: int) -> int:
    # the binary index is register 0; kept for the benchmark's tracer
    return offset
