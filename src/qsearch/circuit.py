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
  plain class attribute.  Builders check their inputs once per call and
  emit literals, valid by construction; :func:`gate` checks one gate.
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
earlier gate that shares one of its qubits, so two gates share a layer
only if they act on disjoint qubits.  The T-depth of a circuit is the
number of layers that contain at least one T or TDG gate.  A macro is
scheduled in one step, through a rank-one max-plus template derived from
its fragment at import (:class:`_Template`), and lands exactly where the
fragment's gates would.  All of this is a pure function of the gate
order, so results are deterministic and circuits are safe to share
across workers.

A part has ``gates`` and ``feed_into(schedule, reverse=False)``, which
schedules those gates, or with ``reverse`` their reversed stream, after
what the schedule holds; :meth:`Schedule.feed_parts` feeds a part list in
order or reversed, and :func:`join_parts` builds its circuit.  A
:class:`Circuit` feeds its gates, and every other part a closed form that
builds no gate.  Both stages of the loader share one block,
:func:`shared_control_layer`, and its one closed form,
:func:`_block_entry`: a :class:`OneHotDecoder` (stage 1) takes it once per
level, and a :class:`RecordBlock` (stage 2's records, disjoint copies of
the block) at its regions' earliest and latest entries, and feeds its
gates where the two part.  A :class:`FanIn` feeds CNOT folds
(:func:`fold_gates`) by slices, or by their gates where its entries are
staggered, and a :class:`SyncBlock` a reflection's CNOT gossip.
Each part's closed form is checked against its gates by one table in
``tests/test_circuit.py``, and a hygiene test requires a row for every part.
"""
from __future__ import annotations

import enum
import functools
import json
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import CircuitError


class Register(enum.Enum):
    """Named qubit regions, in global ordering."""

    BINARY_INDEX = "BINARY_INDEX"
    ONEHOT_INDEX = "ONEHOT_INDEX"
    DATA = "DATA"
    DATABASE = "DATABASE"
    ANCILLA = "ANCILLA"
    __hash__ = object.__hash__  # as GateKind's: every Circuit keys a dict by register


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
_X, _CNOT, _TOFFOLI, _MCZ = GateKind.X, GateKind.CNOT, GateKind.TOFFOLI, GateKind.MCZ

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
    construction, and :func:`gate` checks hand-written ones.  It stores its
    register sizes as given too, in ``REGISTER_ORDER``, the order of the
    flat qubits and of the export's labels: every layout passes all five
    registers, and a register left out has no qubits.

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
        self.register_sizes: Mapping[Register, int] = register_sizes
        self.gates: tuple[Gate, ...] = tuple(gates)
        self.total_qubits: int = sum(register_sizes.values())
        self.fragment_spans = fragment_spans

    def flat_gates(self) -> tuple[Gate, ...]:
        # the gates are flat already; the benchmark's tracer patches this name
        return self.gates

    def feed_into(self, schedule: "Schedule", reverse: bool = False) -> None:
        schedule.feed(reversed(self.gates) if reverse else self.gates)

    # -- composition ----------------------------------------------------

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


def fold_gates(column: Sequence[int], target: int) -> list[Gate]:
    """XOR the column of k = 2^n distinct qubits into ``target``: fold it
    onto its first qubit in n rounds of disjoint CNOTs, copy out, and
    unfold.  A CNOT chain would do the same, but its reverse staggers the
    column over k layers, and with them the inverse loader's uncompute T
    layers.  The fold is rank one with no T: with E = max(max over the
    column of a + n, a[target]) for entry times a, every column qubit
    leaves at E + n + 1 and the target at E + 1.  Proof: fold round r acts
    on what round r - 1 left, so the copy-out lands at E + 1.  Unfold
    round r's targets were last touched by round r + 1 (the copy-out for
    r = n - 1), and its controls by fold round r, by E; so it lands at
    E + n - r + 1, and its last round touches every column qubit at
    E + n + 1.  Reversed, the same rounds run in the same order, so the
    reversed fold schedules alike."""
    k = len(column)
    gates: list[Gate] = []
    span = 1
    # a round's CNOTs pair column[i + span] with column[i], i = 0, 2 span, ...
    while span < k:
        gates += [(_CNOT, p) for p in zip(column[span::2 * span], column[::2 * span])]
        span <<= 1
    gates.append((_CNOT, (column[0], target)))
    while span > 1:
        span >>= 1
        gates += [(_CNOT, p) for p in zip(column[span::2 * span], column[::2 * span])]
    return gates


def shared_control_layer(shared_control: int, pairs: Sequence[tuple[int, int]],
                         lease: Sequence[int]) -> list[Gate]:
    """Toffolis ``(second_control, carrier) -> target``, one per pair, the
    carriers being ``shared_control`` fanned out onto the first
    ``len(pairs) - 1`` fan-out ancillas of ``lease``, restored to |0>.
    The fan-out runs in doubling rounds, so every carrier is last touched
    in one layer and the lowered Toffolis share their three T layers; a
    partial last round gets an S pad on the idle carriers, with its SDG
    after the Toffolis.  The caller keeps every operand distinct."""
    gates: list[Gate] = []
    carriers, fresh, pad_sdg = [shared_control], iter(lease), []
    while len(carriers) < len(pairs):
        room = len(pairs) - len(carriers)
        sources, idle = carriers[:room], carriers[room:]
        new = [next(fresh) for _ in sources]
        gates += [(_CNOT, pair) for pair in zip(sources, new)]
        gates += [(_S, (q,)) for q in idle]
        pad_sdg += [(_SDG, (q,)) for q in idle]
        carriers.extend(new)
    fanout = gates[::-1]
    gates += [(_TOFFOLI, (second, carrier, target))
              for (second, target), carrier in zip(pairs, carriers)]
    return gates + pad_sdg + [g for g in fanout if g[0] is _CNOT]


def _block_entry(pairs: int, control: int, classes: Sequence[int], second: int,
                 target: int) -> int | None:
    """The closed form of :func:`shared_control_layer` over ``pairs``
    pairs, fed forward or reversed, from one entry time for the shared
    control, for each lease class (round r's fresh qubits), for the second
    controls and for the targets: the Toffolis' common entry E, or
    ``None`` when a partial last round's idle carriers would fall behind.
    With (e, x, t) the TOFFOLI template and R rounds, the T layers are
    E + t; the seconds leave at E + x_a, the targets at E + x_c, the
    control at E + x_b + R and class r at E + x_b + R - r.

    Proof: round r's carriers all sit at σ, from the control's time, so
    its CNOTs leave them and class r at max(σ, λ_r) + 1; a partial last
    round's S pads take its idle carriers to σ + 1, the same time only if
    λ_r <= σ.  Every Toffoli then enters at E = max(second + e_a,
    σ + e_b, target + e_c), and no other gate touches a second or a
    target.  Undoing round r acts on its sources and class r, all at
    E + x_b + R - r - 1 (the SDG pads bring a partial round's idle
    carriers there), and leaves them at E + x_b + R - r: class r for good,
    and the control, a source of every round, last.  Reversed, the stream
    is the same rounds in the same order, the pads SDG before the Toffolis
    and S after them, so it schedules alike."""
    (ea, eb, ec), _, _, _ = _TEMPLATES[_TOFFOLI]
    sigma, partial = control, len(classes) - 1 if pairs & (pairs - 1) else -1
    for r, time in enumerate(classes):
        if r == partial and time > sigma:
            return None
        sigma = (sigma if sigma > time else time) + 1
    return max(second + ea, sigma + eb, target + ec)


def _mark_toffolis(schedule: "Schedule", entry: int, count: int) -> None:
    """Mark the T layers of ``count`` Toffolis entering at ``entry``; count their T."""
    _, _, (t1, t2, t3), t_n = _TEMPLATES[_TOFFOLI]
    marks = schedule._marks
    if entry + t3 >= len(marks):
        _grow(marks, entry + t3)
    marks[entry + t1] = marks[entry + t2] = marks[entry + t3] = 1
    schedule._t_count += t_n * count


class FanIn:
    """``copies`` folds side by side (:func:`fold_gates`): fold j XORs the
    2^``depth`` qubits ``load + j + i * copies`` into ``target + j``.  The
    load region and the targets are checked once to lie apart, inside
    ``total_qubits``.  ``gates`` builds fold 0 and moves it j qubits on for
    fold j.  It feeds by one closed form, or by its gates, whose only
    production input is the 2-record, 1-bit-key search (ROADMAP item 4)."""

    def __init__(self, load: int, depth: int, target: int, copies: int, total_qubits: int):
        stop = load + (copies << depth)
        if (min(load, target) < 0 or max(stop, target + copies) > total_qubits
                or target < stop and load < target + copies):
            raise CircuitError("the fan-in leaves the circuit or overlaps its targets")
        self.load, self.stop, self.depth = load, stop, depth
        self.targets = range(target, target + copies)

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        copies = len(self.targets)
        fold = fold_gates(range(self.load, self.stop, copies), self.targets[0])
        # each CNOT's operands in every fold, as one zip of ranges
        moved = [zip(range(a, a + copies), range(b, b + copies)) for _, (a, b) in fold]
        return tuple((_CNOT, ops) for ops in chain.from_iterable(zip(*moved)))

    def feed_into(self, schedule: "Schedule", reverse: bool = False) -> None:
        """Feed the folds, forward or reversed alike: by two slice stores
        when the load region enters at one time R and every target at one
        time T, else by their gates.  Proof: fold j acts only on its own
        column of the region, and the columns tile it, and on its own
        target, so each fold enters at E = max(R + depth, T), the region
        leaves at E + depth + 1 and the targets at E + 1."""
        avail, depth, targets = schedule._avail, self.depth, self.targets
        region, ends = avail[self.load:self.stop], avail[targets.start:targets.stop]
        if region.count(region[0]) != len(region) or ends.count(ends[0]) != len(ends):
            schedule.feed(reversed(self.gates) if reverse else self.gates)
            return
        entry = max(region[0] + depth, ends[0])
        avail[self.load:self.stop] = [entry + depth + 1] * len(region)
        avail[targets.start:targets.stop] = [entry + 1] * len(ends)


class SyncBlock:
    """CNOT-pair gossip over k = 2^j qubits, the contiguous ranges ``qubits``
    then ``pads`` (spare |0> ancillas), checked once to lie apart, inside
    ``total_qubits``; net identity, no T.  ``gates`` runs one round per
    dimension r = 1, 2, 4, ..: each i with no bit r pairs with i | r by two
    CNOTs.  Every qubit leaves at the latest entry + 2j, forward or
    reversed: two CNOTs leave a pair at its later time + 2, so the rounds
    over any set of dimensions leave each subcube they span at its latest
    entry + 2 a round, and the last round spans all k."""

    def __init__(self, qubits: range, pads: range, total_qubits: int):
        k = len(qubits) + len(pads)
        spans = sorted((r.start, r.stop) for r in (qubits, pads) if r)
        if (not k or k & (k - 1) or spans[0][0] < 0 or spans[-1][1] > total_qubits
                or len(spans) == 2 and spans[0][1] > spans[1][0]):
            raise CircuitError("the sync block needs 2^j qubits, apart, inside the circuit")
        self.qubits, self.pads, self.depth = qubits, pads, 2 * (k.bit_length() - 1)
        self._slices = [slice(*span) for span in spans]

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        ops, gates, r = (*self.qubits, *self.pads), [], 1
        while r < len(ops):
            for i in range(len(ops)):
                if not i & r:
                    pair = (_CNOT, (ops[i], ops[i | r]))
                    gates += (pair, pair)
            r <<= 1
        return tuple(gates)

    def feed_into(self, schedule: "Schedule", reverse: bool = False) -> None:
        """Feed the gates, forward or reversed alike, by the closed form."""
        avail = schedule._avail
        time = max(max(avail[s]) for s in self._slices) + self.depth
        for s in self._slices:
            avail[s] = [time] * (s.stop - s.start)


class OneHotDecoder:
    """Stage 1 of the loader, fixed by ``n``: the binary index on flat
    qubits 0 .. n-1 decoded into the 2^n one-hot qubits from ``onehot``
    through the 2^(n-1) - 1 fan-out qubits from ``lease``, checked once
    to lie apart, past the index and inside ``total_qubits``.  ``gates``
    is an X on one-hot 0, a CNOT from index qubit n-1 to one-hot 1 and
    back, then per level l = 2 .. n, with s = 2^(l-1), the
    :func:`shared_control_layer` of control n-l over the pairs (one-hot j,
    one-hot s+j) on lease 0 .. s-2, whose round r fills lease class r, and
    CNOTs from one-hot s+j to j.

    A level is :func:`_block_entry`'s closed form when the one-hot
    register and each lease class enter at one time: the Toffolis meet
    one-hot [0, s) at one time α, left by the level before, and [s, 2s)
    at its entry β, and the clearing CNOTs leave one-hot [0, 2s) at
    max(E + x_a, E + x_c) + 1.  Reversed, the clearing CNOTs come first,
    taking one-hot [0, 2s) to one time μ, so α = β = μ, [s, 2s) leaves at
    E + x_c and [0, s) goes on at E + x_a."""

    def __init__(self, n: int, onehot: int, lease: int, total_qubits: int):
        size, lent = 1 << n, (1 << n) // 2 - 1  # an empty lease overlaps nothing
        if n < 1 or not n <= onehot <= total_qubits - size or lent and not (
                n <= lease <= onehot - lent or onehot + size <= lease <= total_qubits - lent):
            raise CircuitError("the decoder leaves the circuit or overlaps its registers")
        self.n, self.onehot, self.lease = n, onehot, lease

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        n, base = self.n, self.onehot
        gates = [(_X, (base,)), (_CNOT, (n - 1, base + 1)), (_CNOT, (base + 1, base))]
        for level in range(2, n + 1):
            span = 1 << level - 1
            low, high = range(base, base + span), range(base + span, base + 2 * span)
            gates += shared_control_layer(n - level, list(zip(low, high)),
                                          range(self.lease, self.lease + span - 1))
            gates += [(_CNOT, ops) for ops in zip(high, low)]
        return tuple(gates)

    def feed_into(self, schedule: "Schedule", reverse: bool = False) -> None:
        """Feed the gates, or with ``reverse`` that stream reversed, by the
        per-level closed form; the one-hot register and each lease class
        must enter at one time, else :class:`CircuitError`."""
        avail, n, base = schedule._avail, self.n, self.onehot
        _, (xa, xb, xc), _, _ = _TEMPLATES[_TOFFOLI]
        classes = [slice(self.lease + (1 << r) - 1, self.lease + (2 << r) - 1)
                   for r in range(n - 1)]
        onehot = slice(base, base + (1 << n))
        if any(avail[s].count(avail[s.start]) != s.stop - s.start
               for s in (onehot, *classes)):
            raise CircuitError("a decoder's one-hot register or lease class enters staggered")
        lease = [avail[s.start] for s in classes]
        hot = high = avail[base]  # one-hot [0, s) and [s, 2s) at level l
        if not reverse:  # the X on one-hot 0 and level 1's two CNOTs, v > the X
            avail[n - 1] = v = max(avail[n - 1], hot) + 1
            hot = v + 1
        for level in range(n, 1, -1) if reverse else range(2, n + 1):
            span, control, rounds = 1 << level - 1, n - level, level - 1
            if reverse:  # the clearing CNOTs come first
                hot = high = hot + 1
            entry = _block_entry(span, avail[control], lease[:rounds], hot, high)
            _mark_toffolis(schedule, entry, span)
            avail[control] = out = entry + xb + rounds
            lease[:rounds] = range(out, out - rounds, -1)
            if reverse:
                avail[base + span:base + 2 * span] = [entry + xc] * span
                hot = entry + xa
            else:
                hot = max(entry + xa, entry + xc) + 1
        if reverse:  # level 1's two CNOTs, then the X on one-hot 0
            avail[n - 1] = avail[base + 1] = max(avail[n - 1], hot + 1) + 1
            avail[base] = hot + 2
        else:
            avail[onehot] = [hot] * (1 << n)
        for s, time in zip(classes, lease):
            avail[s] = [time] * (s.stop - s.start)


class RecordBlock:
    """Stage 2's records, ``copies`` of one block over four regions: record
    i's one-hot qubit is ``onehot + i``, its database bit and load ancilla
    j are ``database + i m + j`` and ``load + i m + j``, and its m - 1
    fan-out qubits start at ``lease + i (m - 1)``.  The regions are checked
    once to lie apart, inside ``total_qubits``.  Record i's block is the
    :func:`shared_control_layer` of its one-hot qubit over the pairs
    (database j, load j) on its fan-out qubits, and ``gates`` builds
    record 0's and moves it into every record."""

    def __init__(self, m: int, copies: int, onehot: int, database: int, load: int,
                 lease: int, total_qubits: int):
        self.m, self.copies, self.lease = m, copies, lease
        # the lease is last: left out when empty (m = 1), it keeps the local order
        self.regions = tuple((start, width) for start, width in (
            (onehot, 1), (database, m), (load, m), (lease, m - 1)) if width > 0)
        spans = sorted((start, start + copies * width) for start, width in self.regions)
        if (m < 1 or copies < 1 or spans[0][0] < 0 or spans[-1][1] > total_qubits
                or any(a[1] > b[0] for a, b in zip(spans, spans[1:]))):
            raise CircuitError("the records leave the circuit or overlap")
        # the lease class of each fan-out qubit of a record: class r has
        # min(2^r, m - 2^r) of them
        self._classes = list(chain.from_iterable(
            repeat(r, min(1 << r, m - (1 << r))) for r in range((m - 1).bit_length())))

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        m, copies = self.m, self.copies
        # record 0's block over local operands 0 .. 3m - 1, the four
        # regions' qubits in order
        block = shared_control_layer(0, [(1 + j, 1 + m + j) for j in range(m)],
                                     range(2 * m + 1, 3 * m))
        kinds = [kind for kind, _ in block]
        # each local operand's qubit in every record, as one range, and each
        # gate's operands in every record as one zip of ranges
        ranges = [range(start + k, start + copies * width, width)
                  for start, width in self.regions for k in range(width)]
        moved = [zip(*(ranges[q] for q in ops)) for _, ops in block]
        return tuple(g for ops in zip(*moved) for g in zip(kinds, ops))

    def feed_into(self, schedule: "Schedule", reverse: bool = False) -> None:
        """Feed the records, or with ``reverse`` that stream reversed, by
        :func:`_block_entry`, evaluated at the database and load regions'
        earliest and at their latest entries.  When the one-hot region
        enters at one time, every record's lease as record 0's with each
        class at one time, and both evaluations give one E, the T layers
        are marked once, the block's T gates counted for every record and
        the exits stored by slices; otherwise the records' gates are fed.

        Proof: the records act on disjoint qubits, each from the control
        and class times that all share.  ASAP scheduling is monotone in the
        entry times, so every record's exits lie between the two
        evaluations', E plus the same constants.  The T gates are the
        Toffolis', and Toffoli j's target, load j, is touched by no other
        gate, forward or reversed, so its exit fixes the Toffoli's entry at
        E, and with it its T layers.  The gate path's only production input
        is the 2-record, 1-bit-key search's stage-2 tally (ROADMAP item 4)."""
        avail, m, copies, lease = schedule._avail, self.m, self.copies, self.lease
        (onehot, _), (database, _), (load, _) = self.regions[:3]
        control, size = avail[onehot], copies * m
        classes = [avail[lease + (1 << r) - 1] for r in range((m - 1).bit_length())]
        row = list(map(classes.__getitem__, self._classes))  # record 0's lease, if regular
        # each region's earliest and latest entry, in one C-level pass when equal
        (second, last_second), (target, last_target) = [
            (e[0], e[0]) if e.count(e[0]) == size else (min(e), max(e))
            for e in (avail[database:database + size], avail[load:load + size])]
        entry = _block_entry(m, control, classes, second, target)
        if (entry is None or avail[onehot:onehot + copies].count(control) != copies
                or avail[lease:lease + size - copies] != row * copies
                or entry != _block_entry(m, control, classes, last_second, last_target)):
            schedule.feed(reversed(self.gates) if reverse else self.gates)
            return
        _mark_toffolis(schedule, entry, size)
        _, (xa, xb, xc), _, _ = _TEMPLATES[_TOFFOLI]
        out = entry + xb + len(classes)
        avail[onehot:onehot + copies] = [out] * copies
        avail[database:database + size] = [entry + xa] * size
        avail[load:load + size] = [entry + xc] * size
        avail[lease:lease + size - copies] = list(map(out.__sub__, self._classes)) * copies


# what :meth:`Schedule.feed_parts` takes: each has ``gates`` and ``feed_into``
Part = Circuit | RecordBlock | FanIn | OneHotDecoder | SyncBlock


def join_parts(register_sizes: Mapping[Register, int], parts: Iterable[Part]) -> Circuit:
    """The circuit of the gates of ``parts``, one part after another."""
    return Circuit(register_sizes, chain.from_iterable(p.gates for p in parts))


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

    entry: tuple[int, ...]  # E = max_j(e_j + entry[j])
    exit: tuple[int, ...]  # avail[op_i] = E + exit[i]
    t_layers: tuple[int, ...]  # one constant per distinct T layer, ascending
    t_count: int


def _derive_template(fragment: Sequence[Gate]) -> _Template:
    """Schedule a fragment over operands 0 .. w-1 symbolically: each qubit's
    availability is a row of offsets from the w entry times (-inf where it
    does not depend on one), and a gate's layer row is the elementwise
    max of its qubits' rows plus 1 -- the scheduler's own step, in max-plus
    arithmetic.  Only rank one makes one entry per macro exact, so a row
    not equal to entry offsets plus a constant raises :class:`CircuitError`."""
    neg, width = float("-inf"), 1 + max(q for _, ops in fragment for q in ops)
    rows = [tuple(0 if i == j else neg for j in range(width)) for i in range(width)]
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
    exits, t_constants = tuple(constants[:width]), tuple(sorted(constants[width:]))
    return _Template(entry, exits, t_constants, t_count)


def ccz_gates(x: int, y: int, z: int) -> list[Gate]:
    """Doubly-controlled Z, 7 T gates in three aligned T layers, no ancilla.

    Phase polynomial (eighth turns): a + b + c + (a^b^c) - (a^b) - (b^c)
    - (a^c).  The -(a^b) term is realized as SDG+T so the first T layer
    needs only one CNOT-pair boundary.  The one S/SDG pair on y, around
    the third T layer, is schedule padding and cancels exactly: it holds
    y, the middle operand, until 2 layers after it would leave, which
    both macro templates need (without it the kernel at n = 10, m = 8
    measures 99, not 90).  The 19 gates share 7 operand tuples, built
    once per call.
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
        (t, qx),      # +a
        (t, qy),      # +b
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
    that touch both T carriers bound the T stages, and the S/SDG pad
    holds the middle operand 2 layers longer, so the stages stay aligned
    whatever the operands' entry times: parallel fragments merge their T
    layers only if they do."""
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
    far (a prefix's marks are the stream's at that moment).  A macro's
    tally equals its lowering's: ``feed`` gives each macro kind a branch
    over its template's constants.
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

    def feed_parts(self, parts: Sequence[Part], reverse: bool = False) -> "Schedule":
        """Feed each of ``parts`` after everything fed so far, in order, or
        with ``reverse`` their joint gate stream reversed: the last part
        first, each fed reversed."""
        for part in reversed(parts) if reverse else parts:
            part.feed_into(self, reverse)
        return self

    def tally(self) -> ResourceTally:
        """The tally of the stream fed so far."""
        return ResourceTally(t_count=self._t_count, t_depth=self._marks.count(1))


def _grow(marks: bytearray, layer: int) -> int:
    """Extend ``marks`` past ``layer``, to at least twice its length, so
    that growing costs amortized O(1) per mark; return the new length."""
    marks.extend(bytes(max(len(marks), layer + 1 - len(marks))))
    return len(marks)


def tally_flat(gates: Iterable[Gate], total_qubits: int) -> ResourceTally:
    """ASAP-schedule a stream of gates over flat qubit indices and tally it
    in one pass: the one-shot form of :class:`Schedule`."""
    return Schedule(total_qubits).feed(gates).tally()


def q_index(offset: int) -> int:
    # the binary index is register 0; kept for the benchmark's tracer
    return offset
