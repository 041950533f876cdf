"""Test-only oracles: the reference simulator, the sparse simulator run
one gate at a time, and the exact values, columns and unitaries read off
it, the scheduler's generic macro loop over a set of T layers, the
Walsh-Hadamard transform, stage 1 built level by level, the full loader,
the sync block's gates, the serial multi-controlled-Z ladder and the
naive loader built one ladder per record bit from it, the kernel
measurement over built gate lists, the exact iteration count in decimal
arithmetic, the one-shot tally of a circuit, the gate checks that the IR
leaves to its builders, the measured depths' exact laws, the register map
placed from the widths alone, the checked shared-control layer with its
fan-out lease, the record placement checked by marking, and the circuit,
basis-label, register read-out and database-export helpers that only
tests use, and a recorder of the sparse states a run makes.

:func:`gatewise_apply` is the tests' one reference simulator.  It applies
lowered gates one at a time to a sparse map of exact amplitudes in
Z[w]/sqrt(2)^k, and shares no code with the sparse or bit-sliced
simulators, so it cross-validates them; the fragment-matrix proofs in
``test_decompose.py`` rest on it, through :func:`to_unitary`.  Its states
stay sparse: a dense state in pure Python would cost seconds per circuit
on the acceptance suite's loaders.  Every amplitude a test compares is an
:func:`exact` value, compared by equality.  What the arithmetic means
is checked twice: each lowered kind's one-gate unitary against its
textbook matrix, and :func:`to_complex` against :mod:`cmath`.  That
reading is one of the two float helpers; the other is the transcendental
closed form :func:`success_probability_formula`.  Bit
conventions are those of :mod:`qsearch.circuit`: flat qubit g is bit
``total-1-g`` of a basis label.
"""
from __future__ import annotations

import contextlib
import decimal
import json
from fractions import Fraction
from itertools import accumulate

from qsearch.circuit import (
    LOWERED_KINDS,
    REGISTER_ORDER,
    Circuit,
    Gate,
    GateKind,
    Register,
    ResourceTally,
    Schedule,
    _ARITY,
    _TEMPLATES,
    fold_gates,
    gate,
    join_parts,
    tally_flat,
)
from qsearch.database import FORMAT_VERSION, Database
from qsearch.errors import CircuitError
from qsearch.kernel import ReportMode, ResourceReport
from qsearch.qdam import build_m1, build_m2, loader_parts
from qsearch.sim import SparseState

def register_shift(register_sizes, register: Register) -> int:
    """Bit position (from the least significant end) of a register's last
    qubit inside a basis label."""
    after = REGISTER_ORDER[REGISTER_ORDER.index(register) + 1:]
    return sum(register_sizes.get(reg, 0) for reg in after)


def register_bits(register_sizes, label: int, register: Register) -> int:
    """Value of one register inside a basis label."""
    size = register_sizes.get(register, 0)
    return label >> register_shift(register_sizes, register) & ((1 << size) - 1)


def basis_pattern(register_sizes, assignments) -> int:
    """Compose a basis label from per-register values (unassigned -> 0)."""
    pattern = 0
    for reg, value in assignments.items():
        size = register_sizes.get(reg, 0)
        if value < 0 or value >= (1 << size):
            raise CircuitError(f"value {value} does not fit register {reg.value}")
        pattern |= value << register_shift(register_sizes, reg)
    return pattern


@contextlib.contextmanager
def recorded_states():
    """While open, append every state :meth:`SparseState.apply` returns to
    the list it yields: the search's reload check is its only caller."""
    states = []
    apply = SparseState.apply

    def recording(state, circuit):
        out = apply(state, circuit)
        states.append(out)
        return out

    SparseState.apply = recording
    try:
        yield states
    finally:
        SparseState.apply = apply


# -- the reference simulator --------------------------------------------------


def omega(t: int) -> tuple[int, int, int, int]:
    """w^t as (a, b, c, d), by w^4 = -1."""
    amp = [0, 0, 0, 0]
    amp[t % 4] = -1 if t % 8 >= 4 else 1
    return tuple(amp)


# the power of w each single-qubit phase gate multiplies in
_OMEGA_POWERS = {GateKind.Z: omega(4), GateKind.S: omega(2), GateKind.SDG: omega(6),
                 GateKind.T: omega(1), GateKind.TDG: omega(7)}
_SQRT2 = (0, 1, 0, -1)  # w - w^3


def _omega_product(x, y) -> tuple[int, int, int, int]:
    """The product of two elements of Z[w], as coefficient tuples, by
    schoolbook multiplication with w^4 = -1."""
    out = [0, 0, 0, 0]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if i + j < 4:
                out[i + j] += xi * yj
            else:
                out[i + j - 4] -= xi * yj
    return tuple(out)


def gatewise_apply(state: SparseState, circuit: Circuit) -> SparseState:
    """:meth:`qsearch.sim.SparseState.apply` one gate at a time, in the
    same exact arithmetic over Z[w]/sqrt(2)^k: a new amplitude map per X,
    CNOT and H, each phase multiplied in by :func:`_omega_product`, and no
    fragment skipped.  After each H, ``k`` is lowered while every
    amplitude times sqrt(2) has even coefficients.  The arithmetic is
    exact, so on a circuit without fragment spans it must agree with
    ``apply`` exactly, key order and ``peak_support`` included.  Raises
    :class:`CircuitError` at the first macro gate, with ``state``
    untouched."""
    if circuit.total_qubits != state.total_qubits:
        raise CircuitError("circuit width does not match the state")
    total = state.total_qubits
    bit = [1 << (total - 1 - f) for f in range(total)]
    amps, k = dict(state.amplitudes), state.k
    peak = len(amps)
    for kind, flats in circuit.gates:
        if kind is GateKind.CNOT:
            cmask, tmask = bit[flats[0]], bit[flats[1]]
            amps = {(label ^ tmask) if (label & cmask) else label: a
                    for label, a in amps.items()}
        elif kind is GateKind.H:
            mask = bit[flats[0]]
            out: dict[int, tuple[int, int, int, int]] = {}
            for label, a in amps.items():
                minus = tuple(-x for x in a)
                for target, add in ((label & ~mask, a),
                                    (label | mask, minus if label & mask else a)):
                    before = out.get(target, (0, 0, 0, 0))
                    out[target] = tuple(x + y for x, y in zip(before, add))
            amps, k = {label: a for label, a in out.items() if any(a)}, k + 1
            peak = max(peak, len(amps))
            while amps:
                times = {label: _omega_product(a, _SQRT2) for label, a in amps.items()}
                if any(x % 2 for a in times.values() for x in a):
                    break
                amps = {label: tuple(x // 2 for x in a) for label, a in times.items()}
                k -= 1
        elif kind is GateKind.X:
            mask = bit[flats[0]]
            amps = {label ^ mask: a for label, a in amps.items()}
        elif kind is GateKind.CZ:
            mask = bit[flats[0]] | bit[flats[1]]
            for label, a in amps.items():
                if (label & mask) == mask:
                    amps[label] = _omega_product(a, _OMEGA_POWERS[GateKind.Z])
        else:
            phase = _OMEGA_POWERS.get(kind)
            if phase is None:
                raise CircuitError(
                    f"simulation requires a lowered circuit, got {kind.value}"
                )
            mask = bit[flats[0]]
            for label, a in amps.items():
                if label & mask:
                    amps[label] = _omega_product(a, phase)
    out_state = SparseState(total, amps, k)
    out_state.peak_support = max(peak, state.peak_support)
    return out_state


# -- exact values -------------------------------------------------------------


def exact(amp, k: int = 0) -> tuple[int, int, int, int, int]:
    """The value (a + b w + c w^2 + d w^3) / sqrt(2)^k of ``amp`` = (a, b,
    c, d), or of the int a, in lowest terms: (a, b, c, d, k) with the least
    k, which may be negative.  z is a multiple of sqrt(2) exactly when z
    sqrt(2) has even coefficients, so two values are equal exactly when
    their tuples are.  0 is (0, 0, 0, 0, 0)."""
    amp = (amp, 0, 0, 0) if isinstance(amp, int) else tuple(amp)
    if not any(amp):
        return (0, 0, 0, 0, 0)
    while True:
        times = _omega_product(amp, _SQRT2)
        if any(x % 2 for x in times):
            return (*amp, k)
        amp, k = tuple(x // 2 for x in times), k - 1


def amplitude(state: SparseState, label: int) -> tuple[int, int, int, int, int]:
    """The :func:`exact` amplitude of one basis label; a label the state
    does not store is 0."""
    return exact(state.amplitudes.get(label, (0, 0, 0, 0)), state.k)


def probability(amp, k: int) -> Fraction:
    """|z|^2 / 2^k of the exact amplitude z / sqrt(2)^k, z = a + b w + c w^2
    + d w^3: |z|^2 is a^2 + b^2 + c^2 + d^2 + sqrt(2) (ab + bc + cd - ad),
    and its sqrt(2) part must be 0, as the value is otherwise irrational."""
    a, b, c, d = amp
    assert a * b + b * c + c * d - a * d == 0, f"|{amp}|^2 is irrational"
    return Fraction(a * a + b * b + c * c + d * d, 1 << k)


def exact_column(circuit: Circuit, label: int) -> dict[int, tuple]:
    """Column ``label`` of a lowered circuit's unitary, as row -> its
    nonzero :func:`exact` entry: one :func:`gatewise_apply` run on that
    basis label."""
    out = gatewise_apply(SparseState.basis(circuit.total_qubits, label), circuit)
    return {row: exact(amp, out.k) for row, amp in out.amplitudes.items()}


def to_unitary(circuit: Circuit, max_qubits: int = 14) -> dict:
    """The unitary of a lowered circuit as (row, col) -> its nonzero
    :func:`exact` entries, one :func:`exact_column` per basis input.  Only
    for small circuits: above ``max_qubits`` qubits it raises
    :class:`CircuitError`."""
    if not is_lowered(circuit):
        raise CircuitError("to_unitary requires a lowered circuit")
    if circuit.total_qubits > max_qubits:
        raise CircuitError(
            f"{circuit.total_qubits} qubits exceeds the unitary cap {max_qubits}")
    return {(row, col): value for col in range(1 << circuit.total_qubits)
            for row, value in exact_column(circuit, col).items()}


def to_complex(amp, k: int) -> complex:
    """The exact amplitude (a + b w + c w^2 + d w^3) / sqrt(2)^k, w =
    e^(i pi/4), as a complex float: w = (1 + i)/sqrt(2), w^2 = i and
    w^3 = (-1 + i)/sqrt(2).  No test compares through it: ``test_sim.py``
    anchors it against :mod:`cmath`, which ties the exact values to the
    complex numbers they stand for."""
    import math

    half = math.sqrt(0.5)
    a, b, c, d = amp
    return complex(a + (b - d) * half, c + (b + d) * half) * half ** k


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


def _decimal_atan_inverse(k: int) -> decimal.Decimal:
    """atan(1/k) by its Taylor series, at the current decimal precision."""
    x = decimal.Decimal(1) / k
    power, total, j = x, x, 0
    while True:
        j += 1
        power /= -k * k
        term = power / (2 * j + 1)
        if total + term == total:
            return total
        total += term


def exact_iterations(n: int) -> int:
    """:func:`qsearch.grover.optimal_iterations` of N = 2^n, at least 1, in
    decimal arithmetic at n/3 + 30 digits: pi by Machin's formula and
    asin(2^(-n/2)) by its series, neither taken from a float."""
    with decimal.localcontext() as ctx:
        ctx.prec = n // 3 + 30
        pi = 16 * _decimal_atan_inverse(5) - 4 * _decimal_atan_inverse(239)
        x = 1 / decimal.Decimal(1 << n).sqrt()
        term, theta, k = x, x, 0
        while True:
            # asin x = sum_k (2k)! / (4^k (k!)^2 (2k+1)) x^(2k+1)
            term *= x * x * (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3))
            k += 1
            if theta + term == theta:
                break
            theta += term
        return max(1, int(pi / (4 * theta)))


def success_probability_formula(database_size: int, iterations: int) -> float:
    """Closed-form branch probability after ``iterations`` kernel rounds,
    sin^2((2K + 1) asin(1/sqrt(N))): transcendental, so a float."""
    import math

    theta = math.asin(1.0 / math.sqrt(database_size))
    return math.sin((2 * iterations + 1) * theta) ** 2


# -- scheduler ----------------------------------------------------------------


class ReferenceSchedule:
    """:class:`Schedule`'s state in plain containers: per-qubit
    availability, the Python set of T layers and the T count."""

    def __init__(self, total_qubits: int):
        self.avail = [0] * total_qubits
        self.t_layers: set[int] = set()
        self.t_count = 0

    def tally(self) -> ResourceTally:
        return ResourceTally(t_count=self.t_count, t_depth=len(self.t_layers))


def reference_feed(schedule: ReferenceSchedule, gates) -> ReferenceSchedule:
    """:meth:`Schedule.feed` as one generic loop over a set of T layers:
    each macro looks up its template, takes one ``max`` of its three entry
    terms and adds its T layers to the set, and every other gate takes the
    latest of its operands' times, whatever its arity.  It shares no state
    with :class:`Schedule`, so it checks the marks as well as the times."""
    avail, t_layers = schedule.avail, schedule.t_layers
    for kind, ops in gates:
        if kind in _TEMPLATES:
            (ua, ub, uc), (xa, xb, xc), t_consts, t_n = _TEMPLATES[kind]
            a, b, c = ops
            entry = max(avail[a] + ua, avail[b] + ub, avail[c] + uc)
            t_layers.update(entry + t for t in t_consts)
            avail[a], avail[b], avail[c] = entry + xa, entry + xb, entry + xc
            schedule.t_count += t_n
        else:
            layer = max(avail[i] for i in ops) + 1
            for i in ops:
                avail[i] = layer
            if kind is GateKind.T or kind is GateKind.TDG:
                schedule.t_count += 1
                t_layers.add(layer)
    return schedule


def marked_layers(schedule: Schedule) -> set[int]:
    """The layers a :class:`Schedule` has marked as holding a T or TDG."""
    return {layer for layer, mark in enumerate(schedule._marks) if mark}


# -- circuits -----------------------------------------------------------------


def resource_tally(circuit: Circuit) -> ResourceTally:
    """The tally of a circuit's gates, scheduled alone over its width."""
    return tally_flat(circuit.gates, circuit.total_qubits)


def check_gates(circuit: Circuit) -> Circuit:
    """Return ``circuit`` once every gate has its kind's arity, distinct
    operands and every qubit inside the circuit's width; raise
    :class:`CircuitError` at the first gate that does not."""
    total = circuit.total_qubits
    for kind, ops in circuit.gates:
        if len(ops) != _ARITY[kind]:
            raise CircuitError(f"{kind.value} takes {_ARITY[kind]} qubits, got {ops}")
        if len(set(ops)) != len(ops):
            raise CircuitError(f"duplicate operands in {kind.value}: {ops}")
        for q in ops:
            if not 0 <= q < total:
                raise CircuitError(f"qubit {q} outside the {total} qubits of {circuit!r}")
    return circuit


def is_lowered(circuit: Circuit) -> bool:
    """Whether every gate is Clifford+T, with no TOFFOLI or MCZ macro."""
    return all(kind in LOWERED_KINDS for kind, _ in circuit.gates)


def shared_control_layer(shared_control, pairs, fanout_ancillas=()) -> list[Gate]:
    """The generic, checked copy of
    :func:`qsearch.circuit.shared_control_layer`, the reference builder of
    stage 1 and of the records: Toffolis ``(second_control, carrier) ->
    target`` for each pair on ``len(pairs) - 1`` borrowed ancillas, which
    it restores to |0>.  The shared control, the pair operands and the
    ancillas used must be pairwise distinct, else :class:`CircuitError`."""
    if not pairs:
        return []
    operands = {shared_control, *(q for pair in pairs for q in pair)}
    if len(operands) != 2 * len(pairs) + 1:
        raise CircuitError(f"an operand is reused in the layer over {pairs}")
    needed = len(pairs) - 1
    ancillas = tuple(fanout_ancillas)[:needed]
    if len(ancillas) < needed:
        raise CircuitError(
            f"shared-control layer over {len(pairs)} pairs needs {needed} "
            f"fan-out ancillas, got {len(ancillas)}"
        )
    if len(operands.union(ancillas)) != len(operands) + needed:
        raise CircuitError(f"fan-out ancillas {ancillas} repeat or overlap an operand")
    gates: list[Gate] = []
    carriers, fresh, pad_sdg = [shared_control], iter(ancillas), []
    # doubling rounds keep every carrier last touched in one layer; a
    # partial last round pads the idle carriers with an S, undone after
    while len(carriers) < len(pairs):
        room = len(pairs) - len(carriers)
        sources = carriers[: min(len(carriers), room)]
        idle = carriers[len(sources):]
        new = [next(fresh) for _ in sources]
        gates += [gate(GateKind.CNOT, *pair) for pair in zip(sources, new)]
        if room < len(carriers):
            gates += [gate(GateKind.S, q) for q in idle]
            pad_sdg += [gate(GateKind.SDG, q) for q in idle]
        carriers.extend(new)
    fanout = [g for g in gates if g[0] is GateKind.CNOT]
    gates += [gate(GateKind.TOFFOLI, second, carrier, target)
              for (second, target), carrier in zip(pairs, carriers)]
    return gates + pad_sdg + fanout[::-1]


def qdam_regions(n: int, m: int) -> dict[str, range]:
    """The QDAM register map placed from ``(n, m)`` alone, the reference
    :class:`qsearch.qdam.QdamLayout` is checked against: the seven regions
    in flat order, each the range of its qubits.  Their sizes: n index
    qubits, 2^n one-hot, m data, m 2^n database bits and as many load
    ancillas, the fan-out pool of 2^(n-1) - 1 stage-1 qubits and m - 1 per
    record, and max(n, m) - 2 ladder ancillas."""
    records = 2 ** n
    sizes = {"index": n, "onehot": records, "data": m, "database": m * records,
             "load": m * records, "fanout": records // 2 - 1 + (m - 1) * records,
             "ladder": max(n, m, 2) - 2}
    ends = accumulate(sizes.values())
    return {name: range(end - size, end) for (name, size), end in zip(sizes.items(), ends)}


def fanout_lease(regions: dict[str, range], start: int, count: int) -> tuple[int, ...]:
    """Fan-out qubits ``start .. start + count - 1`` of the pool in
    ``regions`` (:func:`qdam_regions`), checked to lie inside it."""
    pool = regions["fanout"]
    if start + count > len(pool):
        raise CircuitError("fan-out pool exhausted")
    return tuple(pool[start:start + count])


def mark_records(regions, copies: int, total_qubits: int) -> None:
    """The record regions' placement checked by marking, the oracle of
    :class:`qsearch.circuit.RecordBlock`'s arithmetic check: ``regions``
    is ``(start, width)`` per region, record i's qubit k of a region is
    ``start + i * width + k``.  Every copy of every local operand is marked
    in a bytearray, and :class:`CircuitError` is raised when one leaves
    ``0 .. total_qubits - 1`` or two copies share a qubit.  The bound check
    is explicit, since a slice assignment past the end would grow the
    array instead of raising."""
    if copies < 1:
        raise CircuitError("the records need at least one copy")
    used, ones, marked = bytearray(total_qubits), bytearray(b"\1" * copies), 0
    for start, width in regions:
        for q in range(start, start + width):
            if q < 0 or q + (copies - 1) * width >= total_qubits:
                raise CircuitError(f"copies of qubit {q} leave the circuit")
            used[q:q + copies * width:width] = ones
            marked += copies
    if used.count(1) != marked:
        raise CircuitError("copies of the block overlap")


def stage1_per_level_gates(layout) -> tuple[Gate, ...]:
    """Stage 1 built one level at a time: an X on one-hot 0, then for
    level l one :func:`shared_control_layer` call on index qubit n - l
    over the pairs (one-hot j, one-hot 2^(l-1) + j) with the first
    2^(l-1) - 1 fan-out qubits, a lone CNOT at l = 1, and the clearing
    CNOTs back from each new hot candidate.  It places its qubits by
    :func:`qdam_regions`, reading only the layout's widths."""
    regions = qdam_regions(layout.n, layout.m)
    n, base = layout.n, regions["onehot"].start
    gates = [gate(GateKind.X, base)]
    for level in range(1, n + 1):
        span, ctrl = 1 << (level - 1), n - level
        if level == 1:
            gates.append(gate(GateKind.CNOT, ctrl, base + 1))
        else:
            pairs = [(base + j, base + span + j) for j in range(span)]
            gates += shared_control_layer(ctrl, pairs, fanout_lease(regions, 0, span - 1))
        gates += [gate(GateKind.CNOT, base + span + j, base + j) for j in range(span)]
    return tuple(gates)


def build_qdam(layout, db) -> Circuit:
    """Full loader: stage 1 then stage 2."""
    stages = build_m1(layout), build_m2(layout, loader_parts(layout, db)[1:])
    return join_parts(layout.register_sizes, stages)


def stage2_per_record_gates(layout, keys) -> tuple[Gate, ...]:
    """Stage 2 built one record at a time: a validated X per 1 bit of the
    database, then for record i one :func:`shared_control_layer` call on
    one-hot i over its pairs (database(i, j), load(i, j)) and its own fan-out
    lease, past the 2^(n-1) - 1 that stage 1 leases, then the fan-in of each
    data bit.  It places its qubits by :func:`qdam_regions`, reading only
    the layout's widths."""
    m, regions = layout.m, qdam_regions(layout.n, layout.m)
    onehot, data = regions["onehot"], regions["data"]
    database, load = regions["database"], regions["load"]
    base = (1 << (layout.n - 1)) - 1
    gates = [gate(GateKind.X, database[i * m + j])
             for i, key in enumerate(keys)
             for j, bit in enumerate(key) if bit == "1"]
    for i in range(len(keys)):
        pairs = [(database[i * m + j], load[i * m + j]) for j in range(m)]
        lease = fanout_lease(regions, base + i * (m - 1), m - 1)
        gates.extend(shared_control_layer(onehot[i], pairs, lease))
    for j in range(m):
        column = [load[i * m + j] for i in range(len(keys))]
        gates.extend(fold_gates(column, data[j]))
    return tuple(gates)


def mcz_ladder(qubits, ancillas=()) -> list[Gate]:
    """Phase flip of the |1...1> branch over the k ``qubits``, as a serial
    ladder: an AND chain of Toffolis from qubit 0 into the first k-3
    ``ancillas``, a CCZ apex on the chain's end and the last two qubits,
    and the chain undone.  Z, CZ and CCZ below k = 4.  The reference the
    naive loader and :func:`qsearch.decompose.mcz_tree` are checked
    against."""
    qubits = tuple(qubits)
    if len(qubits) <= 3:
        kind = {1: GateKind.Z, 2: GateKind.CZ, 3: GateKind.MCZ}[len(qubits)]
        return [gate(kind, *qubits)]
    ancillas = tuple(ancillas)[:len(qubits) - 3]
    assert len(ancillas) == len(qubits) - 3, "too few ladder ancillas"
    chain = (qubits[0], *ancillas)
    up = [gate(GateKind.TOFFOLI, chain[i], qubits[i + 1], chain[i + 1])
          for i in range(len(ancillas))]
    return [*up, gate(GateKind.MCZ, chain[-1], *qubits[-2:]), *up[::-1]]


def sync_touch(qubits) -> list[Gate]:
    """The sync block's gates, built as a loop over rounds: one round per
    hypercube dimension r, each i with no bit r paired with i xor r by two
    validated CNOTs.  The reference :class:`qsearch.circuit.SyncBlock`'s
    gates are checked against; a power-of-two qubit count is required."""
    qubits, gates, r = list(qubits), [], 1
    k = len(qubits)
    if k & (k - 1):
        raise CircuitError("sync block needs a power-of-two qubit count")
    while r < k:
        for i in range(k):
            if not i & r:
                pair = gate(GateKind.CNOT, qubits[i], qubits[i ^ r])
                gates += [pair, pair]
        r <<= 1
    return gates


def naive_loader_gates(n: int, m: int, keys) -> tuple[Gate, ...]:
    """The naive loader's gates, built one record bit at a time on a
    placement of its own: index bit b on qubit b, data bit j on n + j,
    database bit (i, j) on n + m + i*m + j and the n - 1 ladder ancillas
    after the database.  A validated X per 1 bit of the database, then
    for record i the X conjugation of its 0 index bits around one
    :func:`mcz_ladder` call over ``(*index, database(i, j), data_j)`` per
    bit j, between two H."""
    def database(i, j):
        return n + m + i * m + j

    gates = [gate(GateKind.X, database(i, j))
             for i, key in enumerate(keys)
             for j, bit in enumerate(key) if bit == "1"]
    ladder = range(database(1 << n, 0), database(1 << n, 0) + n - 1)
    for i in range(len(keys)):
        pattern = format(i, f"0{n}b")
        conjugate = [gate(GateKind.X, b) for b in range(n) if pattern[b] == "0"]
        gates.extend(conjugate)
        for j in range(m):
            target = n + j
            gates.append(gate(GateKind.H, target))
            gates.extend(mcz_ladder((*range(n), database(i, j), target), ladder))
            gates.append(gate(GateKind.H, target))
        gates.extend(conjugate)
    return tuple(gates)


def flat_measure_kernel(circuits, iterations: int) -> ResourceReport:
    """:func:`qsearch.kernel.measure_kernel` over the built gate lists:
    stage 1 built one level at a time, stage 2's materialized gates forward
    and standalone, and the loader's gates reversed as the inverse loader."""
    layout = circuits.layout
    total = layout.total_qubits
    stage1 = stage1_per_level_gates(layout)
    kernel = Schedule(total)
    t_m1 = kernel.feed(stage1).tally()
    t_loader = kernel.feed(circuits.stage2.gates).tally()
    t_kernel = (kernel.feed(circuits.target_reflection.gates)
                .feed(reversed((*stage1, *circuits.stage2.gates)))
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


def reflection_law(k: int) -> int:
    """R(k), the measured T-depth of a phase flip on k qubits: 0 for
    k <= 2, 3 for k = 3, and 3 (2 ceil(log2(k/3)) + 1) above, where
    ceil(log2(k/3)) is the least L with 3 * 2^L >= k."""
    if k <= 3:
        return 3 if k == 3 else 0
    return 3 * (2 * ((k - 1) // 3).bit_length() + 1)


def measured_law(n: int, m: int) -> dict[str, int]:
    """The depth fields of a zero-key measured report at (n, m), and its
    kernel T-count, by their exact laws: stage 1 3(n-1), stage 2 3, the
    loader 3n, the target reflection R(m), the diffusion R(n), and the
    kernel, two loaders and both reflections, 6n + R(m) + R(n).  Every
    macro holds 7 T: a loader has stage 1's 2^n - 2 Toffolis (2^(l-1) at
    each level l > 1) and one per record bit, m 2^n, and a phase flip on
    k qubits 2k - 5 from k = 3 (an AND tree into k - 3 ancillas, its
    uncompute and the CCZ apex) and none below."""
    flip_macros = max(0, 2 * m - 5) + max(0, 2 * n - 5)
    loader_toffolis = (1 << n) - 2 + (m << n)
    return {
        "t_depth_m1": 3 * (n - 1),
        "t_depth_m2": 3,
        "t_depth_qdam": 3 * n,
        "t_depth_oracle_reflection": reflection_law(m),
        "t_depth_diffusion": reflection_law(n),
        "t_depth_kernel": 6 * n + reflection_law(m) + reflection_law(n),
        "t_count_total": 7 * (2 * loader_toffolis + flip_macros),
    }


def naive_law(n: int, m: int) -> dict[str, int]:
    """The fields of :func:`measured_law` for the naive report at (n, m):
    its loader is L = m 2^n (2n - 1) macros in one chain, 3L T layers and
    7L T (:meth:`qsearch.qdam.NaiveLoader.tally`), all of it stage 2; the
    reflections are the optimized kernel's, R(m) and R(n); the kernel is
    6L + R(m) + R(n), and its T-count 14L plus 7 per reflection macro."""
    macros = (m << n) * (2 * n - 1)
    flip_macros = max(0, 2 * m - 5) + max(0, 2 * n - 5)
    return {
        "t_depth_m1": 0,
        "t_depth_m2": 3 * macros,
        "t_depth_qdam": 3 * macros,
        "t_depth_oracle_reflection": reflection_law(m),
        "t_depth_diffusion": reflection_law(n),
        "t_depth_kernel": 6 * macros + reflection_law(m) + reflection_law(n),
        "t_count_total": 7 * (2 * macros + flip_macros),
    }


def macro_counts(circuit: Circuit) -> dict[GateKind, int]:
    counts: dict[GateKind, int] = {}
    for kind, _ in circuit.gates:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


_IMPORT_NAME = {("CCX" if kind is GateKind.TOFFOLI else kind.value): kind
                for kind in GateKind}


def from_json(text: str) -> Circuit:
    """Parse :meth:`Circuit.export_json` output back into a circuit, and
    check its gates with :func:`check_gates`."""
    doc = json.loads(text)
    sizes = {Register(name): size for name, size in doc["registers"].items()}
    flat = {}
    for reg in REGISTER_ORDER:
        for offset in range(sizes.get(reg, 0)):
            flat[f"{reg.value}:{offset}"] = len(flat)
    gates = [gate(_IMPORT_NAME[entry["gate"]], *(flat[q] for q in entry["qubits"]))
             for entry in doc["gates"]]
    return check_gates(Circuit(sizes, gates))


def database_json(db: Database) -> str:
    """A database as the normative file format that
    :func:`qsearch.database.load_database` reads."""
    doc = {
        "version": FORMAT_VERSION,
        "fields": [{"name": f.name, "bit_width": f.bit_width} for f in db.fields],
        "key_field": db.key_field,
        "records": [dict(r.values) for r in db.records],
    }
    return json.dumps(doc, indent=2) + "\n"
