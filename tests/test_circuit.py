"""Circuit IR, scheduler, tally, unitary extraction, and export format."""
from __future__ import annotations

import random
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsearch.circuit import (
    LOWERED_KINDS,
    Circuit,
    FanIn,
    GateKind,
    OneHotDecoder,
    RecordBlock,
    Register,
    Schedule,
    SyncBlock,
    _TEMPLATES,
    _block_entry,
    _derive_template,
    fold_gates,
    gate,
    join_parts,
    shared_control_layer,
    tally_flat,
)
from qsearch.decompose import (
    ccz_gates,
    decompose_toffoli,
    lower_circuit,
)
from qsearch.errors import CircuitError
from qsearch.sim import SparseState

from conftest import ONE, TEXTBOOK, ideal_toffoli_matrix, random_lowered_circuit
from oracles import (
    ReferenceSchedule,
    _omega_product,
    check_gates,
    exact,
    exact_column,
    from_json,
    gatewise_apply,
    is_lowered,
    mark_records,
    marked_layers,
    reference_feed,
    resource_tally,
    sync_touch,
    to_unitary,
)
from oracles import shared_control_layer as checked_layer

A = Register.ANCILLA
_q = list(range(6))  # flat indices of circuits over the ANCILLA register alone


def _circ(gates, n=6):
    return Circuit({A: n}, gates)


def test_t_depth_disjoint_qubits_share_a_layer():
    circ = _circ([gate(GateKind.T, _q[0]), gate(GateKind.T, _q[1])])
    assert resource_tally(circ).t_depth == 1


def test_t_depth_same_qubit_serializes():
    circ = _circ([gate(GateKind.T, _q[0]), gate(GateKind.T, _q[0])])
    assert resource_tally(circ).t_depth == 2


def test_t_depth_cnot_orders_the_two_t_gates():
    circ = _circ([
        gate(GateKind.T, _q[0]),
        gate(GateKind.CNOT, _q[0], _q[1]),
        gate(GateKind.T, _q[1]),
    ])
    assert resource_tally(circ).t_depth == 2


def test_tally_empty_circuit_is_all_zero():
    tally = resource_tally(_circ([]))
    assert tally.t_count == 0
    assert tally.t_depth == 0


def test_tally_one_lowered_toffoli():
    tally = resource_tally(_circ(decompose_toffoli(_q[0], _q[1], _q[2])))
    assert tally.t_count == 7
    assert tally.t_depth == 3


def test_tally_two_disjoint_toffolis_merge_layers():
    gates = decompose_toffoli(_q[0], _q[1], _q[2]) + decompose_toffoli(
        _q[3], _q[4], _q[5]
    )
    tally = resource_tally(_circ(gates))
    assert tally.t_count == 14
    assert tally.t_depth == 3


def _reference_layers(circ):
    """Gate-by-gate ASAP layering: each gate goes right after the last layer
    holding a gate that shares one of its qubits."""
    layers = []
    for g in circ.gates:
        layer = 0
        for i, placed in enumerate(layers):
            if any(set(h[1]) & set(g[1]) for h in placed):
                layer = i + 1
        if layer == len(layers):
            layers.append([])
        layers[layer].append(g)
    return layers


def test_scheduler_layers_never_share_qubits():
    rng = random.Random(7)
    t_kinds = {GateKind.T, GateKind.TDG}
    for _ in range(20):
        circ = random_lowered_circuit(rng, 6, 60)
        layers = _reference_layers(circ)
        for layer in layers:
            seen = set()
            for _, ops in layer:
                assert not seen.intersection(ops)
                seen.update(ops)
        # each qubit is free after the last reference layer that touches it
        last = [0] * circ.total_qubits
        for depth, layer in enumerate(layers, 1):
            for _, ops in layer:
                for q in ops:
                    last[q] = depth
        assert Schedule(circ.total_qubits).feed(circ.gates)._avail == last
        assert resource_tally(circ).t_depth == sum(
            any(kind in t_kinds for kind, _ in layer) for layer in layers
        )


def test_metrics_are_deterministic():
    rng = random.Random(11)
    circ = random_lowered_circuit(rng, 5, 80)
    assert resource_tally(circ) == resource_tally(circ)


def test_metrics_schedule_macros_as_their_lowering():
    circ = Circuit({A: 4}, [gate(GateKind.T, _q[1]),
                            gate(GateKind.TOFFOLI, _q[0], _q[1], _q[2]),
                            gate(GateKind.MCZ, _q[3], _q[2], _q[0])])
    assert not is_lowered(circ)
    lowered = lower_circuit(circ)
    assert resource_tally(circ).t_depth == resource_tally(lowered).t_depth
    assert resource_tally(circ) == resource_tally(lowered)
    # an MCZ is a CCZ: no wider one is built
    with pytest.raises(CircuitError):
        gate(GateKind.MCZ, *_q[:4])
    with pytest.raises(CircuitError, match="to_unitary requires a lowered circuit"):
        to_unitary(circ)


_MACRO_MIX = [GateKind.TOFFOLI, GateKind.MCZ, GateKind.CNOT, GateKind.CZ,
              GateKind.H, GateKind.X, GateKind.S, GateKind.SDG, GateKind.T,
              GateKind.TDG]
_LOWERED_MIX = _MACRO_MIX[2:]
_MIX_ARITY = {GateKind.TOFFOLI: 3, GateKind.MCZ: 3, GateKind.CNOT: 2,
              GateKind.CZ: 2}


@st.composite
def _macro_circuits(draw):
    """A random lowered prefix, to stagger the entry times, then a random
    mix of macro and lowered gates, on 3 to 8 qubits."""
    width = draw(st.integers(3, 8))
    qubits = list(range(width))

    def gates(kinds, max_size):
        out = []
        for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_size)):
            order = draw(st.permutations(range(width)))
            out.append(gate(kind, *(qubits[i] for i in
                                    order[:_MIX_ARITY.get(kind, 1)])))
        return out

    return Circuit({A: width}, gates(_LOWERED_MIX, 24) + gates(_MACRO_MIX, 32))


@settings(max_examples=300, deadline=None)
@given(_macro_circuits())
def test_macro_tally_equals_the_lowered_tally(circ):
    total = circ.total_qubits
    macro = Schedule(total).feed(circ.gates)
    lowered = Schedule(total).feed(lower_circuit(circ).gates)
    assert macro.tally() == lowered.tally()
    assert macro._avail == lowered._avail


@settings(max_examples=300, deadline=None)
@given(_macro_circuits())
def test_feed_equals_the_generic_macro_loop(circ):
    total = circ.total_qubits
    fast = Schedule(total).feed(circ.gates)
    slow = reference_feed(ReferenceSchedule(total), circ.gates)
    assert fast._avail == slow.avail
    assert marked_layers(fast) == slow.t_layers
    assert fast._t_count == slow.t_count
    assert fast.tally() == slow.tally()


def test_feed_regrows_the_marks_and_snapshots_every_prefix():
    # a serial stream on three qubits, fed in segments of growing length:
    # each T layer lies past the last, so the marks regrow several times,
    # and every snapshot must be the prefix's tally over a set of layers
    kinds = [GateKind.TOFFOLI, GateKind.T, GateKind.MCZ, GateKind.CNOT,
             GateKind.TDG, GateKind.H, GateKind.TOFFOLI]
    stream = [gate(kind, *(1, 2, 0)[:_MIX_ARITY.get(kind, 1)])
              for _ in range(300) for kind in kinds]
    fast, slow = Schedule(3), ReferenceSchedule(3)
    sizes, start, step = [0], 0, 1
    while start < len(stream):
        segment = stream[start:start + step]
        assert fast.feed(segment).tally() == reference_feed(slow, segment).tally()
        assert marked_layers(fast) == slow.t_layers
        assert fast._avail == slow.avail
        if len(fast._marks) != sizes[-1]:
            sizes.append(len(fast._marks))
        start, step = start + step, step + 1
    assert fast.tally() == tally_flat(stream, 3)
    assert len(sizes) > 6
    # geometric growth: every regrowth at least doubles the marks, which
    # never run more than twice past the latest layer
    assert all(new >= 2 * old for old, new in zip(sizes[1:], sizes[2:]))
    assert len(fast._marks) <= 2 * (max(fast._avail) + 1)


@settings(max_examples=200, deadline=None)
@given(_macro_circuits(), st.integers(0, 56), st.integers(0, 56))
def test_schedule_snapshots_equal_the_prefix_tallies(circ, cut1, cut2):
    gates, total = circ.gates, circ.total_qubits
    cuts = sorted((min(cut1, len(gates)), min(cut2, len(gates))))
    bounds = [0, *cuts, len(gates)]
    schedule = Schedule(total)
    for start, stop in zip(bounds, bounds[1:]):
        snapshot = schedule.feed(gates[start:stop]).tally()
        assert snapshot == tally_flat(gates[:stop], total)


@settings(max_examples=200, deadline=None)
@given(_macro_circuits())
def test_reversed_stream_tallies_as_the_inverse(circ):
    total = circ.total_qubits
    assert (tally_flat(reversed(circ.gates), total)
            == tally_flat(circ.inverted().gates, total))


def _place(rng, shapes):
    """Regions of ``(width, copies)`` in a random order from a random
    offset, with a gap of 0 to 3 qubits after each: their starts, in the
    order given, and the width of the circuit that holds them."""
    starts, top = [0] * len(shapes), rng.randrange(4)
    for r in rng.sample(range(len(shapes)), len(shapes)):
        starts[r] = top
        top += shapes[r][0] * shapes[r][1] + rng.randrange(4)
    return starts, top


def _records_at(m, copies, starts, total):
    onehot, database, load, lease = starts
    return RecordBlock(m, copies, onehot, database, load, lease, total)


def _record_widths(m):
    # one-hot, database, load and lease qubits per record
    return (1, m, m, m - 1)


_MODES = ("uniform", "column", "record", "qubit")


def _prior(rng, total, regions):
    """A schedule's state before a part: an entry time per qubit, then
    each region ``(start, width, copies, modes)`` redrawn in one of
    ``modes``: one time for the region, per column, per record or per
    qubit, or ``keys``, 0 or 1 per bit, as preparing random keys leaves a
    database; then a mark bytearray and a non-zero T count.  The times lie
    in base + [0, spread) for a spread of 1, 3 or 40, so every qubit may
    enter at one time, zero or not, and ties are common."""
    base, spread = rng.randrange(20), rng.choice((1, 3, 40))

    def times(count):
        return [base + rng.randrange(spread) for _ in range(count)]

    avail = times(total)
    for start, width, copies, modes in regions:
        mode, size = rng.choice(modes), width * copies
        avail[start:start + size] = (
            times(1) * size if mode == "uniform"
            else times(width) * copies if mode == "column"
            else [t for t in times(copies) for _ in range(width)] if mode == "record"
            else times(size) if mode == "qubit"
            else [rng.randrange(2) for _ in range(size)])
    marks = bytearray(rng.randrange(2) for _ in range(rng.randrange(60)))
    return avail, marks, rng.randrange(1, 100)


def _circuit_feeds(rng, width, size):
    # a random mix of macro and lowered gates on one region
    (start,), total = _place(rng, [(width, 1)])
    gates = [gate(kind, *rng.sample(range(start, start + width), _MIX_ARITY.get(kind, 1)))
             for kind in rng.choices(_MACRO_MIX, k=size)]
    return Circuit({A: total}, gates), _prior(rng, total, [(start, width, 1, _MODES)]), True


def _record_feeds(rng, m, copies):
    # the records feed their gates where the two evaluations part, so every
    # prior is admitted
    widths = _record_widths(m)
    starts, total = _place(rng, [(w, copies) for w in widths])
    regions = [(start, width, copies, _MODES + ("keys",) * (r == 1))
               for r, (start, width) in enumerate(zip(starts, widths))]
    return _records_at(m, copies, starts, total), _prior(rng, total, regions), True


def _fan_in_feeds(rng, depth, copies, late=None):
    # fold j's column is every copies-th qubit of the load region from j.
    # An edge shape's ``late`` has each region enter at one time, then
    # delays one qubit of the "load" region or of the "target"s, or none
    (load, target), total = _place(rng, [(copies, 1 << depth), (1, copies)])
    modes = _MODES if late is None else ("uniform",)
    avail, marks, t_count = _prior(rng, total, [(load, copies, 1 << depth, modes),
                                                (target, 1, copies, modes)])
    start, count = {"load": (load, copies << depth), "target": (target, copies)}.get(late, (0, 0))
    if count:
        avail[start + rng.randrange(count)] += rng.randrange(1, 4)
    return FanIn(load, depth, target, copies, total), (avail, marks, t_count), True


def _sync_feeds(rng, j, pads):
    width = (1 << j) - pads
    (start, pad), total = _place(rng, [(1, width), (1, pads)])
    block = SyncBlock(range(start, start + width), range(pad, pad + pads), total)
    return block, _prior(rng, total, [(start, 1, width, _MODES), (pad, 1, pads, _MODES)]), True


def _decoder_feeds(rng, n):
    # the index on qubits 0 .. n-1; one of the one-hot register and the
    # lease classes (class r: the 2^r qubits that fan-out round r fills),
    # or none, may enter staggered, and the decoder admits the prior only
    # if each enters at one time
    size = 1 << n
    (onehot, lease), total = _place(rng, [(1, size), (1, size // 2 - 1)])
    onehot, lease, total = onehot + n, lease + n, total + n
    regions = [(onehot, size), *((lease + (1 << r) - 1, 1 << r) for r in range(n - 1))]
    late = rng.randrange(len(regions) + 1)
    prior = _prior(rng, total, [(start, 1, count, _MODES if r == late else ("uniform",))
                                for r, (start, count) in enumerate(regions)])
    admitted = all(len(set(prior[0][start:start + count])) == 1 for start, count in regions)
    return OneHotDecoder(n, onehot, lease, total), prior, admitted


class _Row(NamedTuple):
    """A row of the feed table: from a seeded generator and a shape, its
    builder gives a part placed by _place, a prior and whether the part
    admits it."""

    build: Callable  # (rng, *shape) -> (part, (avail, marks, t_count), admitted)
    shapes: st.SearchStrategy  # the shapes drawn
    edges: list  # the shapes checked on every run
    examples: int  # per direction


_COPIES = st.integers(1, 6) | st.integers(1, 6).map(lambda e: 1 << e)

# one row per part class; test_hygiene requires a row for every member of
# circuit.Part and every class of the package that defines feed_into
PART_FEEDS = {
    Circuit: _Row(_circuit_feeds, st.tuples(st.integers(3, 8), st.integers(0, 32)),
                  [(3, 0)], 100),
    RecordBlock: _Row(_record_feeds, st.tuples(st.integers(1, 6), _COPIES),
                      [(1, 1), (4, 5)], 250),
    FanIn: _Row(_fan_in_feeds, st.tuples(st.integers(0, 8), st.integers(1, 6)),
                [(0, 1), (0, 5), (2, 3, "uniform"), (2, 3, "load"), (2, 3, "target")], 100),
    SyncBlock: _Row(_sync_feeds, st.integers(0, 10).flatmap(
        lambda j: st.tuples(st.just(j), st.integers(0, (1 << j) - 1))), [(0, 0), (3, 7)], 100),
    OneHotDecoder: _Row(_decoder_feeds, st.tuples(st.integers(1, 10)), [(1,), (2,)], 150),
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("cls", PART_FEEDS, ids=lambda cls: cls.__name__)
def test_feeding_a_part_equals_feeding_its_gates(cls, reverse):
    # on an admitted prior, the part's feed leaves the availability, the
    # tally and the marks that both schedulers leave over its gates; on any
    # other, it refuses
    row = PART_FEEDS[cls]

    def check(shape, seed):
        part, (avail, marks, t_count), admitted = row.build(random.Random(seed), *shape)
        fed, flat, slow = Schedule(len(avail)), Schedule(len(avail)), ReferenceSchedule(0)
        for schedule in (fed, flat):
            schedule._avail, schedule._marks, schedule._t_count = list(avail), marks[:], t_count
        slow.avail, slow.t_count = list(avail), t_count
        slow.t_layers = {layer for layer, mark in enumerate(marks) if mark}
        if not admitted:
            with pytest.raises(CircuitError, match="enters staggered"):
                part.feed_into(fed, reverse)
            return
        part.feed_into(fed, reverse)
        gates = part.gates[::-1] if reverse else part.gates
        flat.feed(gates)
        reference_feed(slow, gates)
        assert fed._avail == flat._avail == slow.avail
        assert fed.tally() == flat.tally() == slow.tally()
        assert marked_layers(fed) == marked_layers(flat) == slow.t_layers

    for shape in row.edges:
        check = example(shape, 0)(example(shape, 1)(check))
    settings(max_examples=row.examples, deadline=None)(
        given(row.shapes, st.integers(0, 2**32 - 1))(check))()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.booleans(), st.data())
def test_block_entry_equals_feeding_the_layer(pairs, reverse, data):
    # one layer over control 0, seconds 1 .. p, targets p + 1 .. 2p and
    # lease 2p + 1 .. 3p - 1, entering at random times, one per lease class
    # and one per operand group
    rounds, times = (pairs - 1).bit_length(), st.integers(0, 30)
    control, second, target = data.draw(times), data.draw(times), data.draw(times)
    classes = [data.draw(times) for _ in range(rounds)]
    entry = _block_entry(pairs, control, classes, second, target)
    if entry is None:  # a partial last round whose class enters late
        assert pairs & (pairs - 1) and classes[-1] > control + rounds - 1
        return
    lease = [classes[(k + 1).bit_length() - 1] for k in range(pairs - 1)]
    fed = Schedule(3 * pairs)
    fed._avail = [control, *[second] * pairs, *[target] * pairs, *lease]
    gates = shared_control_layer(0, [(1 + j, 1 + pairs + j) for j in range(pairs)],
                                 range(2 * pairs + 1, 3 * pairs))
    fed.feed(gates[::-1] if reverse else gates)
    _, (xa, xb, xc), t_layers, t_n = _TEMPLATES[GateKind.TOFFOLI]
    out = entry + xb + rounds
    assert fed._avail == [out, *[entry + xa] * pairs, *[entry + xc] * pairs,
                          *(out - (k + 1).bit_length() + 1 for k in range(pairs - 1))]
    assert marked_layers(fed) == {entry + t for t in t_layers}
    assert fed.tally().t_count == t_n * pairs


def _record_stream(m, copies, starts):
    """The records' gates built record by record, each its own call of the
    tests' checked layer on its moved qubits."""
    onehot, database, load, lease = starts
    stream = []
    for i in range(copies):
        pairs = [(database + i * m + j, load + i * m + j) for j in range(m)]
        lent = range(lease + i * (m - 1), lease + (i + 1) * (m - 1))
        stream += checked_layer(onehot + i, pairs, lent)
    return stream


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_record_block_gates_are_the_checked_layers_record_by_record(m, copies, seed):
    # any copy count, not only powers of two, the regions placed apart in a
    # random order
    starts, total = _place(random.Random(seed), [(w, copies) for w in _record_widths(m)])
    records = _records_at(m, copies, starts, total)
    assert records.gates == tuple(_record_stream(m, copies, starts))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(("copies", "late"),
                         [(5, None), (5, 0), (5, 1), (1, None)],
                         ids=["constant", "one-late", "dominated-late", "one-copy"])
def test_record_block_closed_form_boundary(monkeypatch, reverse, copies, late):
    # records of m = 3 over the first 16 copies of 64 qubits, after a sync
    # block that leaves every qubit at the same non-zero layer; with
    # ``late``, one qubit of record 2 in region ``late`` enters one layer
    # after the others: its one-hot qubit, or its database bit 0, which
    # the fan-out of its one-hot qubit outwaits
    m, total = 3, 64
    starts = (0, copies, copies * (1 + m), copies * (1 + 2 * m))
    records = _records_at(m, copies, starts, total)
    prior = sync_touch(range(total))
    if late is not None:
        prior.append(gate(GateKind.X, starts[late] + 2 * _record_widths(m)[late]))
    copied = records.gates[::-1] if reverse else records.gates
    flat = Schedule(total).feed(prior).feed(copied)
    tiled = Schedule(total).feed(prior)
    assert set(tiled._avail) == ({12} if late is None else {12, 13})
    # the records go by their closed form, which feeds no gate, unless a
    # one-hot qubit enters late: then the control is not one time, and the
    # records' gates are fed; a late database bit is outwaited by the
    # fan-out, so both evaluations agree
    calls, feed = [], Schedule.feed

    def recording(schedule, gates):
        fed = gates if isinstance(gates, tuple) else tuple(gates)
        calls.append((len(schedule._avail), fed))
        return feed(schedule, fed)

    monkeypatch.setattr(Schedule, "feed", recording)
    records.feed_into(tiled, reverse=reverse)
    assert calls == ([(total, copied)] if late == 0 else [])
    slow = reference_feed(reference_feed(ReferenceSchedule(total), prior), copied)
    assert tiled.tally() == flat.tally() == slow.tally()
    assert tiled._avail == flat._avail == slow.avail
    assert marked_layers(tiled) == slow.t_layers


def test_record_block_rejects_overlapping_regions():
    # m = 2, 2 records: one-hot 0..1, database 2..5, load 6..9, lease 10..11
    RecordBlock(2, 2, 0, 2, 6, 10, 12)
    with pytest.raises(CircuitError):  # the load region starts on database bit 3
        RecordBlock(2, 2, 0, 2, 5, 10, 12)
    with pytest.raises(CircuitError):  # the lease starts on the last load ancilla
        RecordBlock(2, 2, 0, 2, 6, 9, 12)
    with pytest.raises(CircuitError):  # the one-hot qubits run onto the database
        RecordBlock(2, 3, 0, 2, 8, 14, 16)
    with pytest.raises(CircuitError):
        RecordBlock(2, 0, 0, 2, 6, 10, 12)
    with pytest.raises(CircuitError):
        RecordBlock(0, 2, 0, 2, 6, 10, 12)
    # at m = 1 the lease is empty, and an empty region overlaps nothing
    RecordBlock(1, 2, 0, 2, 4, 3, 6)


def test_record_block_bounds_every_record_explicitly():
    # the last lease qubit is the circuit's last qubit, which record 1's
    # one-hot qubit uncopies last; one qubit less, and the lease leaves the
    # circuit
    assert RecordBlock(2, 2, 0, 2, 6, 10, 12).gates[-1][1] == (1, 11)
    with pytest.raises(CircuitError, match="the records leave the circuit"):
        RecordBlock(2, 2, 0, 2, 6, 10, 11)
    with pytest.raises(CircuitError, match="the records leave the circuit"):
        RecordBlock(2, 2, -1, 2, 6, 10, 12)
    with pytest.raises(CircuitError, match="the records leave the circuit"):
        RecordBlock(1, 3, 9, 0, 3, 6, 11)  # one-hot 9, 10, 11 of 11


@st.composite
def _placements(draw):
    """Records at m 1..4 and 1..5 copies, each region placed after the one
    before with a gap of -1 (sharing a qubit), 0 or more, from a start of
    -1 or more, in a circuit that may end a qubit short of them."""
    m, copies = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    starts, top = [0] * 4, draw(st.integers(-1, 2))
    for r in draw(st.permutations(range(4))):
        starts[r] = top
        top += _record_widths(m)[r] * copies + draw(st.integers(-1, 2))
    return m, copies, starts, max(0, top + draw(st.integers(-1, 1)))


@settings(max_examples=400, deadline=None)
@given(_placements())
def test_the_region_check_agrees_with_the_marking_oracle(case):
    m, copies, starts, total = case
    regions = list(zip(starts, _record_widths(m)))
    try:
        mark_records(regions, copies, total)
        marked = True
    except CircuitError:
        marked = False
    try:
        _records_at(m, copies, starts, total)
        checked = True
    except CircuitError:
        checked = False
    assert checked == marked


def test_fan_in_gates_are_the_shifted_folds():
    # fold j is column j's fold into target j, fold by fold
    fan_in = FanIn(3, 2, 0, 3, 15)
    assert fan_in.gates == tuple(
        g for j in range(3) for g in fold_gates(range(3 + j, 15, 3), j))
    assert FanIn(0, 0, 1, 1, 2).gates == ((GateKind.CNOT, (0, 1)),)


def test_fan_in_checks_its_region_once():
    FanIn(2, 1, 0, 2, 6)  # columns {2, 4} and {3, 5}, targets 0 and 1
    FanIn(0, 1, 4, 2, 6)  # the targets after the region
    for args in ((2, 1, 0, 2, 5),  # the region ends past the width
                 (0, 1, 4, 2, 5),  # so does the second target
                 (1, 1, 0, 2, 6),  # the first column holds target 1
                 (0, 1, 3, 2, 6),  # target 0 is column 1's last qubit
                 (-1, 1, 4, 2, 6),  # the region starts before qubit 0
                 (2, 1, -1, 2, 6)):  # so does the first target
        with pytest.raises(CircuitError, match="the fan-in leaves the circuit"):
            FanIn(*args)


@pytest.mark.parametrize("j", range(11))
def test_sync_block_gates_are_the_rounds_of_the_oracle(j):
    k = 1 << j
    for width in {k, k - k // 2, 1}:  # no pads, half the block, all but one
        qubits, pads = range(3, 3 + width), range(3 + width + 1, 3 + k + 1)
        block = SyncBlock(qubits, pads, 3 + k + 1)
        assert block.gates == tuple(sync_touch([*qubits, *pads]))
        assert len(block.gates) == k * j


def test_sync_block_checks_its_region_once():
    SyncBlock(range(2, 5), range(5, 6), 6)  # the pad right after the register
    SyncBlock(range(3, 6), range(0, 1), 6)  # the pad before it
    SyncBlock(range(0), range(1, 3), 3)  # pads alone
    for args in ((range(0, 3), range(0), 6),  # three qubits
                 (range(0, 4), range(4, 6), 8),  # six, two of them pads
                 (range(0, 3), range(2, 3), 6),  # the pad is qubit 2 again
                 (range(2, 4), range(1, 3), 6),  # the pads end on qubit 2
                 (range(3, 7), range(0), 6),  # the register ends past the width
                 (range(0, 3), range(6, 7), 6),  # so does the pad
                 (range(-1, 1), range(0), 6),  # the register starts before 0
                 (range(0), range(0), 6)):  # no qubit at all
        with pytest.raises(CircuitError, match="the sync block needs"):
            SyncBlock(*args)


def test_decoder_checks_its_registers_once():
    OneHotDecoder(3, 3, 11, 14)  # one-hot 3 .. 10, lease 11 .. 13
    OneHotDecoder(3, 6, 3, 14)  # the lease before the one-hot register
    OneHotDecoder(1, 1, 3, 3)  # n = 1 leases no qubit
    for args in ((3, 3, 11, 13),  # the lease ends past the width
                 (3, 2, 11, 14),  # the one-hot register holds index qubit 2
                 (3, 3, 10, 14),  # the lease holds one-hot qubit 10
                 (3, 6, 4, 14),  # the one-hot register holds lease qubit 2
                 (0, 1, 1, 4)):  # no index qubit
        with pytest.raises(CircuitError, match="the decoder leaves the circuit"):
            OneHotDecoder(*args)


@pytest.mark.parametrize("depth", range(7))
def test_the_fold_is_rank_one_with_no_t_layer(depth):
    # a template is fixed up to one constant, and the derivation puts the
    # first operand's largest entry offset at 0: shifted so the target's
    # entry offset is 0, the column enters at depth and leaves at depth + 1
    k = 1 << depth
    fold = _derive_template(fold_gates(range(k), k))
    shift = fold.entry[-1]
    assert tuple(u - shift for u in fold.entry) == (depth,) * k + (0,)
    assert tuple(x + shift for x in fold.exit) == (depth + 1,) * k + (1,)
    assert (fold.t_layers, fold.t_count) == ((), 0)
    # reversed, the fold derives alike
    assert _derive_template(fold_gates(range(k), k)[::-1]) == fold


def test_macro_templates_are_rank_one():
    toffoli = _derive_template(decompose_toffoli(0, 1, 2))
    mcz = _derive_template(ccz_gates(0, 1, 2))
    assert (toffoli.entry, toffoli.exit, toffoli.t_layers) == (
        (0, 0, 0), (12, 10, 13), (4, 7, 10))
    assert (mcz.entry, mcz.exit, mcz.t_layers) == (
        (0, 0, -1), (12, 10, 12), (4, 7, 10))
    # a pad that moves neither template moves no schedule, so no schedule
    # test sees it: each S, SDG pair on a qubit with no gate between them
    # must move both
    fragment, h, pad = ccz_gates(0, 1, 2), (GateKind.H, (2,)), {GateKind.S, GateKind.SDG}
    pairs = []
    for i, (kind, ops) in enumerate(fragment):
        j = next((j for j in range(i + 1, len(fragment)) if ops[0] in fragment[j][1]), None)
        if kind in pad and j is not None and {kind, fragment[j][0]} == pad:
            pairs.append((i, j))
    assert pairs
    for i, j in pairs:
        without = fragment[:i] + fragment[i + 1:j] + fragment[j + 1:]
        assert _derive_template(without) != mcz, f"the pad at {i} and {j}"
        assert _derive_template([h, *without, h]) != toffoli, f"the pad at {i} and {j}"


def test_template_derivation_rejects_fragments_that_are_not_rank_one():
    t, cnot = GateKind.T, GateKind.CNOT
    # qubit 0's row never depends on operands 1 and 2
    with pytest.raises(CircuitError):
        _derive_template([(t, (0,)), (cnot, (1, 2))])
    # every row depends on all three operands, but qubit 0 leaves (4, 4, 3)
    # and qubit 1 (2, 2, 2): no shared entry offsets
    with pytest.raises(CircuitError):
        _derive_template([(t, (2,)), (cnot, (0, 1)), (cnot, (1, 2)),
                          (t, (0,)), (t, (0,)), (cnot, (0, 2))])


def test_gate_operands_must_be_distinct():
    with pytest.raises(CircuitError, match="duplicate operands in CNOT"):
        gate(GateKind.CNOT, _q[0], _q[0])


def test_validation_checks_every_gate_arity():
    for bad in [(GateKind.CNOT, (0,)), (GateKind.H, (0, 1)),
                (GateKind.TOFFOLI, (0, 1))]:
        with pytest.raises(CircuitError, match="takes"):
            check_gates(Circuit({A: 3}, [bad]))
        Circuit({A: 3}, [bad])  # the IR stores what it is given


def test_operands_must_fit_registers():
    with pytest.raises(CircuitError, match="outside"):
        check_gates(Circuit({A: 1}, [gate(GateKind.CNOT, _q[0], _q[1])]))


@pytest.mark.parametrize("kind", sorted(LOWERED_KINDS, key=list(GateKind).index),
                         ids=lambda kind: kind.value)
def test_each_lowered_kind_is_its_textbook_matrix(kind):
    # the one check of what the exact arithmetic means, gate by gate
    assert TEXTBOOK.keys() == LOWERED_KINDS
    arity = 2 if kind in (GateKind.CNOT, GateKind.CZ) else 1
    assert to_unitary(_circ([gate(kind, *_q[:arity])], n=arity)) == TEXTBOOK[kind]


def test_unitary_cnot_maps_10_to_11():
    assert exact_column(_circ([gate(GateKind.CNOT, _q[0], _q[1])], n=2), 0b10) == {0b11: ONE}


def test_unitary_lowered_toffoli_matches_ideal_permutation():
    unitary = to_unitary(_circ(decompose_toffoli(_q[0], _q[1], _q[2]), n=3))
    assert unitary == ideal_toffoli_matrix(3, (0, 1, 2))


def test_emitted_unitaries_are_unitary():
    # <x|y> sums conj(x_r) y_r, over sqrt(2)^(kx + ky); the conjugate of
    # a + b w + c w^2 + d w^3 is a - d w - c w^2 - b w^3
    rng = random.Random(3)
    for _ in range(10):
        circ = random_lowered_circuit(rng, 5, 60)
        columns = [gatewise_apply(SparseState.basis(5, col), circ) for col in range(1 << 5)]
        for i, x in enumerate(columns):
            for j, y in enumerate(columns[i:], i):
                products = [_omega_product((a, -d, -c, -b), y.amplitudes[row])
                            for row, (a, b, c, d) in x.amplitudes.items()
                            if row in y.amplitudes]
                inner = [sum(terms) for terms in zip((0, 0, 0, 0), *products)]
                assert exact(inner, x.k + y.k) == exact(int(i == j))


def test_adjoint_involution_preserves_counts():
    rng = random.Random(5)
    circ = random_lowered_circuit(rng, 5, 100)
    fwd, bwd = resource_tally(circ), resource_tally(circ.inverted())
    assert fwd.t_count == bwd.t_count


def test_circuit_composed_with_its_inverse_is_identity():
    rng = random.Random(13)
    circ = random_lowered_circuit(rng, 4, 50)
    both = join_parts(circ.register_sizes, (circ, circ.inverted()))
    assert to_unitary(both) == {(b, b): ONE for b in range(1 << 4)}


def test_qubit_ordering_is_register_major_msb_first():
    sizes = {Register.BINARY_INDEX: 1, Register.DATA: 1}
    circ = Circuit(sizes, [gate(GateKind.X, 0)])  # BINARY_INDEX:0 is flat qubit 0
    out = gatewise_apply(SparseState(2), circ)
    assert out.amplitudes == {0b10: (1, 0, 0, 0)}  # first register flips the MSB


def test_export_json_round_trip_and_names():
    circ = Circuit(
        {Register.BINARY_INDEX: 2, A: 3},
        [
            gate(GateKind.H, 0),  # BINARY_INDEX:0; ANCILLA:i is flat 2 + i
            gate(GateKind.TOFFOLI, 2, 3, 4),
            gate(GateKind.MCZ, 2, 3, 4),
            gate(GateKind.TDG, 3),
        ],
    )
    doc = circ.export_json()
    assert '"CCX"' in doc and '"MCZ"' in doc and '"TDG"' in doc
    back = from_json(doc)
    assert back.gates == circ.gates
    assert back.register_sizes == circ.register_sizes


def test_dense_cap_is_enforced():
    with pytest.raises(CircuitError, match="exceeds the unitary cap 14"):
        to_unitary(Circuit({A: 15}))
    # explicit override wins over the default
    to_unitary(Circuit({A: 4}), max_qubits=4)
    with pytest.raises(CircuitError, match="exceeds the unitary cap 3"):
        to_unitary(Circuit({A: 4}), max_qubits=3)
