"""Circuit IR, scheduler, tally, unitary extraction, and export format."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.circuit import (
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
    shared_control_layer,
    tally_flat,
)
from qsearch.decompose import (
    ccz_gates,
    decompose_toffoli,
    lower_circuit,
)
from qsearch.errors import CircuitError

from conftest import ideal_toffoli_matrix, random_lowered_circuit
from oracles import (
    DenseCapError,
    ReferenceSchedule,
    check_gates,
    dense_statevector,
    from_json,
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
    rng = np.random.default_rng(7)
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
    rng = np.random.default_rng(11)
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


_PRIOR_MIX = [GateKind.TOFFOLI, GateKind.MCZ, GateKind.CNOT, GateKind.T,
              GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.H, GateKind.X]


def _place(draw, shapes):
    """Regions of ``(width, copies)`` in a random order from a random
    offset, with a gap of 0 to 3 qubits after each: their starts, in the
    order given, and the width of the circuit that holds them."""
    starts, top = [0] * len(shapes), draw(st.integers(0, 3))
    for r in draw(st.permutations(range(len(shapes)))):
        starts[r] = top
        top += shapes[r][0] * shapes[r][1] + draw(st.integers(0, 3))
    return starts, top


def _records_at(m, copies, starts, total):
    onehot, database, load, lease = starts
    return RecordBlock(m, copies, onehot, database, load, lease, total)


def _record_widths(m):
    # one-hot, database, load and lease qubits per record
    return (1, m, m, m - 1)


@st.composite
def _records(draw):
    """Records at n 1..6 and m 1..6, their regions placed apart in a random
    order, and entry times per region, each uniform, uniform per column,
    staggered per record or one per qubit; the database region may instead
    hold 0 or 1 per bit, as the preparation of random keys leaves it."""
    m, copies = draw(st.integers(1, 6)), 1 << draw(st.integers(1, 6))
    widths = _record_widths(m)
    starts, total = _place(draw, [(w, copies) for w in widths])
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    entries = [rng.randrange(40) for _ in range(total)]
    for region, (start, width) in enumerate(zip(starts, widths)):
        modes = ["uniform", "column", "record", "qubit"] + ["keys"] * (region == 1)
        mode, size = draw(st.sampled_from(modes)), copies * width
        if mode == "uniform":
            times = [rng.randrange(40)] * size
        elif mode == "column":
            times = [rng.randrange(40) for _ in range(width)] * copies
        elif mode == "record":
            times = [t for _ in range(copies) for t in [rng.randrange(40)] * width]
        elif mode == "qubit":
            times = [rng.randrange(40) for _ in range(size)]
        else:
            times = [rng.randrange(2) for _ in range(size)]
        entries[start:start + size] = times
    return _records_at(m, copies, starts, total), entries


@settings(max_examples=200, deadline=None)
@given(_records(), st.booleans())
def test_record_feed_equals_feeding_its_gates(case, reverse):
    records, entries = case
    fed, flat = Schedule(len(entries)), Schedule(len(entries))
    fed._avail, flat._avail = list(entries), list(entries)
    records.feed_into(fed, reverse)
    flat.feed(records.gates[::-1] if reverse else records.gates)
    assert fed._avail == flat._avail
    assert fed.tally() == flat.tally()
    assert marked_layers(fed) == marked_layers(flat)


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


@st.composite
def _record_lists(draw):
    """One or two record parts at m 1..5 and 1..6 copies (any count, not
    only powers of two), their eight regions placed apart in a random
    order, and a prior stream over all qubits: a random one to stagger the
    records' entry times, or one to three layers of one-qubit gates on
    every qubit, so that every record enters at the same time, zero or
    not."""
    shapes = [(draw(st.integers(1, 5)), draw(st.integers(1, 6)))
              for _ in range(draw(st.integers(1, 2)))]
    starts, total = _place(draw, [(w, copies) for m, copies in shapes
                                  for w in _record_widths(m)])
    parts = [(m, copies, starts[4 * k:4 * k + 4]) for k, (m, copies) in enumerate(shapes)]
    if draw(st.booleans()):
        prior = []
        for kind in draw(st.lists(st.sampled_from(_PRIOR_MIX), max_size=20)):
            order = draw(st.permutations(range(total)))
            prior.append(gate(kind, *order[:_MIX_ARITY.get(kind, 1)]))
        return parts, total, prior
    layers = draw(st.lists(st.sampled_from(_PRIOR_MIX[3:]), max_size=3))
    return parts, total, [gate(kind, q) for kind in layers for q in range(total)]


@settings(max_examples=300, deadline=None)
@given(_record_lists(), st.booleans())
def test_record_blocks_feed_as_their_copied_gates(case, reverse):
    parts, total, prior = case
    records, copied = [], []
    for m, copies, starts in parts:
        records.append(_records_at(m, copies, starts, total))
        stream = _record_stream(m, copies, starts)
        assert records[-1].gates == tuple(stream)
        copied += stream
    # reversed, the stream runs the last part first and every record backwards
    tiled = Schedule(total).feed(prior).feed_parts(records, reverse=reverse)
    flat = Schedule(total).feed(prior).feed(copied[::-1] if reverse else copied)
    slow = reference_feed(ReferenceSchedule(total), prior)
    reference_feed(slow, copied[::-1] if reverse else copied)
    assert tiled.tally() == flat.tally() == slow.tally()
    assert tiled._avail == flat._avail == slow.avail
    assert marked_layers(tiled) == slow.t_layers


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


@st.composite
def _fan_ins(draw):
    # 2^0 .. 2^8 column qubits per fold, 1 .. 6 folds, the targets before
    # or after the load region, and every qubit entering at its own time
    depth, copies = draw(st.integers(0, 8)), draw(st.integers(1, 6))
    region, gap = copies << depth, draw(st.integers(0, 3))
    load, target = ((copies + gap, 0) if draw(st.booleans())
                    else (0, region + gap))
    total = region + copies + gap + draw(st.integers(0, 2))
    prior = draw(st.lists(st.integers(0, 40), min_size=total, max_size=total))
    return FanIn(load, depth, target, copies, total), prior


@settings(max_examples=200, deadline=None)
@given(_fan_ins(), st.booleans())
def test_feed_fan_in_equals_feeding_the_folds(case, reverse):
    fan_in, prior = case
    total = len(prior)
    fast, slow = Schedule(total), ReferenceSchedule(total)
    fast._avail, slow.avail = list(prior), list(prior)
    # a T layer marked before the fan-in, which must leave it as it is
    fast.feed([gate(GateKind.T, 0)])
    reference_feed(slow, [gate(GateKind.T, 0)])
    fan_in.feed_into(fast, reverse=reverse)
    reference_feed(slow, fan_in.gates[::-1] if reverse else fan_in.gates)
    assert fast._avail == slow.avail
    assert fast.tally() == slow.tally() == (1, 1)
    assert marked_layers(fast) == slow.t_layers


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


@st.composite
def _sync_blocks(draw):
    # k = 2^0 .. 2^10 qubits, the last 0 .. k - 1 of them pads, before or
    # after the register, and every qubit entering at its own time after
    # up to 60 marked layers
    k = 1 << draw(st.integers(0, 10))
    pad, gap = draw(st.integers(0, k - 1)), draw(st.integers(0, 3))
    width = k - pad
    start, pad_start = ((gap + pad, gap) if draw(st.booleans())
                        else (gap, gap + width + draw(st.integers(0, 2))))
    total = max(start + width, pad_start + pad) + draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    prior = [rng.randint(0, 40) for _ in range(total)]
    marks = bytearray(rng.randint(0, 1) for _ in range(rng.randint(0, 60)))
    block = SyncBlock(range(start, start + width), range(pad_start, pad_start + pad), total)
    return block, prior, marks


@settings(max_examples=200, deadline=None)
@given(_sync_blocks(), st.booleans())
def test_feed_sync_block_equals_feeding_its_gates(case, reverse):
    block, prior, marks = case
    fast, slow = Schedule(len(prior)), ReferenceSchedule(len(prior))
    fast._avail, fast._marks, slow.avail = list(prior), bytearray(marks), list(prior)
    slow.t_layers = {layer for layer, mark in enumerate(marks) if mark}
    block.feed_into(fast, reverse=reverse)
    reference_feed(slow, block.gates[::-1] if reverse else block.gates)
    assert fast._avail == slow.avail
    assert fast.tally() == slow.tally() == (0, len(slow.t_layers))
    assert marked_layers(fast) == slow.t_layers


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


def _lease_classes(decoder):
    # lease class r: the 2^r qubits that fan-out round r creates
    return [range(decoder.lease + (1 << r) - 1, decoder.lease + (2 << r) - 1)
            for r in range(decoder.n - 1)]


@st.composite
def _decoders(draw):
    # n = 1 .. 10, the lease before or after the one-hot register; that
    # register and each lease class enter at one time each, every other
    # qubit at its own, and up to 60 layers are marked before the decoder
    n, gap = draw(st.integers(1, 10)), draw(st.integers(0, 2))
    size, leased = 1 << n, (1 << n - 1) - 1
    onehot, lease = ((n + gap, n + gap + size) if draw(st.booleans())
                     else (n + gap + leased, n + gap))
    total = n + gap + size + leased + draw(st.integers(0, 2))
    decoder = OneHotDecoder(n, onehot, lease, total)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    prior = [rng.randint(0, 40) for _ in range(total)]
    for qubits in (range(onehot, onehot + size), *_lease_classes(decoder)):
        prior[qubits.start:qubits.stop] = [rng.randint(0, 40)] * len(qubits)
    marks = bytearray(rng.randint(0, 1) for _ in range(rng.randint(0, 60)))
    return decoder, prior, marks


@settings(max_examples=200, deadline=None)
@given(_decoders(), st.booleans())
def test_feed_decoder_equals_feeding_its_gates(case, reverse):
    decoder, prior, marks = case
    fast, slow = Schedule(len(prior)), Schedule(len(prior))
    for schedule in (fast, slow):
        schedule._avail, schedule._marks = list(prior), bytearray(marks)
        schedule.feed([gate(GateKind.T, 0)])
    decoder.feed_into(fast, reverse=reverse)
    slow.feed(decoder.gates[::-1] if reverse else decoder.gates)
    assert fast._avail == slow._avail
    assert fast.tally() == slow.tally()
    assert marked_layers(fast) == marked_layers(slow)


@pytest.mark.parametrize("reverse", [False, True])
def test_feed_decoder_rejects_a_staggered_class(reverse):
    # n = 3: one-hot 3 .. 10, lease class 0 = {11}, lease class 1 = {12, 13}
    decoder = OneHotDecoder(3, 3, 11, 14)
    for late in (0, 11, 14):  # an index qubit, a one-qubit class, no qubit
        schedule = Schedule(15)
        schedule._avail[late] = 4
        decoder.feed_into(schedule, reverse=reverse)
    for late in (3, 10, 13):  # the first and last one-hot qubits, lease 2
        schedule = Schedule(15)
        schedule._avail[late] = 4
        with pytest.raises(CircuitError, match="enters staggered"):
            decoder.feed_into(schedule, reverse=reverse)


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


def test_unitary_single_hadamard():
    unitary = to_unitary(_circ([gate(GateKind.H, _q[0])], n=1))
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(unitary - expected).max() < 1e-12


def test_unitary_cnot_maps_10_to_11():
    unitary = to_unitary(_circ([gate(GateKind.CNOT, _q[0], _q[1])], n=2))
    column = unitary[:, 0b10]
    assert abs(column[0b11] - 1) < 1e-12
    assert np.abs(np.delete(column, 0b11)).max() < 1e-12


def test_unitary_lowered_toffoli_matches_ideal_permutation():
    unitary = to_unitary(_circ(decompose_toffoli(_q[0], _q[1], _q[2]), n=3))
    assert np.abs(unitary - ideal_toffoli_matrix(3, 0, 1, 2)).max() < 1e-12


def test_emitted_unitaries_are_unitary():
    rng = np.random.default_rng(3)
    for _ in range(10):
        circ = random_lowered_circuit(rng, 5, 60)
        unitary = to_unitary(circ)
        dev = unitary.conj().T @ unitary - np.eye(1 << 5)
        assert np.abs(dev).max() < 1e-12


def test_adjoint_involution_preserves_counts():
    rng = np.random.default_rng(5)
    circ = random_lowered_circuit(rng, 5, 100)
    fwd, bwd = resource_tally(circ), resource_tally(circ.inverted())
    assert fwd.t_count == bwd.t_count


def test_circuit_composed_with_its_inverse_is_identity():
    rng = np.random.default_rng(13)
    circ = random_lowered_circuit(rng, 4, 50)
    unitary = to_unitary(circ + circ.inverted())
    assert np.abs(unitary - np.eye(1 << 4)).max() < 1e-10


def test_qubit_ordering_is_register_major_msb_first():
    sizes = {Register.BINARY_INDEX: 1, Register.DATA: 1}
    circ = Circuit(sizes, [gate(GateKind.X, 0)])  # BINARY_INDEX:0 is flat qubit 0
    vec = np.zeros(4, dtype=complex)
    vec[0] = 1

    out = dense_statevector(circ, 0)
    assert abs(out[0b10] - 1) < 1e-12  # first register flips the MSB


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
    with pytest.raises(DenseCapError):
        to_unitary(Circuit({A: 15}))
    # explicit override wins over the default
    to_unitary(Circuit({A: 4}), max_qubits=4)
    with pytest.raises(DenseCapError):
        to_unitary(Circuit({A: 4}), max_qubits=3)
