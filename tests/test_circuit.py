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
    Register,
    Schedule,
    Tiling,
    _derive_template,
    fold_gates,
    gate,
    resource_tally,
    tally_flat,
)
from qsearch.decompose import (
    ccz_gates,
    decompose_toffoli,
    lower_circuit,
    sync_touch,
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
    marked_layers,
    reference_feed,
    to_unitary,
)

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


_TILE_MIX = [GateKind.TOFFOLI, GateKind.MCZ, GateKind.CNOT, GateKind.T,
             GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.H, GateKind.X]


@st.composite
def _tilings(draw):
    """One to three random blocks, each on 3 to 6 operands with a random
    stride each, every operand placed at the first start from a random
    offset where its copies miss every qubit the block's copies already
    use (different blocks may share qubits), and a prior stream over all
    qubits: a random one to stagger the copies' entry times, or none, or
    one to three layers of one-qubit gates on every qubit, so that every
    copy enters at the same time, zero or not."""
    shapes, top = [], 0
    for _ in range(draw(st.integers(1, 3))):
        width, copies = draw(st.integers(3, 6)), draw(st.integers(1, 5))
        used: set[int] = set()
        strides = {}
        for _ in range(width):
            step, start = draw(st.integers(1, 7)), draw(st.integers(0, 12))
            while any(start + i * step in used for i in range(copies)):
                start += 1
            used.update(start + i * step for i in range(copies))
            strides[start] = step
        shapes.append((strides, copies))
        top = max(top, *used)
    total = top + 1 + draw(st.integers(0, 3))

    def gates(kinds, operands, min_size, max_size):
        out = []
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=min_size,
                                  max_size=max_size)):
            order = draw(st.permutations(operands))
            out.append(gate(kind, *order[:_MIX_ARITY.get(kind, 1)]))
        return out

    parts = [(gates(_TILE_MIX, list(strides), 1, 12), strides, copies)
             for strides, copies in shapes]
    if draw(st.booleans()):
        return parts, total, gates(_TILE_MIX, range(total), 0, 20)
    layers = draw(st.lists(st.sampled_from(_TILE_MIX[3:]), max_size=3))
    return parts, total, [gate(kind, q) for kind in layers for q in range(total)]


@settings(max_examples=300, deadline=None)
@given(_tilings(), st.booleans())
def test_feed_tiled_equals_feeding_the_copies(case, reverse):
    parts, total, prior = case
    tilings, copied = [], []
    for block, strides, copies in parts:
        tilings.append(Tiling(block, strides, copies, total))
        stream = [(kind, tuple(q + i * strides[q] for q in ops))
                  for i in range(copies) for kind, ops in block]
        assert tilings[-1].gates == tuple(stream)
        copied += stream
    # reversed, the stream runs last tiling first and every block backwards
    tiled = Schedule(total).feed(prior).feed_parts(tilings, reverse=reverse)
    flat = Schedule(total).feed(prior).feed(copied[::-1] if reverse else copied)
    slow = reference_feed(ReferenceSchedule(total), prior)
    reference_feed(slow, copied[::-1] if reverse else copied)
    assert tiled.tally() == flat.tally() == slow.tally()
    assert tiled._avail == flat._avail == slow.avail
    assert marked_layers(tiled) == slow.t_layers


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize(("copies", "late"), [(5, None), (5, 7), (1, None)],
                         ids=["constant", "one-late", "one-copy"])
def test_feed_tiled_fast_path_boundary(monkeypatch, reverse, copies, late):
    # copies of a three-operand block over qubits 0 .. 14 of 16, after a
    # sync block that leaves every qubit at the same non-zero layer; with
    # ``late``, copy 2 of operand 1 enters one layer after the others
    total, strides = 16, {0: 3, 1: 3, 2: 3}
    block = [gate(GateKind.TOFFOLI, 0, 1, 2), gate(GateKind.T, 1),
             gate(GateKind.CNOT, 2, 0), gate(GateKind.MCZ, 2, 1, 0)]
    prior = sync_touch(range(total))
    if late is not None:
        prior.append(gate(GateKind.X, late))
    tiling = Tiling(block, strides, copies, total)
    copied = tiling.gates[::-1] if reverse else tiling.gates
    flat = Schedule(total).feed(prior).feed(copied)
    tiled = Schedule(total).feed(prior)
    assert set(tiled._avail) == ({8} if late is None else {8, 9})
    # every copy entering alike, this schedule takes copy 0's block itself;
    # one copy late, it takes the copies' gates
    calls, feed = [], Schedule.feed

    def recording(schedule, gates):
        fed = gates if isinstance(gates, tuple) else tuple(gates)
        calls.append((len(schedule._avail), fed))
        return feed(schedule, fed)

    monkeypatch.setattr(Schedule, "feed", recording)
    tiling.feed_into(tiled, reverse=reverse)
    if late is None:
        assert calls == [(total, tiling.block[::-1] if reverse else tiling.block)]
        assert reverse or calls[0][1] is tiling.block
    else:
        assert calls == [(total, copied)]
        assert len(copied) == copies * len(block)
    slow = reference_feed(reference_feed(ReferenceSchedule(total), prior), copied)
    assert tiled.tally() == flat.tally() == slow.tally()
    assert tiled._avail == flat._avail == slow.avail
    assert marked_layers(tiled) == slow.t_layers


def test_tiling_rejects_overlapping_copies():
    block = [gate(GateKind.CNOT, 0, 2)]
    Tiling(block, {0: 1, 2: 1}, 2, 4)  # copies {0, 2} and {1, 3}
    with pytest.raises(CircuitError):  # copy 1 moves qubit 0 onto qubit 2
        Tiling(block, {0: 2, 2: 1}, 2, 4)
    with pytest.raises(CircuitError):  # a zero stride repeats every copy
        Tiling(block, {0: 0, 2: 1}, 2, 4)
    with pytest.raises(CircuitError):  # copy 2 of qubit 2 is qubit 4
        Tiling(block, {0: 1, 2: 1}, 3, 4)
    with pytest.raises(CircuitError):
        Tiling(block, {0: 1, 2: 1}, 0, 4)
    with pytest.raises(CircuitError):  # one copy of qubit 2 outside 2 qubits
        Tiling(block, {0: 1, 2: 1}, 1, 2)


def test_tiling_bounds_every_copy_explicitly():
    block = [gate(GateKind.X, 2)]
    # a stride-1 slice assignment one copy past the end would grow the
    # marking array instead of raising
    with pytest.raises(CircuitError, match="copies of qubit 2 leave the circuit"):
        Tiling(block, {2: 1}, 3, 4)
    assert Tiling(block, {2: 1}, 2, 4).gates == ((GateKind.X, (2,)), (GateKind.X, (3,)))
    with pytest.raises(CircuitError, match="copies of qubit 1 leave the circuit"):  # 1, 3, 5
        Tiling([gate(GateKind.X, 1)], {1: 2}, 3, 5)


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
