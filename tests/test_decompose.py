"""Macro lowering: Toffoli fragment, shared-control layers, control
trees against the serial reference ladder, and the scheduler-sync block."""
from __future__ import annotations

import math
import random

import pytest

from qsearch.circuit import (
    Circuit,
    GateKind,
    Register,
    Schedule,
    SyncBlock,
    ccz_gates,
    gate,
    join_parts,
    shared_control_layer,
)
from qsearch.decompose import (
    decompose_toffoli,
    lower_circuit,
    lowered_length,
    mcz_tree,
)
from qsearch.errors import CircuitError
from qsearch.grover import build_kernel_circuits
from qsearch.qdam import QdamLayout
from qsearch.sim import SlicedState

from conftest import (ONE, columns_on_zero_ancilla, ideal_flip_matrix, ideal_toffoli_matrix,
                      random_keys)
from oracles import (
    exact_column, is_lowered, macro_counts, mcz_ladder, resource_tally, to_unitary,
)
from oracles import shared_control_layer as checked_layer

D = Register.DATA
A = Register.ANCILLA


def _d(i):
    """Flat index of DATA:i; DATA is the first register of these circuits."""
    return i


def _a(i, data_bits):
    """Flat index of ANCILLA:i after ``data_bits`` DATA qubits."""
    return data_bits + i


# -- single Toffoli ---------------------------------------------------------


def test_toffoli_flips_target_when_controls_set():
    circ = Circuit({D: 3}, decompose_toffoli(_d(0), _d(1), _d(2)))
    assert exact_column(circ, 0b110) == {0b111: ONE}


def test_toffoli_is_identity_when_controls_clear():
    circ = Circuit({D: 3}, decompose_toffoli(_d(0), _d(1), _d(2)))
    assert exact_column(circ, 0b001) == {0b001: ONE}


def test_toffoli_tally_seven_t_depth_three():
    tally = resource_tally(Circuit({D: 3}, decompose_toffoli(_d(0), _d(1), _d(2))))
    assert tally.t_count == 7
    assert tally.t_depth == 3


def test_toffoli_matches_ideal_unitary():
    circ = Circuit({D: 3}, decompose_toffoli(_d(0), _d(1), _d(2)))
    assert to_unitary(circ) == ideal_toffoli_matrix(3, (0, 1, 2))


def test_toffoli_depth_three_survives_entry_staggering():
    # arbitrary Clifford prefixes must not split the fragment's T layers
    prefix = [gate(GateKind.X, _d(0)), gate(GateKind.H, _d(1)),
              gate(GateKind.X, _d(1)), gate(GateKind.S, _d(1))]
    circ = Circuit({D: 3}, prefix + decompose_toffoli(_d(0), _d(1), _d(2)))
    assert resource_tally(circ).t_depth == 3


def test_toffoli_rejects_duplicate_operands():
    with pytest.raises(CircuitError, match="Toffoli operands must be distinct"):
        decompose_toffoli(_d(0), _d(0), _d(1))


# -- shared-control layers --------------------------------------------------


def _layer_circuit(pairs_count: int) -> Circuit:
    regs = {D: 2 * pairs_count + 1, A: max(0, pairs_count - 1)}
    shared = _d(0)
    pairs = [(_d(2 * i + 1), _d(2 * i + 2)) for i in range(pairs_count)]
    ancillas = [_a(i, 2 * pairs_count + 1) for i in range(pairs_count - 1)]
    return Circuit(regs, shared_control_layer(shared, pairs, ancillas))


def test_single_pair_degenerates_to_plain_toffoli():
    circ = _layer_circuit(1)
    assert macro_counts(circ)[GateKind.TOFFOLI] == 1
    assert GateKind.CNOT not in macro_counts(circ)
    assert resource_tally(lower_circuit(circ)).t_depth == 3


def test_two_pairs_match_product_of_toffolis():
    lowered = lower_circuit(_layer_circuit(2))
    ideal = ideal_toffoli_matrix(5, (1, 0, 2), (3, 0, 4))
    assert columns_on_zero_ancilla(lowered, 5, 1) == ideal


def test_layer_t_depth_constant_over_pair_counts():
    depths = {
        p: resource_tally(lower_circuit(_layer_circuit(p))).t_depth
        for p in range(1, 9)
    }
    assert set(depths.values()) == {3}  # constant, within the <= 4 budget


def test_four_shared_toffolis_sequentially_cost_t_depth_12():
    gates = []
    for i in range(4):
        gates.extend(decompose_toffoli(_d(2 * i + 1), _d(0), _d(2 * i + 2)))
    assert resource_tally(Circuit({D: 9}, gates)).t_depth == 12
    assert resource_tally(lower_circuit(_layer_circuit(4))).t_depth == 3


def test_layer_restores_borrowed_ancillas():
    lowered = lower_circuit(_layer_circuit(3))
    columns_on_zero_ancilla(lowered, 7, 2)  # asserts clean ancillas inside


def test_layer_equals_its_checked_copy():
    # the package's layer leaves its operands to the caller; the tests'
    # generic copy checks them and must emit the same gates
    for count in range(1, 10):
        assert _layer_circuit(count).gates == tuple(checked_layer(
            _d(0), [(_d(2 * i + 1), _d(2 * i + 2)) for i in range(count)],
            [_a(i, 2 * count + 1) for i in range(count - 1)]))


# the argument checks live on the tests' generic copy, the reference builder
def test_layer_rejects_overlapping_pairs():
    with pytest.raises(CircuitError, match="an operand is reused in the layer"):
        checked_layer(_d(0), [(_d(1), _d(2)), (_d(2), _d(3))], [_a(0, 4)])


_THREE_PAIRS = [(_d(1), _d(2)), (_d(3), _d(4)), (_d(5), _d(6))]


# the last two no single emitted gate repeats: pair 2's carrier is pair 1's
# target, and one ancilla is leased twice
@pytest.mark.parametrize("ancillas", [
    [_d(0), _a(0, 7)], [_d(3), _a(0, 7)], [_a(0, 7), _d(6)],
    [_d(2), _a(0, 7)], [_a(0, 7), _a(0, 7)],
], ids=["shared-control", "second-control", "target", "other-pair-target",
        "leased-twice"])
def test_layer_rejects_a_fanout_ancilla_that_overlaps_an_operand(ancillas):
    with pytest.raises(CircuitError, match="repeat or overlap an operand"):
        checked_layer(_d(0), _THREE_PAIRS, ancillas)


def test_layer_rejects_insufficient_ancillas():
    with pytest.raises(CircuitError, match="needs 1 fan-out ancillas, got 0"):
        checked_layer(_d(0), [(_d(1), _d(2)), (_d(3), _d(4))], [])


# -- the serial reference ladder --------------------------------------------
# the naive loader's ladders and the tree tests compare against it


def test_ladder_single_qubit_is_plain_z():
    frag = mcz_ladder([_d(0)])
    assert [kind for kind, _ in frag] == [GateKind.Z]
    assert resource_tally(Circuit({D: 1}, frag)).t_depth == 0


def test_ladder_two_qubits_is_clifford_cz():
    frag = mcz_ladder([_d(0), _d(1)])
    assert [kind for kind, _ in frag] == [GateKind.CZ]
    assert resource_tally(Circuit({D: 2}, frag)).t_depth == 0


def test_ladder_three_qubits_is_direct_ccz():
    circ = lower_circuit(Circuit({D: 3}, mcz_ladder([_d(i) for i in range(3)])))
    tally = resource_tally(circ)
    assert tally.t_depth == 3
    assert to_unitary(circ) == ideal_flip_matrix(3)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_ladder_matches_ideal_phase_flip(k):
    n_anc = k - 3
    qubits = [_d(i) for i in range(k)]
    ancillas = [_a(i, k) for i in range(n_anc)]
    circ = Circuit({D: k, A: n_anc}, mcz_ladder(qubits, ancillas))
    lowered = lower_circuit(circ)
    assert columns_on_zero_ancilla(lowered, k, n_anc) == ideal_flip_matrix(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_ladder_bounds(k):
    c = k - 1
    n_anc = max(0, k - 3)
    qubits = [_d(i) for i in range(k)]
    ancillas = [_a(i, k) for i in range(n_anc)]
    circ = Circuit({D: k, A: n_anc}, mcz_ladder(qubits, ancillas))
    tally = resource_tally(lower_circuit(circ))
    assert tally.t_depth <= 6 * c
    assert tally.t_count <= 14 * c


# -- control trees ----------------------------------------------------------


def _tree_depth(k: int) -> int:
    """The closed form of :func:`mcz_tree`'s docstring: 3(2L + 1) with
    L = ceil(log2(k/3)), for k >= 4."""
    return 3 * (2 * math.ceil(math.log2(k / 3)) + 1)


@pytest.mark.parametrize("k", range(1, 13))
def test_tree_and_ladder_flip_the_same_branch(k):
    # the k operands are the binary index, so every branch is one input
    # with clean ancillas; diagonal_signs proves each comes back to itself
    # with the ancillas |0> and a phase of +-1, and returns the flipped ones
    total = k + max(0, k - 3)
    sizes = {Register.BINARY_INDEX: k, A: total - k}
    ancillas = range(k, total)
    signs = [
        SlicedState(k, total).run(Circuit(sizes, build(range(k), ancillas))).diagonal_signs()
        for build in (mcz_tree, mcz_ladder)
    ]
    assert signs == [1 << (1 << k) - 1] * 2  # the all-ones branch only


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lowered_tree_matches_ideal_phase_flip(k):
    n_anc = max(0, k - 3)
    qubits = [_d(i) for i in range(k)]
    ancillas = [_a(i, k) for i in range(n_anc)]
    circ = Circuit({D: k, A: n_anc}, mcz_tree(qubits, ancillas))
    lowered = lower_circuit(circ)
    assert is_lowered(lowered)
    assert columns_on_zero_ancilla(lowered, k, n_anc) == ideal_flip_matrix(k)


def test_tree_t_depth_meets_its_closed_form():
    depths = []
    for k in range(4, 17):
        circ = Circuit({D: k, A: k - 3},
                       mcz_tree(range(k), [_a(i, k) for i in range(k - 3)]))
        tally = resource_tally(circ)
        assert tally.t_depth == _tree_depth(k), k
        assert tally.t_count == 7 * (2 * (k - 3) + 1)  # the ladder's T-count
        if k >= 5:
            assert tally.t_depth < 3 * (2 * k - 5), k  # the ladder's depth
        depths.append(tally.t_depth)
    assert depths == sorted(depths)


def test_tree_uses_the_ladders_toffolis_and_ancillas():
    k = 9
    ancillas = [_a(i, k) for i in range(k - 1)]  # more than it borrows
    tree, ladder = mcz_tree(range(k), ancillas), mcz_ladder(range(k), ancillas)
    for frag in (tree, ladder):
        assert [kind for kind, _ in frag].count(GateKind.TOFFOLI) == 2 * (k - 3)
    targets = {ops[2] for frag in (tree, ladder)
               for kind, ops in frag if kind is GateKind.TOFFOLI}
    assert targets == set(ancillas[:k - 3])


def test_tree_rejects_bad_operands():
    with pytest.raises(CircuitError, match="4-control Z needs 2 ladder ancillas, got 1"):
        mcz_tree([_d(i) for i in range(5)], [_a(0, 5)])
    with pytest.raises(CircuitError, match="ladder ancilla overlaps an operand"):
        mcz_tree([_d(i) for i in range(5)], [_a(0, 5), _d(0)])
    with pytest.raises(CircuitError, match="phase flip needs one or more distinct qubits"):
        mcz_tree([_d(0), _d(0)])


# -- sync block -------------------------------------------------------------


def test_sync_block_is_identity_and_equalizes_timing():
    prefix = [gate(GateKind.X, _d(0)), gate(GateKind.H, _d(1)),
              gate(GateKind.S, _d(1)), gate(GateKind.X, _d(3))]
    for qubits, pads in ((range(4), range(0)), (range(3), range(3, 4))):
        block = SyncBlock(qubits, pads, 4)
        circ = Circuit({D: 4}, prefix + list(block.gates))
        assert to_unitary(circ) == to_unitary(Circuit({D: 4}, prefix))
        avail = [0, 0, 0, 0]
        for _, ops in circ.gates:
            layer = max(avail[i] for i in ops) + 1
            for i in ops:
                avail[i] = layer
        assert len(set(avail)) == 1
        schedule = Schedule(4).feed(prefix)
        block.feed_into(schedule)
        assert schedule._avail == avail


# -- fragment spans ---------------------------------------------------------


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_each_fragment_span_holds_its_macros_fragment(n, m):
    keys = [format(i * 5 % (1 << m), f"0{m}b") for i in range(1 << n)]
    macro = build_kernel_circuits(QdamLayout(n, m), keys, "1" * m).kernel()
    lowered = lower_circuit(macro)
    spans = iter(lowered.fragment_spans)
    at = 0  # where the next macro's fragment or passed-through gate starts
    for kind, ops in macro.gates:
        if kind is GateKind.TOFFOLI or kind is GateKind.MCZ:
            start, stop, operands = next(spans)
            fragment = (decompose_toffoli(*ops) if kind is GateKind.TOFFOLI
                        else ccz_gates(*ops))
            assert (start, stop) == (at, at + len(fragment))
            assert list(lowered.gates[start:stop]) == fragment
            assert operands == (ops[:2] if kind is GateKind.TOFFOLI else ops)
            at = stop
        else:
            assert lowered.gates[at] == (kind, ops)
            at += 1
    assert at == len(lowered) and next(spans, None) is None


def test_spans_come_only_from_the_lowering():
    lowered = lower_circuit(Circuit({D: 3}, [gate(GateKind.TOFFOLI, 0, 1, 2)]))
    assert lowered.fragment_spans == ((0, 21, (0, 1)),)
    relowered = lower_circuit(lowered)
    assert relowered.gates == lowered.gates and relowered.fragment_spans == ()
    assert join_parts(lowered.register_sizes, (lowered, lowered)).fragment_spans == ()
    assert lowered.inverted().fragment_spans == ()


def test_spans_follow_a_patched_fragments_length(monkeypatch):
    from qsearch import decompose

    real = decompose.decompose_toffoli
    monkeypatch.setattr(decompose, "decompose_toffoli", lambda *ops: real(*ops)[:-1])
    macro = Circuit({D: 4}, [gate(GateKind.TOFFOLI, 0, 1, 2), gate(GateKind.X, 3),
                             gate(GateKind.MCZ, 1, 2, 3), gate(GateKind.TOFFOLI, 3, 0, 1)])
    assert lower_circuit(macro).fragment_spans == (
        (0, 20, (0, 1)), (21, 40, (1, 2, 3)), (40, 60, (3, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lowered_length_counts_the_lowering_of_random_key_kernels(n):
    rng = random.Random(700 + n)
    for m in (1, 2, 3, 4):
        keys = random_keys(rng, n, m)
        kernel = build_kernel_circuits(QdamLayout(n, m), keys, rng.choice(keys)).kernel()
        assert lowered_length(kernel) == len(lower_circuit(kernel))
