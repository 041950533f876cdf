"""The sparse and bit-sliced simulators, checked against the exact
gate-by-gate reference."""
from __future__ import annotations

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch.circuit import Circuit, GateKind, Register, gate
from qsearch.decompose import lower_circuit
from qsearch.errors import CircuitError
from qsearch.qdam import QdamLayout
from qsearch.sim import (
    SparseState,
    SlicedState,
    negate,
    reflect_about_uniform,
)

from conftest import random_keys, random_lowered_circuit, toy_db
from oracles import (
    amplitude,
    basis_pattern,
    build_qdam,
    exact,
    gatewise_apply,
    omega,
    probability,
    register_bits,
    to_complex,
    walsh_hadamard,
)

A = Register.ANCILLA


def _anc(i, index_bits=0):
    """Flat index of ANCILLA:i after ``index_bits`` binary index qubits."""
    return index_bits + i


def test_hadamard_splits_support():
    state = SparseState(1).apply(Circuit({A: 1}, [gate(GateKind.H, _anc(0))]))
    assert state.support() == 2
    assert amplitude(state, 0) == amplitude(state, 1) == exact(1, 1)


def test_t_phase_on_one():
    circ = Circuit({A: 1}, [gate(GateKind.X, _anc(0)), gate(GateKind.T, _anc(0))])
    state = SparseState(1).apply(circ)
    assert amplitude(state, 1) == exact(omega(1))


def test_to_complex_reads_the_powers_of_omega_and_one_over_root_two():
    # the one float anchor of the exact values' meaning: w = e^(i pi/4)
    for t in range(8):
        assert abs(to_complex(omega(t), 0) - cmath.exp(1j * cmath.pi * t / 4)) < 1e-15
    assert abs(to_complex((1, 0, 0, 0), 1) - 1 / cmath.sqrt(2)) < 1e-15


def test_diagonal_gates_preserve_support_keys():
    rng = random.Random(0)
    base = random_lowered_circuit(rng, 4, 30)
    state = SparseState(4).apply(base)
    keys = set(state.amplitudes)
    diag = Circuit({A: 4}, [gate(GateKind.Z, _anc(0)), gate(GateKind.S, _anc(1)),
                            gate(GateKind.T, _anc(2)), gate(GateKind.CZ, _anc(0), _anc(3))])
    after = state.apply(diag)
    assert set(after.amplitudes) == keys


def test_index_probabilities_uniform_and_phase_invariant():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    state = SparseState(3).apply(
        Circuit(sizes, [gate(GateKind.H, 0), gate(GateKind.H, 1)])
    )
    labels = [basis_pattern(sizes, {Register.BINARY_INDEX: q}) for q in range(4)]
    quarters = [Fraction(1, 4)] * 4
    assert [probability(state.amplitudes[k], state.k) for k in labels] == quarters
    phased = state.apply(Circuit(sizes, [gate(GateKind.Z, 0),
                                         gate(GateKind.T, 1)]))
    assert [probability(phased.amplitudes[k], phased.k) for k in labels] == quarters


def test_norm_is_preserved():
    # |a + bw + cw^2 + dw^3|^2 = a^2 + b^2 + c^2 + d^2 + sqrt(2) (ab + bc + cd - ad),
    # and sqrt(2) is irrational: the norm is 1 exactly when both sums match
    rng = random.Random(42)
    for width in (1, 2, 3, 4, 5, 6, 6, 6):
        state = SparseState(width).apply(random_lowered_circuit(rng, width, 400))
        amps = state.amplitudes.values()
        assert sum(a * a + b * b + c * c + d * d for a, b, c, d in amps) == 1 << state.k
        assert sum(a * b + b * c + c * d - a * d for a, b, c, d in amps) == 0


def test_interference_prunes_support():
    # H Z H maps |0> -> |1>: the |0> branch cancels and must be dropped
    gates = [gate(GateKind.H, _anc(0)), gate(GateKind.Z, _anc(0)),
             gate(GateKind.H, _anc(0))]
    state = SparseState(1).apply(Circuit({A: 1}, gates))
    assert state.support() == 1
    assert amplitude(state, 1) == exact(1)


def test_sparse_rejects_macro_circuits():
    circ = Circuit({A: 3}, [gate(GateKind.TOFFOLI, _anc(0), _anc(1), _anc(2))])
    with pytest.raises(CircuitError, match="requires a lowered circuit"):
        SparseState(3).apply(circ)


def test_simulators_reject_a_macro_gate_mid_stream():
    state = SparseState(3).apply(Circuit({A: 3}, [gate(GateKind.H, _anc(0))]))
    before = list(state.amplitudes.items())
    lowered = [gate(GateKind.X, _anc(2)), gate(GateKind.T, _anc(0)),
               gate(GateKind.CNOT, _anc(0), _anc(1)), gate(GateKind.H, _anc(2)),
               gate(GateKind.CZ, _anc(1), _anc(2))]
    toffoli = gate(GateKind.TOFFOLI, _anc(0), _anc(1), _anc(2))
    for gates in (
        lowered + [toffoli],                   # the last gate
        [toffoli] + lowered,                   # in the first H-free run
        lowered[:4] + [toffoli] + lowered[4:],  # right after an H
        lowered[:3] + [gate(GateKind.MCZ, _anc(0), _anc(2), _anc(1))] + lowered[3:],
    ):
        circ = Circuit({A: 3}, gates)
        with pytest.raises(CircuitError, match="requires a lowered circuit"):
            state.apply(circ)
        assert list(state.amplitudes.items()) == before
        with pytest.raises(CircuitError, match="requires a lowered circuit"):
            gatewise_apply(state, circ)


def _assert_exactly_equal(got, expected):
    """Same keys in the same order, equal exact amplitudes and exponent,
    same peak."""
    assert list(got.amplitudes.items()) == list(expected.amplitudes.items())
    assert got.k == expected.k
    assert got.peak_support == expected.peak_support


@pytest.mark.parametrize("gates", [
    [],
    [gate(GateKind.H, _anc(q)) for q in (0, 1, 2, 0, 2, 1, 1)],
], ids=["empty", "h-only"])
def test_apply_on_edge_circuits_equals_the_gatewise_oracle(gates):
    start = SparseState(3, {0b000: (3, 0, 0, 0), 0b101: (0, 0, -4, 0), 0b011: (0, 1, 0, 1)}, 3)
    circ = Circuit({A: 3}, gates)
    _assert_exactly_equal(start.apply(circ), gatewise_apply(start, circ))


# every lowered kind, with H drawn four times as often as any other
_RUN_MIX = [GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T,
            GateKind.TDG, GateKind.CNOT, GateKind.CZ] + [GateKind.H] * 4


@st.composite
def _lowered_runs(draw):
    width = draw(st.integers(1, 6))
    kinds = _RUN_MIX if width > 1 else [k for k in _RUN_MIX
                                        if k not in (GateKind.CNOT, GateKind.CZ)]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=40)):
        arity = 2 if kind in (GateKind.CNOT, GateKind.CZ) else 1
        order = draw(st.permutations(range(width)))
        gates.append(gate(kind, *order[:arity]))
    labels = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1,
                           max_size=8, unique=True))
    ints = st.tuples(*[st.integers(-4, 4)] * 4)
    amps = {label: draw(ints) for label in labels}
    return SparseState(width, amps, draw(st.integers(0, 6))), Circuit({A: width}, gates)


@settings(max_examples=300, deadline=None)
@given(_lowered_runs())
def test_apply_equals_the_gatewise_oracle(case):
    start, circ = case
    before = list(start.amplitudes.items())
    _assert_exactly_equal(start.apply(circ), gatewise_apply(start, circ))
    assert list(start.amplitudes.items()) == before


def _span_free(circuit):
    """The same gates with no fragment spans: ``apply`` runs every gate."""
    return Circuit(circuit.register_sizes, circuit.gates)


def _branch_start(layout, q):
    return SparseState.basis(layout.total_qubits, basis_pattern(
        layout.register_sizes, {Register.BINARY_INDEX: q}))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_equals_the_gatewise_oracle_on_every_loader_branch(n):
    # the peak support is equal only when every gate runs: a fragment
    # that runs on its branch splits the support at its H
    layout = QdamLayout(n, n)
    lowered = _span_free(lower_circuit(build_qdam(layout, toy_db(n))))
    assert lowered.fragment_spans == ()
    for q in range(1 << n):
        start = _branch_start(layout, q)
        _assert_exactly_equal(start.apply(lowered), gatewise_apply(start, lowered))


def _loader_cases():
    """toy_db(n) at n 1..3, and random keys at n <= 4, as (layout, keys)."""
    rng = random.Random(26)
    for n in (1, 2, 3):
        yield pytest.param(QdamLayout(n, n), toy_db(n).keys(), id=f"toy-{n}")
    for n, m in ((1, 3), (2, 1), (3, 2), (4, 2), (4, 3)):
        keys = random_keys(rng, n, m)
        yield pytest.param(QdamLayout(n, m), keys, id=f"random-{n}-{m}")


@pytest.mark.parametrize("layout, keys", _loader_cases())
def test_apply_skipping_fragments_agrees_with_the_gatewise_oracle(layout, keys):
    lowered = lower_circuit(build_qdam(layout, keys))
    assert lowered.fragment_spans
    for q in range(1 << layout.n):
        start = _branch_start(layout, q)
        got, expected = start.apply(lowered), gatewise_apply(start, lowered)
        assert list(got.amplitudes.items()) == list(expected.amplitudes.items())
        assert got.k == expected.k == 0


@pytest.mark.parametrize("n", [2, 4, 6])
def test_no_fragment_runs_where_no_toffoli_fires(n):
    # on branch 0 of toy_db(n) every stage-1 Toffoli has a 0 control, and
    # every record bit of key 0 is 0, so nothing fires and no H splits the state
    layout = QdamLayout(n, n)
    lowered = lower_circuit(build_qdam(layout, toy_db(n)))
    start = _branch_start(layout, 0)
    assert start.apply(lowered).peak_support == 1
    assert start.apply(_span_free(lowered)).peak_support == 2


def test_register_mismatch_rejected():
    circ = Circuit({A: 3}, [gate(GateKind.X, _anc(0))])
    with pytest.raises(CircuitError):
        SparseState(2).apply(circ)


def test_basis_pattern_composition():
    sizes = {Register.BINARY_INDEX: 2, Register.DATA: 3, A: 1}
    pattern = basis_pattern(sizes, {Register.BINARY_INDEX: 0b10,
                                    Register.DATA: 0b011})
    # layout: [index 2 bits][data 3 bits][ancilla 1 bit], MSB first
    assert pattern == (0b10 << 4) | (0b011 << 1)
    state = SparseState.basis(6, pattern)
    assert register_bits(sizes, next(iter(state.amplitudes)), Register.DATA) == 0b011


def test_sliced_state_requires_index_register():
    with pytest.raises(CircuitError):
        SlicedState(0, 2)
    with pytest.raises(CircuitError):
        SlicedState(3, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_sliced_state_starts_each_branch_at_its_index(n):
    start = SlicedState(n, n + 2)
    assert [start.basis_label(q) for q in range(1 << n)] == [q << 2 for q in range(1 << n)]


def test_sliced_basis_label_reads_every_column_in_order():
    # 1,100 qubits, wider than a machine word many times over: the label is
    # the branch's bit of each column, the first column most significant
    rng = random.Random(11)
    state = SlicedState(3, 1100)
    state.columns = [rng.getrandbits(8) for _ in range(1100)]
    for branch in range(8):
        label = 0
        for col in state.columns:
            label = label << 1 | (col >> branch & 1)
        assert state.basis_label(branch) == label
        assert label.bit_length() > 1000


# -- bit-sliced backend ------------------------------------------------------


def _branch_phase(state, branch):
    """Eighth turns of one branch, read from the three phase bit-planes."""
    return sum((plane >> branch & 1) << i for i, plane in enumerate(state.phase))


_ARITY = {GateKind.CNOT: 2, GateKind.CZ: 2, GateKind.TOFFOLI: 3, GateKind.MCZ: 3}
# eighth turns each diagonal kind adds where all its operands are 1
_TURNS = {GateKind.Z: 4, GateKind.CZ: 4, GateKind.MCZ: 4, GateKind.S: 2,
          GateKind.SDG: 6, GateKind.T: 1, GateKind.TDG: 7}


def _random_macro(seed, n, anc, kinds, count=60):
    """``count`` gates of random ``kinds`` on random distinct operands among
    ``n`` index qubits and ``anc`` ancillas."""
    rng = random.Random(seed)
    gates = []
    for _ in range(count):
        kind = rng.choice(kinds)
        gates.append(gate(kind, *rng.sample(range(n + anc), _ARITY.get(kind, 1))))
    return Circuit({Register.BINARY_INDEX: n, A: anc}, gates)


_EVERY_KIND = [GateKind.X, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T,
               GateKind.TDG, GateKind.CNOT, GateKind.CZ, GateKind.TOFFOLI,
               GateKind.MCZ]


@pytest.mark.parametrize("seed", range(6))
def test_sliced_state_matches_sparse_on_every_branch(seed):
    n, anc = 3, 4
    sizes = {Register.BINARY_INDEX: n, A: anc}
    macro = _random_macro(seed, n, anc, _EVERY_KIND)
    sliced = SlicedState(n, n + anc).run(macro)
    lowered = lower_circuit(macro)
    for q in range(1 << n):
        out = SparseState.basis(n + anc, basis_pattern(sizes, {Register.BINARY_INDEX: q}))
        out = out.apply(lowered)
        assert list(out.amplitudes) == [sliced.basis_label(q)]
        assert amplitude(out, sliced.basis_label(q)) == exact(omega(_branch_phase(sliced, q)))


@pytest.mark.parametrize("seed", range(6))
def test_sliced_reverse_run_is_the_inverted_circuit(seed):
    macro = _random_macro(seed, 3, 4, _EVERY_KIND)
    start = SlicedState(3, 7)
    for state in (start, start.run(macro)):
        back, inverse = state.run(macro, reverse=True), state.run(macro.inverted())
        assert back.columns == inverse.columns and back.phase == inverse.phase
    back = start.run(macro).run(macro, reverse=True)
    assert back.columns == start.columns and back.phase == [0, 0, 0]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", list(_TURNS), ids=lambda kind: kind.value)
def test_every_diagonal_kind_adds_its_eighth_turns(kind, reverse):
    # T gates mixed in leave every pattern of phase bits for the kind's
    # carries; the expected phase is a plain integer sum per branch
    n = 4
    macro = _random_macro(list(_TURNS).index(kind), n, 0, [kind, GateKind.T], count=40)
    sliced = SlicedState(n, n).run(macro, reverse=reverse)
    sign = -1 if reverse else 1
    for q in range(1 << n):
        bits = [q >> (n - 1 - b) & 1 for b in range(n)]
        turns = sum(_TURNS[k] for k, flats in macro.gates
                    if all(bits[f] for f in flats))
        assert _branch_phase(sliced, q) == sign * turns % 8


def test_sliced_state_is_value_semantic_and_rejects_h():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    start = SlicedState(2, 3)
    flipped = start.run(Circuit(sizes, [gate(GateKind.X, _anc(0, 2))]))
    assert start.columns[-1] == 0 and flipped.columns[-1] == 0b1111
    with pytest.raises(CircuitError):
        flipped.diagonal_signs()
    with pytest.raises(CircuitError):
        start.run(Circuit(sizes, [gate(GateKind.H, 0)]))
    with pytest.raises(CircuitError):
        start.run(Circuit({A: 4}, []))


def test_diagonal_signs_require_a_sign_diagonal():
    sizes = {Register.BINARY_INDEX: 2, A: 1}
    # CZ on the two index qubits negates branch 3 only
    cz = Circuit(sizes, [gate(GateKind.CZ, 0, 1)])
    assert SlicedState(2, 3).run(cz).diagonal_signs() == 0b1000
    # S on index qubit 1 is a quarter turn on branches 1 and 3
    s = Circuit(sizes, [gate(GateKind.S, 1)])
    with pytest.raises(CircuitError):
        SlicedState(2, 3).run(s).diagonal_signs()
    eight_t = Circuit(sizes, [gate(GateKind.T, 1)] * 8)
    assert SlicedState(2, 3).run(eight_t).diagonal_signs() == 0


def test_walsh_hadamard_is_the_unnormalised_hadamard_transform():
    n = 3
    values = [3, -1, 4, 1, -5, 9, 2, -6]
    # entry (i, j) of the n-fold tensor power of [[1, 1], [1, -1]]
    # is -1 to the number of bits i and j share
    assert walsh_hadamard(values) == [
        sum(v * (-1) ** bin(i & j).count("1") for j, v in enumerate(values))
        for i in range(1 << n)]
    assert walsh_hadamard(walsh_hadamard(values)) == [v << n for v in values]
    assert negate([1, 2, 3], 0b101) == [-1, 2, -3]


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_closed_form_diffusion_equals_the_walsh_hadamard_rounds(n):
    rng = random.Random(n)
    for _ in range(3):
        values = [rng.randrange(-1000, 1000) for _ in range(1 << n)]
        assert (reflect_about_uniform(values)
                == walsh_hadamard(negate(walsh_hadamard(values), 1)))
