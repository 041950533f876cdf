"""Reflections, iteration planning, and the full search driver."""
from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest

from qsearch.circuit import Circuit, GateKind, Register, gate, join_parts
from qsearch.database import SearchQuery, pad_to_power_of_two
from qsearch.decompose import lower_circuit
from qsearch.errors import CircuitError, InputError
from qsearch.grover import (
    SearchStatus,
    build_kernel_circuits,
    optimal_iterations,
    run_search,
)
from qsearch.kernel import build_diffusion, build_target_reflection
from qsearch.qdam import QdamLayout, build_m1, build_m2, loader_parts
from qsearch.resources import MAX_BOUND_N, estimate_bounds
from qsearch.sim import (
    SlicedState,
    SparseState,
    diffusion_signs,
    negate,
    reflect_about_uniform,
)

from conftest import ideal_flip_matrix, ideal_reflection_matrix, toy_db
from oracles import (
    amplitude,
    basis_pattern,
    exact,
    exact_iterations,
    probability,
    recorded_states,
    register_bits,
    register_shift,
    resource_tally,
    success_probability_formula,
    walsh_hadamard,
)
from test_cli import refusal_tests

B = Register.BINARY_INDEX
D = Register.DATA


def _reflection(layout, pattern):
    """The target reflection's circuit, built from its parts."""
    return join_parts(layout.register_sizes, build_target_reflection(layout, pattern))


def _diffusion(layout):
    """The diffusion's circuit, built from its parts."""
    return join_parts(layout.register_sizes, build_diffusion(layout))


def _register_block(layout, lowered, register, width):
    """Operator induced on one register, extracted by exact sparse columns
    (everything else starts and ends in |0>), as (row, col) -> its nonzero
    exact entries."""
    sizes = layout.register_sizes
    block = {}
    for col in range(1 << width):
        state = SparseState.basis(layout.total_qubits,
                                  basis_pattern(sizes, {register: col}))
        out = state.apply(lowered)
        for key, amp in out.amplitudes.items():
            row = register_bits(sizes, key, register)
            rest = key ^ (row << register_shift(sizes, register))
            assert rest == 0, "operator leaks outside the register"
            block[row, col] = exact(amp, out.k)
    return block


# -- target reflection -------------------------------------------------------


def test_reflection_m1_is_plain_z():
    layout = QdamLayout(1, 1)
    lowered = lower_circuit(_reflection(layout, "1"))
    assert resource_tally(lowered).t_depth == 0
    assert _register_block(layout, lowered, D, 1) == ideal_flip_matrix(1)


def test_reflection_m2_pattern_10():
    layout = QdamLayout(1, 2)
    lowered = lower_circuit(_reflection(layout, "10"))
    assert resource_tally(lowered).t_depth == 0
    assert _register_block(layout, lowered, D, 2) == ideal_flip_matrix(2, 0b10)


@pytest.mark.parametrize("pattern", ["000", "101", "111"])
def test_reflection_m3_depth_and_action(pattern):
    layout = QdamLayout(1, 3)
    lowered = lower_circuit(_reflection(layout, pattern))
    assert resource_tally(lowered).t_depth <= 12  # 6(m-1)
    assert _register_block(layout, lowered, D, 3) == ideal_flip_matrix(3, int(pattern, 2))


# -- diffusion ---------------------------------------------------------------


def test_diffusion_n1_reflects_about_plus():
    layout = QdamLayout(1, 1)
    lowered = lower_circuit(_diffusion(layout))
    assert resource_tally(lowered).t_depth == 0
    assert _register_block(layout, lowered, B, 1) == ideal_reflection_matrix(1)


def test_diffusion_n2_matches_outer_product_formula():
    layout = QdamLayout(2, 1)
    lowered = lower_circuit(_diffusion(layout))
    assert _register_block(layout, lowered, B, 2) == ideal_reflection_matrix(2)


def test_diffusion_n4_depth_bound():
    layout = QdamLayout(4, 1)
    lowered = lower_circuit(_diffusion(layout))
    assert resource_tally(lowered).t_depth <= 18  # 6(n-1)


# -- iteration planning ------------------------------------------------------


@pytest.mark.parametrize("size,expected", [(4, 1), (8, 2), (16, 3), (32, 4), (64, 6)])
def test_optimal_iterations(size, expected):
    assert optimal_iterations(size) == expected
    independent = math.floor(math.pi / (4 * math.asin(size ** -0.5)))
    assert optimal_iterations(size) == max(1, independent)


def test_optimal_iterations_is_exact_to_the_bound_cap():
    # bound reports print K for n <= MAX_BOUND_N; the float floor must be exact there
    assert MAX_BOUND_N == 109
    for n in range(1, MAX_BOUND_N + 1):
        assert optimal_iterations(1 << n) == exact_iterations(n), n
    assert estimate_bounds(MAX_BOUND_N, 1).query_count == exact_iterations(MAX_BOUND_N)
    # one width above it is one too low (the oracle's floor agrees with a
    # separate 140-digit computation), so the cap is as wide as it can be
    assert exact_iterations(110) == 28296951008113761 == optimal_iterations(1 << 110) + 1


# -- phase matching ----------------------------------------------------------


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2)])
def test_kernel_equals_textbook_operator_up_to_global_phase(n, m):
    db = toy_db(n, value_width=2) if m == n else toy_db(n, value_width=2)
    layout = QdamLayout(n, m)
    keys = [format(i, f"0{m}b")[-m:] for i in range(1 << n)]
    target = (1 << n) - 1
    circuits = build_kernel_circuits(layout, keys, keys[target])
    lowered = lower_circuit(circuits.kernel())
    # (I - 2|u><u|) times the flip of the target: column ``target`` negated;
    # the global phase is exactly +1
    textbook = {(row, col): (*(-x for x in value[:4]), value[4]) if col == target else value
                for (row, col), value in ideal_reflection_matrix(n).items()}
    assert _register_block(layout, lowered, B, n) == textbook


# -- the full search ---------------------------------------------------------


def test_search_n4_is_exact():
    db = toy_db(2)
    res = run_search(db, SearchQuery("10", "val"))
    assert res.status is SearchStatus.SOLVED
    assert res.candidate_index == 2
    assert res.returned_value == db.records[2].values["val"]
    assert res.success_probability == 1.0
    assert res.iterations == 1 and res.to_json()["oracle_calls"] == 1


def test_search_n16_matches_closed_form():
    db = toy_db(4)
    res = run_search(db, SearchQuery("0111", "val"))
    assert res.status is SearchStatus.SOLVED
    assert res.iterations == 3
    assert abs(res.success_probability - success_probability_formula(16, 3)) < 1e-9


@pytest.mark.parametrize("n, key", [(2, "10"), (4, "0111")])
def test_search_reports_the_reload_check_peak_support(n, key):
    # one basis branch through the lowered loader: an H inside a Toffoli
    # fragment splits it in two and the fragment's closing H joins it again
    with recorded_states() as states:
        run_search(toy_db(n), SearchQuery(key, "val"))
    (probe,) = states
    assert probe.peak_support == 2


def test_search_absent_key_reports_not_present():
    # 4 records with 3-bit keys, padded to 8: "111" stays absent
    from qsearch.database import Database, FieldSpec, Record

    db = pad_to_power_of_two(Database(
        fields=(FieldSpec("key", 3), FieldSpec("val", 2)),
        records=tuple(Record({"key": f"{i:03b}", "val": "01"}) for i in (0, 2, 4, 6)),
        key_field="key",
    ))
    res = run_search(db, SearchQuery("111", "val"))
    assert res.status is SearchStatus.KEY_NOT_PRESENT
    assert res.returned_value is None
    assert all(step["target_amplitude"] == 0.0 for step in res.to_json()["trace"])


def test_search_sentinel_key_is_never_a_solution():
    # padding reintroduces "01" as a sentinel; querying it amplifies the
    # sentinel branch but verification must reject it
    db = toy_db(2)
    from qsearch.database import Database

    records = tuple(r for r in db.records if r.values["key"] != "01")
    partial = pad_to_power_of_two(
        Database(fields=db.fields, records=records, key_field="key")
    )
    assert partial.records[3].is_sentinel
    assert partial.records[3].values["key"] == "01"
    res = run_search(partial, SearchQuery("01", "val"))
    assert res.status is SearchStatus.KEY_NOT_PRESENT


def test_search_amplitude_growth_is_monotonic():
    db = toy_db(4)
    res = run_search(db, SearchQuery("0011", "val"))
    amps = [step["target_amplitude"] for step in res.to_json()["trace"]]
    assert all(b > a for a, b in zip(amps, amps[1:]))


def test_search_forced_failure_with_overridden_iterations():
    # at N=4, two kernel rounds land back on the uniform distribution, so
    # argmax picks index 0 and verification rejects it
    db = toy_db(2)
    res = run_search(db, SearchQuery("10", "val"), iterations=2)
    assert res.status is SearchStatus.ALGORITHM_FAILURE
    assert res.returned_value is None
    assert res.to_json()["oracle_calls"] == 2


def test_sampled_mode_is_deterministic_given_seed():
    db = toy_db(3)
    query = SearchQuery("101", "val")
    first = run_search(db, query, seed=9, shots=32)
    second = run_search(db, query, seed=9, shots=32)
    assert first.candidate_index == second.candidate_index
    assert first.to_json() == second.to_json()


def test_every_draw_picks_an_index_by_its_exact_square():
    from qsearch import grover

    # N=8, K=1: the squares of one round, over scale 2^(n(2K+1)) = 2^9
    target, scale = 5, 1 << 9
    squares = [v * v for v in reflect_about_uniform(negate([1] * 8, 1 << target))]
    assert squares == [16] * 5 + [400] + [16] * 2 and sum(squares) == scale
    cumulative = list(accumulate(squares))
    counts = grover._draw_counts(cumulative, range(scale))
    assert counts == Counter(dict(enumerate(squares)))
    # a sampled search draws its shots from that stream: one shot is the
    # index whose interval holds the seed's first getrandbits(9)
    query = SearchQuery(format(target, "03b"), "val")
    drawn = set()
    for seed in range(40):
        first = random.Random(seed).getrandbits(9)
        res = run_search(toy_db(3), query, iterations=1, seed=seed, shots=1)
        assert Counter([res.candidate_index]) == grover._draw_counts(cumulative, [first])
        assert res.success_probability == squares[res.candidate_index] / scale
        drawn.add(res.candidate_index)
    assert target in drawn and len(drawn) > 1


def test_a_sampled_search_at_n4_always_draws_the_certain_index():
    # at N=4 one round leaves the target's square equal to the scale
    for target in range(4):
        query = SearchQuery(format(target, "02b"), "val")
        for seed in range(25):
            res = run_search(toy_db(2), query, seed=seed, shots=1 + seed % 3)
            assert res.candidate_index == target
            assert res.success_probability == 1.0


def test_squares_that_miss_the_scale_are_rejected_in_both_modes(monkeypatch):
    from qsearch import grover

    real = grover.reflect_about_uniform
    monkeypatch.setattr(grover, "reflect_about_uniform",
                        lambda values: [2 * v for v in real(values)])
    for sampling in ({}, {"seed": 7, "shots": 16}):
        with pytest.raises(CircuitError, match="sum to"):
            run_search(toy_db(3), SearchQuery("101", "val"), **sampling)


def test_search_caps_the_record_bits(monkeypatch):
    from qsearch import grover

    # toy_db(2) holds m * 2^n = 2 * 4 record bits
    query = SearchQuery("10", "val")
    monkeypatch.setattr(grover, "MAX_SEARCH_BITS", 8)
    assert run_search(toy_db(2), query).status is SearchStatus.SOLVED
    monkeypatch.setattr(grover, "MAX_SEARCH_BITS", 7)
    with pytest.raises(InputError, match=r"m \* 2\^n <= 7, got 2 \* 2\^2"):
        run_search(toy_db(2), query)


def test_search_caps_iterations_at_a_full_rotation():
    db = toy_db(3)
    bound = 4 * optimal_iterations(db.size) + 4
    res = run_search(db, SearchQuery("101", "val"), iterations=bound)
    assert res.iterations == bound and len(res.probabilities) == bound + 1
    with pytest.raises(InputError, match=f"at most {bound} iterations at N=8, got {bound + 1}"):
        run_search(db, SearchQuery("101", "val"), iterations=bound + 1)


def test_search_resources_are_attached_and_measured():
    db = toy_db(2)
    res = run_search(db, SearchQuery("10", "val"))
    assert res.resources.query_count == res.iterations
    assert res.resources.t_depth_qdam <= 8
    assert res.resources.t_cost == res.iterations * res.resources.t_depth_kernel


# -- the bit-sliced rounds against Clifford+T --------------------------------


def _random_db(rng, n, m, count):
    """``count`` records with distinct random m-bit keys, padded to 2^n."""
    from qsearch.database import Database, FieldSpec, Record

    keys = rng.sample(range(1 << m), count)
    db = Database(
        fields=(FieldSpec("key", m), FieldSpec("val", 3)),
        records=tuple(Record({"key": format(k, f"0{m}b"),
                              "val": format(rng.randrange(8), "03b")}) for k in keys),
        key_field="key",
    )
    padded = pad_to_power_of_two(db)
    assert padded.index_bits == n
    return padded


def _reference_rounds(db, key, iterations):
    """Exact index marginal and off-index probability after each round,
    from a SparseState run over the lowered subroutines."""
    layout = QdamLayout.for_database(db)
    circuits = build_kernel_circuits(layout, db, key)
    kernel = [lower_circuit(c) for c in (
        circuits.loader, circuits.target_reflection, circuits.loader_inverse,
        circuits.diffusion)]
    sizes = layout.register_sizes
    n = layout.n
    shift = layout.total_qubits - n
    state = SparseState(layout.total_qubits).apply(
        Circuit(sizes, [gate(GateKind.H, b) for b in range(n)]))

    def marginal(st):
        dist, off = [Fraction(0)] * (1 << n), Fraction(0)
        for label, amp in st.amplitudes.items():
            p = probability(amp, st.k)
            if label & ((1 << shift) - 1):
                off += p
            else:
                dist[label >> shift] += p
        return dist, off

    rounds = [marginal(state)]
    for _ in range(iterations):
        for part in kernel:
            state = state.apply(part)
        rounds.append(marginal(state))
    return rounds


def _oracle_cases():
    rng = random.Random(2211)
    cases = []
    for n in (1, 2, 3, 4, 5):
        m = n + 1
        db = _random_db(rng, n, m, (1 << (n - 1)) + 1)
        keys = set(db.keys())
        present = next(r.values["key"] for r in db.records if not r.is_sentinel)
        absent = next(format(k, f"0{m}b") for k in range(1 << m)
                      if format(k, f"0{m}b") not in keys)
        cases.append((db, present, None))
        cases.append((db, absent, None))
        if n <= 4:
            sentinel = next((r.values["key"] for r in db.records if r.is_sentinel), None)
            if sentinel is not None:
                cases.append((db, sentinel, None))
            cases.append((db, present, optimal_iterations(db.size) + 2))
    return cases


@pytest.mark.parametrize("db,key,iterations", _oracle_cases())
def test_bit_sliced_trace_agrees_with_clifford_t_run(db, key, iterations):
    res = run_search(db, SearchQuery(key, "val"), iterations=iterations)
    reference = _reference_rounds(db, key, res.iterations)
    target = db.index_of_key(key)
    trace = res.to_json()["trace"]
    assert len(trace) == res.iterations + 1
    # a float of one exact rational is its correctly rounded quotient
    for r, (dist, off) in enumerate(reference):
        want = float(dist[target]) if target is not None else 0.0
        assert trace[r]["success_probability"] == want
        assert trace[r]["target_amplitude"] == math.sqrt(want)
        assert off == 0 and trace[r]["off_support_probability"] == 0
    final = reference[-1][0]
    assert res.success_probability == float(final[res.candidate_index])
    assert final[res.candidate_index] == max(final)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lowered_block_is_the_bit_sliced_sign_diagonal(n):
    rng = random.Random(40 + n)
    for m in (1, 2, 3):
        keys = [format(rng.randrange(1 << m), f"0{m}b") for _ in range(1 << n)]
        pattern = keys[rng.randrange(1 << n)]
        layout = QdamLayout(n, m)
        circuits = build_kernel_circuits(layout, keys, pattern)
        sizes = layout.register_sizes
        signs = (SlicedState(n, layout.total_qubits).run(circuits.loader)
                 .run(circuits.target_reflection).run(circuits.loader_inverse)
                 .diagonal_signs())
        block = lower_circuit(
            circuits.loader + circuits.target_reflection + circuits.loader_inverse)
        for q in range(1 << n):
            label = basis_pattern(sizes, {B: q})
            out = SparseState.basis(layout.total_qubits, label).apply(block)
            assert list(out.amplitudes) == [label]
            sign = -1 if signs >> q & 1 else 1
            assert amplitude(out, label) == exact(sign)
            assert (sign == -1) == (keys[q] == pattern)


@pytest.mark.parametrize("m", [2, 3])
def test_block_with_a_dropped_stage2_gate_is_rejected(m):
    # all-ones keys: every stage-2 gate acts on some branch
    layout = QdamLayout(2, m)
    circuits = build_kernel_circuits(layout, ["1" * m] * 4, "1" * m)
    sizes = layout.register_sizes
    stage2 = circuits.stage2.gates
    for i in range(len(stage2)):
        dropped = circuits.stage1 + Circuit(sizes, stage2[:i] + stage2[i + 1:])
        state = (SlicedState(2, layout.total_qubits).run(dropped)
                 .run(circuits.target_reflection).run(circuits.loader_inverse))
        with pytest.raises(CircuitError):
            state.diagonal_signs()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sliced_diffusion_is_the_lowered_reflection_about_uniform(n):
    layout = QdamLayout(n, 1)
    circuits = build_kernel_circuits(layout, ["0"] * (1 << n), "0")
    signs = diffusion_signs(circuits.diffusion, n)
    size = 1 << n
    columns = [walsh_hadamard(negate(walsh_hadamard(
        [int(row == col) for row in range(size)]), signs)) for col in range(size)]
    # the rounds' integers are size times the entries
    sliced = {(row, col): exact(value, 2 * n) for col, column in enumerate(columns)
              for row, value in enumerate(column) if value}
    assert sliced == _register_block(layout, lower_circuit(circuits.diffusion), B, n)
    assert sliced == ideal_reflection_matrix(n)


def test_diffusion_of_another_shape_is_rejected():
    layout = QdamLayout(2, 1)
    diffusion = _diffusion(layout)
    sizes = layout.register_sizes
    for gates in (diffusion.gates[1:], diffusion.gates[:-1],
                  diffusion.gates[:2] + diffusion.gates[:2] + diffusion.gates[2:],
                  diffusion.gates[:3] + (gate(GateKind.H, 1),) + diffusion.gates[3:]):
        with pytest.raises(CircuitError):
            diffusion_signs(Circuit(sizes, gates), 2)


def test_search_rejects_a_diffusion_that_flips_another_branch(monkeypatch):
    from qsearch import grover

    def without_x_conjugation(layout):
        # H^n, a flip of the all-ones index branch, H^n, as one part: a
        # reflection, but not the one whose closed form the rounds use
        n = layout.n
        middle = _diffusion(layout).gates[2 * n:-2 * n]
        hs = [gate(GateKind.H, b) for b in range(n)]
        return (Circuit(layout.register_sizes, [*hs, *middle, *hs]),)

    layout = QdamLayout(2, 2)
    assert diffusion_signs(without_x_conjugation(layout)[0], 2) == 0b1000
    monkeypatch.setattr(grover, "build_diffusion", without_x_conjugation)
    with pytest.raises(CircuitError, match="branch 0"):
        run_search(toy_db(2), SearchQuery("10", "val"))


def test_ties_are_exact():
    two = run_search(toy_db(1), SearchQuery("1", "val"))
    assert two.probabilities == [0.5, 0.5]
    assert two.success_probability == 0.5 and two.candidate_index == 0
    for q in range(4):
        res = run_search(toy_db(2), SearchQuery(format(q, "02b"), "val"), iterations=2)
        assert res.probabilities[-1] == 0.25
        assert res.success_probability == 0.25 and res.candidate_index == 0


def test_reload_check_rejects_a_lowered_loader_that_disagrees(monkeypatch):
    from qsearch import grover

    real = grover.lower_circuit

    def without_stage2(circuit):
        layout = QdamLayout(2, 2)
        assert circuit.gates == build_m1(layout).gates + build_m2(
            layout, loader_parts(layout, toy_db(2))[1:]).gates
        return real(build_m1(layout))

    monkeypatch.setattr(grover, "lower_circuit", without_stage2)
    with pytest.raises(CircuitError, match="bit-sliced"):
        run_search(toy_db(2), SearchQuery("10", "val"))


def _patch_one_fragment(monkeypatch, target, edit):
    """Lower the Toffoli onto ``target`` through ``edit`` of its fragment."""
    from qsearch import decompose

    real = decompose.decompose_toffoli

    def patched(c1, c2, t):
        fragment = real(c1, c2, t)
        return edit(fragment) if t == target else fragment

    monkeypatch.setattr(decompose, "decompose_toffoli", patched)


def test_reload_check_rejects_a_bad_fragment_where_its_toffoli_fires(monkeypatch):
    # the Toffoli that loads bit 0 of record 2 fires on branch 2 alone; its
    # fragment without the closing H leaves the target in superposition
    layout = QdamLayout(2, 2)
    _patch_one_fragment(monkeypatch, layout.load + 2 * layout.m, lambda f: f[:-1])
    with pytest.raises(CircuitError, match="bit-sliced"):
        run_search(toy_db(2), SearchQuery("10", "val"))
    # on branch 1 the fragment cannot act, so the check skips it
    assert run_search(toy_db(2), SearchQuery("01", "val")).status is SearchStatus.SOLVED


def test_reload_check_rejects_a_wrong_phase_on_the_right_label(monkeypatch):
    layout = QdamLayout(2, 2)
    target = layout.load + 2 * layout.m
    _patch_one_fragment(monkeypatch, target,
                        lambda f: [*f, (GateKind.S, (target,))])
    circuits = build_kernel_circuits(layout, toy_db(2), "10")
    label = SlicedState(2, layout.total_qubits).run(circuits.loader).basis_label(2)
    with recorded_states() as states, pytest.raises(CircuitError, match="not \\+1"):
        run_search(toy_db(2), SearchQuery("10", "val"))
    (probe,) = states
    # (0, 0, 1, 0) is w^2 = i
    assert list(probe.amplitudes.items()) == [(label, (0, 0, 1, 0))] and probe.k == 0


# the refusals of bad search options and of the three raises the CLI
# cannot reach are rows of test_cli.REFUSALS
globals().update(refusal_tests(__name__))
