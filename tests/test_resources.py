"""Resource accounting: bound formulas, measured reports, and the bench."""
from __future__ import annotations

import functools
import importlib.util
import json
import math
import pathlib
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsearch import resources
from qsearch.circuit import (
    Circuit,
    FanIn,
    GateKind,
    OneHotDecoder,
    RecordBlock,
    Schedule,
    SyncBlock,
    join_parts,
    tally_flat,
)
from qsearch.decompose import lower_circuit
from qsearch.errors import InputError
from qsearch.grover import build_kernel_circuits, optimal_iterations
from qsearch.kernel import (
    ReportMode,
    build_diffusion,
    build_target_reflection,
    measure_kernel,
)
from qsearch.qdam import QdamLayout, build_m2, build_naive_qdam, loader_parts
from qsearch.resources import (
    CSV_HEADER,
    MAX_BOUND_N,
    _expand_flat,
    bench_csv,
    bench_scaling,
    estimate_bounds,
    measure,
    measure_naive,
)
from qsearch.sim import SlicedState

from conftest import random_keys
from oracles import (
    build_qdam,
    flat_measure_kernel,
    measured_law,
    naive_law,
    reflection_law,
    resource_tally,
)
from test_cli import refusal_tests

_DEPTH_FIELDS = (
    "t_depth_m1",
    "t_depth_m2",
    "t_depth_qdam",
    "t_depth_oracle_reflection",
    "t_depth_diffusion",
    "t_depth_kernel",
)


# the fields of :func:`oracles.measured_law`: the depths and the kernel's T-count
_LAW_FIELDS = (*_DEPTH_FIELDS, "t_count_total")


def test_bound_headline_n10_m8():
    report = estimate_bounds(10, 8)
    assert report.t_depth_qdam == 40
    assert report.t_depth_oracle_reflection == 42
    assert report.t_depth_diffusion == 54
    assert report.t_depth_kernel == 176  # 2*40 + 42 + 54
    assert report.query_count == 25
    assert report.t_cost == 4400


def test_bound_degenerate_n1_m1():
    report = estimate_bounds(1, 1)
    assert report.t_depth_oracle_reflection == 0
    assert report.t_depth_diffusion == 0
    assert report.t_depth_qdam == 4
    assert report.t_depth_kernel == 8
    assert report.query_count == 1
    assert report.t_cost == 8


def test_bound_degenerate_n2_m2():
    assert estimate_bounds(2, 2).t_depth_kernel == 16


def test_bound_clamp_at_width_three():
    assert estimate_bounds(3, 3).t_depth_oracle_reflection == 3
    assert estimate_bounds(3, 3).t_depth_diffusion == 3


def test_kernel_identity_in_bound_mode():
    for n, m in [(2, 3), (5, 4), (8, 6)]:
        report = estimate_bounds(n, m)
        assert report.t_depth_kernel == (
            2 * report.t_depth_qdam
            + report.t_depth_oracle_reflection
            + report.t_depth_diffusion
        )
        assert report.t_cost == report.query_count * report.t_depth_kernel


def _zero_key_circuits(n, m):
    return build_kernel_circuits(QdamLayout(n, m), ["0" * m] * (1 << n), "0" * m)


def _by_the_law(n, m, report):
    assert report.mode is ReportMode.MEASURED
    fields = {field: getattr(report, field) for field in _LAW_FIELDS}
    assert fields == measured_law(n, m), m
    # stage 2 leases fan-out ancillas past stage 1's, so its T layers follow
    # stage 1's without a gap
    assert report.t_depth_qdam == report.t_depth_m1 + report.t_depth_m2, m


def _under_the_bounds(n, m, report):
    bound = estimate_bounds(n, m)
    for field in (*_DEPTH_FIELDS, "t_cost"):
        assert getattr(report, field) <= getattr(bound, field), (m, field)


def _as_the_flat_oracle(n, m, report):
    circuits = _zero_key_circuits(n, m)
    assert report == flat_measure_kernel(circuits, optimal_iterations(1 << n)), m


def _the_headline(n, m, report):
    assert report.query_count == estimate_bounds(n, m).query_count == 25
    assert (report.t_depth_qdam, report.t_depth_oracle_reflection,
            report.t_depth_diffusion, report.t_depth_kernel,
            report.t_cost) == (30, 15, 15, 90, 2250)


def _wide_key_cells():
    # key widths on both sides of a power of two, k = 5 .. 14, at every n
    # with m * 2^n <= 2^16; past 2^13 bits only the widest n, except at
    # m = 2^k + 1, whose sync blocks are padded the most
    for k in range(5, 15):
        for m in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            widest = ((1 << 16) // m).bit_length() - 1
            first = 1 if k <= 12 or m == (1 << k) + 1 else widest
            yield from ((n, m) for n in range(first, widest + 1))


def _small_cells(n):
    # every key width up to 8 with m * 2^n <= 2^12
    return [(n, m) for m in range(1, min(8, (1 << 12) >> n) + 1)]


_EVERY_CELL = (_by_the_law, _under_the_bounds)

# (n, m) -> the checks its zero-key measured report gets: the law and the
# bounds everywhere, the flat oracle on every key width up to 8 with
# m * 2^n <= 2^12 and at the headline, and the headline's exact figures
MEASURED = {
    **{cell: (*_EVERY_CELL, _as_the_flat_oracle)
       for n in range(1, 13) for cell in _small_cells(n)},
    (10, 8): (*_EVERY_CELL, _as_the_flat_oracle, _the_headline),
    **{cell: _EVERY_CELL for cell in _wide_key_cells()},
}


@functools.cache
def _measured(n, m):
    # each cell of MEASURED is measured once, however many tests read it
    return measure(n, m)


def _check(cells, *checks):
    # runs the given checks on each cell's report; each must be one of the
    # cell's checks in MEASURED, so the table keeps every cell named below
    for n, m in cells:
        report = _measured(n, m)
        for check in checks:
            assert check in MEASURED[n, m], (n, m, check.__name__)
            check(n, m, report)


@pytest.mark.parametrize("n", sorted({n for n, _ in MEASURED}))
def test_each_measured_cell_passes_its_checks(n):
    # one test per index width, not per cell: 259 test ids cost more in
    # pytest's overhead than the table saves by measuring each cell once
    for (width, m), checks in MEASURED.items():
        if width == n:
            _check([(n, m)], *checks)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (4, 5), (6, 3)])
def test_measured_fits_under_bounds(n, m):
    _check([(n, m)], *_EVERY_CELL)


@pytest.mark.parametrize("n", range(1, 13))
def test_measured_fits_under_bounds_in_every_small_cell(n):
    _check(_small_cells(n), *_EVERY_CELL)


def test_measured_headline_n10_m8_within_bounds():
    _check([(10, 8)], *_EVERY_CELL, _the_headline)


@pytest.mark.parametrize("n", range(1, 9))
def test_stage2_starts_as_stage1_ends(n):
    _check([(n, m) for m in range(2, 7)], _by_the_law)


@pytest.mark.parametrize("n", range(1, 13))
def test_measure_equals_the_flat_oracle_in_every_small_cell(n):
    _check(_small_cells(n), _as_the_flat_oracle)


def test_measure_equals_the_flat_oracle_at_the_headline_widths():
    _check([(10, 8)], _as_the_flat_oracle)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_measured_depths_do_not_depend_on_the_keys(n, m, seed):
    # at m = 1 the standalone stage-2 depth does depend on the keys (ROADMAP
    # item 4), so there it is exempt; every other field follows the law
    rng = random.Random(seed)
    keys, (query,) = random_keys(rng, n, m), random_keys(rng, 0, m)
    report = measure_kernel(build_kernel_circuits(QdamLayout(n, m), keys, query), 1)
    fields = [f for f in _LAW_FIELDS if m > 1 or f != "t_depth_m2"]
    law, reference = measured_law(n, m), measure(n, m)
    for field in fields:
        assert getattr(report, field) == getattr(reference, field) == law[field], field


def test_naive_depth_doubles_per_index_bit():
    d2 = measure_naive(2, 2).t_depth_qdam
    d3 = measure_naive(3, 2).t_depth_qdam
    assert d3 / d2 > 1.9  # exponential trend


def test_kernel_depth_grows_linearly():
    # one more index bit adds 3 to each of the two loaders and deepens the
    # diffusion's phase flip from R(n) to R(n + 1), exactly
    depths = [measure(n, 2).t_depth_kernel for n in range(1, 10)]
    for n, (before, after) in enumerate(zip(depths, depths[1:]), start=1):
        assert after - before == 6 + reflection_law(n + 1) - reflection_law(n), n


# key widths up to 2^64 + 1 bits: every width to 64, then both sides of
# each power of two
_LAW_WIDTHS = sorted({*range(1, 65), *(w for k in range(6, 65)
                                       for w in ((1 << k) - 1, 1 << k, (1 << k) + 1))})


def test_the_law_is_under_the_bounds_far_past_the_measurable_widths():
    # the construction meets the paper's bounds at every width where it
    # follows the law: n up to the bound cap, keys up to 2^64 + 1 bits wide
    assert len(_LAW_WIDTHS) == 239
    for n in range(1, MAX_BOUND_N + 1):
        for m in _LAW_WIDTHS:
            law, bound = measured_law(n, m), estimate_bounds(n, m)
            assert all(law[f] <= getattr(bound, f) for f in _DEPTH_FIELDS), (n, m)
    # R(k) = 3 (2 ceil(log2(k/3)) + 1) from k = 4: it steps by 6 just past 3 * 2^L
    assert [reflection_law(k) for k in range(1, 8)] == [0, 0, 3, 9, 9, 9, 15]
    for level in range(1, 64):
        assert reflection_law(3 << level) == 3 * (2 * level + 1)
        assert reflection_law((3 << level) + 1) == 3 * (2 * level + 3)


def test_the_t_count_law_equals_the_benchmarks_closed_form():
    # the law and the benchmark's check were written apart; they agree over
    # the whole grid of the bounds test above
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    for n in range(1, MAX_BOUND_N + 1):
        for m in _LAW_WIDTHS:
            assert measured_law(n, m)["t_count_total"] == checks.kernel_t_count(n, m), (n, m)


def test_bound_cost_scaling_ratio():
    # t_cost / (sqrt(N) * n) stays below a constant in bound mode
    for n in range(2, 13):
        report = estimate_bounds(n, 8)
        ratio = report.t_cost / (math.sqrt(1 << n) * n)
        assert ratio <= 20


def test_exponential_separation_witness():
    ratios = {
        n: measure_naive(n, 2).t_depth_qdam / measure(n, 2).t_depth_qdam
        for n in range(2, 7)
    }
    values = [ratios[n] for n in sorted(ratios)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert ratios[6] >= 10
    # grows at least like c0 * 2^(n-1) / (4n) for a positive fitted constant
    scaled = [ratios[n] * 4 * n / (1 << (n - 1)) for n in sorted(ratios)]
    c0 = min(scaled)
    assert c0 > 0
    assert all(s >= 0.9 * c0 for s in scaled)


def test_bench_rows_and_ratio_monotonicity():
    rows = bench_scaling(range(2, 5), 2)
    assert len(rows) == 3
    ratios = [naive.t_cost / opt.t_cost for opt, naive in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_bench_single_row_ratio_at_least_one():
    rows = bench_scaling([3], 1)
    assert len(rows) == 1
    opt, naive = rows[0]
    assert naive.t_cost >= opt.t_cost


def test_bench_checks_every_row_before_measuring_any(monkeypatch):
    def refuse(*args):
        raise AssertionError("bench measured a row")

    monkeypatch.setattr(resources, "measure", refuse)
    monkeypatch.setattr(resources, "measure_naive", refuse)
    # row 12 at m = 9 holds 9 * 2^12 record bits, past the naive cap
    with pytest.raises(InputError):
        bench_scaling(range(1, 13), 9)
    with pytest.raises(InputError):
        bench_scaling([2, 0], 1)


def test_bench_csv_format():
    text = bench_csv(bench_scaling([2, 3], 1))
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER == "N,K,td_opt,td_naive,tcost_opt,tcost_naive"
    assert len(lines) == 3
    assert lines[1].startswith("4,1,")


def test_reports_serialize_deterministically():
    a = estimate_bounds(4, 3)
    b = estimate_bounds(4, 3)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_flat_expansion_equals_lowered_circuit(n):
    rng = random.Random(100 + n)
    for m in (1, 2, 3):
        keys = random_keys(rng, n, m)
        naive = build_naive_qdam(n, m, keys)
        optimized = QdamLayout(n, m)
        naive_macro = Circuit(naive.register_sizes, naive.gates)
        for macro in (naive_macro, build_qdam(optimized, keys)):
            stream = _expand_flat(macro)
            assert iter(stream) is stream  # lazy: a generator, not a list
            assert list(stream) == list(macro.gates)
            total = macro.total_qubits
            assert (tally_flat(_expand_flat(macro), total)
                    == tally_flat(lower_circuit(macro).gates, total))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_measure_naive_equals_the_gate_level_stream(n):
    for m in (1, 2):
        naive = build_naive_qdam(n, m, ["0" * m] * (1 << n))
        macro = Circuit(naive.register_sizes, naive.gates)
        loader = resource_tally(lower_circuit(macro))
        layout = QdamLayout(n, m)
        oracle, diff = (resource_tally(lower_circuit(join_parts(layout.register_sizes, parts)))
                        for parts in (build_target_reflection(layout, "0" * m),
                                      build_diffusion(layout)))
        kernel = 2 * loader.t_depth + oracle.t_depth + diff.t_depth
        k = optimal_iterations(1 << n)
        report = measure_naive(n, m)
        assert (report.t_depth_m2, report.t_depth_qdam,
                report.t_depth_oracle_reflection, report.t_depth_diffusion,
                report.t_depth_kernel, report.t_cost, report.t_count_total,
                report.qubit_total) == (
            loader.t_depth, loader.t_depth, oracle.t_depth, diff.t_depth, kernel,
            k * kernel, 2 * loader.t_count + oracle.t_count + diff.t_count,
            macro.total_qubits)


@pytest.mark.parametrize(("n", "m", "expected"), [
    (7, 1, (4992, 9999, 23359)),
    (7, 2, (9984, 19983, 46655)),
    (8, 1, (11520, 23055, 53837)),
    (8, 2, (23040, 46095, 107597)),
    (9, 1, (26112, 52239, 121947)),
    (9, 2, (52224, 104463, 243803)),
])
def test_naive_report_at_the_benchmark_widths(n, m, expected):
    # the widths of the benchmark's naive workload, above what the gate-level
    # comparisons reach
    report = measure_naive(n, m)
    assert (report.t_depth_qdam, report.t_depth_kernel,
            report.t_count_total) == expected


def test_naive_report_follows_its_law():
    # every cell of n 1..15, m in {1, 2, 3, 5, 8} under the naive cap; the
    # gate-level stream above is the lowered oracle for n <= 6
    cells = [(n, m) for n in range(1, 16) for m in (1, 2, 3, 5, 8)
             if m << n <= resources.MAX_NAIVE_BITS]
    assert len(cells) == 66
    for n, m in cells:
        report = measure_naive(n, m)
        assert {field: getattr(report, field) for field in _LAW_FIELDS} == naive_law(n, m), (n, m)


def test_naive_stream_schedules_in_a_few_megabytes():
    # the naive loader at (12, 1) has 282,624 T layers over about 1.2 M
    # scheduler layers: a set of ints held them in a 17.7 MB allocation
    # peak, and one mark byte per layer peaks at 2.6 MB
    macro = build_naive_qdam(12, 1, ["0"] * (1 << 12))
    total = sum(macro.register_sizes.values())
    tracemalloc.start()
    try:
        tally = tally_flat(_expand_flat(macro), total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tally == (659456, 282624)
    assert peak < 6_000_000


@pytest.mark.parametrize("n", range(1, 9))
def test_naive_closed_form_equals_scheduling_its_gates(n):
    # every cell of n 1..8, m 1..6 (all have m * 2^n <= 2^11), on zero,
    # all-ones and two random key sets: the tally and the length need no gate
    rng = random.Random(3200 + n)
    for m in range(1, 7):
        for keys in (["0" * m] * (1 << n), ["1" * m] * (1 << n),
                     random_keys(rng, n, m), random_keys(rng, n, m)):
            loader = build_naive_qdam(n, m, keys)
            total = sum(loader.register_sizes.values())
            assert loader.tally() == tally_flat(loader.gates, total), (m, keys)
            assert len(loader) == len(loader.gates)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_measure_kernel_equals_lowering_every_circuit(n):
    # each report field from one tally of each separately lowered circuit
    rng = random.Random(200 + n)
    for m in (1, 2, 3, 4, 5, 6):
        pattern = random_keys(rng, 0, m)[0]
        circuits = build_kernel_circuits(QdamLayout(n, m), random_keys(rng, n, m), pattern)
        report = measure_kernel(circuits, 3)
        tallies = [resource_tally(lower_circuit(c)) for c in (
            circuits.stage1, circuits.stage2, circuits.loader,
            circuits.target_reflection, circuits.diffusion, circuits.kernel())]
        assert [getattr(report, field) for field in _DEPTH_FIELDS] == [
            t.t_depth for t in tallies]
        assert (report.t_cost, report.t_count_total) == (3 * tallies[-1].t_depth,
                                                         tallies[-1].t_count)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3)])
def test_the_reversed_loader_runs_as_the_inverse_loader(n, m):
    # the block check runs the loader reversed in place of the inverse
    # loader; on random keys both leave the same state after the loader and
    # the reflection, and negate exactly the records holding the pattern
    rng = random.Random(350 + n)
    layout = QdamLayout(n, m)
    for _ in range(3):
        keys, (pattern,) = random_keys(rng, n, m), random_keys(rng, 0, m)
        circuits = build_kernel_circuits(layout, keys, pattern)
        block = (SlicedState(n, layout.total_qubits).run(circuits.loader)
                 .run(circuits.target_reflection))
        reversed_run = block.run(circuits.loader, reverse=True)
        inverse_run = block.run(circuits.loader_inverse)
        assert reversed_run.columns == inverse_run.columns
        assert reversed_run.phase == inverse_run.phase
        assert reversed_run.diagonal_signs() == sum(
            1 << q for q, key in enumerate(keys) if key == pattern)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(n=4, m=3, seed=7)  # staggered records, fed by one block's two runs
def test_measure_kernel_equals_the_flat_oracle_on_random_keys(n, m, seed):
    rng = random.Random(seed)
    keys, (query,) = random_keys(rng, n, m), random_keys(rng, 0, m)
    circuits = build_kernel_circuits(QdamLayout(n, m), keys, query)
    assert measure_kernel(circuits, 2) == flat_measure_kernel(circuits, 2)


def _check_the_fan_in_moves_no_tally(layout, keys):
    # the fan-in holds no T gate, so feeding it in stage 2's standalone
    # tally, as its gates or by its closed form, moves nothing
    stage2 = loader_parts(layout, keys)[1:]
    prepare, records, fan_in = stage2
    t_kinds = {GateKind.T, GateKind.TDG, GateKind.TOFFOLI, GateKind.MCZ}
    assert not t_kinds & {kind for kind, _ in fan_in.gates}

    def head():
        return Schedule(layout.total_qubits).feed_parts((prepare, records))

    tally = head().tally()
    assert tally == head().feed(fan_in.gates).tally()
    assert tally == head().feed_parts((fan_in,)).tally()
    assert tally == Schedule(layout.total_qubits).feed_parts(stage2).tally()


@pytest.mark.parametrize("n", range(1, 11))
def test_stage_two_tally_equals_all_three_parts_on_zero_keys(n):
    for m in range(1, min(8, (1 << 12) >> n) + 1):
        _check_the_fan_in_moves_no_tally(QdamLayout(n, m), ["0" * m] * (1 << n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stage_two_tally_equals_all_three_parts_on_random_keys(n, m, seed):
    keys = random_keys(random.Random(seed), n, m)
    _check_the_fan_in_moves_no_tally(QdamLayout(n, m), keys)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(n=4, m=1, seed=7)  # a key whose standalone stage-2 depth is 6
def test_preparing_the_database_before_stage_one_moves_no_kernel_tally(n, m, seed):
    # stage 1 never touches a database qubit, so the preparation may run
    # first, and undo last, without moving a figure of the kernel's schedule
    rng = random.Random(seed)
    keys, (query,) = random_keys(rng, n, m), random_keys(rng, 0, m)
    circuits = build_kernel_circuits(QdamLayout(n, m), keys, query)
    report = measure_kernel(circuits, 1)
    _, prepare, records, fan_in = circuits.loader_parts
    # stage 1 as its built gates, after the preparation
    loader = (prepare, circuits.stage1, records, fan_in)
    kernel = Schedule(circuits.layout.total_qubits)
    t_m1 = kernel.feed_parts(loader[:2]).tally()
    t_loader = kernel.feed_parts(loader[2:]).tally()
    kernel.feed(circuits.target_reflection.gates).feed_parts(loader, reverse=True)
    t_kernel = kernel.feed(circuits.diffusion.gates).tally()
    assert (t_m1.t_depth, t_loader.t_depth, t_kernel.t_depth, t_kernel.t_count) == (
        report.t_depth_m1, report.t_depth_qdam, report.t_depth_kernel,
        report.t_count_total)


def test_measure_kernel_feeds_the_fan_in_twice(monkeypatch):
    # every part is fed once in the loader and once reversed in the inverse
    # loader, around the target reflection's parts and before the
    # diffusion's; then stage 2's parts and the two reflections' again, for
    # their standalone tallies
    circuits = _zero_key_circuits(5, 3)
    fed = []
    for part in (Circuit, RecordBlock, FanIn, OneHotDecoder, SyncBlock):
        def recording(self, schedule, reverse=False, real=part.feed_into):
            fed.append((self, reverse))
            return real(self, schedule, reverse)

        monkeypatch.setattr(part, "feed_into", recording)
    measure_kernel(circuits, 1)
    decoder, prepare, records, fan_in = circuits.loader_parts
    loader = [(decoder, False), (prepare, False), (records, False), (fan_in, False)]
    inverse = [(fan_in, True), (records, True), (prepare, True), (decoder, True)]
    flips, sync, tree, closing = circuits.reflection_parts
    assert closing is sync
    reflection = [(flips, False), (sync, False), (tree, False), (sync, False)]
    hx, index_sync, undo = circuits.diffusion_parts
    diffusion = [(hx, False), (index_sync, False), (undo, False)]
    assert [type(part) for part, _ in reflection + diffusion] == [
        Circuit, SyncBlock, Circuit, SyncBlock, Circuit, SyncBlock, Circuit]
    assert fed == [*loader, *reflection, *inverse, *diffusion, *loader[1:],
                   *reflection, *diffusion]


def _baseline_key_sets(rng, n, m):
    """Zero, all-ones and three random key sets for n index bits and m
    bits per key."""
    return [["0" * m] * (1 << n), ["1" * m] * (1 << n),
            *(random_keys(rng, n, m) for _ in range(3))]


def _gate_reads_per_feed(monkeypatch, cls) -> list[int]:
    """Patch ``cls`` so that each feed appends to the list returned how
    often it read the part's ``gates``."""
    fed, reads, real_gates, real_feed = [], [], cls.__dict__["gates"], cls.feed_into

    def reading(part):
        reads.append(part)
        return real_gates.__get__(part, cls)

    def recording(part, schedule, reverse=False):
        reads.clear()
        real_feed(part, schedule, reverse)
        fed.append(len(reads))

    monkeypatch.setattr(cls, "gates", property(reading))
    monkeypatch.setattr(cls, "feed_into", recording)
    return fed


def test_the_records_feed_their_gates_only_in_the_m1_stage_two_tally(monkeypatch):
    # over the Baseline grid, the records' gates are fed once per kernel
    # exactly when m = 1 and the keys hold both bit values, and then in the
    # third feed, stage 2's standalone tally, where the preparation's X
    # gates stagger a Toffoli's database control against its lone carrier;
    # the fan-in, fed after them, feeds its gates exactly there too
    feeds = {cls: _gate_reads_per_feed(monkeypatch, cls) for cls in (RecordBlock, FanIn)}
    rng, fallbacks = random.Random(17), 0
    for n in range(1, 9):
        for m in range(1, min(6, (1 << 11) >> n) + 1):
            for keys in _baseline_key_sets(rng, n, m):
                query = random_keys(rng, 0, m)[0]
                circuits = build_kernel_circuits(QdamLayout(n, m), keys, query)
                for fed in feeds.values():
                    fed.clear()
                measure_kernel(circuits, 1)
                mixed = m == 1 and {"0", "1"} <= set("".join(keys))
                assert feeds == {cls: [0, 0, int(mixed)] for cls in feeds}, (n, m, keys)
                fallbacks += mixed
    # the random sets drew both bit values in 22 of their 24 cells at m = 1
    assert fallbacks == 22


def test_measure_schedules_fewer_gates_than_stage_two_holds(monkeypatch):
    layout = QdamLayout(8, 5)
    stage2 = build_m2(layout, loader_parts(layout, ["00000"] * 256)[1:])
    fed = []
    real = Schedule.feed

    def counting(schedule, gates):
        gates = list(gates)
        fed.append(len(gates))
        return real(schedule, gates)

    monkeypatch.setattr(Schedule, "feed", counting)
    measure(8, 5)
    # the report feeds the reflections twice each and about one record
    # block per stage-2 pass, and no stage-1 or fan-in gate at all
    assert sum(fed) < len(stage2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lowered_stages_concatenate_to_the_lowered_loader(n):
    rng = random.Random(300 + n)
    for m in (1, 2, 3):
        layout = QdamLayout(n, m)
        keys = random_keys(rng, n, m)
        circuits = build_kernel_circuits(layout, keys, keys[0])
        assert (lower_circuit(circuits.stage1).gates
                + lower_circuit(circuits.stage2).gates
                == lower_circuit(circuits.loader).gates)


class _IndexOnly:
    """A width type that, like numpy's integers, is no int and defines
    only ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


@pytest.mark.parametrize("report", [estimate_bounds, measure, measure_naive])
def test_reports_on_numpy_widths_hold_plain_ints(report):
    doc = report(_IndexOnly(3), _IndexOnly(2)).to_json()
    assert all(type(value) in (int, str) for value in doc.values())
    assert json.loads(json.dumps(doc)) == report(3, 2).to_json()


def test_bench_rows_on_numpy_widths_hold_plain_ints():
    for row in bench_scaling(map(_IndexOnly, range(2, 4)), _IndexOnly(2)):
        for report in row:
            doc = report.to_json()
            assert all(type(value) in (int, str) for value in doc.values())
            json.dumps(doc)


# the refusals of bad report widths are rows of test_cli.REFUSALS
globals().update(refusal_tests(__name__))
