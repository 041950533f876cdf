"""Resource accounting: closed-form bounds, scheduler measurements, and
scaling benches against the naive loader.

Bound mode reports the constructive inequalities as equalities -- loader
4n (4(n-1) for the index coupling plus 4 for the load block), reflections
6(m-1) and 6(n-1) with degenerate clamps (0 at width <= 2, 3 at width 3),
kernel = 2*loader + reflections, cost = iterations * kernel.  These are
the paper's forms, linear in the reflection width.  Measured mode
schedules the actual circuits and must come in at or under the bounds,
subroutine by subroutine; its reflections are AND trees
(:func:`qsearch.decompose.mcz_tree`), so their measured T-depth grows as
the logarithm of the width.

:func:`measure` tallies the optimized kernel over zero keys with
:func:`qsearch.kernel.measure_kernel`.  The naive report takes its loader's
tally by the closed form :meth:`qsearch.qdam.NaiveLoader.tally`, which
builds no gate, and tallies its two reflections, a few hundred gates, on
their lowering through :func:`tally_flat`.
"""
from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .circuit import join_parts, tally_flat
from .decompose import lower_circuit
from .errors import InputError
from .grover import build_kernel_circuits, optimal_iterations
from .kernel import (
    ReportMode,
    ResourceReport,
    build_diffusion,
    build_target_reflection,
    measure_kernel,
)
from .qdam import NaiveLayout, QdamLayout, build_naive_qdam

CSV_HEADER = "N,K,td_opt,td_naive,tcost_opt,tcost_naive"


def reflection_depth_bound(width: int) -> int:
    """Multi-control phase-flip T-depth bound with degenerate clamps."""
    if width <= 2:
        return 0
    if width == 3:
        return 3
    return 6 * (width - 1)


def _reflection_toffoli_equivalents(width: int) -> int:
    if width <= 2:
        return 0
    if width == 3:
        return 1
    return 2 * width - 5


# the largest index width each report can be computed for: the float floor
# of K is proven exact only up to n = 109; a measured report keeps one
# scheduler time per qubit, O(m * 2^n), so it caps m * 2^n at n's cap at
# m = 1 (its heaviest op, measure(1, 2^19), took 6.4-7.5 s at 670 MB peak
# RSS on a 2-vCPU Xeon); the naive report tallies its loader by closed form
# and holds only its zero keys and two lowered reflections (17 MB peak RSS
# at n = 15, m = 1, 0.5 MB above what importing the CLI takes)
MAX_BOUND_N = 109
MAX_MEASURED_N = 20
MAX_NAIVE_BITS = 1 << 15


def _check_widths(n: int, m: int, max_n: int,
                  max_bits: int | None = None) -> tuple[int, int]:
    """Reject report widths below 1, an index width above ``max_n``, or more
    than ``max_bits`` record bits m * 2^n, with :class:`InputError`.  Return
    the widths as plain ints, so that a report on numpy integers still
    serializes."""
    n, m = operator.index(n), operator.index(m)
    if n < 1 or m < 1:
        raise InputError("widths must be positive")
    if n > max_n:
        raise InputError(f"this report supports n <= {max_n}, got {n}")
    if max_bits is not None and m << n > max_bits:
        raise InputError(f"this report supports m * 2^n <= {max_bits}, got {m} * 2^{n}")
    return n, m


def estimate_bounds(n: int, m: int) -> ResourceReport:
    """Closed-form report; the constructive inequalities taken as equalities."""
    n, m = _check_widths(n, m, MAX_BOUND_N)
    big_n = 1 << n
    td_m1 = 4 * (n - 1)
    td_m2 = 4
    td_qdam = 4 * n
    td_oracle = reflection_depth_bound(m)
    td_diff = reflection_depth_bound(n)
    td_kernel = 2 * td_qdam + td_oracle + td_diff
    loader_toffolis = (big_n - 2) + m * big_n
    kernel_t_count = 7 * (
        2 * loader_toffolis
        + _reflection_toffoli_equivalents(m)
        + _reflection_toffoli_equivalents(n)
    )
    return ResourceReport(
        n=n,
        m=m,
        t_depth_m1=td_m1,
        t_depth_m2=td_m2,
        t_depth_qdam=td_qdam,
        t_depth_oracle_reflection=td_oracle,
        t_depth_diffusion=td_diff,
        t_depth_kernel=td_kernel,
        query_count=optimal_iterations(big_n),
        mode=ReportMode.BOUND_FORMULA,
        qubit_total=QdamLayout(n, m).total_qubits,
        t_count_total=kernel_t_count,
    )


def _zero_keys(n: int, m: int) -> list[str]:
    """All-zero key patterns, the reference database of a measured report.

    The gate structure does depend on the key bits: stage 2 prepares the
    database with one X per 1 bit, which shifts the scheduler's entry
    times into the stage-2 Toffolis.  From m = 2 a fan-out round re-aligns
    them and every depth is the zero-key one; with m = 1 some keys measure
    a stage-2 T-depth above its bound, so there a zero-key report does not
    bound every database (ROADMAP item 4).  The naive report holds for
    every database: its loader's tally does not depend on the keys, by the
    proof in :meth:`qsearch.qdam.NaiveLoader.tally`."""
    return ["0" * m] * (1 << n)


def measure(n: int, m: int) -> ResourceReport:
    """Measured report for the optimized kernel at the given widths."""
    n, m = _check_widths(n, m, MAX_MEASURED_N, 1 << MAX_MEASURED_N)
    layout = QdamLayout(n, m)
    keys = _zero_keys(n, m)
    circuits = build_kernel_circuits(layout, keys, "0" * m)
    return measure_kernel(circuits, optimal_iterations(1 << n))


def _expand_flat(macro_circuit):
    # a bare iterator over the gates; the benchmark's tracer times its pulls
    return iter(macro_circuit.gates)


def measure_naive(n: int, m: int) -> ResourceReport:
    """Measured report with the naive loader substituted for the optimized
    one.  The naive loader's tally is its closed form, equal to its
    ladders' macro gates scheduled alone, and builds none of them; the two
    reflections are scheduled on their lowering.  The kernel depth is
    composed per subroutine (2*loader + both reflections); scheduling the
    concatenation twice would add nothing but runtime."""
    n, m = _check_widths(n, m, MAX_MEASURED_N, MAX_NAIVE_BITS)
    layout = NaiveLayout(n, m)
    tally = build_naive_qdam(layout, _zero_keys(n, m)).tally()
    total = sum(layout.register_sizes.values())
    ref_layout = QdamLayout(n, m)
    sizes = ref_layout.register_sizes
    oracle = lower_circuit(join_parts(sizes, build_target_reflection(ref_layout, "0" * m)))
    diff = lower_circuit(join_parts(sizes, build_diffusion(ref_layout)))
    t_oracle = tally_flat(_expand_flat(oracle), oracle.total_qubits)
    t_diff = tally_flat(_expand_flat(diff), diff.total_qubits)
    return ResourceReport(
        n=n,
        m=m,
        t_depth_m1=0,
        t_depth_m2=tally.t_depth,
        t_depth_qdam=tally.t_depth,
        t_depth_oracle_reflection=t_oracle.t_depth,
        t_depth_diffusion=t_diff.t_depth,
        t_depth_kernel=2 * tally.t_depth + t_oracle.t_depth + t_diff.t_depth,
        query_count=optimal_iterations(1 << n),
        mode=ReportMode.NAIVE_MEASURED,
        qubit_total=total,
        t_count_total=2 * tally.t_count + t_oracle.t_count + t_diff.t_count,
    )


MAX_BENCH_N = 12


def bench_scaling(n_values: Iterable[int],
                  m: int) -> list[tuple[ResourceReport, ResourceReport]]:
    """Measured ``(optimized, naive)`` report pairs, one per index width.
    Resource mode only: nothing is simulated."""
    # every row is checked before any is measured
    rows = [_check_widths(n, m, MAX_BENCH_N, MAX_NAIVE_BITS) for n in n_values]
    return [(measure(n, m), measure_naive(n, m)) for n, m in rows]


def bench_csv(rows: Sequence[tuple[ResourceReport, ResourceReport]]) -> str:
    """One CSV line per pair: the loader depths and kernel costs side by side."""
    return "".join([CSV_HEADER + "\n"] + [
        f"{opt.database_size},{opt.query_count},{opt.t_depth_qdam},"
        f"{naive.t_depth_qdam},{opt.t_cost},{naive.t_cost}\n" for opt, naive in rows])
