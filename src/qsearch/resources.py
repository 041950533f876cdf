"""Resource accounting: closed-form bounds, scheduler measurements, and
scaling benches against the naive loader.

Bound mode reports the constructive inequalities as equalities -- loader
4n (4(n-1) for the index coupling plus 4 for the load block), reflections
6(m-1) and 6(n-1) with degenerate clamps (0 at width <= 2, 3 at width 3),
kernel = 2*loader + reflections, cost = iterations * kernel.  These are
the paper's forms, linear in the reflection width.  Measured mode
schedules the actual circuits, and :func:`measure` states the laws they
follow, under the bounds subroutine by subroutine.

:func:`measure` tallies the optimized kernel over zero keys with
:func:`qsearch.kernel.measure_kernel`.  The naive report takes its loader's
tally by the closed form :meth:`qsearch.qdam.NaiveLoader.tally`, which
builds no gate, and its qubit count from the loader's own registers; it
tallies its two reflections as macro gates through :func:`tally_flat`.
Each report checks its widths against its own cap, and
:func:`bench_scaling` checks every row against the caps of both reports it
runs.
"""
from __future__ import annotations

import operator
from typing import Iterable, Sequence

from . import decompose
from .circuit import join_parts, tally_flat
from .errors import InputError
from .grover import build_kernel_circuits, optimal_iterations
from .kernel import (
    ReportMode,
    ResourceReport,
    build_diffusion,
    build_target_reflection,
    measure_kernel,
)
from .qdam import QdamLayout, build_naive_qdam

CSV_HEADER = "N,K,td_opt,td_naive,tcost_opt,tcost_naive"
# no report lowers; bound here only for the benchmark's tracer, which patches it
lower_circuit = decompose.lower_circuit


def reflection_depth_bound(width: int) -> int:
    """Multi-control phase-flip T-depth bound with degenerate clamps."""
    if width <= 2:
        return 0
    if width == 3:
        return 3
    return 6 * (width - 1)


# the largest index width each report can be computed for: the float floor
# of K is proven exact only up to n = 109; a measured report keeps one
# scheduler time per qubit, O(m * 2^n), so it caps m * 2^n at n's cap at
# m = 1 (its heaviest op, measure(1, 2^19), took 1.6-1.7 s at 419 MB peak
# RSS in a fresh process on a 2-vCPU AMD EPYC, 1.8-1.9 s as the whole
# ``estimate`` command); the naive report tallies its loader by closed form
# and holds only its zero keys and two macro reflections: its heaviest op,
# n = 1, m = 2^14, took 0.08-0.09 s at 47 MB peak RSS, and n = 15, m = 1
# peaks at 17.3-17.7 MB, 1.1-1.2 MB above what importing the CLI takes
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
    # a flip on w qubits holds 2w - 5 Toffolis and CCZs from w = 3, none below
    loader_toffolis = (big_n - 2) + m * big_n
    kernel_t_count = 7 * (2 * loader_toffolis + max(0, 2 * m - 5) + max(0, 2 * n - 5))
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
    """Measured report for the optimized kernel at the given widths.

    Its figures follow exact laws, which ``tests/test_resources.MEASURED``
    checks cell by cell: stage 1 3(n - 1), stage 2 3, the loader 3n, the
    target reflection R(m), the diffusion R(n) and the kernel 6n + R(m) +
    R(n), with R(k) 0 for k <= 2, 3 for k = 3 and 3(2 ceil(log2(k/3)) + 1)
    above (an AND tree, :func:`qsearch.decompose.mcz_tree`); the kernel's
    T-count is 7 per Toffoli or CCZ, 2(2^n - 2 + m 2^n) in the two loaders
    and 2k - 5 in a reflection on k >= 3 qubits.  So the loader has 3n T
    layers against the bound's 4n, and a reflection R(k), logarithmic in its
    width, against 6(k - 1)."""
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
    reflections are scheduled as macro gates, each by its template.  The
    kernel depth is composed per subroutine (2*loader + both reflections);
    scheduling the concatenation twice would add nothing but runtime."""
    n, m = _check_widths(n, m, MAX_MEASURED_N, MAX_NAIVE_BITS)
    loader = build_naive_qdam(n, m, _zero_keys(n, m))
    tally = loader.tally()
    total = sum(loader.register_sizes.values())
    ref_layout = QdamLayout(n, m)
    sizes = ref_layout.register_sizes
    oracle = join_parts(sizes, build_target_reflection(ref_layout, "0" * m))
    diff = join_parts(sizes, build_diffusion(ref_layout))
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


def bench_scaling(n_values: Iterable[int],
                  m: int) -> list[tuple[ResourceReport, ResourceReport]]:
    """Measured ``(optimized, naive)`` report pairs, one per index width.
    Resource mode only: nothing is simulated."""
    # every row is checked against both reports' caps before any is measured
    rows = [_check_widths(n, m, MAX_MEASURED_N, MAX_NAIVE_BITS) for n in n_values]
    return [(measure(n, m), measure_naive(n, m)) for n, m in rows]


def bench_csv(rows: Sequence[tuple[ResourceReport, ResourceReport]]) -> str:
    """One CSV line per pair: the loader depths and kernel costs side by side."""
    return "".join([CSV_HEADER + "\n"] + [
        f"{opt.database_size},{opt.query_count},{opt.t_depth_qdam},"
        f"{naive.t_depth_qdam},{opt.t_cost},{naive.t_cost}\n" for opt, naive in rows])
