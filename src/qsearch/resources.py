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

:class:`~qsearch.circuit.Schedule` schedules TOFFOLI and 3-operand MCZ
macros through max-plus templates of their Clifford+T fragments, so a
macro circuit's tally equals its lowering's by construction, and measuring
the kernel lowers nothing.  :func:`measure_kernel` schedules the kernel in
one pass and reads stage 1, the loader and the kernel off it as prefix
snapshots; stage 2 and the two reflections, whose depths start from an
empty schedule, are also tallied alone.  The inverse loader is tallied as
the loader's gates in reverse order: the scheduler treats T like TDG and S
like SDG, and the macros are self-adjoint, so the reversed stream tallies
exactly as the adjoint circuit, which is never built.  Stage 2 is fed as
its parts, whose record blocks and fan-in are tilings
(:class:`~qsearch.circuit.Tiling`): the scheduler takes about one record
block per pass, not m * 2^n, and stage 2's gate list is never built.  The
naive report streams its macro loader through :func:`tally_flat` and
tallies its two reflections, a few hundred gates, on their lowering.
"""
from __future__ import annotations

import enum
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .circuit import Schedule, resource_tally, tally_flat
from .decompose import lower_circuit
from .errors import InputError
from .grover import (
    KernelCircuits,
    build_diffusion,
    build_kernel_circuits,
    build_target_reflection,
    optimal_iterations,
)
from .qdam import NaiveLayout, QdamLayout, Stage2Parts, build_naive_qdam

CSV_HEADER = "N,K,td_opt,td_naive,tcost_opt,tcost_naive"


class ReportMode(enum.Enum):
    BOUND_FORMULA = "bound"
    MEASURED = "measured"
    NAIVE_MEASURED = "naive"


@dataclass(frozen=True)
class ResourceReport:
    n: int
    m: int
    t_depth_m1: int
    t_depth_m2: int
    t_depth_qdam: int
    t_depth_oracle_reflection: int
    t_depth_diffusion: int
    t_depth_kernel: int
    query_count: int
    mode: ReportMode
    qubit_total: int
    t_count_total: int

    @property
    def database_size(self) -> int:
        return 1 << self.n

    @property
    def t_cost(self) -> int:
        return self.query_count * self.t_depth_kernel

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "N": self.database_size,
            "t_depth_m1": self.t_depth_m1,
            "t_depth_m2": self.t_depth_m2,
            "t_depth_qdam": self.t_depth_qdam,
            "t_depth_oracle_reflection": self.t_depth_oracle_reflection,
            "t_depth_diffusion": self.t_depth_diffusion,
            "t_depth_kernel": self.t_depth_kernel,
            "query_count": self.query_count,
            "t_cost": self.t_cost,
            "mode": self.mode.value,
            "qubit_total": self.qubit_total,
            "t_count_total": self.t_count_total,
        }

    def to_csv(self) -> str:
        doc = self.to_json()
        header = ",".join(doc)
        row = ",".join(str(v) for v in doc.values())
        return f"{header}\n{row}\n"


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


# the largest index width each report can be computed for: the closed
# forms take sqrt(2^n) as a float, and a measured report schedules m * 2^n
# Toffolis, so it also caps m * 2^n at what n <= MAX_MEASURED_N allows at m = 1;
# the naive report holds m * 2^n ladders (316 MB at n = 15, m = 1)
MAX_BOUND_N = 1023
MAX_MEASURED_N = 20
MAX_NAIVE_BITS = 1 << 15


def _check_widths(n: int, m: int, max_n: int, max_bits: int | None = None) -> None:
    """Reject report widths below 1, an index width above ``max_n``, or more
    than ``max_bits`` record bits m * 2^n, with :class:`InputError`."""
    if n < 1 or m < 1:
        raise InputError("widths must be positive")
    if n > max_n:
        raise InputError(f"this report supports n <= {max_n}, got {n}")
    if max_bits is not None and m << n > max_bits:
        raise InputError(f"this report supports m * 2^n <= {max_bits}, got {m} * 2^{n}")


def estimate_bounds(n: int, m: int) -> ResourceReport:
    """Closed-form report; the constructive inequalities taken as equalities."""
    _check_widths(n, m, MAX_BOUND_N)
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

    The gate structure does depend on the key bits: ``build_m2`` prepares
    the database with one X per 1 bit, which shifts the scheduler's entry
    times into the stage-2 Toffolis.  From m = 2 a fan-out round re-aligns
    them and every depth is the zero-key one; with m = 1 some keys measure
    a stage-2 T-depth above its bound, so there a zero-key report does not
    bound every database (ROADMAP item 4)."""
    return ["0" * m] * (1 << n)


def _feed_stage2(schedule: Schedule, parts: Stage2Parts, reverse: bool = False) -> Schedule:
    """Feed stage 2 from its parts, or its gates in reverse order."""
    if reverse:
        return (schedule.feed_tiled(parts.fan_in, reverse=True)
                .feed_tiled(parts.records, reverse=True).feed(parts.prepare[::-1]))
    return schedule.feed(parts.prepare).feed_tiled(parts.records).feed_tiled(parts.fan_in)


def measure_kernel(circuits: KernelCircuits, iterations: int) -> ResourceReport:
    """Schedule the macro subroutines of one kernel and tally them as their
    Clifford+T lowering.

    One schedule takes the kernel in order: stage 1 (snapshot: stage 1),
    stage 2 (snapshot: the loader), then the target reflection, the
    loader's gates reversed as the inverse loader, and the diffusion
    (snapshot: the kernel).  Stage 2 and the two reflections are also
    tallied on their own, from an empty schedule; stage 2 from its parts."""
    layout, parts = circuits.layout, circuits.stage2_parts
    total = layout.total_qubits
    kernel = Schedule(total)
    t_m1 = kernel.feed(circuits.stage1.gates).tally()
    t_loader = _feed_stage2(kernel, parts).tally()
    kernel.feed(circuits.target_reflection.gates)
    _feed_stage2(kernel, parts, reverse=True).feed(reversed(circuits.stage1.gates))
    t_kernel = kernel.feed(circuits.diffusion.gates).tally()
    t_m2 = _feed_stage2(Schedule(total), parts).tally()
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


def measure(n: int, m: int) -> ResourceReport:
    """Measured report for the optimized kernel at the given widths."""
    _check_widths(n, m, MAX_MEASURED_N, 1 << MAX_MEASURED_N)
    layout = QdamLayout(n, m)
    keys = _zero_keys(n, m)
    circuits = build_kernel_circuits(layout, keys, "0" * m)
    return measure_kernel(circuits, optimal_iterations(1 << n))


def _expand_flat(macro_circuit):
    # a bare iterator over the gates; the benchmark's tracer times its pulls
    return iter(macro_circuit.gates)


def measure_naive(n: int, m: int) -> ResourceReport:
    """Measured report with the naive loader substituted for the optimized
    one.  The naive loader's macro gates stream into the scheduler; its
    MCZ ladders are built into the circuit, so every macro is a TOFFOLI or
    a 3-operand MCZ.  The kernel depth is composed per subroutine
    (2*loader + both reflections); scheduling the concatenation twice would
    add nothing but runtime."""
    _check_widths(n, m, MAX_MEASURED_N, MAX_NAIVE_BITS)
    layout = NaiveLayout(n, m)
    macro = build_naive_qdam(layout, _zero_keys(n, m))
    total = sum(layout.register_sizes.values())
    tally = tally_flat(_expand_flat(macro), total)
    ref_layout = QdamLayout(n, m)
    ladder = ref_layout.ladder_qubits()
    t_oracle = resource_tally(
        lower_circuit(build_target_reflection(ref_layout, "0" * m), ladder)
    )
    t_diff = resource_tally(lower_circuit(build_diffusion(ref_layout), ladder))
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


@dataclass(frozen=True)
class BenchRow:
    database_size: int
    iterations: int
    t_depth_optimized: int
    t_depth_naive: int
    t_cost_optimized: int
    t_cost_naive: int

    def to_csv_row(self) -> str:
        return (
            f"{self.database_size},{self.iterations},{self.t_depth_optimized},"
            f"{self.t_depth_naive},{self.t_cost_optimized},{self.t_cost_naive}"
        )


MAX_BENCH_N = 12


def bench_scaling(n_values: Iterable[int], m: int) -> list[BenchRow]:
    """Measured loader depths and kernel costs, optimized vs naive, one row
    per index width.  Resource mode only: nothing is simulated."""
    rows: list[BenchRow] = []
    for n in n_values:
        if not 1 <= n <= MAX_BENCH_N:
            raise InputError(f"bench supports 1 <= n <= {MAX_BENCH_N}, got {n}")
        opt = measure(n, m)
        naive = measure_naive(n, m)
        rows.append(
            BenchRow(
                database_size=1 << n,
                iterations=opt.query_count,
                t_depth_optimized=opt.t_depth_qdam,
                t_depth_naive=naive.t_depth_qdam,
                t_cost_optimized=opt.t_cost,
                t_cost_naive=naive.t_cost,
            )
        )
    return rows


def bench_csv(rows: Sequence[BenchRow]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row.to_csv_row() + "\n")
    return out.getvalue()
