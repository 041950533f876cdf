"""One kernel iteration: loader, target reflection, inverse loader and
diffusion, as macro circuits, and its measured resource report.

:class:`~qsearch.circuit.Schedule` schedules the TOFFOLI and MCZ (CCZ)
macros through max-plus templates of their Clifford+T fragments, so a
macro circuit's tally equals its lowering's by construction, and measuring
the kernel lowers nothing.  :func:`measure_kernel` schedules the kernel in
one pass and reads stage 1, the loader and the kernel off it as prefix
snapshots; stage 2 and the two reflections, whose depths start from an
empty schedule, are also tallied alone.  The inverse loader is tallied as
the loader's gates in reverse order: the scheduler treats T like TDG and S
like SDG, and the macros are self-adjoint, so the reversed stream tallies
exactly as the adjoint circuit, which is never built.  Stage 1 is fed
by its per-level closed form (:class:`~qsearch.circuit.OneHotDecoder`),
so the report builds no stage-1 gate.  Stage 2 is fed as the database
preparation's X gates, the record tiling
(:class:`~qsearch.circuit.Tiling`) and a fan-in taken by its closed form
(:class:`~qsearch.circuit.FanIn`): with zero keys every copy of the
tiling enters at the same times, so the scheduler takes its block once,
not per record, and stage 2's gate list is never built.  Other keys
stagger the copies, and the tiling is then fed as its gates, built once.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

from .circuit import Circuit, FanIn, Gate, GateKind, Schedule, Tiling, tally_flat
from .decompose import mcz_tree, sync_touch
from .errors import InputError
from . import qdam  # build_m2 looked up at call time: the benchmark's tracer patches it
from .qdam import QdamLayout


def _sync_block(layout: QdamLayout, qubits: Sequence[int]) -> list[Gate]:
    """:func:`sync_touch` over ``qubits``, padded to a power of two with
    ladder ancillas, which it leaves as it found them.  The pool always
    has room: w qubits need 2^ceil(log2 w) - w <= w - 2 pads for w >= 2,
    and the pool holds max(n, m) - 2 for the w = m data or w = n index
    qubits."""
    pad = (1 << (len(qubits) - 1).bit_length()) - len(qubits)
    return sync_touch([*qubits, *layout.ladder_qubits()[:pad]])


def build_target_reflection(layout: QdamLayout, key_pattern: str) -> Circuit:
    """Phase flip of the data-register branch matching ``key_pattern``:
    X where the pattern bit is 0, a phase flip on all-ones through
    :func:`~qsearch.decompose.mcz_tree`, X again.

    A sync block over the data register follows each round of flips.  The
    first puts every data qubit in one scheduler layer before the tree,
    whatever the key: the flips touch only the 0 bits, and a tree, unlike
    a serial ladder, needs its leaves to enter together for its levels to
    merge their T layers.  The closing one does the same for the inverse
    loader, whose uncompute Toffolis the tree's leaves would otherwise
    enter staggered.
    """
    if len(key_pattern) != layout.m or any(c not in "01" for c in key_pattern):
        raise InputError(f"pattern {key_pattern!r} does not fit {layout.m} data qubits")
    data, x = [layout.data_qubit(j) for j in range(layout.m)], GateKind.X
    flips = [(x, (q,)) for q, c in zip(data, key_pattern) if c == "0"]
    sync = _sync_block(layout, data)
    tree = mcz_tree(data, layout.ladder_qubits())
    return Circuit(layout.register_sizes, [*flips, *sync, *tree, *flips, *sync])


def build_diffusion(layout: QdamLayout) -> Circuit:
    """Reflection about the uniform index state: H then X conjugation of a
    phase flip on the all-ones index branch.  The binary index qubits are
    flat qubits 0 .. n-1.

    From n = 4 the flip is a tree of Toffolis, and a sync block over the
    index register lines its leaves up first: the inverse loader leaves
    them staggered, which in a kernel would smear the tree's T layers.
    Narrower flips are a single fragment and get none."""
    index, h, x = range(layout.n), GateKind.H, GateKind.X
    hs = [(h, (b,)) for b in index]
    xs = [(x, (b,)) for b in index]
    sync = _sync_block(layout, index) if layout.n >= 4 else []
    tree = mcz_tree(index, layout.ladder_qubits())
    return Circuit(layout.register_sizes, [*hs, *xs, *sync, *tree, *xs, *hs])


@dataclass(frozen=True)
class KernelCircuits:
    """Macro-level subroutine circuits for one kernel iteration; the loader
    is stage 1 then stage 2.

    The resource report schedules stage 1 by the closed form of
    :func:`~qsearch.qdam.stage1_decoder`, and stage 2 as the parts of
    :func:`~qsearch.qdam.stage2_parts`, forward and in reverse: the
    preparation as its gates, the record tiling as its block when every
    copy enters at the same times and otherwise as its gates, which the
    tiling builds once and ``stage2`` shares, and the fan-in by its closed
    form.  ``stage1``, ``stage2``, the loader and the inverse loader are
    built lazily, at most once each, for the simulator, the lowering and
    ``compile``."""

    layout: QdamLayout
    stage2_parts: tuple[tuple[Gate, ...], Tiling, FanIn]
    target_reflection: Circuit
    diffusion: Circuit

    @functools.cached_property
    def stage1(self) -> Circuit:
        return qdam.build_m1(self.layout)

    @functools.cached_property
    def stage2(self) -> Circuit:
        return qdam.build_m2(self.layout, self.stage2_parts)

    @functools.cached_property
    def loader(self) -> Circuit:
        return self.stage1 + self.stage2

    @functools.cached_property
    def loader_inverse(self) -> Circuit:
        return self.loader.inverted()

    def kernel(self) -> Circuit:
        return (
            self.loader
            + self.target_reflection
            + self.loader_inverse
            + self.diffusion
        )


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


def measure_kernel(circuits: KernelCircuits, iterations: int) -> ResourceReport:
    """Schedule the macro subroutines of one kernel and tally them as their
    Clifford+T lowering.

    One schedule takes the kernel in order: stage 1 (snapshot: stage 1),
    stage 2 (snapshot: the loader), then the target reflection, the
    loader's gates reversed as the inverse loader, and the diffusion
    (snapshot: the kernel); reversed, stage 2's fan-in goes first and its
    preparation last.  Stage 1 goes by its closed form both ways: the
    reversed record tiling leaves the one-hot register at one time.  Stage
    2 and the two reflections are also tallied on their own, from an empty
    schedule; stage 2 from its preparation and record tiling, as the
    fan-in, all CNOTs, cannot move that tally."""
    layout, (prepare, records, fan_in) = circuits.layout, circuits.stage2_parts
    decoder, total = qdam.stage1_decoder(layout), layout.total_qubits
    kernel = Schedule(total)
    t_m1 = kernel.feed_decoder(decoder).tally()
    t_loader = kernel.feed(prepare).feed_tiled(records).feed_fan_in(fan_in).tally()
    kernel.feed(circuits.target_reflection.gates).feed_fan_in(fan_in)
    kernel.feed_tiled(records, reverse=True).feed(reversed(prepare))
    kernel.feed_decoder(decoder, reverse=True)
    t_kernel = kernel.feed(circuits.diffusion.gates).tally()
    t_m2 = Schedule(total).feed(prepare).feed_tiled(records).tally()
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
