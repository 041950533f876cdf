"""One kernel iteration: loader, target reflection, inverse loader and
diffusion, as macro circuits, and its measured resource report.

:class:`~qsearch.circuit.Schedule` schedules the TOFFOLI and MCZ (CCZ)
macros through max-plus templates of their Clifford+T fragments, so a
macro circuit's tally equals its lowering's by construction, and measuring
the kernel lowers nothing.  The loader is held as its part list
(:func:`~qsearch.qdam.loader_parts`), and every part schedules itself,
stage 1 and the fan-in by closed forms that build no gate, and the
records by one or two runs of their one block.  The inverse
loader is tallied as that list fed reversed: the scheduler treats T like
TDG and S like SDG, and the macros are self-adjoint, so the reversed
stream tallies exactly as the adjoint circuit, which is never built.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

from .circuit import Circuit, Gate, GateKind, Schedule, tally_flat
from .decompose import mcz_tree, sync_touch
from .errors import InputError
from . import qdam  # build_m1 and build_m2 looked up at call time, for the benchmark's tracer
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
    """Macro-level subroutine circuits for one kernel iteration.  The
    loader is held as the parts of :func:`~qsearch.qdam.loader_parts`,
    which the resource report schedules; ``stage1``, ``stage2`` (from the
    parts' gates, each built once, which the report shares where its
    record feed falls back to the gates), the loader and the inverse loader
    are built from them lazily, at most once each, for the simulator, the
    lowering and ``compile``."""

    layout: QdamLayout
    loader_parts: qdam.LoaderParts
    target_reflection: Circuit
    diffusion: Circuit

    @functools.cached_property
    def stage1(self) -> Circuit:
        return qdam.build_m1(self.layout)

    @functools.cached_property
    def stage2(self) -> Circuit:
        return qdam.build_m2(self.layout, self.loader_parts[1:])

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

    One schedule takes the kernel in order and is read after stage 1, after
    the loader and after the whole kernel.  Stage 2 and the two
    reflections are also tallied on their own, from an empty schedule."""
    layout, loader = circuits.layout, circuits.loader_parts
    total = layout.total_qubits
    kernel = Schedule(total)
    t_m1 = kernel.feed_parts(loader[:1]).tally()
    t_loader = kernel.feed_parts(loader[1:]).tally()
    kernel.feed_parts((circuits.target_reflection,)).feed_parts(loader, reverse=True)
    t_kernel = kernel.feed_parts((circuits.diffusion,)).tally()
    t_m2 = Schedule(total).feed_parts(loader[1:]).tally()
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
