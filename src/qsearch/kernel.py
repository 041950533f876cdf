"""One kernel iteration: loader, target reflection, inverse loader and
diffusion, as part lists, and its measured resource report.

:class:`~qsearch.circuit.Schedule` schedules the TOFFOLI and MCZ (CCZ)
macros through max-plus templates of their Clifford+T fragments, so a
macro circuit's tally equals its lowering's by construction, and measuring
the kernel lowers nothing.  Each subroutine is a part list, and every part
schedules itself: stage 1, the records, the fan-in and the reflections'
sync blocks by closed forms that build no gate (the records feed their
gates where the closed form cannot vouch for every record).  The inverse
loader is tallied as the loader's list fed reversed: the scheduler treats
T like TDG and S like SDG, and the macros are self-adjoint, so the
reversed stream tallies exactly as the adjoint circuit, which is never
built.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .circuit import Circuit, Gate, GateKind, Part, Schedule, SyncBlock, join_parts
from .decompose import mcz_tree
from .errors import InputError
from . import qdam  # build_m1 and build_m2 looked up at call time, for the benchmark's tracer
from .qdam import QdamLayout


def _reflection(layout: QdamLayout, qubits: range, before: list[Gate],
                after: list[Gate]) -> tuple[Part, ...]:
    """``before``, a sync block over ``qubits``, a phase flip of their
    all-ones branch by :func:`~qsearch.decompose.mcz_tree`, then ``after``.
    The sync block puts the tree's leaves in one scheduler layer, which a
    tree, unlike a serial ladder, needs for its levels to merge their T
    layers.  Its pads are the first ladder ancillas: w qubits need
    2^ceil(log2 w) - w, none for w <= 2 and at most w - 2 above, and the
    pool holds max(n, m) - 2 for w = m or w = n."""
    ladder, sizes = layout.ladder_qubits(), layout.register_sizes
    pad = (1 << (len(qubits) - 1).bit_length()) - len(qubits)
    sync = SyncBlock(qubits, ladder[:pad], layout.total_qubits)
    return Circuit(sizes, before), sync, Circuit(sizes, mcz_tree(qubits, ladder) + after)


def build_target_reflection(layout: QdamLayout, key_pattern: str) -> tuple[Part, ...]:
    """Phase flip of the data-register branch matching ``key_pattern``, as
    parts: X where the pattern bit is 0 (which leaves the data qubits
    staggered), the flip of the all-ones branch, X again, and the flip's
    sync block once more, for the inverse loader, whose uncompute Toffolis
    the tree's leaves would otherwise enter staggered.  The name stays for
    the benchmark's tracer, which times the build."""
    if len(key_pattern) != layout.m or any(c not in "01" for c in key_pattern):
        raise InputError(f"pattern {key_pattern!r} does not fit {layout.m} data qubits")
    data, x = range(layout.data, layout.data + layout.m), GateKind.X
    flips = [(x, (q,)) for q, c in zip(data, key_pattern) if c == "0"]
    parts = _reflection(layout, data, flips, flips)
    return (*parts, parts[1])


def build_diffusion(layout: QdamLayout) -> tuple[Part, ...]:
    """Reflection about the uniform index state, as parts: H then X
    conjugation of the flip of the all-ones index branch, whose sync block
    lines up the index qubits the inverse loader leaves staggered.  They
    are flat qubits 0 .. n-1.  The name stays for the benchmark's tracer,
    which times the build."""
    index, h, x = range(layout.n), GateKind.H, GateKind.X
    hs = [(h, (b,)) for b in index]
    xs = [(x, (b,)) for b in index]
    return _reflection(layout, index, hs + xs, xs + hs)


@dataclass(frozen=True)
class KernelCircuits:
    """Macro-level subroutines for one kernel iteration, as the part lists
    that the resource report schedules: the loader's
    (:func:`~qsearch.qdam.loader_parts`), the target reflection's and the
    diffusion's.  ``stage1``, ``stage2``, the loader, the inverse loader
    and the two reflections are built from them lazily, at most once each,
    for the simulator, the lowering and ``compile``.  The search runs the
    loader reversed, so only ``compile`` and the benchmark's tracer build
    ``loader_inverse``."""

    layout: QdamLayout
    loader_parts: qdam.LoaderParts
    reflection_parts: tuple[Part, ...]
    diffusion_parts: tuple[Part, ...]

    @functools.cached_property
    def stage1(self) -> Circuit:
        return qdam.build_m1(self.layout)

    @functools.cached_property
    def stage2(self) -> Circuit:
        return qdam.build_m2(self.layout, self.loader_parts[1:])

    @functools.cached_property
    def loader(self) -> Circuit:
        return join_parts(self.layout.register_sizes, (self.stage1, self.stage2))

    @functools.cached_property
    def loader_inverse(self) -> Circuit:
        return self.loader.inverted()

    @functools.cached_property
    def target_reflection(self) -> Circuit:
        return join_parts(self.layout.register_sizes, self.reflection_parts)

    @functools.cached_property
    def diffusion(self) -> Circuit:
        return join_parts(self.layout.register_sizes, self.diffusion_parts)

    def kernel(self) -> Circuit:
        return join_parts(self.layout.register_sizes, (
            self.loader, self.target_reflection, self.loader_inverse, self.diffusion))


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
    """Schedule the part lists of one kernel and tally them as their
    Clifford+T lowering.

    One schedule takes the kernel in order and is read after stage 1, after
    the loader and after the whole kernel.  Stage 2 and the two
    reflections are also tallied on their own, from an empty schedule."""
    layout, loader = circuits.layout, circuits.loader_parts
    reflection, diffusion = circuits.reflection_parts, circuits.diffusion_parts
    kernel = Schedule(layout.total_qubits)
    t_m1 = kernel.feed_parts(loader[:1]).tally()
    t_loader = kernel.feed_parts(loader[1:]).tally()
    kernel.feed_parts(reflection).feed_parts(loader, reverse=True)
    t_kernel = kernel.feed_parts(diffusion).tally()
    t_m2, t_oracle, t_diff = (Schedule(layout.total_qubits).feed_parts(parts).tally()
                              for parts in (loader[1:], reflection, diffusion))
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
