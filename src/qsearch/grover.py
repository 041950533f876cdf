"""Amplitude-amplification search driver.

:func:`run_search` takes the database, the query and the round count K
(default :func:`optimal_iterations`).  The result stores K once, with the
key's exact probability after each round; the JSON derives the oracle
calls, the per-round amplitudes and, in the resource report, the cost
K * kernel T-depth from them.

One kernel iteration applies loader, target reflection, inverse loader,
then the reflection about the uniform index state.  The first three form
the *block*; the driver proves it exact before it iterates anything.  It
runs the block's macro circuits on every index branch at once, bit-sliced
(:class:`qsearch.sim.SlicedState`), and checks that each branch comes back
to its own index with every other qubit |0> and a phase of +1 or -1.  The
block is then a +-1 diagonal, so nothing outside the index register is
ever populated and the off-support probability is exactly 0.  The
diffusion's middle is bit-sliced the same way and must flip exactly index
branch 0; the diffusion is then the closed form
:func:`qsearch.sim.reflect_about_uniform`.

The K rounds run on 2^n Python ints: after r rounds the amplitude of
branch q is ``v[q] * 2^(-n(2r+1)/2)``, so every probability is one
correctly rounded integer division and ties are exact.

The Clifford+T circuits tie the fast path to what is compiled.  The
resource report schedules the macro subroutines through the scheduler's
fragment templates, which count each macro exactly as its lowering, so
only the loader is lowered: the driver verifies its measured candidate the
honest way, re-running the lowered loader on the candidate basis state
with :class:`qsearch.sim.SparseState`, requiring the bit-sliced loader's
branch to agree, reading the data register, and comparing against the
queried key.  Sentinel (padding) records are never accepted.  The tests
check the bit-sliced rounds against a SparseState run over the lowered
subroutines.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .circuit import Circuit, Gate, GateKind, Register, gate
from .database import Database, SearchQuery
from .decompose import lower_circuit, mcz_tree, sync_touch
from .errors import CircuitError, InputError, QueryError
from . import qdam  # builders looked up at call time: the benchmark's tracer patches them
from .qdam import QdamLayout, Stage2Parts
from .sim import (
    SlicedState,
    SparseState,
    diffusion_signs,
    negate,
    reflect_about_uniform,
)

if TYPE_CHECKING:  # resources imports this module; annotations only
    from .resources import ResourceReport

_K = GateKind

# the most index samples a sampled search draws; numpy holds them all at once
MAX_SHOTS = 1 << 20


def optimal_iterations(database_size: int) -> int:
    """Iteration count floor(pi / (4 asin(1/sqrt(N)))), at least 1."""
    if database_size < 2:
        raise InputError("search needs at least 2 records")
    theta = math.asin(1.0 / math.sqrt(database_size))
    return max(1, math.floor(math.pi / (4.0 * theta)))


class SearchStatus(enum.Enum):
    SOLVED = "SOLVED"
    ALGORITHM_FAILURE = "ALGORITHM_FAILURE"
    KEY_NOT_PRESENT = "KEY_NOT_PRESENT"


@dataclass
class SearchResult:
    """``probabilities[r]`` is the key's exact probability after r rounds.
    The trace's amplitude is its square root, and its off-support
    probability is 0 because the driver proves the decoupling before any
    round."""

    status: SearchStatus
    candidate_index: int | None
    returned_value: str | None
    success_probability: float
    iterations: int
    probabilities: list[float]
    resources: ResourceReport
    peak_support: int = 0  # largest support of the reload check's SparseState

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "candidate_index": self.candidate_index,
            "returned_value": self.returned_value,
            "success_probability": self.success_probability,
            "iterations": self.iterations,
            "oracle_calls": self.iterations,
            "trace": [
                {
                    "k": k,
                    "target_amplitude": math.sqrt(p),
                    "success_probability": p,
                    "off_support_probability": 0,
                }
                for k, p in enumerate(self.probabilities)
            ],
            "resources": self.resources.to_json(),
        }


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
        raise QueryError(f"pattern {key_pattern!r} does not fit {layout.m} data qubits")
    data = [layout.data_qubit(j) for j in range(layout.m)]
    flips = [gate(_K.X, data[j]) for j, c in enumerate(key_pattern) if c == "0"]
    sync = _sync_block(layout, data)
    tree = mcz_tree(data, layout.ladder_qubits())
    return Circuit(
        layout.register_sizes, [*flips, *sync, *tree, *flips, *sync], validate=False
    )


def build_diffusion(layout: QdamLayout) -> Circuit:
    """Reflection about the uniform index state: H then X conjugation of a
    phase flip on the all-ones index branch.  The binary index qubits are
    flat qubits 0 .. n-1.

    From n = 4 the flip is a tree of Toffolis, and a sync block over the
    index register lines its leaves up first: the inverse loader leaves
    them staggered, which in a kernel would smear the tree's T layers.
    Narrower flips are a single fragment and get none."""
    index = range(layout.n)
    hs = [gate(_K.H, b) for b in index]
    xs = [gate(_K.X, b) for b in index]
    sync = _sync_block(layout, index) if layout.n >= 4 else []
    tree = mcz_tree(index, layout.ladder_qubits())
    return Circuit(
        layout.register_sizes, [*hs, *xs, *sync, *tree, *xs, *hs], validate=False
    )


@dataclass(frozen=True)
class KernelCircuits:
    """Macro-level subroutine circuits for one kernel iteration; the loader
    is stage 1 then stage 2.

    Stage 2 is kept as its parts (:class:`~qsearch.qdam.Stage2Parts`), two
    of them tilings, which the resource report schedules forward and in
    reverse without building them.  ``stage2``, the loader and the inverse
    loader are built lazily, at most once each, for the simulator, the
    lowering and ``compile``."""

    layout: QdamLayout
    stage1: Circuit
    stage2_parts: Stage2Parts
    target_reflection: Circuit
    diffusion: Circuit

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


def build_kernel_circuits(
    layout: QdamLayout, db: Database | Sequence[str], key_pattern: str
) -> KernelCircuits:
    return KernelCircuits(
        layout=layout,
        stage1=qdam.build_m1(layout),
        stage2_parts=qdam.stage2_parts(layout, db),
        target_reflection=build_target_reflection(layout, key_pattern),
        diffusion=build_diffusion(layout),
    )


def run_search(
    db: Database,
    query: SearchQuery,
    iterations: int | None = None,
    seed: int | None = None,
    shots: int | None = None,
) -> SearchResult:
    """Execute the full search: exact bit-sliced simulation of
    ``iterations`` kernel rounds (default :func:`optimal_iterations` K, at
    most 4K + 4), index measurement, quantum re-load verification, and
    field return.

    Without ``shots`` the search measures the most probable index, the
    first one on a tie.  At N=2 every round leaves both indices at
    probability exactly 0.5, so the candidate is always index 0, and a key
    stored at index 1 ends in ``ALGORITHM_FAILURE``.  With ``shots``, at
    most :data:`MAX_SHOTS` and with a non-negative ``seed``, it samples the
    index that many times and takes the most frequent one.
    """
    from . import resources  # local import to avoid a cycle

    query.validate(db)
    if not db.is_power_of_two:
        raise QueryError("database must be padded to a power of two")
    if db.size < 2:
        raise QueryError("search needs at least 2 records")
    if shots is not None:
        if seed is None or seed < 0:
            raise QueryError("sampled mode needs a non-negative seed")
        if not 1 <= shots <= MAX_SHOTS:
            raise QueryError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    optimal = optimal_iterations(db.size)
    if iterations is None:
        iterations = optimal
    if iterations < 1:
        raise InputError("iteration count must be positive")
    # 4K rounds turn the Grover angle through a full circle; more rounds
    # only repeat states that fewer reach, at a cost quadratic in the count
    if iterations > 4 * optimal + 4:
        raise QueryError(
            f"at most {4 * optimal + 4} iterations at N={db.size}, got {iterations}"
        )

    layout = QdamLayout.for_database(db)
    key = query.key_value
    circuits = build_kernel_circuits(layout, db, key)

    loaded = SlicedState(layout.register_sizes).run(circuits.loader)
    marked = (loaded.run(circuits.target_reflection)
              .run(circuits.loader_inverse).diagonal_signs())
    if diffusion_signs(circuits.diffusion) != 1:
        raise CircuitError("the diffusion's middle must flip exactly index branch 0")

    target = db.index_of_key(key)
    n = layout.n
    big_n = 1 << n

    def probability(values: list[int], rounds: int) -> float:
        if target is None:
            return 0.0
        return values[target] ** 2 / (1 << (n * (2 * rounds + 1)))

    # H^n on |0>: every amplitude 2^(-n/2)
    values = [1] * big_n
    probabilities = [probability(values, 0)]
    for rounds in range(1, iterations + 1):
        values = reflect_about_uniform(negate(values, marked))
        probabilities.append(probability(values, rounds))

    squares = [v * v for v in values]
    scale = 1 << (n * (2 * iterations + 1))
    if shots is None:
        candidate = squares.index(max(squares))
    else:
        import numpy as np  # only sampled mode needs it

        distribution = np.array([s / scale for s in squares])
        rng = np.random.default_rng(seed)
        samples = rng.choice(big_n, size=shots, p=distribution / distribution.sum())
        counts = np.bincount(samples, minlength=big_n)
        candidate = int(np.argmax(counts))
    candidate_probability = squares[candidate] / scale

    # verification: re-load on the candidate branch and read the data register
    probe = SparseState.basis(
        layout.register_sizes, candidate << (layout.total_qubits - n)
    ).apply(lower_circuit(circuits.loader, layout.ladder_qubits()))
    if list(probe.amplitudes) != [loaded.basis_label(candidate)]:
        raise CircuitError(
            f"lowered loader disagrees with the bit-sliced loader on branch {candidate}"
        )
    pattern = next(iter(probe.amplitudes))
    measured_bits = format(
        probe.register_bits(pattern, Register.DATA), f"0{layout.m}b"
    )

    record_obj = db.records[candidate]
    matches = measured_bits == key
    if matches and not record_obj.is_sentinel:
        status = SearchStatus.SOLVED
        returned = record_obj.values[query.return_field]
    elif target is None or db.records[target].is_sentinel:
        status = SearchStatus.KEY_NOT_PRESENT
        returned = None
    else:
        status = SearchStatus.ALGORITHM_FAILURE
        returned = None

    return SearchResult(
        status=status,
        candidate_index=candidate,
        returned_value=returned,
        success_probability=candidate_probability,
        iterations=iterations,
        probabilities=probabilities,
        resources=resources.measure_kernel(circuits, iterations),
        peak_support=probe.peak_support,
    )
