"""Amplitude-amplification search driver.

:func:`run_search` takes the database, the query and the round count K
(default :func:`optimal_iterations`).  The result stores K once, with the
key's exact probability after each round; the JSON derives the oracle
calls, the per-round amplitudes and, in the resource report, the cost
K * kernel T-depth from them.

One kernel iteration (:mod:`qsearch.kernel`; :func:`build_kernel_circuits`
builds its circuits) applies loader, target reflection, inverse loader,
then the reflection about the uniform index state.  The first three form
the *block*; the driver proves it exact before it iterates anything.  It
runs the block's macro circuits on every index branch at once, bit-sliced
(:class:`qsearch.sim.SlicedState`), the inverse loader as the loader run
reversed, so no inverse loader is built, and checks that each branch comes
back to its own index with every other qubit |0> and a phase of +1 or -1.
The block is then a +-1 diagonal, so nothing outside the index register is
ever populated and the off-support probability is exactly 0.  The
diffusion's middle is bit-sliced the same way and must flip exactly index
branch 0; the diffusion is then the closed form
:func:`qsearch.sim.reflect_about_uniform`.

The K rounds run on 2^n Python ints: after r rounds the amplitude of
branch q is ``v[q] * 2^(-n(2r+1)/2)``, so every probability is one
correctly rounded integer division and ties are exact.  The squares must
sum to S = 2^(n(2K+1)); a shot bisects their running sums at
``getrandbits(n(2K+1))``, so it draws q with probability exactly v[q]^2 / S.

The Clifford+T circuits tie the fast path to what is compiled.  The
resource report (:func:`qsearch.kernel.measure_kernel`) lowers nothing, so
only the loader is lowered: the driver verifies its measured candidate the
honest way, re-running the lowered loader on the candidate basis state
with :class:`qsearch.sim.SparseState`.  That run skips every fragment
whose controls are not both 1 on the branch, since such a fragment is the
identity there, so it simulates at most n-1 stage-1 and m stage-2
Toffolis.  It is exact, in Z[ω]/√2^k, so the driver requires one label,
the bit-sliced loader's branch, with k = 0 and amplitude (1, 0, 0, 0),
that is exactly +1.  It reads the data register, the m qubits from
:attr:`qsearch.qdam.QdamLayout.data` on, out of the label and compares it
against the queried key.  Sentinel (padding) records are never
accepted.  The tests check the bit-sliced rounds against a SparseState
run over the lowered subroutines.
"""
from __future__ import annotations

import enum
import functools
import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .database import Database, SearchQuery
from .decompose import lower_circuit
from .errors import CircuitError, InputError
from .kernel import (
    KernelCircuits,
    ResourceReport,
    build_diffusion,
    build_target_reflection,
    measure_kernel,
)
from .qdam import QdamLayout, loader_parts
from .sim import (
    SlicedState,
    SparseState,
    diffusion_signs,
    negate,
    reflect_about_uniform,
)

# the most index samples a sampled search draws, at about 0.2-0.5 s per 2^20
MAX_SHOTS = 1 << 20
# the most record bits m * 2^n a search or a compile takes.  A search's
# reload check runs the lowered loader, slowest at the widest keys, on ones:
# at n = 1, m = 2^14 on all-ones keys it peaks at 0.16 GB RSS and takes
# 6.3-6.6 s on a 2-vCPU Xeon (1.2 s on zero keys).  A compile's lowered
# export holds about 1.2 KB per gate (see ``cli.MAX_EXPORT_GATES``)
MAX_SEARCH_BITS = 1 << 15


def check_database(db: Database, command: str) -> None:
    """Admit ``db`` to ``command`` (``search`` or ``compile``), or raise
    :class:`InputError`: it must be padded to a power of two, hold at least
    2 records and at most :data:`MAX_SEARCH_BITS` record bits m * 2^n."""
    if not db.is_power_of_two:
        raise InputError("database must be padded to a power of two")
    if db.size < 2:
        raise InputError(f"{command} needs at least 2 records")
    if db.key_width * db.size > MAX_SEARCH_BITS:
        raise InputError(f"{command} supports m * 2^n <= {MAX_SEARCH_BITS}, "
                         f"got {db.key_width} * 2^{db.index_bits}")


def optimal_iterations(database_size: int) -> int:
    """Iteration count floor(pi / (4 asin(1/sqrt(N)))), at least 1.  In
    doubles it is exact for N = 2^n with n <= 109, wrong for n = 110..200:
    ``test_optimal_iterations_is_exact_to_the_bound_cap`` checks each n."""
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


def build_kernel_circuits(
    layout: QdamLayout, db: Database | Sequence[str], key_pattern: str
) -> KernelCircuits:
    return KernelCircuits(
        layout=layout,
        loader_parts=loader_parts(layout, db),
        reflection_parts=build_target_reflection(layout, key_pattern),
        diffusion_parts=build_diffusion(layout),
    )


def _draw_counts(cumulative: list[int], draws: Iterable[int]) -> Counter[int]:
    """Index -> draws: r picks the first q with r < cumulative[q]."""
    return Counter(map(functools.partial(bisect_right, cumulative), draws))


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
    lowest one on a tie.  At N=2 every round leaves both indices at
    probability exactly 0.5, so the candidate is always index 0, and a key
    stored at index 1 ends in ``ALGORITHM_FAILURE``.  ``shots`` (at most
    :data:`MAX_SHOTS`) and a non-negative ``seed`` go together: the search
    draws the index that many times, each with its exact probability, and
    takes the most frequent one, again the lowest on a tie.
    """
    query.validate(db)
    check_database(db, "search")
    if shots is not None or seed is not None:
        if shots is None or seed is None or seed < 0:
            raise InputError("sampled mode needs shots and a non-negative seed")
        if not 1 <= shots <= MAX_SHOTS:
            raise InputError(f"shots must be in 1..{MAX_SHOTS}, got {shots}")
    optimal = optimal_iterations(db.size)
    if iterations is None:
        iterations = optimal
    if iterations < 1:
        raise InputError("iteration count must be positive")
    # 4K rounds turn the Grover angle through a full circle; more rounds
    # only repeat states that fewer reach, at a cost quadratic in the count
    if iterations > 4 * optimal + 4:
        raise InputError(
            f"at most {4 * optimal + 4} iterations at N={db.size}, got {iterations}"
        )

    layout = QdamLayout.for_database(db)
    key = query.key_value
    circuits = build_kernel_circuits(layout, db, key)

    total, n, m = layout.total_qubits, layout.n, layout.m
    loaded = SlicedState(n, total).run(circuits.loader)
    marked = (loaded.run(circuits.target_reflection)
              .run(circuits.loader, reverse=True).diagonal_signs())
    if diffusion_signs(circuits.diffusion, n) != 1:
        raise CircuitError("the diffusion's middle must flip exactly index branch 0")

    target = db.index_of_key(key)

    def probability(values: list[int], rounds: int) -> float:
        if target is None:
            return 0.0
        return values[target] ** 2 / (1 << (n * (2 * rounds + 1)))

    # H^n on |0>: every amplitude 2^(-n/2)
    values = [1] * (1 << n)
    probabilities = [probability(values, 0)]
    for rounds in range(1, iterations + 1):
        values = reflect_about_uniform(negate(values, marked))
        probabilities.append(probability(values, rounds))

    squares = [v * v for v in values]
    bits = n * (2 * iterations + 1)
    scale = 1 << bits
    cumulative = list(accumulate(squares))
    if cumulative[-1] != scale:
        raise CircuitError(f"squared amplitudes sum to {cumulative[-1]}, not 2^{bits}")
    if shots is None:
        candidate = squares.index(max(squares))
    else:
        rng = random.Random(seed)
        counts = _draw_counts(cumulative, map(rng.getrandbits, repeat(bits, shots)))
        candidate = min(counts, key=lambda q: (-counts[q], q))
    candidate_probability = squares[candidate] / scale

    # verification: re-load on the candidate branch and read the data
    # register, m contiguous qubits whose last is bit total - layout.data - m
    probe = SparseState.basis(total, candidate << (total - n)).apply(
        lower_circuit(circuits.loader))
    label = loaded.basis_label(candidate)
    if list(probe.amplitudes) != [label]:
        raise CircuitError(
            f"lowered loader disagrees with the bit-sliced loader on branch {candidate}"
        )
    if probe.k or probe.amplitudes[label] != (1, 0, 0, 0):
        raise CircuitError(
            f"lowered loader gives branch {candidate} the amplitude "
            f"{probe.amplitudes[label]} / sqrt(2)^{probe.k}, not +1"
        )
    data = label >> (total - layout.data - m) & ((1 << m) - 1)
    measured_bits = format(data, f"0{m}b")

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
        resources=measure_kernel(circuits, iterations),
    )
