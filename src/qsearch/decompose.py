"""Lowering of macro gates to Clifford+T.

The two three-qubit fragments, :func:`~qsearch.circuit.decompose_toffoli`
and :func:`~qsearch.circuit.ccz_gates`, live in :mod:`qsearch.circuit`
beside the scheduler that derives its templates from them, with the
loader's shared-control block, :func:`~qsearch.circuit.shared_control_layer`.
The reflections of the search kernel flip their phase with
:func:`mcz_tree`: a phase flip on the all-ones subspace of k qubits, as a
balanced AND tree of Toffolis into k - 3 borrowed ancillas with a CCZ
apex, then uncomputation, so its T-depth grows as log k.  Degenerate
sizes emit Z / CZ / plain CCZ.

:func:`lower_gates` is the only lowering: it maps each TOFFOLI and MCZ
macro to its fragment, into one gate list, and records where each
fragment sits and which operands must all be 1 for it to act, so the
sparse simulator can skip the fragments that cannot act on its support.
Operands are flat qubit indices, as everywhere in :mod:`qsearch.circuit`.
All emitted ancillas are returned to |0> on every input.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .circuit import (
    Circuit,
    FragmentSpan,
    Gate,
    GateKind,
    ccz_gates,
    decompose_toffoli,
)
from .errors import CircuitError

# the kinds bound once: a ``GateKind.X`` load costs several times a global's
_S, _SDG, _TOFFOLI, _MCZ = GateKind.S, GateKind.SDG, GateKind.TOFFOLI, GateKind.MCZ


# the flip over at most three qubits needs no ancilla
_SMALL_FLIP = {1: GateKind.Z, 2: GateKind.CZ, 3: _MCZ}


def mcz_tree(qubits: Sequence[int], ancillas: Sequence[int] = ()) -> list[Gate]:
    """Phase flip of the |1...1> branch over ``qubits`` (k = c+1 qubits for
    a c-control Z), as a balanced AND tree of Toffolis into the first k-3
    of ``ancillas`` (none below k = 4).

    The operands split into three near-equal groups, each halved
    recursively, so no group has more than 2^L leaves, L = ceil(log2(k/3)).
    Toffolis AND pairs of nodes into fresh ancillas, a CCZ apex flips the
    three roots, and the Toffolis are undone in reverse.  From operands
    that enter the schedule together, the T-depth is 3(2L + 1) for k >= 4
    (three layers for each compute level, the apex and each uncompute
    level) against a serial AND chain's 3(2k - 5).

    A fragment frees its middle operand two layers before the other two,
    so in the uncompute a middle-slot ancilla would re-enter early and
    miss its level's T layers.  The middle slot takes a leaf where a node
    has one; an ancilla there gets an S then SDG (identity) after the
    fragment that frees it.
    """
    qubits = tuple(qubits)
    k = len(qubits)
    if k == 0 or len(set(qubits)) != k:
        raise CircuitError("phase flip needs one or more distinct qubits")
    needed = max(0, k - 3)
    borrowed = tuple(ancillas)[:needed]
    if len(borrowed) < needed:
        raise CircuitError(
            f"{k - 1}-control Z needs {needed} ladder ancillas, got {len(borrowed)}"
        )
    if set(borrowed) & set(qubits):
        raise CircuitError("ladder ancilla overlaps an operand")
    if k <= 3:
        return [(_SMALL_FLIP[k], qubits)]
    fresh = iter(borrowed)
    up: list[Gate] = []

    def node(leaves: tuple[int, ...]) -> int:
        if len(leaves) == 1:
            return leaves[0]
        half = (len(leaves) + 1) // 2  # the larger half first: a leaf is last
        x, y = node(leaves[:half]), node(leaves[half:])
        target = next(fresh)
        up.append((_TOFFOLI, (x, y, target)))
        return target

    g1, g2 = k // 3 + (k % 3 > 0), k // 3 + (k % 3 > 1)  # the largest first
    r1, r2, r3 = node(qubits[:g1]), node(qubits[g1:g1 + g2]), node(qubits[g1 + g2:])
    # the deepest root enters the apex last, where an operand may enter one
    # layer late, and the smallest group takes the middle slot
    mirror: list[Gate] = []
    pool = set(borrowed)
    for g in [(_MCZ, (r2, r3, r1)), *reversed(up)]:
        mirror.append(g)
        middle = g[1][1]
        if middle in pool:
            mirror += [(_S, (middle,)), (_SDG, (middle,))]
    return up + mirror


def lower_gates(gates: Iterable[Gate]) -> tuple[list[Gate], list[FragmentSpan]]:
    """Expand macros to Clifford+T, into one list in input order: each
    TOFFOLI becomes :func:`decompose_toffoli`'s fragment and each MCZ
    :func:`ccz_gates`'.  Lowered gates pass through unchanged.  Also
    returns each fragment's :data:`~qsearch.circuit.FragmentSpan`, taken
    from the length of the fragment as emitted, with the operands it acts
    on only when all are 1: a Toffoli's controls, a CCZ's three qubits."""
    out: list[Gate] = []
    spans: list[FragmentSpan] = []
    append, extend, mark = out.append, out.extend, spans.append
    toffoli, mcz = _TOFFOLI, _MCZ
    for g in gates:
        kind, ops = g
        if kind is toffoli:
            start = len(out)
            extend(decompose_toffoli(*ops))
            mark((start, len(out), ops[:2]))
        elif kind is mcz:
            start = len(out)
            extend(ccz_gates(*ops))
            mark((start, len(out), ops))
        else:
            append(g)
    return out, spans


def lowered_length(circuit: Circuit) -> int:
    """``len(lower_circuit(circuit))``, counted without lowering: every
    macro kind's fragment has a fixed length."""
    kinds = Counter(kind for kind, _ in circuit.gates)
    return (len(circuit) + (len(decompose_toffoli(0, 1, 2)) - 1) * kinds[_TOFFOLI]
            + (len(ccz_gates(0, 1, 2)) - 1) * kinds[_MCZ])


def lower_circuit(circuit: Circuit, ladder: Sequence[int] = ()) -> Circuit:
    """Lowered copy of ``circuit``, with the span of every fragment in
    ``fragment_spans`` so that :meth:`qsearch.sim.SparseState.apply` can
    skip the fragments that cannot act on its support.  A circuit with no
    macro comes back as an equal copy with no spans.  ``ladder`` is
    ignored: every macro lowers without ancillas, and the parameter stays
    only for the benchmark's tracer, which passes the layout's ladder
    qubits positionally."""
    gates, spans = lower_gates(circuit.gates)
    return Circuit(circuit.register_sizes, gates, fragment_spans=tuple(spans))
