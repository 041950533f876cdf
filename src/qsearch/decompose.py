"""Lowering of macro gates to Clifford+T.

The two three-qubit fragments, :func:`~qsearch.circuit.decompose_toffoli`
and :func:`~qsearch.circuit.ccz_gates`, live in :mod:`qsearch.circuit`
beside the scheduler that derives its templates from them.  This module
builds the macro-level subroutines from three blocks:

* :func:`shared_control_layer` -- many Toffolis sharing one control, made
  disjoint by fanning the control out onto borrowed ancillas (CNOTs are
  free in T-depth).  Fan-out is by doubling rounds so every control copy is
  last touched in the same layer; a partial final round gets an S pad (with
  its SDG after the block) to stay aligned.
* :func:`sync_touch` -- a CNOT-pair block that equalizes the scheduler
  timing of a set of qubits.
* :func:`mcz_tree` -- phase flip on the all-ones subspace of k qubits: a
  balanced AND tree of Toffolis into k - 3 borrowed ancillas with a CCZ
  apex, then uncomputation, so its T-depth grows as log k.  Degenerate
  sizes emit Z / CZ / plain CCZ.  The reflections of the search kernel
  use it.

:func:`lower_gates` is the only lowering: it maps each TOFFOLI and MCZ
macro to its fragment, into one gate list, and records where each
fragment sits and which operands must all be 1 for it to act, so the
sparse simulator can skip the fragments that cannot act on its support.
Operands are flat qubit indices, as everywhere in :mod:`qsearch.circuit`.
All emitted ancillas are returned to |0> on every input.
"""
from __future__ import annotations

from itertools import chain
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
_S, _SDG, _CNOT, _TOFFOLI, _MCZ = (GateKind.S, GateKind.SDG, GateKind.CNOT,
                                   GateKind.TOFFOLI, GateKind.MCZ)


def shared_control_layer(
    shared_control: int,
    pairs: Sequence[tuple[int, int]],
    fanout_ancillas: Sequence[int] = (),
) -> list[Gate]:
    """Toffolis ``(second_control, shared_control) -> target`` for each pair,
    emitted so the lowered block keeps a constant T-depth.

    Returns macro-level gates (CNOT fan-out + TOFFOLI macros + fan-in).
    Needs ``len(pairs) - 1`` borrowed ancillas; they are restored to |0>.
    The shared control, the pair operands and the ancillas used must be
    pairwise distinct, else :class:`CircuitError`; the gates are
    then distinct-operand by construction and emitted unchecked.
    """
    if not pairs:
        return []
    operands = {shared_control, *chain.from_iterable(pairs)}
    if len(operands) != 2 * len(pairs) + 1:
        raise CircuitError(f"an operand is reused in the layer over {pairs}")

    needed = len(pairs) - 1
    ancillas = tuple(fanout_ancillas)[:needed]
    if len(ancillas) < needed:
        raise CircuitError(
            f"shared-control layer over {len(pairs)} pairs needs {needed} "
            f"fan-out ancillas, got {len(ancillas)}"
        )
    if len(operands.union(ancillas)) != len(operands) + needed:
        raise CircuitError(f"fan-out ancillas {ancillas} repeat or overlap an operand")

    gates: list[Gate] = []
    carriers = [shared_control]
    fresh = iter(ancillas)
    pad_sdg: list[Gate] = []
    # Doubling rounds keep every carrier last-touched in the same layer; a
    # partial final round leaves some sources one layer behind, fixed by an
    # S pad whose SDG lands after the Toffoli block (controls are restored).
    while len(carriers) < len(pairs):
        room = len(pairs) - len(carriers)
        sources = carriers[: min(len(carriers), room)]
        idle = carriers[len(sources):]
        new = [next(fresh) for _ in sources]
        gates += [(_CNOT, pair) for pair in zip(sources, new)]
        if room < len(carriers):
            gates += [(_S, (q,)) for q in idle]
            pad_sdg += [(_SDG, (q,)) for q in idle]
        carriers.extend(new)

    fanout = [g for g in gates if g[0] is _CNOT]
    gates += [(_TOFFOLI, (second, carrier, target))
              for (second, target), carrier in zip(pairs, carriers)]
    gates += pad_sdg
    gates += fanout[::-1]
    return gates


def sync_touch(qubits: Sequence[int]) -> list[Gate]:
    """CNOT-pair gossip that equalizes the scheduler's last-touch layer of
    every listed qubit.  Net identity on all of them; Clifford only, so T
    metrics are unaffected.  Requires a power-of-two qubit count (pad the
    set with spare |0> ancillas if needed; touching those is harmless).

    One round per hypercube dimension: pairing ``i`` with ``i xor r`` twice
    leaves both at the common layer max+2, so by induction all qubits end
    at the global maximum plus two layers per round.  This is what lets an
    inverse loader re-enter its uncompute Toffolis time-aligned after the
    data fan-in has staggered the load ancillas.
    """
    k = len(qubits)
    if k == 0:
        return []
    if k & (k - 1):
        raise CircuitError("sync block needs a power-of-two qubit count")
    if len(set(qubits)) != k:
        raise CircuitError("sync qubits must be distinct")
    gates: list[Gate] = []
    r = 1
    while r < k:
        for i in range(k):
            if not i & r:
                pair = (_CNOT, (qubits[i], qubits[i | r]))
                gates.append(pair)
                gates.append(pair)
        r <<= 1
    return gates


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
    # the naive loader repeats its index AND chain for every record bit,
    # thousands of times in ``compile --part naive --lowered``; lower each
    # distinct Toffoli once
    fragments: dict = {}
    out: list[Gate] = []
    spans: list[FragmentSpan] = []
    append, extend, mark = out.append, out.extend, spans.append
    toffoli, mcz = _TOFFOLI, _MCZ
    for g in gates:
        kind, ops = g
        if kind is toffoli:
            fragment = fragments.get(g)
            if fragment is None:
                fragment = fragments[g] = decompose_toffoli(*ops)
            start = len(out)
            extend(fragment)
            mark((start, len(out), ops[:2]))
        elif kind is mcz:
            start = len(out)
            extend(ccz_gates(*ops))
            mark((start, len(out), ops))
        else:
            append(g)
    return out, spans


def lower_circuit(
    circuit: Circuit, ladder_ancillas: Sequence[int] = ()
) -> Circuit:
    """Lowered copy of ``circuit``, with the span of every fragment in
    ``fragment_spans`` so that :meth:`qsearch.sim.SparseState.apply` can
    skip the fragments that cannot act on its support.  A circuit with no
    macro comes back as an equal copy with no spans.  ``ladder_ancillas``
    is ignored: every macro lowers without ancillas, and the parameter
    stays only for the benchmark's tracer, which passes it positionally."""
    gates, spans = lower_gates(circuit.gates)
    return Circuit(circuit.register_sizes, gates, fragment_spans=tuple(spans))
