"""Lowering of macro gates to Clifford+T.

Four building blocks:

* :func:`decompose_toffoli` -- a 7-T fragment whose three T stages land in
  exactly three scheduler layers.  The stage boundaries are CNOT pairs that
  touch both T carriers, plus S/SDG padding on the third qubit, so the
  alignment survives arbitrary entry timing on the operands.  This matters:
  parallel fragments merge their T layers only if the stages line up.
* :func:`shared_control_layer` -- many Toffolis sharing one control, made
  disjoint by fanning the control out onto borrowed ancillas (CNOTs are
  free in T-depth).  Fan-out is by doubling rounds so every control copy is
  last touched in the same layer; a partial final round gets an S pad (with
  its SDG after the block) to stay aligned.
* :func:`mcz_ladder` -- phase flip on the all-ones subspace of k qubits:
  an AND chain of Toffolis into borrowed ancillas with a CCZ apex, then
  uncomputation.  Degenerate sizes emit Z / CZ / plain CCZ.  T-depth
  linear in k; the naive loader and the lowering of a wide MCZ use it.
* :func:`mcz_tree` -- the same phase flip with as many Toffolis into the
  same ancillas, arranged as a balanced AND tree, so its T-depth grows as
  log k.  The reflections of the search kernel use it.

:func:`lower_gates` is the only lowering: it expands TOFFOLI and MCZ
macros into one gate list, a wide MCZ through :func:`mcz_ladder`.
Operands are flat qubit indices, as everywhere in :mod:`qsearch.circuit`.
The scheduler derives its macro templates from the fragments over the
operands 0, 1, 2 (:class:`qsearch.circuit.Schedule`), so what it counts
is what this module emits.  All emitted ancillas are returned to |0> on
every input.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .circuit import Circuit, Gate, GateKind, gate
from .errors import AncillaBudgetError, OperandOverlapError

_K = GateKind


def ccz_gates(x: int, y: int, z: int) -> list[Gate]:
    """Doubly-controlled Z, 7 T gates in three aligned T layers, no ancilla.

    Phase polynomial (eighth turns): a + b + c + (a^b^c) - (a^b) - (b^c)
    - (a^c).  The -(a^b) term is realized as SDG+T so the first T layer
    needs only one CNOT-pair boundary; S/SDG pairs elsewhere are pure
    schedule padding and cancel exactly.  The 21 gates share 7 operand
    tuples, built once per call.
    """
    cnot, s, sdg, t, tdg = _K.CNOT, _K.S, _K.SDG, _K.T, _K.TDG
    xy, yz, zx, xz = (x, y), (y, z), (z, x), (x, z)
    qx, qy, qz = (x,), (y,), (z,)
    return [
        (cnot, xy),   # y = a^b
        (cnot, yz),   # z = a^b^c
        (cnot, zx),   # x = b^c
        (sdg, qy),
        (tdg, qx),    # -(b^c)
        (t, qy),      # SDG+T = -(a^b)
        (t, qz),      # +(a^b^c)
        (cnot, zx),   # x = a
        (cnot, xy),   # y = b
        (s, qz),
        (t, qx),      # +a
        (t, qy),      # +b
        (sdg, qz),    # cancels the S pad
        (cnot, yz),   # z = a^c
        (cnot, zx),   # x = c
        (s, qy),
        (t, qx),      # +c
        (tdg, qz),    # -(a^c)
        (sdg, qy),    # cancels the S pad
        (cnot, zx),   # x = a
        (cnot, xz),   # z = c
    ]


def decompose_toffoli(c1: int, c2: int, target: int) -> list[Gate]:
    """Lowered Toffoli fragment: 7 T gates, measured T-depth 3, no ancilla."""
    if len({c1, c2, target}) != 3:
        raise OperandOverlapError("Toffoli operands must be distinct")
    h = (_K.H, (target,))
    return [h, *ccz_gates(c1, c2, target), h]


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
    pairwise distinct, else :class:`OperandOverlapError`; the gates are
    then distinct-operand by construction and emitted unchecked.
    """
    if not pairs:
        return []
    seen = {shared_control}
    for second, target in pairs:
        for q in (second, target):
            if q in seen:
                raise OperandOverlapError(f"operand {q} reused in layer")
            seen.add(q)

    needed = len(pairs) - 1
    ancillas = tuple(fanout_ancillas)[:needed]
    if len(ancillas) < needed:
        raise AncillaBudgetError(
            f"shared-control layer over {len(pairs)} pairs needs {needed} "
            f"fan-out ancillas, got {len(ancillas)}"
        )
    for a in ancillas:
        if a in seen:
            raise OperandOverlapError(f"fan-out ancilla {a} overlaps an operand")
        seen.add(a)

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
        new = []
        for src in sources:
            dst = next(fresh)
            gates.append((_K.CNOT, (src, dst)))
            new.append(dst)
        if room < len(carriers):
            for q in idle:
                gates.append((_K.S, (q,)))
                pad_sdg.append((_K.SDG, (q,)))
        carriers.extend(new)

    fanout = list(gates)
    for (second, target), carrier in zip(pairs, carriers):
        gates.append((_K.TOFFOLI, (second, carrier, target)))
    gates.extend(pad_sdg)
    gates.extend(g for g in reversed(fanout) if g[0] is _K.CNOT)
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
        raise OperandOverlapError("sync block needs a power-of-two qubit count")
    if len(set(qubits)) != k:
        raise OperandOverlapError("sync qubits must be distinct")
    gates: list[Gate] = []
    r = 1
    while r < k:
        for i in range(k):
            if not i & r:
                pair = gate(_K.CNOT, qubits[i], qubits[i | r])
                gates.append(pair)
                gates.append(pair)
        r <<= 1
    return gates


# the flip over at most three qubits needs no ancilla
_SMALL_FLIP = {1: _K.Z, 2: _K.CZ, 3: _K.MCZ}


def _borrowed(qubits: Sequence[int], ancillas: Sequence[int]) -> tuple[int, ...]:
    """The k-3 ancillas a k-qubit phase flip borrows (none below k = 4),
    checked against its operands."""
    if len(set(qubits)) != len(qubits):
        raise OperandOverlapError("phase-flip qubits must be distinct")
    k = len(qubits)
    if k == 0:
        raise OperandOverlapError("phase flip needs at least one qubit")
    needed = max(0, k - 3)
    borrowed = tuple(ancillas)[:needed]
    if len(borrowed) < needed:
        raise AncillaBudgetError(
            f"{k - 1}-control Z needs {needed} ladder ancillas, got {len(borrowed)}"
        )
    if set(borrowed) & set(qubits):
        raise OperandOverlapError("ladder ancilla overlaps an operand")
    return borrowed


def mcz_ladder(
    qubits: Sequence[int],
    ladder_ancillas: Sequence[int] = (),
) -> list[Gate]:
    """Phase flip of the |1...1> branch over ``qubits`` (k = c+1 qubits for a
    c-control Z).  Macro-level: chain TOFFOLIs + MCZ apex; uses k-3 borrowed
    ancillas for k >= 4, none below.  Standalone T-depth 3(2k-5) for k >= 4.
    """
    qubits = tuple(qubits)
    ancillas = _borrowed(qubits, ladder_ancillas)
    if len(qubits) <= 3:
        return [(_SMALL_FLIP[len(qubits)], qubits)]
    up: list[Gate] = []
    acc = qubits[0]
    for i, a in enumerate(ancillas):
        up.append((_K.TOFFOLI, (acc, qubits[i + 1], a)))
        acc = a
    apex = (_K.MCZ, (acc, qubits[-2], qubits[-1]))
    return up + [apex] + up[::-1]


def mcz_tree(qubits: Sequence[int], ancillas: Sequence[int] = ()) -> list[Gate]:
    """The phase flip of :func:`mcz_ladder`, with as many Toffolis into the
    same k-3 borrowed ancillas, as a balanced AND tree.

    The operands split into three near-equal groups, each halved
    recursively, so no group has more than 2^L leaves, L = ceil(log2(k/3)).
    Toffolis AND pairs of nodes into fresh ancillas, a CCZ apex flips the
    three roots, and the Toffolis are undone in reverse.  From operands
    that enter the schedule together, the T-depth is 3(2L + 1) for k >= 4
    (three layers for each compute level, the apex and each uncompute
    level) against the ladder's 3(2k - 5).

    A fragment frees its middle operand two layers before the other two,
    so in the uncompute a middle-slot ancilla would re-enter early and
    miss its level's T layers.  The middle slot takes a leaf where a node
    has one; an ancilla there gets an S then SDG (identity) after the
    fragment that frees it.
    """
    qubits = tuple(qubits)
    borrowed = _borrowed(qubits, ancillas)
    k = len(qubits)
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
        up.append((_K.TOFFOLI, (x, y, target)))
        return target

    g1, g2 = k // 3 + (k % 3 > 0), k // 3 + (k % 3 > 1)  # the largest first
    r1, r2, r3 = node(qubits[:g1]), node(qubits[g1:g1 + g2]), node(qubits[g1 + g2:])
    # the deepest root enters the apex last, where an operand may enter one
    # layer late, and the smallest group takes the middle slot
    mirror: list[Gate] = []
    pool = set(borrowed)
    for g in [(_K.MCZ, (r2, r3, r1)), *reversed(up)]:
        mirror.append(g)
        middle = g[1][1]
        if middle in pool:
            mirror += [(_K.S, (middle,)), (_K.SDG, (middle,))]
    return up + mirror


def lower_gates(
    gates: Iterable[Gate],
    ladder_ancillas: Sequence[int] = (),
) -> list[Gate]:
    """Expand macros to Clifford+T, into one list in input order.

    MCZ of arity 3 becomes the direct CCZ fragment; larger MCZ gates expand
    through :func:`mcz_ladder` using ``ladder_ancillas``.  Lowered gates
    pass through unchanged.
    """
    # a ladder repeats its Toffolis for every MCZ over the same qubits, and
    # ``compile --part naive --lowered`` lowers the naive loader, whose
    # ladders do so thousands of times; lower each distinct Toffoli once
    fragments: dict = {}
    out: list[Gate] = []
    append, extend = out.append, out.extend
    for g in gates:
        kind, ops = g
        if kind is _K.TOFFOLI:
            fragment = fragments.get(g)
            if fragment is None:
                fragment = fragments[g] = decompose_toffoli(*ops)
            extend(fragment)
        elif kind is not _K.MCZ:
            append(g)
        elif len(ops) == 3:
            extend(ccz_gates(*ops))
        else:
            free = tuple(a for a in ladder_ancillas if a not in ops)
            # the ladder holds only Toffolis and a 3-qubit MCZ apex
            extend(lower_gates(mcz_ladder(ops, free)))
    return out


def lower_circuit(
    circuit: Circuit, ladder_ancillas: Sequence[int] = ()
) -> Circuit:
    """Lowered copy of ``circuit``; identity if already lowered."""
    if circuit.is_lowered:
        return circuit
    return Circuit(
        circuit.register_sizes,
        lower_gates(circuit.gates, ladder_ancillas),
        validate=False,
    )
