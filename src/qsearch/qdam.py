"""Builders for the unary-indexed data loader and its naive baseline.

The optimized loader runs in two stages:

* stage 1 couples the n binary index qubits to 2^n one-hot qubits: an X on
  one-hot offset 0, then for l = 1..n a block of 2^(l-1) Toffolis sharing
  the binary qubit of weight 2^(l-1) (CNOTs at l = 1, where the lone
  control is deterministically set), each block followed by clearing CNOTs
  from the new hot candidates back to their sources.  Binary value v ends
  up with one-hot offset v hot.  Fixed by n alone, it is a
  :class:`~qsearch.circuit.OneHotDecoder`, built by :func:`build_m1`.
* stage 2 loads the key bits into the regions of :class:`QdamLayout`:
  the database region is prepared with X gates matching the classical
  record bits, then for every record i and bit j a Toffoli (one-hot i AND
  database bit (i,j)) writes load ancilla E(i,j), and CNOT fan-in copies
  E into the data register.  Record i's Toffolis share one-hot i through
  stage 1's block, :func:`~qsearch.circuit.shared_control_layer`, on m - 1
  fan-out ancillas of its own, so all m*2^n Toffolis act on disjoint
  triples and the whole stage costs one Toffoli of T-depth.  The E
  ancillas keep their (branch-deterministic) values until the inverse
  loader uncomputes them.  Stage 2 is three parts in order: the
  preparation as a circuit of X gates, the records as one
  :class:`~qsearch.circuit.RecordBlock` repeated per record from the
  starts of its four regions, and the fan-in
  (:class:`~qsearch.circuit.FanIn`) as one fold per data bit.
  :func:`loader_parts` gives the loader as stage 1's decoder then these
  three, and :func:`build_m2` materializes any of them.

Emission order is chosen so the lowered blocks merge their T layers: the
clearing CNOTs leave all one-hot qubits last-touched in a common scheduler
layer, which in turn lets every stage-2 group share its three T layers.
Stage 2 leases its fan-out ancillas past the 2^(n-1) - 1 that stage 1
uses, so no record block waits for stage 1's last use of one, and the
loader's T-depth is stage 1's plus those three layers.

The naive baseline writes each record bit with a multi-controlled X over
all n index qubits plus the database bit, sequentially; it exists to
witness the exponential T-depth separation.  Each is a serial ladder: one
AND chain of Toffolis over the index qubits into the n-1 ladder
ancillas, shared by all m*2^n of them, around a CCZ apex on the chain's
end, the database bit and the data bit, between two H.  It is one
object, :class:`NaiveLoader`: it has no one-hot or load region, so it
places its few registers itself, reports take its tally by closed form,
and only ``compile --part naive`` builds its gates.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .circuit import (REGISTER_ORDER, Circuit, FanIn, Gate, GateKind, OneHotDecoder, Part,
                      RecordBlock, Register, ResourceTally, join_parts)
from .database import Database
from .errors import CircuitError

# the kinds bound once: a ``GateKind.X`` load costs several times a global's
_H, _X, _TOFFOLI, _MCZ = GateKind.H, GateKind.X, GateKind.TOFFOLI, GateKind.MCZ


@dataclass(frozen=True)
class QdamLayout:
    """The optimized loader's register map: each region named by its first
    flat qubit, in the register order of :mod:`qsearch.circuit`.

    * The n binary index qubits: flat qubits 0 .. n-1, weight 2^(n-1-b)
      on qubit b.
    * ``onehot``: 2^n qubits, offset v hot for index value v.
    * ``data``: m qubits.
    * ``database``: m*2^n qubits, bit j of record i at offset i*m + j.
    * ``load``: the m*2^n load ancillas E(i, j), at the same offsets.
    * ``fanout``: the fan-out pool, exactly what the loader leases:
      2^(n-1) - 1 for stage 1, then m - 1 per record for stage 2.
    * :meth:`ladder_qubits`: max(n, m) - 2 ancillas for the reflections.

    The load, fan-out and ladder regions make up the ancilla register.
    ``total_qubits`` and ``register_sizes``, all five registers in
    ``REGISTER_ORDER``, are set at construction.
    """

    n: int
    m: int
    onehot: int = field(init=False, repr=False)
    data: int = field(init=False, repr=False)
    database: int = field(init=False, repr=False)
    load: int = field(init=False, repr=False)
    fanout: int = field(init=False, repr=False)
    total_qubits: int = field(init=False, repr=False)
    # every circuit on the layout keeps this one dict, which takes no part
    # in the equality or the hash
    register_sizes: dict[Register, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise CircuitError("layout needs n >= 1 and m >= 1")
        # each region starts where the one before it ends
        sizes = (self.n, 1 << self.n, self.m, self.m << self.n, self.m << self.n)
        for name, start in zip(("onehot", "data", "database", "load", "fanout"),
                               accumulate(sizes)):
            object.__setattr__(self, name, start)
        total = self.ladder_qubits().stop
        object.__setattr__(self, "total_qubits", total)
        object.__setattr__(self, "register_sizes", dict(zip(
            REGISTER_ORDER, (*sizes[:4], total - self.load))))

    def ladder_qubits(self) -> range:
        first = self.fanout + (1 << self.n - 1) - 1 + (self.m - 1 << self.n)
        return range(first, first + max(0, max(self.n, self.m) - 2))

    @classmethod
    def for_database(cls, db: Database) -> "QdamLayout":
        return cls(n=db.index_bits, m=db.key_width)


def _key_bits(n: int, m: int, source: Database | Sequence[str]) -> list[str]:
    if isinstance(source, Database):
        keys = source.keys()
        if len(keys) != 1 << n or source.key_width != m:
            raise CircuitError("database shape does not match the layout")
        return keys
    keys = list(source)
    # each distinct key's width once: a naive report's 2^n keys are one
    if len(keys) != 1 << n or set(map(len, set(keys))) != {m}:
        raise CircuitError("key patterns do not match the layout")
    return keys


def _prepare(database: int, keys: Sequence[str]) -> list[Gate]:
    """An X on database qubit ``database + k`` for every 1 at offset k of
    the joined keys: bit j of key i sits at offset i*m + j.  ``str.find``
    steps from one 1 to the next, so the Python work is one step per 1 bit."""
    bits, gates = "".join(keys), []
    k = bits.find("1")
    while k >= 0:
        gates.append((_X, (database + k,)))
        k = bits.find("1", k + 1)
    return gates


def _decoder(layout: QdamLayout) -> OneHotDecoder:
    # stage 1 leases the first fan-out qubits
    return OneHotDecoder(layout.n, layout.onehot, layout.fanout, layout.total_qubits)


# the loader as parts in order: stage 1, then stage 2's three parts
LoaderParts = tuple[OneHotDecoder, Circuit, RecordBlock, FanIn]


def loader_parts(layout: QdamLayout, db: Database | Sequence[str]) -> LoaderParts:
    """The loader without its gate list, as parts in order: stage 1's
    decoder, then stage 2 as the database preparation (one X per 1 bit),
    the records and the fan-in.  Record i leases its m - 1 fan-out qubits
    past stage 1's 2^(n-1) - 1 and the i records before it; data bit j's
    fan-in folds the load ancillas E(i, j) into it."""
    keys = _key_bits(layout.n, layout.m, db)
    n, m, total, load = layout.n, layout.m, layout.total_qubits, layout.load
    # database bit (i, j) and load ancilla E(i, j) sit at offset i*m + j of
    # their regions, the offset of bit j of key i in the joined keys
    prepare = Circuit(layout.register_sizes, _prepare(layout.database, keys))
    records = RecordBlock(m, 1 << n, layout.onehot, layout.database, load,
                          layout.fanout + (1 << n - 1) - 1, total)
    return _decoder(layout), prepare, records, FanIn(load, n, layout.data, m, total)


def build_m1(layout: QdamLayout) -> Circuit:
    """Stage 1: |v>|0...0> -> |v>|one-hot at offset v>, the gates of the
    decoder that opens :func:`loader_parts`."""
    return Circuit(layout.register_sizes, _decoder(layout).gates)


def build_m2(layout: QdamLayout, parts: Sequence[Part]) -> Circuit:
    """Stage 2 as a circuit, from the last three of :func:`loader_parts`:
    the gates of ``parts``, one part after another."""
    return join_parts(layout.register_sizes, parts)


class NaiveLoader:
    """The baseline loader without its gate list, placing its own qubits:
    the index on flat qubits 0 .. n-1, data bit j at n + j, database bit
    (i, j) at n + m + i*m + j, and the n - 1 ladder ancillas of its AND
    chain after the database; it has no one-hot or load region.  ``gates``
    builds the database preparation, then per record i its index's 0 bits
    flipped, one ladder per record bit and the flips undone, and keeps
    them; ``len`` and :meth:`tally` are closed forms that build no gate."""

    register_sizes: dict[Register, int]

    def __init__(self, n: int, m: int, keys: list[str]):
        self.n, self.m, self.keys = n, m, keys
        self.register_sizes = dict(zip(
            REGISTER_ORDER, (n, 0, m, m << n, max(0, n - 1))))

    @functools.cached_property
    def gates(self) -> tuple[Gate, ...]:
        n, m = self.n, self.m
        data, database = n, n + m
        # the chain ANDs index qubit b into ladder ancilla b-1, and its last
        # target is the apex's
        ladder = database + (m << n)
        ands = (0, *range(ladder, ladder + n - 1))
        up = [(_TOFFOLI, (ands[b - 1], b, ands[b])) for b in range(1, n)]
        acc, down = ands[-1], up[::-1]
        flips = [(_X, (b,)) for b in range(n)]
        hadamards = [(_H, (data + j,)) for j in range(m)]
        gates = _prepare(database, self.keys)
        for i in range(len(self.keys)):
            # X on the index qubits that are 0 in i, most significant first
            conjugate = [flips[b] for b in range(n) if not i >> (n - 1 - b) & 1]
            gates.extend(conjugate)
            for j, h in enumerate(hadamards):
                apex = (_MCZ, (acc, database + i * m + j, data + j))
                gates.extend((h, *up, apex, *down, h))
            gates.extend(conjugate)
        return tuple(gates)

    def __len__(self) -> int:
        # an X per 1 bit; an X pair per 0 bit of every index, n 2^(n-1) in
        # all; per record bit H, n - 1 up-Toffolis, the apex, n - 1 down, H
        n, m = self.n, self.m
        return "".join(self.keys).count("1") + (n + m * (2 * n + 1) << n)

    def tally(self) -> ResourceTally:
        """The tally of ``gates`` scheduled alone, on any keys: with
        L = m 2^n (2n - 1) macros, 7L T gates in 3L T layers.  Proof: each
        TOFFOLI or MCZ shares an operand with the macro before it: a chain
        ancilla, ``acc`` around the apex, all three from one ladder's last
        down-Toffoli to the next ladder's first up-Toffoli, and index qubit
        0 between apexes at n = 1.  By ``_TEMPLATES`` a macro entering at E
        leaves every operand at E + 10 or later and marks E + 4, E + 7 and
        E + 10, and entry offsets are -1 or more; so the next macro enters
        at E + 9 or later and its first T layer lies 3 or more past this
        one's last.  The H and X between them only delay it, as ASAP
        scheduling is monotone in the entry times, so the macros' T layers
        are 3L distinct layers, 7 T gates for each macro."""
        macros = (self.m << self.n) * (2 * self.n - 1)
        return ResourceTally(t_count=7 * macros, t_depth=3 * macros)


def build_naive_qdam(n: int, m: int, db: Database | Sequence[str]) -> NaiveLoader:
    """Baseline loader: one (n+1)-control X per record bit, sequential.
    The ladders share one index AND chain and differ only in their apex."""
    return NaiveLoader(n, m, _key_bits(n, m, db))
