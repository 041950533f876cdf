"""Seeded operation streams for the three workloads.

An op is one ``qsearch`` command line run in-process.  A workload hands out
ops in rounds.  Every round holds the same multiset of op shapes on every
seed; the seed draws the order and the contents (database records and
query keys).  A run makes the workload's ``fixed_ops`` once and then its
round 0 several times over, in passes; ``pass_seconds`` sizes the number
of passes.  The compositions put the median op inside one block of
same-sized ops and the 90th percentile inside the largest-op block, which
holds about a fifth of the ops.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

VALUE_BITS = 6


@dataclass
class Op:
    kind: str  # "search", "estimate" or "naive"
    n: int
    m: int
    args: list[str] = field(default_factory=list)
    database: str | None = None  # JSON text written to a file before the op
    expect: dict = field(default_factory=dict)

    def argv(self, db_path: str) -> list[str]:
        if self.kind == "search":
            return ["search", "--db", db_path, "--key", self.expect["key"],
                    "--return", "val"]
        return self.args

    def describe(self) -> str:
        if self.kind == "search":
            state = "present" if self.expect["present"] else "absent"
            return (f"search N={1 << self.n} records={self.expect['records']} "
                    f"m={self.m} key={self.expect['key']} ({state})")
        return f"{self.kind} n={self.n} m={self.m}"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def search_op(rng: random.Random, n: int, m: int, absent: bool,
              index: int | None = None) -> Op:
    """A database of 2^(n-1)+1 .. 2^n records (2 when n = 1) with distinct
    random m-bit keys and 6-bit values, and a query for one of its keys (the
    key at ``index`` when given) or, when ``absent``, for a key it does not
    hold."""
    records = 2 if n == 1 else rng.randint((1 << (n - 1)) + 1, 1 << n)
    keys = [format(k, f"0{m}b") for k in rng.sample(range(1 << m), records)]
    values = [format(rng.randrange(1 << VALUE_BITS), f"0{VALUE_BITS}b") for _ in keys]
    used = set(keys)
    unused = [format(k, f"0{m}b") for k in range(1 << m) if format(k, f"0{m}b") not in used]
    # padding keys are the smallest unused ones (the database file format)
    padding = set(unused[: (1 << n) - records])
    doc = {
        "version": 1,
        "fields": [{"name": "key", "bit_width": m},
                   {"name": "val", "bit_width": VALUE_BITS}],
        "key_field": "key",
        "records": [{"key": k, "val": v} for k, v in zip(keys, values)],
    }
    if absent:
        key = rng.choice(unused)
        expect = {"present": False, "index": None, "value": None,
                  "padding_key": key in padding}
    else:
        if index is None:
            index = rng.randrange(records)
        key = keys[index]
        expect = {"present": True, "index": index, "value": values[index],
                  "padding_key": False}
    expect.update(n=n, m=m, key=key, records=records)
    return Op("search", n, m, database=json.dumps(doc, indent=1), expect=expect)


class Workload:
    name = ""
    # wall time of one pass on a 2-vCPU 2.0 GHz Xeon VM whose host is shared
    pass_seconds = 1.0

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def fixed_ops(self) -> list[Op]:
        return []


class Search(Workload):
    """``search`` over seeded databases of 2..32 records, keys n..n+2 bits
    wide.  A round is 12 ops: one each at N=4 (m = 4) and N=8 (m = 3),
    five at N=16 with m = 5, four at N=16 with m = 6 and one at N=32
    (m = 6).  With the four fixed ops a run's 16 distinct ops have their
    median in the (N=16, m=5) block and their 90th percentile in the
    (N=16, m=6) block.
    One op at N=32 is enough: the larger the op, the more a busy neighbour
    on the host slows it, and the less steady its best time.  Three queries
    in twelve are for an absent key.

    ``fixed_ops`` are four 2-record databases, run once per run: one with
    1-bit keys, one with 2-bit keys queried for the key at index 1, and
    two with 3-bit keys queried for the key at index 0 and for an absent
    key.  The key widths are fixed, so that the T sums of a pass do not
    depend on the seed.  The first two fail on
    every seed, through the two defects of ROADMAP item 4 (see
    ``checks.KNOWN_DEFECTS``); the other two pass.  No round holds a
    2-record database, so a run's ``failed`` does not depend on how many
    passes it makes."""

    name = "search"
    pass_seconds = 3.3
    absent_per_round = 3
    blocks = [(2, (4,)), (3, (3,)), (4, (5,) * 5 + (6,) * 4), (5, (6,))]

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.shapes = [(2, 2), (2, 3), (2, 4), (3, 4)] if tiny else [
            (n, m) for n, widths in self.blocks for m in widths]

    def round(self, k: int) -> list[Op]:
        rng = _rng(self.name, self.seed, k)
        # with m = n the records may hold every key, leaving none absent
        can_miss = [i for i, (n, m) in enumerate(self.shapes) if m > n]
        absent = set(rng.sample(can_miss, min(self.absent_per_round, len(can_miss))))
        ops = [search_op(rng, n, m, i in absent) for i, (n, m) in enumerate(self.shapes)]
        rng.shuffle(ops)
        return ops

    def fixed_ops(self) -> list[Op]:
        rng = _rng(self.name, self.seed, "fixed")
        return [
            search_op(rng, 1, 1, False),
            search_op(rng, 1, 2, False, index=1),
            search_op(rng, 1, 3, False, index=0),
            search_op(rng, 1, 3, True),
        ]

    def warmup(self) -> Op:
        return search_op(_rng(self.name, "warmup"), 2, 2, False)


class Estimate(Workload):
    """``estimate --mode measured``: a round is 10 ops in a seeded order:
    (6, 1), (6, 3), (6, 5) and (7, 1); (7, 3) twice and (8, 1), which take
    about as long; and (7, 5) three times.  The median is in the block of
    (7, 3) and (8, 1), the 90th percentile in the (7, 5) block.  Larger
    cells such as (8, 5) slow down by up to a third, against a tenth for
    these, when a neighbour on the host is busy."""

    name = "estimate"
    pass_seconds = 2.2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        low, mid, high = (2, 3, 4) if tiny else (6, 7, 8)
        self.cells = ([(low, 1), (low, 3), (low, 5), (mid, 1)]
                      + [(mid, 3), (mid, 3), (high, 1)] + [(mid, 5)] * 3)

    @staticmethod
    def op(n: int, m: int) -> Op:
        args = ["estimate", "--n", str(n), "--m", str(m), "--mode", "measured"]
        return Op("estimate", n, m, args=args)

    def round(self, k: int) -> list[Op]:
        ops = [self.op(n, m) for n, m in self.cells]
        _rng(self.name, self.seed, k).shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self.op(self.cells[0][0], 1)


class Naive(Workload):
    """``estimate --mode naive`` over n in 7..9 and m in 1..2.  A round is
    ten ops in a seeded order: (7, 1), (7, 2), (8, 1) and (8, 2) once,
    (9, 1) four times and (9, 2) twice.  The median is in the (9, 1) block;
    the two (9, 2), the largest, hold the tail."""

    name = "naive"
    pass_seconds = 2.5

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        low, mid, high = (1, 2, 3) if tiny else (7, 8, 9)
        self.cells = ([(low, 1), (low, 2), (mid, 1), (mid, 2)]
                      + [(high, 1)] * 4 + [(high, 2)] * 2)

    @staticmethod
    def op(n: int, m: int) -> Op:
        args = ["estimate", "--n", str(n), "--m", str(m), "--mode", "naive"]
        return Op("naive", n, m, args=args)

    def round(self, k: int) -> list[Op]:
        ops = [self.op(n, m) for n, m in self.cells]
        _rng(self.name, self.seed, k).shuffle(ops)
        return ops

    def warmup(self) -> Op:
        return self.op(*self.cells[0])


WORKLOADS = {w.name: w for w in (Search, Estimate, Naive)}
