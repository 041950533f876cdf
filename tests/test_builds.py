"""What each report, search and compile builds: a harness that counts every
gate list the package builds, and :data:`BUILDS`, the exact builds of each
call, so that an extra build fails as surely as a missing one."""
from __future__ import annotations

import importlib
import pathlib
import random
import sys
import tempfile
from collections import Counter
from functools import cached_property, partial
from typing import Callable

import pytest

import qsearch
from qsearch import circuit, cli, decompose, qdam
from qsearch.circuit import Circuit, FanIn, OneHotDecoder, RecordBlock, SyncBlock
from qsearch.database import Database, FieldSpec, Record, SearchQuery
from qsearch.grover import build_kernel_circuits, run_search
from qsearch.kernel import measure_kernel
from qsearch.qdam import NaiveLoader, QdamLayout
from qsearch.resources import bench_scaling, measure, measure_naive

from conftest import random_keys, toy_db
from oracles import database_json

PACKAGE_DIR = pathlib.Path(qsearch.__file__).parent
MODULES = [importlib.import_module(f"qsearch.{path.stem}") for path in PACKAGE_DIR.glob("[!_]*.py")]
DATA_DB = str(PACKAGE_DIR.parents[1] / "data" / "people.json")

# every gate builder, and below its ``module.qualname``: the functions, the
# methods, and the parts' ``gates``, whose cached ``func`` runs only on a read
# that finds no tuple.  ``join_parts`` joins gate tuples, so a loader
# joined again on every read shows
BUILDERS = (
    circuit.fold_gates, circuit.shared_control_layer, circuit.ccz_gates,
    circuit.decompose_toffoli, decompose.mcz_tree, decompose.lower_gates,
    qdam._prepare, qdam.build_m1, qdam.build_m2, Circuit.inverted, circuit.join_parts,
    *(vars(part)["gates"].func
      for part in (OneHotDecoder, RecordBlock, FanIn, SyncBlock, NaiveLoader)),
)
WRAPPED = {f"{f.__module__}.{f.__qualname__}".removeprefix("qsearch.") for f in BUILDERS}


def _bindings(real: Callable) -> list[tuple[object, str]]:
    """Where ``real`` is looked up: a part's ``gates`` as its cache's ``func``,
    a method on its class, a function at every binding, found by identity."""
    owner, _, attr = real.__qualname__.rpartition(".")
    if not owner:
        return [(module, name) for module in MODULES
                for name, value in vars(module).items() if value is real]
    cls = getattr(sys.modules[real.__module__], owner)
    member = vars(cls)[attr]
    return [(member, "func") if isinstance(member, cached_property) else (cls, attr)]


def built(call: Callable[[], object]) -> dict[str, int]:
    """``{qualname: builds}`` of the builders that build while ``call`` runs."""
    counts: Counter[str] = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for real in BUILDERS:
            def counting(*args, real=real, **kwargs):
                counts[real.__qualname__] += 1
                return real(*args, **kwargs)
            for target, name in _bindings(real):
                patch.setattr(target, name, counting)
        call()
    return dict(counts)


def _measure_kernels(seed: int, cells: list[tuple[int, int]]) -> None:
    rng = random.Random(seed)  # each cell's keys, then its query
    for n, m in cells:
        keys, (query,) = random_keys(rng, n, m), random_keys(rng, 0, m)
        measure_kernel(build_kernel_circuits(QdamLayout(n, m), keys, query), 2)


def _kernel_after_its_inverse() -> None:
    circuits = build_kernel_circuits(QdamLayout(3, 3), toy_db(3), "101")
    circuits.loader_inverse  # the kernel reuses it
    circuits.kernel()


def _seeded_search(n: int, m: int, seed: int) -> None:
    rng = random.Random(seed)  # 2^n distinct m-bit keys, one of them queried
    keys = [format(k, f"0{m}b") for k in rng.sample(range(1 << m), 1 << n)]
    db = Database((FieldSpec("key", m),), tuple(Record({"key": k}) for k in keys), "key")
    run_search(db, SearchQuery(rng.choice(keys), "key"))


def _compile(db: str | list[str], key: str, part: str, *flags: str) -> int:
    # from the database file ``db``, or from one of the keys ``db``
    with tempfile.TemporaryDirectory() as scratch:
        if isinstance(db, list):
            keys, db = db, f"{scratch}/db.json"
            pathlib.Path(db).write_text(database_json(Database(
                (FieldSpec("id", len(keys[0])),), tuple(Record({"id": k}) for k in keys), "id")))
        return cli.main(["compile", "--db", db, "--key", key, "--part", part, *flags,
                         "--out", f"{scratch}/x.json"])


def _over_the_caps() -> None:
    # over the gate cap once lowered, then the record-bit cap, checked first
    keys = [format(i, "016b") for i in range(2048)]
    assert _compile(keys, "0" * 16, "naive", "--lowered") == 3
    assert _compile(keys, "0" * 16, "kernel", "--lowered") == 3
    for n, part in ((1, "kernel"), (1, "naive"), (2, "kernel"), (2, "naive")):
        m = (1 << 15 - n) + 1
        assert _compile([format(i, f"0{m}b") for i in range(1 << n)], "0" * m, part) == 3


def _reports(cells: int, fallbacks: int = 0) -> dict[str, int]:
    # per cell the preparation and both trees; the records' block where they
    # feed their gates (m = 1 on mixed keys, ROADMAP item 4)
    block = {"RecordBlock.gates": fallbacks, "shared_control_layer": fallbacks}
    return {"_prepare": cells, "mcz_tree": 2 * cells, **(block if fallbacks else {})}


# the loader by closed form, and both reflections as macro gates, joined
_NAIVE = {"mcz_tree": 2, "SyncBlock.gates": 2, "join_parts": 2}


def _loader(n: int) -> dict[str, int]:
    # every part, its n shared-control blocks (n - 1 in stage 1), stage 2's
    # parts joined, then the stages
    return {**_reports(1), "build_m1": 1, "OneHotDecoder.gates": 1, "build_m2": 1,
            "RecordBlock.gates": 1, "FanIn.gates": 1, "fold_gates": 1,
            "shared_control_layer": n, "join_parts": 2}


def _search(n: int) -> dict[str, int]:
    # the loader and both reflections, each joined once
    return {**_loader(n), "SyncBlock.gates": 2, "join_parts": 4}


def _kernel(n: int) -> dict[str, int]:
    # the loader and both reflections joined, the loader inverted once, and
    # the four circuits joined
    return {**_search(n), "Circuit.inverted": 1, "join_parts": 5}


# row label -> (call, its builds)
BUILDS: dict[str, tuple[Callable[[], object], dict[str, int]]] = {
    **{f"measure{cell}": (partial(measure, *cell), _reports(1))
       for cell in ((1, 1), (3, 2), (4, 5), (5, 33), (6, 3), (7, 5), (8, 5))},
    "measure_kernel(3, 2) on keys 01": (lambda: measure_kernel(
        build_kernel_circuits(QdamLayout(3, 2), ["01"] * 8, "01"), 1), _reports(1)),
    **{f"measure_kernel, seed {seed}": (partial(_measure_kernels, seed, cells), builds)
       for seed, cells, builds in (
           (28, [(5, 3)], _reports(1)),
           (30, [(1, 1), (2, 3), (4, 1), (5, 3), (6, 2)], _reports(5, fallbacks=2)),
           (33, [(1, 2), (2, 3), (4, 2), (5, 6), (7, 4), (10, 2)], _reports(6)),
           (34, [(1, 2), (2, 3), (4, 1), (4, 6), (5, 3), (6, 2)], _reports(6, fallbacks=1)))},
    **{f"measure_naive{cell}": (partial(measure_naive, *cell), _NAIVE)
       for cell in ((1, 1), (4, 5), (9, 2), (15, 1))},
    "bench_scaling(1..6, 2)": (partial(bench_scaling, range(1, 7), 2), {
        "_prepare": 6, "mcz_tree": 24, "SyncBlock.gates": 12, "join_parts": 12}),
    # the search lowers only the loader: 2^n - 2 + m 2^n Toffolis
    "run_search(toy_db(3), 101)": (
        lambda: run_search(toy_db(3), SearchQuery("101", "val")),
        {**_search(3), "lower_gates": 1, "decompose_toffoli": 30, "ccz_gates": 30}),
    "the kernel after its inverse loader": (_kernel_after_its_inverse, _kernel(3)),
    **{f"compile --part {part}": (partial(_compile, DATA_DB, "0101", part), builds)
       for part, builds in (
           ("m1", {**_reports(1), "build_m1": 1, "OneHotDecoder.gates": 1,
                   "shared_control_layer": 2}),
           ("m2", {**_reports(1), "build_m2": 1, "RecordBlock.gates": 1, "FanIn.gates": 1,
                   "fold_gates": 1, "shared_control_layer": 1, "join_parts": 1}),
           ("qdam", _loader(3)),
           ("oracle", {**_reports(1), "SyncBlock.gates": 1, "join_parts": 1}),
           ("diffusion", {**_reports(1), "SyncBlock.gates": 1, "join_parts": 1}),
           ("kernel", _kernel(3)),
           ("naive", {"_prepare": 1, "NaiveLoader.gates": 1}))},
    # 78 Toffolis and 2 CCZs, each Toffoli's fragment holding a CCZ's
    "compile --lowered --part kernel": (
        partial(_compile, DATA_DB, "0101", "kernel", "--lowered"),
        {**_kernel(3), "lower_gates": 1, "decompose_toffoli": 78, "ccz_gates": 80}),
    "compile over the caps": (_over_the_caps, {
        **_kernel(11), "_prepare": 2, "NaiveLoader.gates": 1}),
    # the benchmark's workloads, each at its median shape
    "search workload, N=16, m=5": (partial(_seeded_search, 4, 5, 45), {
        **_search(4), "lower_gates": 1, "decompose_toffoli": 94, "ccz_gates": 94}),
    "estimate workload, (7, 3)": (partial(
        cli.main, ["estimate", "--n", "7", "--m", "3", "--mode", "measured"]), _reports(1)),
    "naive workload, (9, 1)": (partial(
        cli.main, ["estimate", "--n", "9", "--m", "1", "--mode", "naive"]), _NAIVE),
}


@pytest.mark.parametrize("row", BUILDS)
def test_each_call_builds_exactly_its_row(row):
    call, expected = BUILDS[row]
    assert built(call) == expected
