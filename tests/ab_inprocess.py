#!/usr/bin/env python3
"""In-process A/B timing of two qsearch source trees, as a sizing aid.

    python3 tests/ab_inprocess.py SRC_A SRC_B --workload search|estimate|naive \
        [--seed N] [--rounds R]

Each ``SRC`` is a directory that holds a ``qsearch`` package, such as a
checkout's ``src/``.  Both packages are copied into a temporary directory
as ``qsearch_a`` and ``qsearch_b`` (the package imports itself only by
relative imports), and both ``cli`` modules are imported into this one
process.  The workload's ``fixed_ops()`` and ``round(0)``, read from
``perfbench/workloads.py``, then run R times over through each side's
``cli.main``: the sides alternate per op, and the side that goes first
alternates per round.  Each op keeps its best time; a side's ops/s is the
ops' count over the sum of their best times, as ``perfbench/run.py``
reports it.  The last line says whether every op printed the same bytes
and exit code on both sides.

On a shared 2-vCPU VM two identical copies read within about ±1% of each
other this way (0.985 to 1.012 in six runs at R = 20, over the three
workloads), where separate benchmark processes spread by about ±20%.
So it sizes a change before the benchmark runs; a claimed gain still
comes from the alternating pairs of a ``BENCH_<k>.json``.  It is not
collected by pytest, and it changes nothing in either tree.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("a", "b")


def load_clis(sources: list[Path], work: Path) -> list:
    """Each tree's ``cli`` module, imported from its copy under ``work``."""
    sys.path.insert(0, str(work))
    clis = []
    for side, src in zip(SIDES, sources):
        package = src / "qsearch"
        if not (package / "cli.py").is_file():
            raise SystemExit(f"no qsearch package under {src}")
        shutil.copytree(package, work / f"qsearch_{side}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(f"qsearch_{side}.cli"))
    return clis


def run_op(cli, argv: list[str]) -> tuple[float, int, str]:
    """One op through ``cli.main``: its seconds, exit code and stdout."""
    out = io.StringIO()
    gc.collect()  # each op starts from a collected heap, as in perfbench/run.py
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sources", nargs=2, type=Path, metavar="SRC")
    parser.add_argument("--workload", required=True, choices=("search", "estimate", "naive"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.fixed_ops() + workload.round(0)
    best = {side: [float("inf")] * len(ops) for side in SIDES}
    outputs: dict[str, list[tuple[int, str] | None]] = {side: [None] * len(ops)
                                                        for side in SIDES}
    same = True
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        clis = dict(zip(SIDES, load_clis([p.resolve() for p in args.sources], work)))
        db_path = work / "db.json"

        def argv_of(op) -> list[str]:
            if op.database is not None:
                db_path.write_text(op.database, encoding="ascii")
            return op.argv(str(db_path))

        for side in SIDES:  # warm both sides' imports and caches
            run_op(clis[side], argv_of(workload.warmup()))
        for r in range(args.rounds):
            for i, op in enumerate(ops):
                op_argv = argv_of(op)
                for side in SIDES if (r + i) % 2 == 0 else SIDES[::-1]:
                    seconds, code, stdout = run_op(clis[side], op_argv)
                    best[side][i] = min(best[side][i], seconds)
                    if outputs[side][i] is None:
                        outputs[side][i] = (code, stdout)
                    same &= outputs[side][i] == (code, stdout)
    same &= outputs["a"] == outputs["b"]
    for side, src in zip(SIDES, args.sources):
        print(f"{side} {src}: {len(ops) / sum(best[side]):.1f} ops/s "
              f"({len(ops)} ops, best of {args.rounds})")
    print(f"b/a {sum(best['a']) / sum(best['b']):.4f}; outputs "
          + ("match" if same else "DIFFER"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
