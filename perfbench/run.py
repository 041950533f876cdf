#!/usr/bin/env python3
"""Benchmark of the qsearch command line.

    python3 perfbench/run.py --workload search|estimate|naive --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; qsearch is imported from ``src/``.
Each op is one ``qsearch.cli.main(argv)`` call, in-process, with stdout
captured and checked by ``perfbench/checks.py``.  One client, one thread,
closed loop: the next op starts when the previous one and its check are
done.

``--trace 0`` first times set-up in fresh processes, then runs the
workload's fixed ops once and its round 0 (see ``perfbench/workloads.py``)
in as many passes as take about ``--seconds`` on the host the workloads
were sized on, and reports the end-to-end metrics from each op's best
time over the passes.  ``--trace 1`` runs each fixed op and each op of
round 0 twice, untraced and with every layer wrapped (``perfbench/tracing.py``),
and reports the per-layer metrics.

Lines before the last give every metric by name with its unit, the
provenance of the run and each failed op with its reasons.  The last line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``failed`` counts every op whose output failed a check; ``correct`` is
false when an op failed in a way that none of the known defects listed in
``perfbench/checks.py`` explains.  The full result, with spans when traced,
is written under ``perfbench/out/``.  Exit code 2 means the benchmark
itself could not run or check (missing sources, broken plumbing).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 11
TIME_CAP_S = 140.0  # stop well inside the 180 s a run may take
MIN_PASSES = 3
OVERRUN = 1.5  # no new pass starts after this many times --seconds
# the speed probe's time on the 2-vCPU 2.0 GHz Xeon VM the workloads were
# sized on, in its fast state; times are reported at this speed
PROBE_REF_S = 1.0e-3
TAIL_PERCENTILE = 90

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.tracing import Tracer, TraceError  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "t_cost_sum": "count",
    "t_count_sum": "count",
}


class BenchError(Exception):
    """The benchmark cannot run or cannot check what it ran."""


CPUS = sorted(os.sched_getaffinity(0))


def _probe_seconds() -> float:
    """About a millisecond of building and dropping small objects, the kind
    of work qsearch's ops do; a pure arithmetic loop misses much of the
    slowdown that a busy neighbour causes them."""
    start = time.perf_counter()
    for _ in range(4):
        [(i, str(i)) for i in range(2000)]
    return time.perf_counter() - start


def settle_cpu() -> float:
    """Move this process to the faster of the CPUs it may use, timed by a
    short speed probe on each, and return that CPU's probe time.  On a
    shared host a CPU whose sibling is busy runs everything about 1.5x
    slower, and which CPU that is changes from second to second.  The
    returned times also scale the reported times (see ``end_to_end``)."""
    speed = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_probe_seconds() for _ in range(2))
    cpu = min(speed, key=speed.get)
    os.sched_setaffinity(0, {cpu})
    return speed[cpu]


def load_qsearch():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qsearch.cli
    except ImportError as exc:
        raise BenchError(f"cannot import qsearch from {src}: {exc}") from exc
    if not Path(qsearch.cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"qsearch was imported from {qsearch.cli.__file__}, not {src}")
    return qsearch


@dataclass
class OpResult:
    op: Op
    op_id: int
    seconds: float
    exit_code: int | None
    stdout: str
    doc: dict | None
    problems: list = field(default_factory=list)
    known: list[str] | None = None


class Runner:
    def __init__(self, qsearch, workdir: Path):
        self.qsearch = qsearch
        self.workdir = workdir
        self.tracer = None  # set for the traced pass
        self.next_id = 0
        self.probes: list[float] = []  # settle_cpu's probe time before each op

    def run(self, op: Op) -> OpResult:
        db_path = self.workdir / "db.json"
        if op.database is not None:
            db_path.write_text(op.database, encoding="ascii")
            if self.tracer is not None:
                self.tracer.expect_search(str(db_path), op.expect["key"])
        argv = op.argv(str(db_path))
        op_id, self.next_id = self.next_id, self.next_id + 1
        out, err = io.StringIO(), io.StringIO()
        error = None
        # each op starts from a collected heap, as a fresh CLI process would
        gc.collect()
        self.probes.append(settle_cpu())
        span = self.tracer.begin_op(op_id) if self.tracer is not None else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                exit_code = self.qsearch.cli.main(argv)
        except TraceError as exc:
            raise BenchError(f"tracing failed: {exc}") from exc
        except Exception as exc:  # a traceback from the CLI is a failed op
            exit_code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.end_op(span)
        result = OpResult(op, op_id, seconds, exit_code, out.getvalue(), None)
        if error is not None:
            result.problems = [("exception", error)]
        else:
            result.problems = self.check(result, err.getvalue())
        if result.problems and op.kind == "search":
            result.known = checks.known_defects(op.expect, result.problems)
        return result

    @staticmethod
    def check(result: OpResult, stderr: str) -> list:
        op = result.op
        try:
            result.doc = json.loads(result.stdout)
        except json.JSONDecodeError:
            return [("output", f"exit {result.exit_code}, no JSON on stdout; "
                               f"stderr {stderr.strip()!r}")]
        try:
            if op.kind == "search":
                return checks.check_search(result.doc, result.exit_code, op.expect)
            problems = [] if result.exit_code == 0 else [
                ("exit", f"exit {result.exit_code} != 0")]
            check = checks.check_estimate if op.kind == "estimate" else checks.check_naive
            return problems + check(result.doc, op.n, op.m)
        except (KeyError, TypeError) as exc:
            return [("output", f"malformed output: {type(exc).__name__} {exc}")]


# -- set-up ----------------------------------------------------------------


def probe(args) -> None:
    """Child side of a set-up sample: import qsearch, run the warm-up op,
    print the monotonic clock."""
    qsearch = load_qsearch()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        Runner(qsearch, workdir).run(workload.warmup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(time.monotonic()))


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to qsearch imported plus one
    warm-up op, measured in SETUP_SAMPLES processes one after another, and
    the speed probe's time before each."""
    samples, probes = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    for _ in range(SETUP_SAMPLES):
        probes.append(settle_cpu())  # the child inherits the CPU
        start = time.monotonic()
        child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=60)
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed: {child.stderr.strip()}")
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples, probes


# -- runs ------------------------------------------------------------------


def timed_run(runner: Runner, fixed: list[Op], ops: list[Op], passes: int,
              budget_s: float) -> tuple[list[OpResult], list[float], int]:
    """The fixed ops once, then ``ops`` ``passes`` times over; after
    MIN_PASSES, no new pass starts once ``budget_s`` has passed.  Returns
    every result, each op's best time (the fixed ops' single times first)
    and the passes made.  A later pass must print what the first printed,
    byte for byte."""
    start = time.perf_counter()
    results = [runner.run(op) for op in fixed]
    best = [r.seconds for r in results]
    made = 0
    while made < passes and (made < MIN_PASSES or time.perf_counter() - start < budget_s):
        for i, op in enumerate(ops):
            if time.perf_counter() - start > TIME_CAP_S:
                raise BenchError(f"stopped after {TIME_CAP_S} s in pass {made + 1}")
            result = runner.run(op)
            if made == 0:
                best.append(result.seconds)
            else:
                if result.stdout != results[len(fixed) + i].stdout:
                    result.problems.append(("repeat", "output differs from the first pass"))
                    result.known = None
                best[len(fixed) + i] = min(best[len(fixed) + i], result.seconds)
            results.append(result)
        made += 1
    return results, best, made


def figures(results: list[OpResult]) -> tuple[int, int, str]:
    """T-cost and T-count sums, and the digest of the CLI output, over the
    fixed ops and the first pass."""
    t_cost = t_count = 0
    digest = hashlib.sha256()
    for r in results:
        digest.update(r.stdout.encode())
        if r.doc is not None and all(code != "output" for code, _ in r.problems):
            report = r.doc["resources"] if r.op.kind == "search" else r.doc
            t_cost += report["t_cost"]
            t_count += report["t_count_total"]
    return t_cost, t_count, digest.hexdigest()


def end_to_end(args, runner, workload, provenance) -> tuple[list[OpResult], dict]:
    setup, setup_probes = setup_samples(args)
    runner.run(workload.warmup())
    fixed, ops = workload.fixed_ops(), workload.round(0)
    passes = max(MIN_PASSES, round(args.seconds / workload.pass_seconds))
    runner.probes.clear()
    start = time.perf_counter()
    # a host that runs slower than the one the passes were sized on makes
    # fewer passes, so that a run stays inside the time it is given
    results, best, made = timed_run(runner, fixed, ops, passes, OVERRUN * args.seconds)
    wall = time.perf_counter() - start
    tail_value = statistics.quantiles(best, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    t_cost, t_count, digest = figures(results[:len(best)])
    wall_times = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_s": statistics.median(best),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setup),
    }
    # The host's speed drifts by up to 40% over minutes, and a whole run
    # can fall in a slow stretch.  Each time is scaled by the speed probe's
    # reference time over its median time in the same phase: the time the
    # op would take on the reference host.  The probe is the benchmark's own
    # code, so no change to qsearch moves it.
    scale = PROBE_REF_S / statistics.median(runner.probes)
    setup_scale = PROBE_REF_S / statistics.median(setup_probes)
    provenance.update(
        passes=passes, passes_made=made, fixed_ops=len(fixed), ops_per_pass=len(ops),
        wall_s=wall, probe_p50_s=statistics.median(runner.probes),
        setup_probe_p50_s=statistics.median(setup_probes), probe_ref_s=PROBE_REF_S,
        wall_times=wall_times, tail_percentile=TAIL_PERCENTILE,
        tail_ops_beyond=sum(1 for t in best if t > tail_value),
        output_sha256=digest, setup_samples_s=setup,
    )
    values = {
        "ops_per_s": wall_times["ops_per_s"] / scale,
        "op_p50_s": wall_times["op_p50_s"] * scale,
        "op_tail_s": wall_times["op_tail_s"] * scale,
        "setup_s": wall_times["setup_s"] * setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "t_cost_sum": t_cost,
        "t_count_sum": t_count,
    }
    return results, {name: (values[name], END_TO_END_UNITS[name]) for name in values}


def traced(args, runner, workload, provenance) -> tuple[list[OpResult], dict]:
    tracer = Tracer()

    def run_traced(op):
        tracer.install()
        runner.tracer = tracer
        try:
            return runner.run(op)
        finally:
            tracer.uninstall()
            runner.tracer = None

    runner.run(workload.warmup())
    plain, wrapped = [], []
    # each op runs untraced and traced, in alternating order, so drift in
    # machine speed does not land on one side of the overhead ratio
    for i, op in enumerate(workload.fixed_ops() + workload.round(0)):
        if i % 2:
            wrapped.append(run_traced(op))
            plain.append(runner.run(op))
        else:
            plain.append(runner.run(op))
            wrapped.append(run_traced(op))
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in wrapped)
    metrics = tracer.metrics()
    metrics["trace.op_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    provenance.update(passes=1, ops_per_pass=len(plain), untraced_op_s=plain_s)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    provenance["spans_file"] = str(spans_path.relative_to(ROOT))
    return plain + wrapped, metrics


# -- provenance and output -------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsearch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance_of(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "src_sha256": source_sha256(),
        "clients": 1, "threads": 1, "loop": "closed",
    }


def report(args, results: list[OpResult], metrics: dict, provenance: dict) -> dict:
    failed = [r for r in results if r.problems]
    unexplained = [r for r in failed if r.known is None]
    provenance.update(
        ops=len(results), failed=len(failed),
        failed_share=len(failed) / len(results),
        failed_unexplained=len(unexplained),
    )
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value!r} {unit}")
    print(f"  {'failed_share':<26} {provenance['failed_share']!r} ratio "
          f"({len(failed)} of {len(results)} ops; {len(unexplained)} not a known defect)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for r in failed:
        tag = ",".join(r.known) if r.known else "UNEXPLAINED"
        reasons = "; ".join(message for _, message in r.problems)
        print(f"failed op {r.op_id} [{tag}] {r.op.describe()}: {reasons}")
    record = {
        "provenance": provenance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [
            {"op": r.op_id, "input": r.op.describe(), "known_defects": r.known,
             "reasons": [message for _, message in r.problems]}
            for r in failed
        ],
        "known_defects": {k: v[0] for k, v in checks.KNOWN_DEFECTS.items()},
        "ops": [{"op": r.op_id, "input": r.op.describe(), "seconds": r.seconds,
                 "exit": r.exit_code} for r in results],
    }
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": not unexplained,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.probe:
            probe(args)
            return 0
        qsearch = load_qsearch()
        OUT.mkdir(parents=True, exist_ok=True)
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        provenance = provenance_of(args)
        runner = Runner(qsearch, workdir)
        try:
            run = traced if args.trace else end_to_end
            results, metrics = run(args, runner, workload, provenance)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        summary = report(args, results, metrics, provenance)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
