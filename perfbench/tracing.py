"""Spans and counts around qsearch's layers, recorded from outside the
package.

``Tracer.install`` replaces each traced function by a wrapper under every
name it is called through: the modules import with ``from .x import y``, so
a function is patched in each importing module, and ``Circuit.flat_gates``
and ``SparseState.apply`` are patched on their classes.  A wrapper records
nothing unless an op is active.  Spans hold name, start, end, parent and op
id; they stay in memory until the run writes them out.  A layer's self time
is its spans' durations minus the time of their direct children.

Each ``SparseState.apply`` is labelled by comparing its circuit with the
lowered subroutines the benchmark rebuilds for the op (``expect_search``),
never by call order.  The naive loader's gate stream is a generator that
the scheduler consumes; its wrapper times each pull, so expansion time is
split out of scheduling time as an aggregate child span.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """The tracer cannot account for a call; the traced run is void."""


def _macro_gates(counts, args, result) -> None:
    counts["qdam.macro_gates"] += len(result)


def _lowered(counts, args, result) -> None:
    counts["decompose.lower_calls"] += 1
    counts["decompose.lowered_gates"] += len(result)


def _scheduled(counts, args, result) -> None:
    counts["circuit.schedule_calls"] += 1
    if hasattr(args[0], "__len__"):  # the naive stream counts its own gates
        counts["circuit.scheduled_gates"] += len(args[0])


# (module, attribute, span name, count) for every traced call site
_CALL_SITES = [
    ("qsearch.cli", "main", "cli", None),
    ("qsearch.cli", "load_database_file", "database", None),
    ("qsearch.cli", "pad_to_power_of_two", "database", None),
    ("qsearch.cli", "run_search", "grover.search", None),
    ("qsearch.cli", "build_kernel_circuits", "grover.build", None),
    ("qsearch.grover", "build_kernel_circuits", "grover.build", None),
    ("qsearch.resources", "build_kernel_circuits", "grover.build", None),
    ("qsearch.grover", "build_target_reflection", "grover.build", None),
    ("qsearch.resources", "build_target_reflection", "grover.build", None),
    ("qsearch.grover", "build_diffusion", "grover.build", None),
    ("qsearch.resources", "build_diffusion", "grover.build", None),
    ("qsearch.qdam", "build_m1", "qdam", _macro_gates),
    ("qsearch.qdam", "build_m2", "qdam", _macro_gates),
    ("qsearch.resources", "build_naive_qdam", "qdam", _macro_gates),
    ("qsearch.cli", "lower_circuit", "decompose", _lowered),
    ("qsearch.grover", "lower_circuit", "decompose", _lowered),
    ("qsearch.resources", "lower_circuit", "decompose", _lowered),
    ("qsearch.circuit", "tally_flat", "circuit.schedule", _scheduled),
    ("qsearch.resources", "tally_flat", "circuit.schedule", _scheduled),
    ("qsearch.cli", "measure", "resources", None),
    ("qsearch.cli", "measure_naive", "resources", None),
    ("qsearch.resources", "measure_kernel", "resources", None),
]
_ITERATION_SITES = [("qsearch.grover", "optimal_iterations"),
                    ("qsearch.resources", "optimal_iterations")]

SIM_LABELS = ("prepare", "loader", "reflect", "unload", "diffusion", "verify")

# per-layer metric -> (unit, span name whose self time it sums, or None for a count)
LAYER_METRICS = {
    **{f"sim.{label}_s": ("s", f"sim.{label}") for label in SIM_LABELS},
    "sim.apply_calls": ("count", None),
    "sim.gates_applied": ("count", None),
    "sim.gate_x_support": ("count", None),
    "sim.peak_support": ("count", None),
    "decompose.lower_s": ("s", "decompose"),
    "decompose.lower_calls": ("count", None),
    "decompose.lowered_gates": ("count", None),
    "circuit.flatten_s": ("s", "circuit.flatten"),
    "circuit.schedule_s": ("s", "circuit.schedule"),
    "circuit.schedule_calls": ("count", None),
    "circuit.scheduled_gates": ("count", None),
    "resources.expand_s": ("s", "resources.expand"),
    "resources.self_s": ("s", "resources"),
    "qdam.build_s": ("s", "qdam"),
    "qdam.macro_gates": ("count", None),
    "grover.build_s": ("s", "grover.build"),
    "grover.search_self_s": ("s", "grover.search"),
    "grover.iterations": ("count", None),
    "database.load_s": ("s", "database"),
    "cli.self_s": ("s", "cli"),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self.sim_refs: list[tuple[str, object]] = []
        self._labels: dict[int, tuple[object, str]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "op": self.op})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        if self.stack.pop() != index:
            raise TraceError("trace spans closed out of order")

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        self._labels = {}
        return self.open("op")

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op = None
        self.sim_refs = []
        self._labels = {}

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        from qsearch.circuit import Circuit
        from qsearch.sim import SparseState

        for module, attr, name, count in _CALL_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, count))
        for module, attr in _ITERATION_SITES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._count_iterations(getattr(owner, attr)))
        resources = importlib.import_module("qsearch.resources")
        self._patch(resources, "_expand_flat", self._timed_stream(resources._expand_flat))
        self._patch(Circuit, "flat_gates",
                    self._wrap(Circuit.flat_gates, "circuit.flatten", None))
        self._patch(SparseState, "apply", self._traced_apply(SparseState.apply))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_iterations(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.op is not None:
                tracer.counts["grover.iterations"] += result
            return result

        return counted

    def _timed_stream(self, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stream = fn(*args, **kwargs)
            if tracer.op is None:
                return stream
            return tracer._pull_timed(stream)

        return timed

    def _pull_timed(self, stream):
        clock = time.perf_counter
        busy = 0.0
        items = 0
        first = None
        parent = None
        try:
            while True:
                start = clock()
                try:
                    item = next(stream)
                except StopIteration:
                    busy += clock() - start
                    break
                busy += clock() - start
                if first is None:
                    first, parent = start, (self.stack[-1] if self.stack else None)
                items += 1
                yield item
        finally:
            self.counts["circuit.scheduled_gates"] += items
            if first is not None:
                # aggregate span: its duration is the summed pull time
                self.spans.append({"name": "resources.expand", "start": first,
                                   "end": first + busy, "parent": parent,
                                   "op": self.op, "aggregate": True})

    def _traced_apply(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(state, circuit):
            if tracer.op is None:
                return fn(state, circuit)
            label = tracer.sim_label(state, circuit)
            tracer.counts["sim.apply_calls"] += 1
            tracer.counts["sim.gates_applied"] += len(circuit)
            tracer.counts["sim.gate_x_support"] += len(circuit) * state.support()
            span = tracer.open(f"sim.{label}")
            try:
                result = fn(state, circuit)
            finally:
                tracer.close(span)
            peak = tracer.counts["sim.peak_support"]
            tracer.counts["sim.peak_support"] = max(peak, result.peak_support)
            return result

        return traced

    # -- labelling ------------------------------------------------------

    def expect_search(self, db_path: str, key: str) -> None:
        """Rebuild the op's lowered subroutines with tracing paused, as the
        references that ``SparseState.apply`` calls are labelled against."""
        from qsearch.circuit import Circuit, GateKind, gate, q_index
        from qsearch.database import load_database_file, pad_to_power_of_two
        from qsearch.decompose import lower_circuit
        from qsearch.grover import build_kernel_circuits
        from qsearch.qdam import QdamLayout

        if self.op is not None:
            raise TraceError("references must be built outside an op")
        db = pad_to_power_of_two(load_database_file(db_path))
        layout = QdamLayout.for_database(db)
        parts = build_kernel_circuits(layout, db, key)
        ladder = layout.ladder_qubits()
        prepare = Circuit(layout.register_sizes,
                          [gate(GateKind.H, q_index(b)) for b in range(layout.n)])
        self.sim_refs = [
            ("prepare", prepare),
            ("loader", lower_circuit(parts.loader, ladder)),
            ("reflect", lower_circuit(parts.target_reflection, ladder)),
            ("unload", lower_circuit(parts.loader_inverse, ladder)),
            ("diffusion", lower_circuit(parts.diffusion, ladder)),
        ]

    def sim_label(self, state, circuit) -> str:
        known = self._labels.get(id(circuit))
        if known is None:
            for label, ref in self.sim_refs:
                if (circuit.register_sizes == ref.register_sizes
                        and circuit.gates == ref.gates):
                    known = (circuit, label)
                    break
            else:
                raise TraceError(f"unrecognised circuit applied: {circuit!r}")
            self._labels[id(circuit)] = known
        label = known[1]
        # the reload check runs the loader on the single candidate branch
        if label == "loader" and state.support() == 1:
            return "verify"
        return label

    # -- results --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child_time: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: defaultdict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            totals[span["name"]] += span["end"] - span["start"] - child_time[i]
        return dict(totals)

    def metrics(self) -> dict[str, tuple[float, str]]:
        own = self.self_times()
        out = {}
        for metric, (unit, span_name) in LAYER_METRICS.items():
            value = own.get(span_name, 0.0) if span_name else self.counts[metric]
            out[metric] = (value, unit)
        return out
