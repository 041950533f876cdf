"""Command-line front end.

Subcommands::

    estimate --n INT --m INT [--mode bound|measured|naive] [--format json|csv]
    search   --db PATH --key BITS --return FIELD [--iterations INT]
             [--shots INT --seed INT] [--out PATH]
    compile  --db PATH --key BITS [--part m1|m2|qdam|oracle|diffusion|kernel|naive]
             [--lowered] --out PATH
    bench    --n-min INT --n-max INT --m INT --out PATH

Exit codes: 0 on success, 2 when a search ends in ALGORITHM_FAILURE or
KEY_NOT_PRESENT, 3 on any input problem (bad file, width mismatch,
duplicate keys, bad flags, a file over a size cap) and on a failed circuit
check.  ``compile`` takes at most ``MAX_SEARCH_BITS`` record bits m * 2^n,
as ``search`` does, and writes at most ``MAX_EXPORT_GATES`` gates.  Outputs
are byte-deterministic for fixed inputs and seed.

``search --shots`` and ``--seed`` go together.  ``search`` takes the most
probable or the most drawn index, the lowest on a tie.  With two records
both indices tie after the one round, so ``search`` measures index 0, and a
key stored at index 1 exits 2 with ALGORITHM_FAILURE.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .circuit import Circuit
from .database import SearchQuery, load_database_file, pad_to_power_of_two
from .decompose import lower_circuit, lowered_length
from .errors import InputError, QsearchError
from .grover import SearchStatus, build_kernel_circuits, check_database, run_search
from .qdam import QdamLayout, build_naive_qdam
from .resources import (
    bench_csv,
    bench_scaling,
    estimate_bounds,
    measure,
    measure_naive,
)

EXIT_OK = 0
EXIT_SEARCH_FAILED = 2
EXIT_INPUT = 3
# the most gates compile writes: the export holds about 1.2 KB of peak RSS
# per gate, so this keeps a run near 1 GB.  The cap is checked on the
# circuit's lowered length, so a rejection counts and lowers nothing
MAX_EXPORT_GATES = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise InputError(message)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The full parser, and each command's own parser by name."""
    parser = _Parser(prog="qsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="resource report for given widths")
    est.add_argument("--n", type=int, required=True, help="binary index width")
    est.add_argument("--m", type=int, required=True, help="data width")
    est.add_argument("--mode", choices=["bound", "measured", "naive"], default="bound")
    est.add_argument("--format", choices=["json", "csv"], default="json")

    srch = sub.add_parser("search", help="run the full search on a database")
    srch.add_argument("--db", required=True, help="database JSON path")
    srch.add_argument("--key", required=True, help="key value (bit string)")
    srch.add_argument("--return", dest="return_field", required=True,
                      help="field to return")
    srch.add_argument("--iterations", type=int, default=None)
    srch.add_argument("--shots", type=int, default=None)
    srch.add_argument("--seed", type=int, default=None)
    srch.add_argument("--out", default=None, help="write the result JSON here")

    comp = sub.add_parser("compile", help="export a circuit as JSON")
    comp.add_argument("--db", required=True)
    comp.add_argument("--key", required=True)
    comp.add_argument(
        "--part",
        choices=["m1", "m2", "qdam", "oracle", "diffusion", "kernel", "naive"],
        default="qdam",
    )
    comp.add_argument("--lowered", action="store_true",
                      help="export Clifford+T gates instead of macros")
    comp.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="scaling table, optimized vs naive")
    bench.add_argument("--n-min", type=int, required=True)
    bench.add_argument("--n-max", type=int, required=True)
    bench.add_argument("--m", type=int, required=True)
    bench.add_argument("--out", required=True)
    return parser, {"estimate": est, "search": srch, "compile": comp, "bench": bench}


# main parses a command's flags with that command's parser alone, which
# builds the namespace the full parser's two-level pass builds, at about
# half its cost.  The full parser runs only when argv[0] names no command:
# then it can only print help or refuse, with argparse's own message
_PARSER, _COMMAND_PARSERS = _build_parser()


def _write(path: str, text: str, mode: str = "w") -> None:
    """Write ``text`` to ``path``.  :func:`main` first probes each ``--out``
    path in mode ``"a"``, which makes a missing file and keeps the bytes of
    one that is there, so an unwritable path fails before the work."""
    try:
        with open(path, mode, encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _cmd_estimate(args) -> int:
    if args.mode == "bound":
        report = estimate_bounds(args.n, args.m)
    elif args.mode == "measured":
        report = measure(args.n, args.m)
    else:
        report = measure_naive(args.n, args.m)
    sys.stdout.write(json.dumps(report.to_json(), indent=2) + "\n" if args.format == "json"
                     else report.to_csv())
    return EXIT_OK


def _cmd_search(args) -> int:
    db = pad_to_power_of_two(load_database_file(args.db))
    query = SearchQuery(key_value=args.key, return_field=args.return_field)
    result = run_search(db, query, args.iterations, seed=args.seed, shots=args.shots)
    text = json.dumps(result.to_json(), indent=2) + "\n"
    if args.out is not None:
        _write(args.out, text)
        text = f"{result.status.value} ({args.out})\n"
    sys.stdout.write(text)
    return EXIT_OK if result.status is SearchStatus.SOLVED else EXIT_SEARCH_FAILED


def _cmd_compile(args) -> int:
    db = pad_to_power_of_two(load_database_file(args.db))
    query = SearchQuery(key_value=args.key, return_field=db.key_field)
    query.validate(db)
    check_database(db, "compile")
    if args.part == "naive":
        loader = build_naive_qdam(db.index_bits, db.key_width, db.keys())
        circuit = Circuit(loader.register_sizes, loader.gates)
    else:
        layout = QdamLayout.for_database(db)
        circuits = build_kernel_circuits(layout, db, args.key)
        # the parts are built lazily: look up only the one exported
        circuit = circuits.kernel() if args.part == "kernel" else getattr(circuits, {
            "m1": "stage1", "m2": "stage2", "qdam": "loader",
            "oracle": "target_reflection", "diffusion": "diffusion"}[args.part])
    size = lowered_length(circuit) if args.lowered else len(circuit)
    if size > MAX_EXPORT_GATES:
        raise InputError(f"compile writes at most {MAX_EXPORT_GATES} gates, "
                         f"{args.part} has {size}")
    if args.lowered:
        circuit = lower_circuit(circuit)
    _write(args.out, circuit.export_json())
    sys.stdout.write(f"wrote {args.part} ({len(circuit)} gates) to {args.out}\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.n_min > args.n_max:
        raise InputError("--n-min must not exceed --n-max")
    rows = bench_scaling(range(args.n_min, args.n_max + 1), args.m)
    _write(args.out, bench_csv(rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMAND_PARSERS:
            args = _COMMAND_PARSERS[argv[0]].parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = _PARSER.parse_args(argv)
        command = {"estimate": _cmd_estimate, "search": _cmd_search,
                   "compile": _cmd_compile, "bench": _cmd_bench}[args.command]
        out = getattr(args, "out", None)
        if out is None:
            return command(args)
        made = not os.path.lexists(out)
        _write(out, "", "a")
        try:
            return command(args)
        except BaseException:
            if made:  # a failed run leaves no file the probe made
                os.remove(out)
            raise
    except QsearchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
