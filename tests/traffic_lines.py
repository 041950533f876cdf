#!/usr/bin/env python3
"""The function-body lines of ``src/qsearch`` that no benchmark op runs.

    python3 tests/traffic_lines.py [--seeds 1 2 3]

Each workload's ``fixed_ops()`` and ``round(0)``, read from
``perfbench/workloads.py`` for every seed given (1 to 3 by default), run
through ``qsearch.cli.main`` in this one process under a ``sys.settrace``
that records the lines it runs in ``src/qsearch`` alone.  For each module
it then prints every line of a function body (comprehensions included,
``def`` lines and class bodies left out) that holds bytecode and that no
op ran, with the line's text.

A listed line is a finding only when no CLI feature needs it: ``compile``,
``bench``, ``--shots`` and every refusal also run code that the
benchmark's ops never reach, so a line on this list may be the only code
of such a feature.  It is not collected by pytest, and it changes nothing
in ``src/`` or ``perfbench/``.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsearch"


def body_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode of a function body."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines |= {line for _, _, line in code.co_lines() if line is not None}
            lines.discard(code.co_firstlineno)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    ran: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    count = 0
    sys.settrace(calls)  # from the import on, which runs the templates' and parsers' bodies
    try:
        from qsearch import cli

        with tempfile.TemporaryDirectory() as scratch:
            db_path = Path(scratch) / "db.json"
            for make in WORKLOADS.values():
                for seed in args.seeds:
                    workload = make(seed)
                    for op in workload.fixed_ops() + workload.round(0):
                        if op.database is not None:
                            db_path.write_text(op.database, encoding="ascii")
                        with contextlib.redirect_stdout(io.StringIO()), \
                                contextlib.redirect_stderr(io.StringIO()):
                            cli.main(op.argv(str(db_path)))
                        count += 1
    finally:
        sys.settrace(None)
    print(f"{count} ops ({', '.join(WORKLOADS)}; seeds {' '.join(map(str, args.seeds))})")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        unrun = sorted(line for line in body_lines(path) if (str(path), line) not in ran)
        print(f"{path.name}: {len(unrun)} unrun")
        for line in unrun:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
