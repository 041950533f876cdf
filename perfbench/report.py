#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json untraced and traced, each in a
fresh process, and print every metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--tiny]

Exit code 2 when a run fails or its summary lacks a declared metric, 1 when
a run reports ``correct: false``, 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                command.append("--tiny")
            run = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                                 capture_output=True, text=True, timeout=300)
            lines = run.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            try:
                summary = json.loads(lines[-1])
                missing = [m["name"] for m in declared if m["name"] not in summary["metrics"]]
            except (IndexError, json.JSONDecodeError, KeyError):
                summary, missing = None, []
            if run.returncode != 0 or summary is None or missing:
                print(f"PLUMBING {workload} trace={trace}: exit {run.returncode}, "
                      f"missing {missing}; stderr {run.stderr.strip()[-2000:]}")
                status = 2
            elif not summary["correct"]:
                print(f"INCORRECT {workload} trace={trace}: an op failed an unexplained check")
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
