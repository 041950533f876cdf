"""Benchmark of the qsearch command line: workloads, independent output
checks and a traced per-layer run.  Entry point: ``python3 perfbench/run.py``;
see ``perfbench/README.md``."""
