"""Self-test of the benchmark's checks, and tiny smoke runs of each workload.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run
from perfbench.workloads import WORKLOADS, Estimate, Naive, search_op

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return run.Runner(run.load_qsearch(), tmp_path_factory.mktemp("work"))


def test_closed_forms_match_the_paper_headline():
    bounds = checks.depth_bounds(10, 8)
    assert bounds["t_depth_qdam"] == 40
    assert bounds["t_depth_kernel"] == 176
    assert checks.iterations(1 << 10) * bounds["t_depth_kernel"] == 4400
    assert [checks.reflection_depth_bound(w) for w in (1, 2, 3, 4, 8)] == [0, 0, 3, 18, 42]
    assert checks.success_probability(2, 1) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("absent", [False, True])
def test_search_output_passes_and_corruptions_are_flagged(runner, absent):
    op = search_op(random.Random(7), 3, 4, absent)
    result = runner.run(op)
    assert result.problems == []
    doc, code = result.doc, result.exit_code

    def codes(mutate):
        bad = copy.deepcopy(doc)
        mutate(bad)
        return {c for c, _ in checks.check_search(bad, code, op.expect)}

    assert "returned" in codes(lambda d: d.update(returned_value="111111"))
    assert "status" in codes(lambda d: d.update(status="ALGORITHM_FAILURE"))
    assert "probability" in codes(
        lambda d: d.update(success_probability=d["success_probability"] + 1e-6))
    assert "trace_probability" in codes(
        lambda d: d["trace"][-1].update(success_probability=0.3))
    assert "off_support" in codes(
        lambda d: d["trace"][1].update(off_support_probability=1e-9))
    assert "depth:t_depth_qdam" in codes(lambda d: d["resources"].update(t_depth_qdam=13))
    assert "t_count" in codes(
        lambda d: d["resources"].update(t_count_total=d["resources"]["t_count_total"] + 7))
    assert "exit" in {c for c, _ in checks.check_search(doc, 3, op.expect)}


def test_estimate_and_naive_corruptions_are_flagged(runner):
    est = runner.run(Estimate.op(4, 3))
    nav = runner.run(Naive.op(3, 2))
    assert est.problems == [] and nav.problems == []
    kernel = dict(est.doc, t_depth_kernel=checks.depth_bounds(4, 3)["t_depth_kernel"] + 1)
    assert "depth:t_depth_kernel" in {c for c, _ in checks.check_estimate(kernel, 4, 3)}
    naive = dict(nav.doc, t_depth_qdam=nav.doc["t_depth_qdam"] - 1)
    assert "depth:t_depth_qdam" in {c for c, _ in checks.check_naive(naive, 3, 2)}


def test_known_defects_explain_only_their_own_failures(runner):
    one_bit = search_op(random.Random(1), 1, 1, False)
    result = runner.run(one_bit)
    assert ("depth:t_depth_m2" in {c for c, _ in result.problems})
    assert "m1-stage2-depth" in result.known

    wide = search_op(random.Random(2), 5, 5, False)
    problems = [("returned", "returned value differs")]
    assert checks.known_defects(wide.expect, problems) is None
    tie = dict(wide.expect, n=1, m=2, index=1)
    assert checks.known_defects(tie, [("status", "")]) == ["n2-argmax-tie"]
    assert checks.known_defects(tie, [("status", ""), ("probability", "")]) is None


def test_rounds_are_seeded():
    for cls in WORKLOADS.values():
        first = [op.describe() for op in cls(3).round(0)]
        assert first == [op.describe() for op in cls(3).round(0)]
    assert ([op.describe() for op in WORKLOADS["search"](3).round(0)]
            != [op.describe() for op in WORKLOADS["search"](4).round(0)])
    cells = sorted((op.n, op.m) for op in Estimate(5).round(0))
    assert cells == [(6, 1), (6, 3), (6, 5), (7, 1), (7, 3), (7, 3), (7, 5), (7, 5),
                     (7, 5), (8, 1)]
    for cls in WORKLOADS.values():
        shapes = sorted((op.n, op.m) for op in cls(3).round(0))
        assert shapes == sorted((op.n, op.m) for op in cls(4).round(5))


def test_fixed_search_ops_fail_the_same_way_on_every_seed(runner):
    for seed in range(3):
        results = [runner.run(op) for op in WORKLOADS["search"](seed).fixed_ops()]
        assert [bool(r.problems) for r in results] == [True, True, False, False]
        assert all(r.known for r in results[:2])


def test_a_pass_that_prints_other_output_fails():
    outputs = iter(["{}", "{ }"])

    class Fake:
        def run(self, op):
            return run.OpResult(op, 0, 0.1, 0, next(outputs), None)

    results, best, made = run.timed_run(Fake(), [], [Estimate.op(2, 1)], 2, 60.0)
    first, second = results
    assert made == 2 and best == [0.1]
    assert first.problems == []
    assert [c for c, _ in second.problems] == ["repeat"] and second.known is None


def _summary(workload: str, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload):
    timed = _summary(workload, 0)
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["correct"] and timed["attempted"] >= 1
    tiny = WORKLOADS[workload](1, tiny=True)
    passes = max(run.MIN_PASSES, round(0.5 / tiny.pass_seconds))
    assert timed["attempted"] == len(tiny.fixed_ops()) + passes * len(tiny.round(0))
    assert timed["failed"] == (2 if workload == "search" else 0)
    assert set(timed["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in timed["metrics"].values())

    traced = _summary(workload, 1)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    sim_calls = traced["metrics"]["sim.apply_calls"]["value"]
    assert (sim_calls > 0) == (workload == "search")
    if workload == "naive":
        assert traced["metrics"]["resources.expand_s"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout


def test_report_prints_every_metric():
    child = subprocess.run(
        [sys.executable, "perfbench/report.py", "--seconds", "0.5", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-2000:]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} " in child.stdout
