"""Tiny runs of every workload: correctness, determinism, tracing."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import report
from perfbench.run import ROOT

SIM_WORKLOADS = ("lossy-stream-sim", "giop-failover-sim")


def sim_figures(res):
    """Everything a simulated run measures in simulated time."""
    return (res.latencies, res.issued, res.goodput, res.failover_gap,
            res.attempted, res.failed)


@pytest.mark.parametrize("workload", sorted(report.WORKLOADS))
def test_tiny_run_passes_its_correctness_checks(workload):
    res = report.WORKLOADS[workload](3, 1, False)
    assert res.violations == []
    assert res.attempted > 0 and res.failed == 0
    e2e = report.end_to_end(res)
    assert all(value > 0 for value, _unit in e2e.values())


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_sim_time_metrics_are_a_function_of_the_seed(workload):
    run = report.WORKLOADS[workload]
    first, again, other = run(5, 1, False), run(5, 1, False), run(6, 1, False)
    assert sim_figures(first) == sim_figures(again)
    assert first.latencies != other.latencies


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_tracing_does_not_perturb_the_simulation(workload):
    run = report.WORKLOADS[workload]
    untraced, traced = run(4, 1, False), run(4, 1, True)
    assert sim_figures(traced) == sim_figures(untraced)
    layers = report.per_layer(traced, untraced)
    assert layers["rmp.us_per_op"][0] > 0 and layers["romp.evaluate_us_per_op"][0] > 0
    assert layers["stage.sum_error_frac"][0] < 1e-9
    if workload == "giop-failover-sim":
        assert layers["giop.decode_us_per_op"][0] > 0
        assert layers["pgmp.crash_to_view_ms"][0] > 0
        assert 2.0 <= layers["replication.execs_per_op"][0] <= 3.0
    else:
        assert layers["rmp.nacks_per_op"][0] > 0
        assert layers["giop.decode_us_per_op"][0] == 0


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_command_prints_one_json_result_last():
    p = _bench(ROOT, "--workload", "lossy-stream-sim", "--seed", "2",
               "--seconds", "1", "--trace", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}


def test_traced_command_reports_every_declared_layer_metric():
    p = _bench(ROOT, "--workload", "giop-failover-sim", "--seed", "2",
               "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_command_fails_without_the_program_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = _bench(bare, "--workload", "lossy-stream-sim", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        assert p.returncode != 0
        assert '"metrics"' not in p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_all_runs_every_workload_in_one_command():
    p = _bench(ROOT, "--workload", "all", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert p.returncode == 0, p.stderr
    for name in report.WORKLOADS:
        assert f"== {name}: end-to-end ==" in p.stdout
    metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
    assert {k.split(".", 1)[0] for k in metrics} == set(report.WORKLOADS)
