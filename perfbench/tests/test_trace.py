"""Tests of the benchmark's traced pass and of its refusal to run without
the program.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
Each workload's traced pass runs twice on one seed, each in a fresh
process as the benchmark runs it; the matrix pair takes about 40 s.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.run import run_pass  # noqa: E402
from perfbench.tracing import LAYERS, PER_LAYER_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = 11

#: Units of the metrics that count work; they must repeat exactly.
COUNT_UNITS = ("count", "B")

#: The per-layer self times plus the time outside every span must add up
#: to the traced pass's host time within this share of it.
SELF_TIME_TOLERANCE = 0.01


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request, tmp_path_factory):
    """Two traced passes of one workload on one seed."""
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    prepared = workload.prepare(SEED, work)
    deadline = time.monotonic() + 600.0
    passes = [
        run_pass(workload.name, SEED, i, True, prepared, work, work / "trace.npz", deadline)
        for i in range(2)
    ]
    for result in passes:
        assert "crashed" not in result, result
    return workload, passes


def test_traced_passes_pass_their_checks(traced_pair):
    _workload, passes = traced_pair
    for result in passes:
        assert result["failed_ops"] == [] and result["problems"] == []
    assert passes[0]["sha256"] == passes[1]["sha256"]


def test_count_metrics_repeat_exactly(traced_pair):
    _workload, (first, second) = traced_pair
    counts = [name for name, unit in PER_LAYER_UNITS.items() if unit in COUNT_UNITS]
    assert all(name in first["per_layer"] for name in counts)
    assert {n: first["per_layer"][n] for n in counts} == {
        n: second["per_layer"][n] for n in counts
    }


def test_self_times_add_up_to_traced_wall(traced_pair):
    _workload, passes = traced_pair
    for result in passes:
        metrics = result["per_layer"]
        self_times = [metrics[f"layer.{layer}.self_s"] for layer in LAYERS]
        assert min(self_times) >= 0.0
        wall = metrics["trace.wall_s"]
        assert abs(wall - sum(self_times)) <= SELF_TIME_TOLERANCE * wall
        assert metrics["trace.unattributed_s"] == pytest.approx(wall - sum(self_times))


def test_layer_split_matches_the_workload(traced_pair):
    workload, passes = traced_pair
    m = passes[0]["per_layer"]
    wall = m["trace.wall_s"]
    if workload.name == "matrix":
        assert m["layer.workload.self_s"] + m["layer.cloud.self_s"] > 0.5 * wall
        assert m["layer.trendstats.self_s"] < 0.05 * wall
        assert m["cloud.faults_fired"] == 0 and m["cloud.add_leftover.calls"] == 0
        assert m["cloud.rejuvenate.calls"] == m["scenario.run_scenario.calls"] == 12
        assert m["scenario.failed"] == 0
    elif workload.name == "ageing-failure":
        assert m["cloud.faults_fired"] > 0 and m["cloud.add_leftover.calls"] > 0
        assert m["scenario.failed"] == m["scenario.run_scenario.calls"]
        assert m["scenario.failed.wait-for-schedule"] > 0
        assert m["scenario.failed.rejuvenate-on-failure"] > 0
        for predicate in ("capacity", "disk", "memory"):
            assert m[f"cloud.failures.{predicate}"] > 0
    else:
        assert m["layer.ingest.self_s"] + m["layer.trendstats.self_s"] > 0.5 * wall
        assert m["workload.steps"] == 0
        assert m["ingest.ingest.rows"] == m["trendstats.samples_binned"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "matrix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
