"""Acceptance criteria, one test per criterion.

Each criterion is a single test function; a passing run prints one
``[PASS]`` line per criterion (the verbose pytest line carries the
fail side).  Statistical criteria are checked against brute-force
oracles written from the textbook definitions, independent of the
library implementation.
"""

import io
import math
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from agesim.cli import main
from agesim.cloud import (
    CloudState,
    EntityKind,
    FaultModel,
    ResourceParams,
    Topology,
    WorkloadStepCompleted,
    apply_resource_effects,
)
from agesim.ingest import ingest, serialize_series
from agesim.scenario import EarlyFailurePolicy, ScenarioConfig, run_scenario
from agesim.trendstats import (
    IndicatorSeries,
    TrendVerdict,
    evaluate_indicator,
    mann_kendall,
    sens_slope,
)
from agesim.workload import WorkloadDefinition, WorkloadStatus
from single_run import run_single


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(f"\n[PASS] {line}", flush=True)


# ── Oracles (textbook definitions, quadratic loops) ─────────────────────


def oracle_mann_kendall(values):
    """S, var(S), continuity-corrected Z and verdict by direct enumeration."""
    n = len(values)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            if values[j] > values[i]:
                s += 1
            elif values[j] < values[i]:
                s -= 1
    ties = sum(
        t * (t - 1) * (2 * t + 5) for t in Counter(values).values() if t > 1
    )
    variance = (n * (n - 1) * (2 * n + 5) - ties) / 18.0
    if variance == 0.0:
        z = 0.0
    elif s > 0:
        z = (s - 1) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1) / math.sqrt(variance)
    else:
        z = 0.0
    if n < 10:
        verdict = TrendVerdict.INSUFFICIENT_DATA
    elif z > 1.96:
        verdict = TrendVerdict.UPWARD
    elif z < -1.96:
        verdict = TrendVerdict.DOWNWARD
    else:
        verdict = TrendVerdict.NO_TREND
    return s, variance, z, verdict


def oracle_sens_slope(values, spacing_hours=1.0):
    """Median of all pairwise slopes, rescaled to per-hour units."""
    slopes = []
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            slopes.append((values[j] - values[i]) / float(j - i))
    return statistics.median(slopes) / spacing_hours


def random_series(rng, count, min_n=10, max_n=60):
    """Mix of tie-heavy, pure-noise and trending series."""
    cases = []
    for k in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        style = k % 3
        if style == 0:
            values = rng.integers(0, 8, n).astype(float)
        elif style == 1:
            values = rng.normal(0.0, 1.0, n)
        else:
            values = rng.normal(0.0, 1.0, n) + 0.2 * rng.normal() * np.arange(n)
        cases.append([float(v) for v in values])
    return cases


# ── Criteria ─────────────────────────────────────────────────────────────


def test_c01_mann_kendall_matches_oracle_bit_exact(capsys):
    """500 random series: S, var, Z and verdict identical to enumeration."""
    rng = np.random.Generator(np.random.PCG64(20260814))
    cases = random_series(rng, 500)
    start = time.monotonic()
    for values in cases:
        expected_s, expected_var, expected_z, expected_verdict = (
            oracle_mann_kendall(values)
        )
        result = mann_kendall(values)
        assert result.n == len(values)
        assert result.s_statistic == expected_s
        assert result.variance == expected_var
        assert result.z_score == expected_z
        assert result.verdict is expected_verdict
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(
        capsys,
        f"C1 Mann-Kendall bit-exact vs oracle on 500 series ({elapsed:.2f} s)",
    )


def test_c02_sens_slope_matches_oracle(capsys):
    """500 random series: median pairwise slope agrees to 1e-12 relative."""
    rng = np.random.Generator(np.random.PCG64(19930621))
    cases = random_series(rng, 500, min_n=5, max_n=60)
    spacings = [1.0, 0.5, 2.0, 1.0]
    start = time.monotonic()
    for k, values in enumerate(cases):
        spacing = spacings[k % len(spacings)]
        expected = oracle_sens_slope(values, spacing)
        actual = sens_slope(values, spacing_hours=spacing)
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-15)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(
        capsys,
        f"C2 Sen's slope matches oracle on 500 series ({elapsed:.2f} s)",
    )


def test_c03_verdict_gate_at_ten_samples(capsys):
    """A strong 9-point trend stays insufficient; the 10th point gates it."""
    nine = [float(i) for i in range(9)]
    result = mann_kendall(nine)
    assert result.verdict is TrendVerdict.INSUFFICIENT_DATA
    assert result.s_statistic == 36  # every pair increases
    assert result.z_score > 1.96  # strength is reported, just not trusted

    ten = [float(i) for i in range(10)]
    gated = mann_kendall(ten)
    assert gated.verdict is TrendVerdict.UPWARD
    announce(capsys, "C3 n=10 verdict gate (9 points insufficient, 10 gate)")


def test_c04_capacity_arithmetic(capsys):
    """Quota 10 everywhere; leftovers cut the bottleneck kind's headroom."""
    state = CloudState()
    assert state.capacity() == 10
    for _ in range(3):
        state.add_leftover(EntityKind.SERVER)
    assert state.capacity() == 7
    for _ in range(4):
        state.add_leftover(EntityKind.ROUTER)
    assert state.capacity() == 6
    announce(capsys, "C4 capacity 10 -> 7 -> 6 under accumulating leftovers")


FAULT_TABLE = {
    "create user": ("node-unreachable", None, 1),
    "create role": ("node-unreachable", EntityKind.ROLE, 3),
    "add role": ("node-unreachable", None, 5),
    "create security group": ("node-unreachable", EntityKind.SECURITY_GROUP, 7),
    "create flavor": ("node-unreachable", EntityKind.FLAVOR, 9),
    "create image": ("node-unreachable", EntityKind.IMAGE, 11),
    "create network": ("node-unreachable", EntityKind.NETWORK, 13),
    "create subnet": ("node-unreachable", EntityKind.SUBNET, 15),
    "create port": ("node-unreachable", EntityKind.PORT, 17),
    "create router": ("node-unreachable", EntityKind.ROUTER, 19),
    "boot server": ("server-error-status", EntityKind.SERVER, 21),
    "create volume": ("volume-error-status", EntityKind.VOLUME, 23),
    "attach volume": ("node-unreachable", EntityKind.VOLUME, 24),
    "rebuild server": ("node-unreachable", EntityKind.SERVER, 26),
    "pause server": ("node-unreachable", EntityKind.SERVER, 27),
    "unpause server": ("node-unreachable", EntityKind.SERVER, 28),
    "detach volume": ("node-unreachable", EntityKind.VOLUME, 28),
    "delete volume": ("node-unreachable", EntityKind.VOLUME, 29),
    "delete server": ("node-unreachable", EntityKind.SERVER, 29),
    "delete router": ("node-unreachable", EntityKind.ROUTER, 29),
    "delete port": ("node-unreachable", EntityKind.PORT, 29),
    "delete subnet": ("node-unreachable", EntityKind.SUBNET, 29),
    "delete network": ("node-unreachable", EntityKind.NETWORK, 29),
    "delete image": ("node-unreachable", EntityKind.IMAGE, 29),
    "delete flavor": ("node-unreachable", EntityKind.FLAVOR, 29),
    "delete security group": (
        "node-unreachable",
        EntityKind.SECURITY_GROUP,
        29,
    ),
    "revoke role": ("node-unreachable", None, 29),
    "delete role": ("node-unreachable", EntityKind.ROLE, 29),
    "delete user": ("node-unreachable", EntityKind.USER, 29),
}


def test_c05_fault_at_every_step_position(capsys):
    """A certain fault at each of the 29 positions leaves the expected
    wreckage: correct error, status, step count and stranded entity."""
    defn = WorkloadDefinition.default()
    params = ResourceParams(warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.0)
    assert set(FAULT_TABLE) == {s.name for s in defn.steps}
    for step_name, (error_name, stranded, steps) in FAULT_TABLE.items():
        cloud = CloudState(params=params)
        faults = FaultModel({step_name: {error_name: 1.0}}, seed=0)
        result = run_single(defn, cloud, faults)
        assert result.error == error_name, step_name
        assert result.failed_step == step_name
        assert result.steps_executed == steps, step_name
        if stranded is None:
            assert result.status is WorkloadStatus.NON_AGEING_FAILURE, step_name
            assert result.leftovers_created == 0, step_name
        else:
            assert result.status is WorkloadStatus.AGEING_FAILURE, step_name
            assert result.leftover_kinds == (stranded.value,), step_name
            assert cloud.leftovers[stranded] == 1, step_name
        assert all(count == 0 for count in cloud.live.values()), step_name

    # the canonical case: a failed boot strands exactly one server
    cloud = CloudState(params=params)
    run_single(defn, cloud, FaultModel({"boot server": {"server-error-status": 1.0}}, seed=0))
    assert cloud.leftovers[EntityKind.SERVER] == 1
    assert sum(cloud.leftovers.values()) == 1
    announce(capsys, "C5 fault injection at all 29 step positions")


def test_c06_disk_leak_fills_capacity(capsys):
    """1123 cached images occupy 44.92 GB; on a 45 GB all-in-one disk the
    leak brings the cloud down before the stress day ends."""
    params = ResourceParams(warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.0)
    state = CloudState(topology=Topology.all_in_one(), params=params)
    for _ in range(1123):
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
    assert abs(state.cache_disk_usage_gb() - 44.92) < 0.001
    assert abs(state.disk_used_gb("all-in-one") - 44.92) < 0.001

    config = ScenarioConfig(
        scenario_id="disk-leak",
        topology="all-in-one",
        concurrency=1,
        stress_hours=24,
        post_rejuvenation_hours=0,
        seed=5,
        resources=ResourceParams(ageing_rate=0.0, disk_capacity_gb=45.0),
    )
    report = run_scenario(config)
    assert report.failure_point is not None
    assert report.failure_point < 24 * 3600.0
    announce(
        capsys,
        "C6 disk leak: 1123 images = 44.92 GB; 45 GB node fails before hour 24"
        f" (at {report.failure_point / 3600.0:.1f} h)",
    )


def test_c07_overload_rejects_ninety_percent(capsys):
    """At concurrency 64 the quota gate rejects at least 90% of workloads."""
    config = ScenarioConfig(
        scenario_id="overload",
        concurrency=64,
        stress_hours=1,
        post_rejuvenation_hours=0,
        seed=21,
    )
    start = time.monotonic()
    report = run_scenario(config)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0

    completed = sum(report.totals.values())
    rejected = report.totals.get("non-ageing-failure", 0)
    assert completed > 0
    assert report.totals.get("success", 0) > 0
    assert rejected / completed >= 0.90
    overload_events = [e for e in report.error_log if e.overload]
    assert overload_events
    assert all(
        e.error == "quota-exceeded-security-group" for e in overload_events
    )
    announce(
        capsys,
        f"C7 overload at concurrency 64: {rejected}/{completed} rejected"
        f" ({rejected / completed:.1%}, {elapsed:.2f} s)",
    )


def test_c08_rejuvenation_restores_service(capsys):
    """After fault-driven failure, rejuvenation clears swap and the
    post-rejuvenation phase completes workloads again."""
    config = ScenarioConfig(
        scenario_id="recovery",
        concurrency=8,
        stress_hours=4,
        post_rejuvenation_hours=1,
        seed=3,
        policy=EarlyFailurePolicy.REJUVENATE,
        faults={"boot server": {"server-error-status": 0.5}},
    )
    report = run_scenario(config)
    assert report.failure_point is not None
    assert report.rejuvenation_started >= report.failure_point

    sample_ts = report.rejuvenation_ended - config.sample_interval_seconds
    swap_at = dict(report.series["swap-used"].samples)
    assert swap_at[sample_ts] == 0.0
    memory_at = dict(report.series["memory-available"].samples)
    assert memory_at[sample_ts] > 1.4

    post_hour = int(report.rejuvenation_ended // 3600)
    entry = next(e for e in report.hourly_counts if e["hour"] == post_hour)
    assert entry["success"] >= 1
    announce(
        capsys,
        "C8 rejuvenation recovery: swap cleared, post-rejuvenation"
        f" hour completed {entry['success']} workloads",
    )


def test_c09_ageing_deltas_exact_on_ramp(capsys):
    """A clean hourly ramp yields A and R by exact subtraction and a Sen
    slope equal to the ramp rate."""
    values = []
    for h in range(26):
        if h < 24:
            value = h / 10  # 0.0 rising to 2.3 over the stress day
        elif h == 24:
            value = 5.0  # rejuvenation bin, never used for deltas
        else:
            value = 0.1  # post-rejuvenation level
        values.append(value)
    series = IndicatorSeries("ramp", "GB", [h * 3600.0 for h in range(26)], values)
    analysis = evaluate_indicator(series, phase_boundaries=(86400.0, 90000.0))

    ageing = analysis.ageing
    assert ageing is not None
    assert ageing.v0 == 0.0
    assert ageing.vb == 2.3
    assert ageing.vr == 0.1
    assert ageing.ageing_a == 2.3 - 0.0
    assert ageing.rejuvenation_r == 2.3 - 0.1
    assert abs(ageing.sens_slope - 0.1) < 1e-9
    assert analysis.trend.verdict is TrendVerdict.UPWARD
    announce(capsys, "C9 A = 2.3, R = 2.3 - 0.1 exact; slope 0.1/h on ramp")


def test_c10_default_matrix_is_reproducible(capsys, tmp_path):
    """Two end-to-end runs of the 12-scenario matrix write byte-identical
    bundle trees."""
    first = tmp_path / "first"
    second = tmp_path / "second"
    start = time.monotonic()
    assert main(["suite", "--default-matrix", "--out", str(first)]) == 0
    assert main(["suite", "--default-matrix", "--out", str(second)]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0

    files_first = sorted(
        p.relative_to(first) for p in first.rglob("*") if p.is_file()
    )
    files_second = sorted(
        p.relative_to(second) for p in second.rglob("*") if p.is_file()
    )
    assert files_first == files_second
    assert len(files_first) > 12  # twelve bundles plus suite-level files
    for rel in files_first:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)
    announce(
        capsys,
        f"C10 default matrix reproducible: {len(files_first)} files"
        f" byte-identical across runs ({elapsed:.1f} s)",
    )


def test_c11_serialization_round_trips_exactly(capsys):
    """100 series of awkward floats survive serialize -> ingest unchanged."""
    rng = np.random.Generator(np.random.PCG64(77))
    series = {}
    for k in range(100):
        name = f"metric-{k:03d}"
        count = int(rng.integers(3, 40))
        ts = np.cumsum(rng.uniform(0.001, 5000.0, count))
        if k % 4 == 0:
            ts = np.unique(np.floor(ts))  # integral timestamps
        scale = 10.0 ** float(rng.integers(-9, 10))
        values = rng.normal(0.0, 1.0, len(ts)) * scale
        if k % 5 == 0:
            values = np.round(values)  # integral and signed-zero values
        series[name] = IndicatorSeries(name, "unknown", ts, values)

    text = serialize_series(series)
    parsed = ingest(io.StringIO(text))
    assert sorted(parsed) == sorted(series)
    for name, original in series.items():
        assert parsed[name].samples == original.samples, name
    announce(capsys, "C11 serialize/ingest round trip exact on 100 series")
