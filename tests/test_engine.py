"""Engine-level tests of the fault paths: golden digests and ledger properties.

The golden digests pin ``run_stream`` over fault-heavy configurations:
every catalog error, quotas small enough to reject and unwind, clouds
that fail mid-run on each failure clause, both topologies, and
concurrency 1 and 8, streamed or run one workload at a time.  Each
digest is the SHA-256 of the result tuples, the error-hook events, the
gauge samples and the final ledger, so any change to an outcome, an
event, a random draw or the order of any of them changes it.  The digests were computed with numpy 2.4.6 (the fault,
noise and warm-up streams come from numpy generators).  The same
configurations also run on a cloud that makes the engine evaluate the
failure predicate after every step, which must change nothing.  The
sampling digests pin the gauge readings ``run_stream`` returns over the
edge cases of the tick grid: ticks on the instants of steps, cleanups
and hour marks, stops, late or missing warm-up windows and rejuvenations
between streams.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agesim.cloud import (
    DEFAULT_ERROR_CATALOG,
    DEFAULT_QUOTAS,
    CloudState,
    EntityKind,
    FaultModel,
    IntervalElapsed,
    ResourceParams,
    Topology,
    apply_resource_effects,
    cache_cleanup,
    check_failed,
    rejuvenate,
)
from agesim.errors import ConfigError
from agesim.workload import (
    DEFAULT_STEPS,
    STOP_STREAM,
    StepAction,
    StepSpec,
    TimingParams,
    WorkloadDefinition,
    run_stream,
)
from agesim import workload
import reference_engine
from single_run import run_single

DEFN = WorkloadDefinition(DEFAULT_STEPS)

#: A fault table that fires every catalog error, on create, operate,
#: delete and undo steps, including the first step (nothing provisioned
#: yet) and ageing errors on steps holding no entity of the leftover kind.
ALL_ERRORS = {
    "create user": {"node-unreachable": 0.03, "server-error-status": 0.02},
    "create security group": {"external-network-unreachable": 0.03},
    "create network": {"node-unreachable": 0.04},
    "boot server": {"server-error-status": 0.04, "node-unreachable": 0.03},
    "create volume": {"volume-error-status": 0.04, "external-network-unreachable": 0.02},
    "attach volume": {"node-unreachable": 0.04},
    "rebuild server": {"rebuild-error": 0.05, "volume-error-status": 0.02},
    "unpause server": {"rebuild-error": 0.04},
    "detach volume": {"volume-error-status": 0.03},
    "delete server": {"node-unreachable": 0.03},
    "delete network": {"external-network-unreachable": 0.03},
    "revoke role": {"node-unreachable": 0.03},
    "delete user": {"rebuild-error": 0.02},
}

SMALL_QUOTAS = {
    EntityKind.SECURITY_GROUP: 4,
    EntityKind.SERVER: 3,
    EntityKind.VOLUME: 3,
    EntityKind.ROUTER: 5,
}


def _scaled(table: dict, factor: float) -> dict:
    return {
        step: {error: p * factor for error, p in errors.items()}
        for step, errors in table.items()
    }


def _quiet(**overrides) -> ResourceParams:
    return ResourceParams(warmup_noise_gb=0.1, warmup_alloc_gb=0.05, **overrides)


#: name -> (topology, concurrency, params, quotas, faults, seed, hours).
GOLDEN_CASES = {
    # Small quotas: rejects, unwinds and leftovers until capacity hits 0.
    "capacity-multi-c8": (
        "multi-node", 8, _quiet(), SMALL_QUOTAS, _scaled(ALL_ERRORS, 0.5), 7, 3.0
    ),
    # A small disk fills with cache images mid-run.
    "disk-aio-c1": (
        "all-in-one",
        1,
        _quiet(disk_capacity_gb=0.8, ageing_rate=0.01),
        {kind: 40 for kind in DEFAULT_QUOTAS},
        ALL_ERRORS,
        11,
        3.0,
    ),
    # Leftovers and leaks exhaust memory and swap mid-run.
    "memory-multi-c1": (
        "multi-node",
        1,
        _quiet(
            leftover_retention_gb=0.2,
            leak_per_workload_gb=0.02,
            swap_capacity_gb=0.5,
        ),
        {EntityKind.SERVER: 40, EntityKind.VOLUME: 40},
        ALL_ERRORS,
        13,
        4.0,
    ),
    # Heavy contention with a wider gate and two cache-depositing steps.
    "contention-aio-c8": (
        "all-in-one",
        8,
        _quiet(
            contention_capacity=2.0,
            cache_depositing_steps=("boot server", "create volume"),
            ageing_rate=0.001,
        ),
        {EntityKind.SECURITY_GROUP: 6},
        ALL_ERRORS,
        17,
        2.0,
    ),
}


def _ledger(cloud: CloudState) -> tuple:
    return (
        tuple((k.value, cloud.live[k], cloud.leftovers[k]) for k in EntityKind),
        cloud.clock,
        cloud.failed,
        cloud.failed_at,
        cloud.ageing_units,
        cloud.capacity(),
        cloud.cache_image_count(),
        tuple(cloud.disk_used_gb(n) for n in cloud.topology.nodes),
        *cloud.control_memory_gb(),
    )


def _result_tuple(r) -> tuple:
    return (
        r.started_at,
        r.ended_at,
        r.status.value,
        r.error,
        r.failed_step,
        r.leftovers_created,
        r.leftover_kinds,
        r.steps_executed,
    )


def _digest(parts: list) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _gauges(cloud: CloudState) -> list:
    """Every node's gauge readings, sorted by node, each as a dict of
    memory available, swap used, disk used and disk capacity, which is
    how the golden digests record a tick.  The model runs on the control
    node; the others read idle memory and swap, as in ``_tick_gauges``."""
    idle = (cloud.params.initial_memory_gb, 0.0)
    gauges = []
    for node in cloud.topology.nodes:
        memory, swap = cloud.control_memory_gb() if node == cloud.topology.control_node else idle
        gauges.append(
            (
                node,
                {
                    "memory_available": memory,
                    "swap_used": swap,
                    "disk_used": cloud.disk_used_gb(node),
                    "disk_capacity": cloud.params.disk_capacity_gb,
                },
            )
        )
    return sorted(gauges)


def _tick_gauges(cloud: CloudState, readings: dict) -> list:
    """Each tick's time and gauges, as ``_gauges`` reads them, from the
    readings ``run_stream`` returned: the nodes other than the control
    node read idle memory and swap, and a node that is not a compute node
    never holds a cache image."""
    columns = {name: values.tolist() for name, values in readings.items()}
    params = cloud.params
    samples = []
    for i, t in enumerate(columns["time"]):
        gauges = []
        for node in sorted(cloud.topology.nodes):
            control = node == cloud.topology.control_node
            disk = columns.get(f"disk-used-{node}")
            node_readings = {
                "memory_available": (
                    columns["memory-available"][i] if control else params.initial_memory_gb
                ),
                "swap_used": columns["swap-used"][i] if control else 0.0,
                "disk_used": 0.0 if disk is None else disk[i],
                "disk_capacity": params.disk_capacity_gb,
            }
            gauges.append((node, node_readings))
        samples.append((t, gauges))
    return samples


def _stream_parts(name: str, cloud_type: type = CloudState, engine=run_stream) -> list:
    """Everything one golden ``run_stream`` call produced, on a cloud of
    ``cloud_type``, run by ``engine``."""
    topology, concurrency, params, quotas, table, seed, hours = GOLDEN_CASES[name]
    cloud = cloud_type(
        topology=Topology.named(topology), params=params, quotas=quotas, seed=seed
    )
    faults = FaultModel(table, seed=seed)
    timing = TimingParams(step_seconds={"boot server": 9.0, "create volume": 4.5})
    events: list = []
    results: list = []
    readings = engine(
        DEFN,
        cloud,
        until=hours * 3600.0,
        concurrency=concurrency,
        faults=faults,
        timing=timing,
        tick_seconds=60.0,
        error_hook=lambda *event: events.append(event),
        result_hook=results.append,
    )
    samples = _tick_gauges(cloud, readings)
    # The position of the fault stream shows how many draws were made.
    next_uniform = faults._rng.random()
    return [[_result_tuple(r) for r in results], events, samples, _ledger(cloud), next_uniform]


def _golden_stream(name: str) -> str:
    return _digest(_stream_parts(name))


def _golden_sequential() -> str:
    """120 single workloads back to back, rejuvenating whenever the cloud
    has failed (8 times): 59 successes, 41 ageing and 20 non-ageing
    failures."""
    cloud = CloudState(params=_quiet(ageing_rate=0.005), quotas=SMALL_QUOTAS, seed=5)
    faults = FaultModel(ALL_ERRORS, seed=5)
    parts = []
    for _ in range(120):
        if cloud.failed:
            rejuvenate(cloud)
        parts.append(_result_tuple(run_single(DEFN, cloud, faults)))
    parts.append(_ledger(cloud))
    parts.append(faults._rng.random())
    return _digest(parts)


#: Pinned on the engine before the step plan (numpy 2.4.6).
GOLDEN_DIGESTS = {
    "capacity-multi-c8": "274ab524097f0824a4e473a16cba0717f244a32bbcc58ea5d93b779c6881801f",
    "contention-aio-c8": "a633572cd143b38c428c34f2b81e7f05c9d916eb0d550cf67b750db7bc0a5f3c",
    "disk-aio-c1": "4ebe2c69f721e4da772ea1001d7cdf84cb2d387e7af78ba9ef5bb3978d74c2ad",
    "memory-multi-c1": "018368f8f813ad569e415608b98426a7d1f1d2f461e16616bfb81988ad80fc09",
}
#: Pinned before the engine's single-workload driver was removed (numpy 2.4.6).
GOLDEN_SEQUENTIAL = "a4cab25d71dd27bf5db0fd1857263395e1730a88f8ad39437d8759c6e02b7daa"


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stream_digest(self, name):
        assert _golden_stream(name) == GOLDEN_DIGESTS[name]

    def test_sequential_digest(self):
        assert _golden_sequential() == GOLDEN_SEQUENTIAL


# ── Sampling edge cases ──────────────────────────────────────────────────


def _sampled_stream(cloud: CloudState, samples: list, engine, **options) -> None:
    """Run one stream on ``cloud`` with ``engine`` and append each tick's
    time, control memory, swap and compute-node disks to ``samples`` as a
    float tuple."""
    readings = engine(DEFN, cloud, **options)
    names = ["time", "memory-available", "swap-used"]
    names += [f"disk-used-{node}" for node in cloud.topology.compute_nodes]
    samples.extend(zip(*(readings[name].tolist() for name in names)))


def _cleanup_on_ticks(stream):
    """Hourly cache cleanups on tick instants drop images half an hour old."""
    cloud = CloudState(params=ResourceParams(cache_max_age_seconds=1800.0), seed=21)
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=21)
    stream(
        cloud,
        faults,
        until=3 * 3600.0,
        concurrency=4,
        tick_seconds=60.0,
        hour_hook=lambda t: cache_cleanup(cloud),
    )
    return cloud, faults


def _whole_second_steps(stream):
    """One slot whose whole-second steps land on 5 s ticks until its disk
    fills; with no ageing every step stays a whole number of seconds."""
    cloud = CloudState(
        topology=Topology.named("all-in-one"),
        params=ResourceParams(ageing_rate=0.0, disk_capacity_gb=0.6),
        seed=22,
    )
    faults = FaultModel(ALL_ERRORS, seed=22)
    timing = TimingParams(default_seconds=5.0, step_seconds={"boot server": 10.0})
    stream(cloud, faults, until=2 * 3600.0, timing=timing, tick_seconds=5.0)
    return cloud, faults


def _stop_at_hour_mark(stream):
    """A stream stopped at its second hour mark, far short of its deadline."""
    cloud = CloudState(seed=23)
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=23)
    marks: list = []

    def hour_hook(t):
        marks.append(t)
        cache_cleanup(cloud)
        return STOP_STREAM if len(marks) == 2 else None

    stream(
        cloud, faults, until=1e9 * 3600.0, concurrency=2, tick_seconds=30.0, hour_hook=hour_hook
    )
    return cloud, faults


def _offset_start(stream):
    """7.3 s ticks from a start inside the first warm-up window."""
    cloud = CloudState(topology=Topology.named("all-in-one"), seed=24)
    cloud.clock = 1234.5
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=24)
    stream(
        cloud,
        faults,
        until=1234.5 + 3 * 3600.0 + 100.0,
        concurrency=2,
        tick_seconds=7.3,
        hour_hook=lambda t: cache_cleanup(cloud),
    )
    return cloud, faults


def _streams_in_sequence(stream):
    """Three streams on one cloud without rejuvenation: the first ends
    inside the warm-up window, the second crosses its end, and the third
    starts past it."""
    cloud = CloudState(seed=25)
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=25)
    for until in (1800.0, 5400.0, 9000.0):
        stream(cloud, faults, until=until, concurrency=3, tick_seconds=30.0)
    return cloud, faults


def _no_warmup_after_rejuvenation(stream):
    """A rejuvenation between two streams opens no warm-up window."""
    params = ResourceParams(warmup_after_rejuvenation=False, rejuvenation_seconds=1800.0)
    cloud = CloudState(params=params, seed=26)
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=26)
    stream(cloud, faults, until=5400.0, concurrency=2, tick_seconds=30.0)
    rejuvenate(cloud)
    stream(cloud, faults, until=cloud.clock + 5400.0, concurrency=2, tick_seconds=30.0)
    return cloud, faults


def _window_after_start(stream):
    """A warm-up window that opens 2,599.75 s after the stream starts."""
    cloud = CloudState(topology=Topology.named("all-in-one"), seed=27)
    rejuvenate(cloud)  # the window now opens at 3600 s
    cloud.clock = 1000.25
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=27)
    stream(cloud, faults, until=3 * 3600.0, concurrency=2, tick_seconds=30.0)
    return cloud, faults


def _failed_without_hook(stream):
    """A cloud that fails in its first hour with no hour hook: every slot
    parks, and the ticks go on to the deadline."""
    cloud = CloudState(quotas=SMALL_QUOTAS, seed=28)
    faults = FaultModel(_scaled(ALL_ERRORS, 2.0), seed=28)
    stream(cloud, faults, until=3 * 3600.0, concurrency=4, tick_seconds=60.0)
    return cloud, faults


def _warmup_after_rejuvenation(stream):
    """A rejuvenation between two streams opens a warm-up window 610.5 s
    after the first stream's deadline, at the second stream's start."""
    cloud = CloudState(params=ResourceParams(rejuvenation_seconds=610.5), seed=31)
    faults = FaultModel(_scaled(ALL_ERRORS, 0.5), seed=31)
    stream(cloud, faults, until=5400.0, concurrency=2, tick_seconds=30.0)
    rejuvenate(cloud)
    stream(cloud, faults, until=cloud.clock + 5400.0, concurrency=2, tick_seconds=30.0)
    return cloud, faults


SAMPLING_CASES = {
    "cleanup-on-ticks": _cleanup_on_ticks,
    "whole-second-steps": _whole_second_steps,
    "stop-at-hour-mark": _stop_at_hour_mark,
    "offset-start": _offset_start,
    "streams-in-sequence": _streams_in_sequence,
    "no-warmup-after-rejuvenation": _no_warmup_after_rejuvenation,
    "window-after-start": _window_after_start,
    "failed-without-hook": _failed_without_hook,
    "warmup-after-rejuvenation": _warmup_after_rejuvenation,
}


def _sampling_parts(name: str, engine=run_stream) -> list:
    """Everything a sampling case run by ``engine`` produced: results,
    error events, every tick's readings, the final ledger, and the next
    uniform of the fault and noise streams, which show how many draws
    each made."""
    samples: list = []
    events: list = []
    results: list = []

    def stream(cloud, faults, **options):
        _sampled_stream(
            cloud,
            samples,
            engine,
            faults=faults,
            error_hook=lambda *event: events.append(event),
            result_hook=results.append,
            **options,
        )

    cloud, faults = SAMPLING_CASES[name](stream)
    return [
        [_result_tuple(r) for r in results],
        events,
        samples,
        _ledger(cloud),
        faults._rng.random(),
        cloud._noise_rng.random(),
    ]


#: Pinned on the engine that ran every tick as an event and read the
#: gauges from a per-tick hook (numpy 2.4.6).
SAMPLING_DIGESTS = {
    "cleanup-on-ticks": "31b47e02155192a650029a946a7f52ccc4ea76ad65b078172f85685c73942ddd",
    "failed-without-hook": "b407cf22a989791517a6be8969cdf1a8958dda34269ec313b8257273c6b53618",
    "no-warmup-after-rejuvenation": "c191ba4c611d19f42ab8d560bfb9fbcf6583c9008f826f97daa630b26c86afaf",
    "offset-start": "e2a8615f5c692422b6548564b69703bf0096e429847f926865efba9a8323c111",
    "stop-at-hour-mark": "e044d70792a7666c7f8878b6d786907014b5e959d64a61b1de23bb36bb01732f",
    "streams-in-sequence": "c0acdbdc1eb6bbf3aaa1e04b6a7d49ca34df616a808edebd60f6eccec5a3425f",
    "warmup-after-rejuvenation": (
        "ff21ee9e12004e37d769261467a01c0eb71bcf782fe1adb34510eb8f672db3fd"
    ),
    "whole-second-steps": "a9c335c075e17cdca704a7f117a9213df4af0161553928ee3dc0f9d21e2d1246",
    "window-after-start": "921553c9626259cfcb06f2c5ff0febbb6bc984b1e48c110cebeb35aee2ca1fa6",
}


@pytest.mark.parametrize("name", sorted(SAMPLING_CASES))
def test_sampling_digest(name):
    assert _digest(_sampling_parts(name)) == SAMPLING_DIGESTS[name]


def test_reference_engine_reproduces_the_pinned_digests():
    """The reference engine (tests/reference_engine.py) gives every golden
    stream and sampling case the digest pinned on the engine, so it is an
    oracle on its own and not only an echo of the engine."""
    run = reference_engine.run_stream
    assert {name: _digest(_stream_parts(name, engine=run)) for name in GOLDEN_CASES} == (
        GOLDEN_DIGESTS
    )
    assert {name: _digest(_sampling_parts(name, run)) for name in SAMPLING_CASES} == (
        SAMPLING_DIGESTS
    )


def test_only_ticks_that_act_on_the_cloud_are_events(monkeypatch):
    """Only the tick that lands a window's warm-up allocation is an event.
    In the warmup-after-rejuvenation case that is the first tick of each
    stream: at 0 s, and at 6010.5 s, where the rejuvenation between the
    streams opened a window.  A repeat runs the same ticks and reads the
    same 360 samples."""
    ticks = []

    def counted(state, event):
        if isinstance(event, IntervalElapsed):
            ticks.append(state.clock)
        apply_resource_effects(state, event)

    monkeypatch.setattr(workload, "apply_resource_effects", counted)
    first = _sampling_parts("warmup-after-rejuvenation")
    expected = [0.0, 6010.5]
    assert ticks == expected
    ticks.clear()
    assert _sampling_parts("warmup-after-rejuvenation") == first
    assert ticks == expected
    assert len(first[2]) == 360


def test_readings_end_at_the_mark_that_stopped_the_stream():
    """A stream stopped at its first hour mark samples that mark's tick and
    no later one, however far off its deadline."""
    cloud = CloudState(seed=3)
    readings = run_stream(
        DEFN,
        cloud,
        until=1e9 * 3600.0,
        tick_seconds=30.0,
        hour_hook=lambda t: STOP_STREAM,
    )
    assert readings["time"].tolist() == [30.0 * k for k in range(121)]
    assert {len(values) for values in readings.values()} == {121}
    assert cloud._journal is None


def test_journal_closes_when_a_hook_raises():
    """The journal lives only as long as the ``run_stream`` call, which a
    raising hook ends; the next call starts a journal of its own."""
    cloud = CloudState(seed=4)

    def result_hook(result):
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        run_stream(DEFN, cloud, until=3600.0, tick_seconds=30.0, result_hook=result_hook)
    assert cloud._journal is None
    readings = run_stream(DEFN, cloud, until=cloud.clock + 60.0, tick_seconds=30.0)
    assert len(readings["time"]) == 2
    assert cloud._journal is None


@pytest.mark.parametrize("tick_seconds", [60.0, None])
@pytest.mark.parametrize("hook", ["hour_hook", "result_hook", "error_hook"])
def test_a_redeploy_inside_a_stream_is_refused(hook, tick_seconds):
    """A stream runs on one deployment, sampled or not: a hook that
    rejuvenates the cloud mid-stream gets ``RuntimeError`` before any
    field changes, the journal closes with the call, and a rejuvenation
    once the call has returned goes ahead."""
    cloud = CloudState(params=_quiet(retention_fraction=0.5), seed=6)
    faults = FaultModel(ALL_ERRORS, seed=6)

    def fields():
        return (
            cloud.clock,
            cloud.ageing_units,
            cloud._host_residual_gb,
            cloud._consumed_gb,
            cloud._warmup_start,
        )

    before = []

    def redeploy(*_):
        before.append(fields())
        rejuvenate(cloud)

    with pytest.raises(RuntimeError, match="while a stream runs on it"):
        run_stream(
            DEFN,
            cloud,
            until=2 * 3600.0,
            concurrency=2,
            faults=faults,
            tick_seconds=tick_seconds,
            **{hook: redeploy},
        )
    assert cloud._journal is None
    assert [fields()] == before
    clock, ageing_units, residual, consumed, _ = before[0]
    rejuvenate(cloud)
    assert cloud.clock == cloud._warmup_start == clock + cloud.params.rejuvenation_seconds
    assert cloud.ageing_units == ageing_units * 0.5
    assert cloud._host_residual_gb == residual + 0.5 * consumed


class PollingCloud(CloudState):
    """A cloud whose failure inputs always read as changed, so the engine
    evaluates the failure predicate after every step."""

    @property
    def failure_inputs_changed(self) -> bool:
        return True

    @failure_inputs_changed.setter
    def failure_inputs_changed(self, _value: bool) -> None:
        pass


def _failed_clause(name: str, ledger: tuple) -> str | None:
    """The first clause of the failure predicate that holds on the cloud a
    golden case ended with, read from its ``_ledger`` tuple."""
    _, _, failed, _, _, capacity, _, disk_used, available, swap = ledger
    params = GOLDEN_CASES[name][2]
    if not failed:
        return None
    if capacity == 0:
        return "capacity"
    if max(disk_used) >= params.disk_capacity_gb:
        return "disk"
    if available == 0.0 and swap >= params.swap_capacity_gb:
        return "memory"
    return "unknown"


class TestFlaggedPredicate:
    """The engine evaluates the failure predicate only while
    ``failure_inputs_changed`` is set, and latches what polling latches."""

    @pytest.mark.parametrize(
        "name, clause",
        [
            ("capacity-multi-c8", "capacity"),
            ("disk-aio-c1", "disk"),
            ("memory-multi-c1", "memory"),
            ("contention-aio-c8", "capacity"),
        ],
    )
    def test_failure_latches_as_when_polled_after_every_step(
        self, monkeypatch, name, clause
    ):
        evaluations = {CloudState: 0, PollingCloud: 0}

        def counted(state):
            evaluations[type(state)] += 1
            return check_failed(state)

        monkeypatch.setattr(workload, "check_failed", counted)
        flagged = _stream_parts(name)
        polled = _stream_parts(name, PollingCloud)
        assert flagged == polled
        assert _failed_clause(name, flagged[3]) == clause
        assert 0 < evaluations[CloudState] < evaluations[PollingCloud] / 5


def test_fault_step_unknown_to_the_definition_raises_before_any_event():
    """A fault table giving probabilities to a step the definition lacks
    is a ``ConfigError`` before the first event: no hook runs, no draw
    is made, and the clock and every ledger stay where they were."""
    cloud = CloudState(params=_quiet())
    before = _ledger(cloud), _gauges(cloud)
    table = {"boot server": {"node-unreachable": 0.5}, "launch rocket": {"rebuild-error": 0.5}}
    faults = FaultModel(table, seed=0)
    calls: list = []
    with pytest.raises(ConfigError, match="unknown step 'launch rocket'"):
        run_stream(
            DEFN,
            cloud,
            until=2 * 3600.0,
            concurrency=4,
            faults=faults,
            tick_seconds=60.0,
            hour_hook=calls.append,
            error_hook=lambda *event: calls.append(event),
            result_hook=calls.append,
        )
    assert calls == []
    assert (_ledger(cloud), _gauges(cloud)) == before
    assert faults._rng.random() == FaultModel(table, seed=0)._rng.random()


def test_default_fault_step_missing_from_a_custom_definition_raises():
    """A table naming a default step that a custom definition does not
    hold is refused rather than never drawn."""
    defn = WorkloadDefinition(
        steps=(
            StepSpec("hold", StepAction.CREATE, kind=EntityKind.PORT),
            StepSpec("release", StepAction.DELETE, kind=EntityKind.PORT, undo_of="hold"),
        )
    )
    cloud = CloudState(params=_quiet())
    faults = FaultModel({"boot server": {"server-error-status": 1.0}})
    with pytest.raises(ConfigError, match="unknown step 'boot server'"):
        run_single(defn, cloud, faults)
    assert cloud.clock == 0.0
    assert cloud.live[EntityKind.PORT] == 0
    # The same table runs on the definition that holds the step.
    assert run_single(DEFN, cloud, faults).error == "server-error-status"


# ── Ledger invariants through the engine ──────────────────────────────────

KINDS = tuple(EntityKind)

fault_tables = st.dictionaries(
    st.sampled_from([s.name for s in DEFAULT_STEPS]),
    st.dictionaries(
        st.sampled_from(tuple(DEFAULT_ERROR_CATALOG)),
        st.floats(min_value=0.0, max_value=0.3),
        max_size=3,
    ),
    max_size=10,
)

# Quotas small enough for rejects and leftovers to exhaust them, on the
# default quota-limited kinds and on up to two more.
quota_tables = st.builds(
    lambda defaults, extra: {**extra, **defaults},
    st.fixed_dictionaries(
        {kind: st.integers(min_value=1, max_value=6) for kind in DEFAULT_QUOTAS}
    ),
    st.dictionaries(st.sampled_from(KINDS), st.integers(min_value=1, max_value=4), max_size=2),
)


def _run_checked(table, quotas, concurrency, topology, seed):
    """Two stream phases around a rejuvenation, checking the ledger at
    every error and result and at the end of each phase; returns
    everything the run produced."""
    cloud = CloudState(
        topology=Topology.named(topology), params=_quiet(), quotas=quotas, seed=seed
    )
    faults = FaultModel(table, seed=seed)
    previous = dict(cloud.leftovers)
    counts = {"stranded": 0, "recorded": 0}
    recorded_kinds: list[str] = []
    events: list = []
    results: list = []

    def check_ledger():
        for kind in KINDS:
            assert cloud.live[kind] >= 0
            assert cloud.leftovers[kind] >= previous[kind], "a leftover was released"
        for kind, quota in cloud.quotas.items():
            assert cloud.live[kind] + cloud.leftovers[kind] <= quota
        previous.update(cloud.leftovers)
        # Every leftover comes from exactly one stranding error event.
        assert sum(cloud.leftovers.values()) == counts["stranded"]

    def error_hook(t, step, error, stranded):
        events.append((t, step, error, stranded))
        counts["stranded"] += stranded
        check_ledger()

    def result_hook(result):
        results.append(result)
        assert result.leftovers_created == len(result.leftover_kinds)
        counts["recorded"] += result.leftovers_created
        recorded_kinds.extend(result.leftover_kinds)
        check_ledger()
        assert counts["recorded"] <= counts["stranded"]
        if concurrency == 1:
            # No other workload is in flight, so every leftover is recorded.
            assert counts["recorded"] == counts["stranded"]
            assert sorted(recorded_kinds) == sorted(
                kind.value for kind in KINDS for _ in range(cloud.leftovers[kind])
            )

    hooks = dict(
        concurrency=concurrency,
        faults=faults,
        tick_seconds=60.0,
        error_hook=error_hook,
        result_hook=result_hook,
    )
    run_stream(DEFN, cloud, until=1800.0, **hooks)
    check_ledger()
    rejuvenate(cloud)
    assert sum(cloud.leftovers.values()) == 0
    previous.update(cloud.leftovers)
    counts.update(stranded=0, recorded=0)
    recorded_kinds.clear()
    run_stream(DEFN, cloud, until=cloud.clock + 1200.0, **hooks)
    check_ledger()
    return [_result_tuple(r) for r in results], events, _ledger(cloud)


@settings(max_examples=40)
@given(
    table=fault_tables,
    quotas=quota_tables,
    concurrency=st.integers(min_value=1, max_value=8),
    topology=st.sampled_from(["multi-node", "all-in-one"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engine_keeps_the_ledger_invariants(table, quotas, concurrency, topology, seed):
    """No ledger goes negative, live plus leftovers stays within quota,
    leftovers fall only at rejuvenation, the ledger matches the stranding
    events and the recorded results, and the same inputs repeat exactly."""
    first = _run_checked(table, quotas, concurrency, topology, seed)
    assert _run_checked(table, quotas, concurrency, topology, seed) == first


# ── Samples against the reference engine ─────────────────────────────────


#: Step timings: the default, whole seconds that land on whole-second
#: ticks, and base times that differ step by step.
_TIMINGS = {
    "default": TimingParams(),
    "whole-seconds": TimingParams(default_seconds=5.0, step_seconds={"boot server": 10.0}),
    "uneven": TimingParams(
        default_seconds=1.5, step_seconds={"boot server": 9.25, "rebuild server": 0.75}
    ),
}


def _sampled_run(config: dict, engine) -> dict:
    """One stream over ``config`` run by ``engine``, the engine's
    ``run_stream`` or the reference's, and everything it produced."""
    # A fragile cloud runs out of memory and swap within minutes.
    fragile = (
        dict(leftover_retention_gb=0.2, leak_per_workload_gb=0.05, swap_capacity_gb=0.5)
        if config["fragile"]
        else {}
    )
    params = ResourceParams(
        cache_max_age_seconds=1800.0,
        contention_capacity=config["contention_capacity"],
        cache_depositing_steps=config["cache_depositing_steps"],
        **fragile,
    )
    cloud = CloudState(
        topology=Topology.named(config["topology"]),
        params=params,
        quotas=config["quotas"],
        seed=config["seed"],
    )
    cloud.clock = config["start"]
    faults = FaultModel(config["table"], seed=config["seed"])
    marks, events, results = [], [], []

    def hour_hook(t):
        marks.append(t)
        cache_cleanup(cloud)
        if config["hook"] == "stop" and len(marks) == 2:
            return STOP_STREAM
        return None

    readings = engine(
        DEFN,
        cloud,
        until=config["start"] + config["hours"] * 3600.0,
        concurrency=config["concurrency"],
        faults=faults,
        timing=_TIMINGS[config["timing"]],
        tick_seconds=config["interval"],
        hour_hook=hour_hook if config["hook"] != "none" else None,
        error_hook=lambda *event: events.append(event),
        result_hook=lambda r: results.append(_result_tuple(r)),
    )
    # through repr, which tells -0.0 from 0.0
    return {
        "results": results,
        "events": events,
        "readings": repr({name: values.tolist() for name, values in readings.items()}),
        "dtypes": {values.dtype for values in readings.values()},
        "ledger": repr(_ledger(cloud)),
        "draws": (faults._rng.random(), cloud._noise_rng.random()),
    }


#: A cloud that fails within minutes and is cleaned up at each hour mark:
#: once with 60 s ticks, and once with 7 s ticks, the last of the warm-up
#: window at 3598 s and the next at 3605 s, past the 3600 s mark.
_FAILING = dict(
    table={},
    quotas=dict(DEFAULT_QUOTAS),
    topology="multi-node",
    concurrency=2,
    start=0.0,
    hours=3,
    hook="cleanup",
    fragile=True,
    timing="default",
    contention_capacity=1.0,
    cache_depositing_steps=("boot server",),
    seed=1,
)


#: A calm two-hour stream: no faults, default quotas, 60 s ticks.
_CALM = dict(
    table={},
    quotas=dict(DEFAULT_QUOTAS),
    topology="multi-node",
    concurrency=2,
    interval=60.0,
    start=0.0,
    hours=2,
    hook="none",
    fragile=False,
    timing="default",
    contention_capacity=1.0,
    cache_depositing_steps=("boot server",),
    seed=1,
)


@settings(max_examples=50, deadline=None)
@example(**_FAILING, interval=60.0)
@example(**_FAILING, interval=7.0)
# The cleanup at 3600 s drops the images deposited before 1800 s.
@example(**{**_CALM, "hook": "cleanup"})
# The stream stops at the 7200 s mark, which is also a tick.
@example(**{**_CALM, "hook": "stop", "hours": 3})
# A faulted delete strands the server it was deleting.
@example(**{**_CALM, "table": {"delete server": {"rebuild-error": 0.3}}})
# At 2**44 s the launch stagger rounds away, so slots share instants: a
# finished workload's launch waits behind work queued at its instant.
@example(**{**_CALM, "start": 2.0**44, "concurrency": 8, "contention_capacity": 3.0})
# A workload finishes on a failed cloud and hands its slot to no launch.
@example(**{**_CALM, "fragile": True, "concurrency": 4})
@given(
    table=fault_tables,
    quotas=quota_tables,
    topology=st.sampled_from(["multi-node", "all-in-one"]),
    concurrency=st.integers(min_value=1, max_value=12),
    interval=st.sampled_from([5.0, 7.0, 7.3, 60.0, 1234.5]),
    start=st.sampled_from([0.0, 1234.5, 2.0**44]),
    hours=st.integers(min_value=2, max_value=3),  # an hour mark falls before the deadline
    hook=st.sampled_from(["none", "cleanup", "stop"]),
    fragile=st.booleans(),
    timing=st.sampled_from(sorted(_TIMINGS)),
    contention_capacity=st.sampled_from([1.0, 2.0, 0.5, 3.0, 0.7]),
    cache_depositing_steps=st.sampled_from([("boot server",), ("boot server", "create volume")]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_samples_equal_a_reading_at_every_tick(**config):
    """The engine's results, error events, readings, final ledger and next
    fault and noise draws are bit for bit those of the reference engine
    (tests/reference_engine.py), where every tick is an event that reads
    the gauges live, every step evaluates the failure predicate and every
    draw is a scalar call."""
    assert _sampled_run(config, run_stream) == _sampled_run(config, reference_engine.run_stream)
