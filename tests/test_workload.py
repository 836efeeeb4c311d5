"""Tests for the workload engine: definitions, fault paths, streaming."""

import collections
import copy
import heapq
import itertools
import math
import pickle
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from agesim.cloud import CloudState, EntityKind, FaultModel, ResourceParams, check_failed
from agesim.errors import ConfigError
from agesim.scenario import ScenarioConfig, run_scenario
from agesim.workload import (
    CLOUD_UNAVAILABLE,
    DEFAULT_STEP_NAMES,
    DEFAULT_STEPS,
    MAX_CONCURRENCY,
    STOP_STREAM,
    StepAction,
    StepSpec,
    TimingParams,
    WorkloadDefinition,
    WorkloadResult,
    WorkloadStatus,
    _Execution,
    _first_tick,
    _plan,
    run_stream,
)
from single_run import run_single


def quiet_cloud(**param_overrides) -> CloudState:
    params = ResourceParams(
        warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.0, **param_overrides
    )
    return CloudState(params=params)


DEFN = WorkloadDefinition(DEFAULT_STEPS)

#: Sum of base step times for a clean solo run: 27 steps at 2 s plus the
#: boot (10 s) and volume-create (5 s) overrides.
CLEAN_BASE_SECONDS = 27 * 2.0 + 10.0 + 5.0


def stream_results(cloud: CloudState, **options) -> list[WorkloadResult]:
    """Every result a ``run_stream`` call hands to its result hook, in order."""
    results: list[WorkloadResult] = []
    run_stream(DEFN, cloud, result_hook=results.append, **options)
    return results


# ── Definition structure ─────────────────────────────────────────────────


class TestDefinition:
    def test_has_29_steps(self):
        assert len(DEFN.steps) == 29
        assert len(DEFAULT_STEP_NAMES) == 29

    def test_eleven_creates_each_with_delete(self):
        creates = [s for s in DEFN.steps if s.action is StepAction.CREATE]
        deletes = [s for s in DEFN.steps if s.action is StepAction.DELETE]
        assert len(creates) == 11
        assert len(deletes) == 11
        assert {s.creates for s in creates} == set(EntityKind)
        assert {d.undo_of for d in deletes} == {c.name for c in creates}

    def test_cleanup_is_lifo(self):
        """Undo steps reverse their targets in strictly decreasing order."""
        index = {s.name: i for i, s in enumerate(DEFN.steps)}
        targets = [index[s.undo_of] for s in DEFN.steps if s.undo_of is not None]
        assert all(a > b for a, b in zip(targets, targets[1:]))

    def test_document_round_trip(self):
        config = ScenarioConfig(scenario_id="rt", workload=DEFN)
        assert ScenarioConfig.from_document(config.to_document()) == config

    def test_out_of_order_cleanup_rejected(self):
        steps = (
            StepSpec("create network", StepAction.CREATE, creates=EntityKind.NETWORK),
            StepSpec("create volume", StepAction.CREATE, creates=EntityKind.VOLUME),
            StepSpec(
                "delete network",
                StepAction.DELETE,
                deletes=EntityKind.NETWORK,
                undo_of="create network",
            ),
            StepSpec(
                "delete volume",
                StepAction.DELETE,
                deletes=EntityKind.VOLUME,
                undo_of="create volume",
            ),
        )
        with pytest.raises(ConfigError):
            WorkloadDefinition(steps=steps)

    def test_empty_step_list_rejected(self):
        """A workload with no steps would index past the end of its plan."""
        with pytest.raises(ConfigError, match="at least one step"):
            WorkloadDefinition(steps=())
        with pytest.raises(ConfigError, match="at least one step"):
            ScenarioConfig.from_document({"scenario_id": "x", "workload": {"steps": []}})

    def test_unbalanced_create_rejected(self):
        steps = (StepSpec("create network", StepAction.CREATE, creates=EntityKind.NETWORK),)
        with pytest.raises(ConfigError):
            WorkloadDefinition(steps=steps)

    def test_create_step_undoing_a_step_rejected(self):
        """A create step never sits on a workload's undo stack, so it may
        not undo an earlier step."""
        with pytest.raises(ConfigError, match="create step 'create b' cannot undo a step"):
            StepSpec("create b", StepAction.CREATE, creates=EntityKind.PORT, undo_of="create a")


def _step(name, action, **fields):
    return {"name": name, "action": action, **fields}


CREATE_PORT = _step("create port", "create", creates="port")
DELETE_PORT = _step("delete port", "delete", deletes="port", undo_of="create port")


@pytest.mark.parametrize(
    "steps, message",
    [
        ([_step("create port", "create")], "create step 'create port' names no entity kind"),
        (
            [CREATE_PORT, _step("delete port", "delete", undo_of="create port")],
            "delete step 'delete port' names no entity kind",
        ),
        (
            [CREATE_PORT, _step("delete port", "delete", deletes="port")],
            "delete step 'delete port' must undo a create step",
        ),
        ([_step("grant", "operate", creates="role")], "step 'grant' cannot create entities"),
        ([_step("grant", "operate", deletes="role")], "step 'grant' cannot delete entities"),
        ([CREATE_PORT, CREATE_PORT, DELETE_PORT], "step names must be unique"),
        (
            [DELETE_PORT, CREATE_PORT],
            "step 'delete port' undoes 'create port' which does not precede it",
        ),
        (
            [CREATE_PORT, DELETE_PORT, {**DELETE_PORT, "name": "delete port again"}],
            "step 'create port' is undone twice",
        ),
        (
            [CREATE_PORT, {**DELETE_PORT, "deletes": "volume"}],
            "step 'delete port' deletes EntityKind.VOLUME but 'create port' creates"
            " EntityKind.PORT",
        ),
        (
            [{**CREATE_PORT, "depends_on": ["create network"]}, DELETE_PORT],
            "scenario.workload.steps[0].depends_on: unknown field",
        ),
        (
            [CREATE_PORT, {**DELETE_PORT, "service": "network"}],
            "scenario.workload.steps[1].service: unknown field",
        ),
    ],
    ids=[
        "create-without-kind",
        "delete-without-kind",
        "delete-undoing-nothing",
        "operate-creating",
        "operate-deleting",
        "duplicate-names",
        "undo-before-its-target",
        "undone-twice",
        "kind-mismatch",
        "depends-on",
        "service",
    ],
)
def test_a_malformed_workload_document_is_refused(steps, message):
    """Each rule a step list breaks is refused with a message that names it."""
    document = {"scenario_id": "x", "workload": {"steps": steps}}
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig.from_document(document)


def test_engine_records_refuse_a_misspelt_field():
    """A plan step and a workload's state are slotted records: they have
    no ``__dict__``, so a field the class does not declare cannot be set."""
    cloud = quiet_cloud()
    step = _plan(DEFN, cloud, TimingParams(), None)[0]
    execution = _Execution(cloud, 0.0, 0)
    for record in (step, execution):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.nmae = "create user"


# ── Timing ───────────────────────────────────────────────────────────────


@given(
    t0=st.floats(-1e7, 1e7),
    interval=st.floats(1e-3, 1e5),
    t=st.floats(-1e7, 1e7),
)
@example(162000.0, 1 / 3, 165017.33333333334)  # ceil overshoots: k steps down
@example(2197.0, 7 / 3, 28972.000000000004)  # ceil falls short: k steps up
def test_first_tick_is_the_least_tick_at_or_after_t(t0, interval, t):
    """``_first_tick`` is the least k >= 0 with ``t0 + k * interval >= t``,
    in the float arithmetic that places the ticks."""
    k = _first_tick(t0, interval, t)
    assert k >= 0
    assert t0 + k * interval >= t
    assert k == 0 or t0 + (k - 1) * interval < t


class _SlotZeroDone(Exception):
    pass


def step_span(
    cloud: CloudState, gate_count: int, step_name: str = "create user"
) -> tuple[float, float]:
    """Start and end the engine gives one control-plane step named
    ``step_name`` (default timing) while ``gate_count`` other workloads
    hold the gate.

    ``run_stream`` runs on a copy of ``cloud`` with ``gate_count + 1``
    slots, each of which creates a port (a quota-limited kind here, so
    the port holds the gate) and then runs the measured step on it.  An
    injected phase-dependent error strands the port there, so the step
    ends the workload and its own gate does not count.  Slot 0 launches
    first; its port create lasts long enough for every other slot to
    create its own, so its measured step runs with ``gate_count``
    holders.  The step lasts from slot 0's error to slot 0's result.
    """
    trial = copy.deepcopy(cloud)
    trial.quotas[EntityKind.PORT] = 1000  # room for every port stranded before slot 0 ends
    defn = WorkloadDefinition(
        steps=(
            StepSpec("hold", StepAction.CREATE, creates=EntityKind.PORT),
            StepSpec(step_name, StepAction.OPERATE, operates_on=EntityKind.PORT),
            StepSpec("release", StepAction.DELETE, deletes=EntityKind.PORT, undo_of="hold"),
        )
    )
    faults = FaultModel({step_name: {"node-unreachable": 1.0}})
    t0 = trial.clock
    error_times: list[float] = []
    ends: list[float] = []

    def slot_zero_done(result: WorkloadResult) -> None:
        if result.started_at == t0:
            ends.append(result.ended_at)
            raise _SlotZeroDone

    with pytest.raises(_SlotZeroDone):
        run_stream(
            defn,
            trial,
            until=t0 + 1e9,  # far past slot 0's end, and fine enough to resolve a step
            concurrency=gate_count + 1,
            faults=faults,
            error_hook=lambda t, *_error: error_times.append(t),
            result_hook=slot_zero_done,
        )
    # Slot 0's port create is the shortest, so its step faults first.
    return error_times[0], ends[0]


def step_seconds(cloud: CloudState, gate_count: int, step_name: str = "create user") -> float:
    """Duration of the step ``step_span`` runs."""
    start, end = step_span(cloud, gate_count, step_name)
    return end - start


class TestServiceTime:
    """A step's duration: its base time times the cloud's ageing
    multiplier and the number of gate holders over the contention
    capacity, floored at 1."""

    def test_base_times(self):
        cloud = quiet_cloud()
        assert step_seconds(cloud, 0, "create user") == 2.0
        assert step_seconds(cloud, 0, "boot server") == 10.0
        assert step_seconds(cloud, 0, "create volume") == 5.0

    def test_contention_scales_linearly(self):
        cloud = quiet_cloud()
        assert step_seconds(cloud, 10) == 20.0
        values = [step_seconds(cloud, g) for g in range(12)]
        assert values == sorted(values)

    def test_contention_capacity_divides_the_crowd(self):
        cloud = quiet_cloud(contention_capacity=2.0)
        assert step_seconds(cloud, 10) == 10.0
        assert step_seconds(cloud, 1) == 2.0

    def test_contention_is_the_formula_to_the_bit(self):
        """A rounded quotient comes out as the formula gives it, and a crowd
        below the capacity leaves the base time."""
        cloud = quiet_cloud(contention_capacity=3.0)
        start, end = step_span(cloud, 10)
        assert end == start + 2.0 * (10 / 3.0)
        # The quotient taken as a product with 1 / 3.0 ends a bit earlier.
        assert end != start + 2.0 * (10 * (1 / 3.0))
        assert step_seconds(cloud, 2) == 2.0

    def test_ageing_multiplier_applies(self):
        params = ResourceParams(
            warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.001
        )
        cloud = CloudState(params=params)
        cloud.ageing_units = 1000.0
        cloud._recompute_ageing()
        assert step_seconds(cloud, 0) == pytest.approx(4.0)

    def test_timing_document_round_trip(self):
        timing = TimingParams(default_seconds=1.0, step_seconds={"boot server": 3.0})
        config = ScenarioConfig(scenario_id="rt", timing=timing)
        assert ScenarioConfig.from_document(config.to_document()) == config

    def test_empty_overrides_survive_round_trip(self):
        config = ScenarioConfig(scenario_id="rt", timing=TimingParams(step_seconds={}))
        again = ScenarioConfig.from_document(config.to_document())
        assert again.timing.step_seconds == {}


# ── Single clean run ─────────────────────────────────────────────────────


class TestCleanRun:
    def test_success_and_full_cleanup(self):
        cloud = quiet_cloud()
        result = run_single(DEFN, cloud)
        assert result.status is WorkloadStatus.SUCCESS
        assert result.error is None
        assert result.leftovers_created == 0
        assert result.steps_executed == 29
        assert all(count == 0 for count in cloud.live.values())
        assert sum(cloud.leftovers.values()) == 0

    def test_duration_is_sum_of_base_times(self):
        cloud = quiet_cloud()
        result = run_single(DEFN, cloud)
        assert result.duration == pytest.approx(CLEAN_BASE_SECONDS)
        assert cloud.clock == pytest.approx(CLEAN_BASE_SECONDS)

    def test_result_is_a_plain_frozen_result(self):
        result = run_single(DEFN, quiet_cloud())
        twin = WorkloadResult(**result._asdict())
        assert result == twin
        assert hash(result) == hash(twin)
        assert repr(result) == repr(twin)
        assert WorkloadResult(*twin) == twin
        restored = pickle.loads(pickle.dumps(result))
        assert type(restored) is WorkloadResult
        assert restored == result
        assert restored.duration == result.duration
        with pytest.raises(AttributeError):
            result.steps_executed = 0

    def test_successful_run_ages_the_cloud(self):
        cloud = quiet_cloud()
        run_single(DEFN, cloud)
        assert cloud.ageing_units == 1.0

    def test_boot_deposits_one_cache_image(self):
        cloud = quiet_cloud()
        run_single(DEFN, cloud)
        assert cloud.cache_image_count() == 1


# ── Fault paths ──────────────────────────────────────────────────────────


def one_fault_model(step_name: str, error_name: str, seed: int = 0) -> FaultModel:
    return FaultModel({step_name: {error_name: 1.0}}, seed=seed)


class TestQuotaRejection:
    def test_rejection_unwinds_identity_entities(self):
        """A full security-group quota rejects the workload cleanly."""
        cloud = quiet_cloud()
        for _ in range(10):
            cloud.try_create(EntityKind.SECURITY_GROUP)
        result = run_single(DEFN, cloud)
        assert result.status is WorkloadStatus.NON_AGEING_FAILURE
        assert result.error == "quota-exceeded-security-group"
        assert result.failed_step == "create security group"
        assert result.steps_executed == 7
        assert result.leftovers_created == 0
        assert cloud.live[EntityKind.USER] == 0
        assert cloud.live[EntityKind.ROLE] == 0

    def test_rejected_workloads_do_not_age_or_leak(self):
        cloud = quiet_cloud()
        for _ in range(10):
            cloud.try_create(EntityKind.SECURITY_GROUP)
        before = cloud.control_memory_gb()[0]
        for _ in range(50):
            run_single(DEFN, cloud)
        assert cloud.ageing_units == 0.0
        assert cloud.control_memory_gb()[0] == before


class TestBootFault:
    def test_server_error_strands_exactly_one_server(self):
        cloud = quiet_cloud()
        result = run_single(DEFN, cloud, one_fault_model("boot server", "server-error-status"))
        assert result.status is WorkloadStatus.AGEING_FAILURE
        assert result.error == "server-error-status"
        assert result.failed_step == "boot server"
        assert result.leftover_kinds == ("server",)
        assert cloud.leftovers[EntityKind.SERVER] == 1
        assert result.steps_executed == 21
        assert all(count == 0 for count in cloud.live.values())

    def test_fresh_leftover_needs_quota_room(self):
        """An ageing error with no entity of its kind in hand strands a
        fresh one only while the kind's quota has room."""
        params = ResourceParams(warmup_noise_gb=0.0, warmup_alloc_gb=0.0)
        cloud = CloudState(params=params, quotas={EntityKind.SERVER: 1})
        assert cloud.try_create(EntityKind.SERVER) is None  # another tenant's server
        faults = one_fault_model("create user", "server-error-status")
        result = run_single(DEFN, cloud, faults)
        assert result.error == "server-error-status"
        assert result.status is WorkloadStatus.NON_AGEING_FAILURE
        assert cloud.leftovers[EntityKind.SERVER] == 0
        assert not cloud.failed

        cloud.try_delete(EntityKind.SERVER)
        result = run_single(DEFN, cloud, faults)
        assert result.status is WorkloadStatus.AGEING_FAILURE
        assert result.leftover_kinds == ("server",)
        assert cloud.failed

    def test_failed_boot_deposits_no_cache_image(self):
        cloud = quiet_cloud()
        run_single(DEFN, cloud, one_fault_model("boot server", "server-error-status"))
        assert cloud.cache_image_count() == 0

    @pytest.mark.parametrize("error", ["server-error-status", "node-unreachable"])
    def test_fault_strands_the_most_recent_entity_of_its_kind(self, error):
        """With two servers in hand, the fault strands the second; the
        unwind then deletes the first, so a fault on deleting the second
        never fires."""
        create, operate, delete = StepAction.CREATE, StepAction.OPERATE, StepAction.DELETE
        server = EntityKind.SERVER
        defn = WorkloadDefinition(
            steps=(
                StepSpec("boot a", create, creates=server),
                StepSpec("boot b", create, creates=server),
                StepSpec("rebuild", operate, operates_on=server),
                StepSpec("delete b", delete, deletes=server, undo_of="boot b"),
                StepSpec("delete a", delete, deletes=server, undo_of="boot a"),
            )
        )
        faults = FaultModel({"rebuild": {error: 1.0}, "delete b": {"node-unreachable": 1.0}})
        cloud = quiet_cloud()
        result = run_single(defn, cloud, faults)
        assert (result.error, result.leftover_kinds, result.steps_executed) == (
            error,
            ("server",),
            4,
        )
        assert cloud.leftovers[server] == 1
        assert cloud.live[server] == 0


#: For a certain fault at each step: (error to inject, expected stranded
#: kind or None, expected steps executed including the unwind).
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
    "delete security group": ("node-unreachable", EntityKind.SECURITY_GROUP, 29),
    "revoke role": ("node-unreachable", None, 29),
    "delete role": ("node-unreachable", EntityKind.ROLE, 29),
    "delete user": ("node-unreachable", EntityKind.USER, 29),
}


class TestFaultAtEveryPosition:
    @pytest.mark.parametrize("step_name", [s.name for s in DEFN.steps])
    def test_fault_outcome(self, step_name):
        """A certain fault at any position yields the expected wreckage."""
        error_name, stranded, steps = FAULT_TABLE[step_name]
        cloud = quiet_cloud()
        result = run_single(DEFN, cloud, one_fault_model(step_name, error_name))
        assert result.error == error_name
        assert result.failed_step == step_name
        assert result.steps_executed == steps
        if stranded is None:
            assert result.status is WorkloadStatus.NON_AGEING_FAILURE
            assert result.leftovers_created == 0
            assert sum(cloud.leftovers.values()) == 0
        else:
            assert result.status is WorkloadStatus.AGEING_FAILURE
            assert result.leftover_kinds == (stranded.value,)
            assert cloud.leftovers[stranded] == 1
            assert sum(cloud.leftovers.values()) == 1
        # Everything not stranded must have been cleaned up.
        assert all(count == 0 for count in cloud.live.values())

    def test_non_ageing_fault_leaves_no_trace(self):
        cloud = quiet_cloud()
        result = run_single(
            DEFN, cloud, one_fault_model("create router", "external-network-unreachable")
        )
        assert result.status is WorkloadStatus.NON_AGEING_FAILURE
        assert sum(cloud.leftovers.values()) == 0

    def test_rebuild_error_is_non_ageing(self):
        cloud = quiet_cloud()
        result = run_single(DEFN, cloud, one_fault_model("rebuild server", "rebuild-error"))
        assert result.status is WorkloadStatus.NON_AGEING_FAILURE
        assert sum(cloud.leftovers.values()) == 0
        assert all(count == 0 for count in cloud.live.values())


class TestFailedCloud:
    def test_own_leftovers_can_fail_the_cloud_mid_run(self):
        """The tenth stranded server flips the cloud to failed."""
        cloud = quiet_cloud()
        for _ in range(9):
            cloud.add_leftover(EntityKind.SERVER)
        faults = one_fault_model("boot server", "server-error-status")
        result = run_single(DEFN, cloud, faults)
        assert cloud.failed
        assert result.error == "server-error-status"
        assert result.status is WorkloadStatus.AGEING_FAILURE
        assert result.steps_executed < 29

    def test_cloud_failing_under_another_workload_cuts_it_short(self):
        """Slot 0 strands the tenth server and fails the cloud; slot 1,
        a moment behind it, is cut short at its next step with the
        cloud-unavailable error, and no slot launches again."""
        cloud = quiet_cloud()
        for _ in range(9):
            cloud.add_leftover(EntityKind.SERVER)
        faults = one_fault_model("boot server", "server-error-status")
        events = []
        results = stream_results(
            cloud,
            until=3600.0,
            concurrency=2,
            faults=faults,
            error_hook=lambda t, step, error, stranded: events.append((step, error)),
        )
        assert cloud.failed
        # Slot 1's next step comes before slot 0's ten-second boot ends.
        assert [r.error for r in results] == [CLOUD_UNAVAILABLE, "server-error-status"]
        cut = results[0]
        assert cut.status is WorkloadStatus.NON_AGEING_FAILURE
        assert cut.failed_step == "boot server"
        assert events == [
            ("boot server", "server-error-status"),
            ("boot server", CLOUD_UNAVAILABLE),
        ]
        assert cloud.clock == 3600.0

    @pytest.mark.xfail(
        strict=True,
        reason="finalize hands the last step to apply_resource_effects, so a "
        "workload cut short right after its boot deposits the boot's cache image "
        "again; mending it moves the benchmark's pinned output digests",
    )
    def test_workload_cut_short_after_its_boot_deposits_one_image(self):
        """The boot's image fills the disk and fails the cloud, and the
        workload is cut short at its next step: one boot, one image."""
        cloud = quiet_cloud(disk_capacity_gb=0.04, cache_image_gb=0.04)
        results = stream_results(cloud, until=3600.0)
        assert [(r.steps_executed, r.error) for r in results] == [(11, CLOUD_UNAVAILABLE)]
        assert cloud.cache_image_count() == 1


# ── Streaming ────────────────────────────────────────────────────────────


class TestRunStream:
    def test_hourly_throughput(self):
        """One slot completes floor(3600 / 69) clean workloads in an hour."""
        cloud = quiet_cloud()
        results = stream_results(cloud, until=3600.0, concurrency=1)
        assert len(results) == int(3600.0 // CLEAN_BASE_SECONDS)
        assert all(r.status is WorkloadStatus.SUCCESS for r in results)
        assert cloud.clock == 3600.0

    def test_in_flight_workloads_are_discarded(self):
        cloud = quiet_cloud()
        results = stream_results(cloud, until=100.0, concurrency=1)
        assert len(results) == 1
        assert results[0].ended_at == pytest.approx(CLEAN_BASE_SECONDS)

    def test_launches_are_staggered(self):
        cloud = quiet_cloud()
        results = stream_results(cloud, until=200.0, concurrency=3)
        starts = sorted(r.started_at for r in results)
        assert starts == pytest.approx([0.0, 0.001, 0.002])

    def test_total_throughput_is_roughly_capacity_invariant(self):
        """Contention slows everyone, so more slots do not mean more work."""
        totals = {}
        for c in (1, 2, 4, 8):
            cloud = quiet_cloud()
            results = stream_results(cloud, until=3600.0, concurrency=c)
            totals[c] = sum(r.status is WorkloadStatus.SUCCESS for r in results)
        assert totals[1] == int(3600.0 // CLEAN_BASE_SECONDS)
        # Eightfold concurrency buys well under half again as much work.
        assert max(totals.values()) <= 1.4 * totals[1]

    def test_contention_stretches_durations(self):
        """Workloads sharing the cloud take longer apiece, roughly with the crowd."""
        means = {}
        for c in (1, 2, 4):
            cloud = quiet_cloud()
            results = stream_results(cloud, until=3600.0, concurrency=c)
            means[c] = sum(r.duration for r in results) / len(results)
        assert means[1] == pytest.approx(CLEAN_BASE_SECONDS)
        assert CLEAN_BASE_SECONDS < means[2] <= 2 * CLEAN_BASE_SECONDS
        assert means[2] < means[4] <= 4 * CLEAN_BASE_SECONDS

    def test_overload_rejections_without_leak_or_draws(self):
        """Slots beyond the quota cycle through rejections with no side effects."""
        cloud = quiet_cloud()
        for _ in range(10):
            cloud.try_create(EntityKind.SECURITY_GROUP)
        before = cloud.control_memory_gb()[0]
        results = stream_results(cloud, until=600.0, concurrency=4)
        assert results
        assert all(r.error == "quota-exceeded-security-group" for r in results)
        assert all(r.status is WorkloadStatus.NON_AGEING_FAILURE for r in results)
        assert cloud.control_memory_gb()[0] == before
        assert cloud.ageing_units == 0.0

    def test_mixed_success_and_rejection_under_pressure(self):
        cloud = quiet_cloud()
        quotas = {EntityKind.SECURITY_GROUP: 2}
        cloud = CloudState(params=cloud.params, quotas=quotas)
        results = stream_results(cloud, until=2000.0, concurrency=6)
        statuses = {r.status for r in results}
        assert WorkloadStatus.SUCCESS in statuses
        assert any(r.error == "quota-exceeded-security-group" for r in results)

    def test_stream_on_failed_cloud_parks_silently(self):
        cloud = quiet_cloud()
        cloud.failed = True
        results = stream_results(cloud, until=600.0, concurrency=3)
        assert results == []
        assert cloud.clock == 600.0

    def test_error_hook_sees_strandings(self):
        cloud = quiet_cloud()
        seen = []
        run_stream(
            DEFN,
            cloud,
            until=300.0,
            concurrency=1,
            faults=one_fault_model("boot server", "server-error-status"),
            error_hook=lambda t, step, error, stranded: seen.append(
                (step, error, stranded)
            ),
        )
        assert seen
        assert all(item == ("boot server", "server-error-status", True) for item in seen)

    def test_tick_hook_counts_intervals(self):
        cloud = quiet_cloud()
        readings = run_stream(DEFN, cloud, until=3600.0, concurrency=1, tick_seconds=30.0)
        samples = readings["time"].tolist()
        assert all(len(values) == 120 for values in readings.values())
        assert len(samples) == 120
        assert samples[0] == 0.0
        assert samples[-1] == 3570.0

    def test_hour_hook_can_stop_the_stream(self):
        cloud = quiet_cloud()
        marks = []

        def hook(t):
            marks.append(t)
            return STOP_STREAM

        results = stream_results(cloud, until=7200.0, concurrency=1, hour_hook=hook)
        assert marks == [3600.0]
        assert cloud.clock == 3600.0
        assert all(r.ended_at <= 3600.0 for r in results)

    def test_stream_is_deterministic(self):
        def one_run():
            cloud = quiet_cloud()
            faults = FaultModel(
                {
                    "boot server": {"server-error-status": 0.1},
                    "delete network": {"node-unreachable": 0.05},
                },
                seed=42,
            )
            results = stream_results(cloud, until=2400.0, concurrency=3, faults=faults)
            return [(r.started_at, r.ended_at, r.status, r.error) for r in results]

        assert one_run() == one_run()

    def test_successive_durations_grow_with_ageing(self):
        params = ResourceParams(warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.01)
        cloud = CloudState(params=params)
        durations = [run_single(DEFN, cloud).duration for _ in range(5)]
        assert all(b > a for a, b in zip(durations, durations[1:]))
        assert durations[1] == pytest.approx(CLEAN_BASE_SECONDS * 1.01)

    def test_clock_events_fire_at_exact_multiples(self):
        """Ticks land on t0 + k*interval from a nonzero start, with an
        interval that does not divide the horizon, and hour marks on
        t0 + k*3600 for k >= 1."""
        cloud = quiet_cloud()
        t0 = 1234.5
        cloud.clock = t0
        until = t0 + 3 * 3600.0 + 100.0
        marks = []
        readings = run_stream(
            DEFN,
            cloud,
            until=until,
            concurrency=2,
            tick_seconds=7.3,
            hour_hook=marks.append,
        )
        ticks = readings["time"].tolist()
        assert ticks == list(
            itertools.takewhile(
                lambda t: t < until, (t0 + k * 7.3 for k in itertools.count())
            )
        )
        assert marks == [t0 + k * 3600.0 for k in (1, 2, 3)]

    def test_stop_at_hour_two_schedules_no_later_tick(self, monkeypatch):
        """Only the tick that lands the warm-up allocation is an event, and
        a stopped stream samples no tick past the stop."""
        pushed = []
        real_push = heapq.heappush
        real_pushpop = heapq.heappushpop

        def push(heap, item):
            pushed.append(item[3])
            real_push(heap, item)

        def pushpop(heap, item):
            pushed.append(item[3])
            return real_pushpop(heap, item)

        monkeypatch.setattr(heapq, "heappush", push)
        monkeypatch.setattr(heapq, "heappushpop", pushpop)
        cloud = quiet_cloud()
        marks = []

        def hour_hook(t):
            marks.append(t)
            return STOP_STREAM if len(marks) == 2 else None

        readings = run_stream(
            DEFN,
            cloud,
            until=10 * 86400.0,
            concurrency=1,
            tick_seconds=30.0,
            hour_hook=hour_hook,
        )
        assert marks == [3600.0, 7200.0]
        assert cloud.clock == 7200.0
        # The tick at the stop mark itself is sampled: ticks precede hour marks.
        assert readings["time"].tolist() == [k * 30.0 for k in range(241)]
        assert pushed.count("tick") == 1
        assert pushed.count("hour") == 2

    def test_events_at_one_instant_run_work_then_tick_then_hour(self):
        """With every step as long as the sampling interval, steps, workload
        ends, ticks and hour marks share instants.  At each instant the
        workload event runs first (the tick then sees the cache image of a
        boot executed at that instant, and the leak of a workload ended at
        it), then the tick, then the hour mark."""
        cloud = quiet_cloud()
        log = []

        def hour_hook(t):
            log.append((t, "hour", cloud.cache_image_count()))

        readings = run_stream(
            DEFN,
            cloud,
            until=7300.0,
            concurrency=1,
            timing=TimingParams(default_seconds=10.0, step_seconds={}),
            tick_seconds=10.0,
            hour_hook=hour_hook,
            result_hook=lambda r: log.append((r.ended_at, "result", None)),
        )
        # A workload is 29 steps of 10 s; its boot, the 11th step, runs at
        # 100 s past its launch, and the next launch is at its end.
        workload_seconds = 29 * 10.0
        rank = {"result": 0, "hour": 2}
        assert log == sorted(log, key=lambda entry: (entry[0], rank[entry[1]]))
        columns = {name: values.tolist() for name, values in readings.items()}
        disks = zip(columns["disk-used-compute-1"], columns["disk-used-compute-2"])
        image_gb = cloud.params.cache_image_gb
        ticks = [(t, round((a + b) / image_gb)) for t, (a, b) in zip(columns["time"], disks)]
        assert ticks[:12] == [(10.0 * k, int(k >= 10)) for k in range(12)]
        for t, images in ticks:
            assert images == sum(
                1 for k in range(int(t // workload_seconds) + 1)
                if k * workload_seconds + 100.0 <= t
            )
        results = [t for t, kind, _ in log if kind == "result"]
        assert results == [workload_seconds * k for k in range(1, len(results) + 1)]
        # Memory falls only by each finished workload's leak, and the tick
        # at the instant a workload ends already reads it.
        memory = columns["memory-available"]
        drops = [t for t, a, b in zip(columns["time"][1:], memory, memory[1:]) if b < a]
        assert drops == results
        hours = [(t, images) for t, kind, images in log if kind == "hour"]
        assert [t for t, _ in hours] == [3600.0, 7200.0]
        for t, images in hours:
            assert (t, images) in ticks

    def test_heap_holds_at_most_one_event_per_slot_and_clock(self, monkeypatch):
        """Each slot, the tick and the hour mark keep at most one event
        queued, so the heap never holds more than concurrency + 2."""
        sizes = []
        real_push = heapq.heappush
        real_pushpop = heapq.heappushpop

        def push(heap, item):
            real_push(heap, item)
            sizes.append(len(heap))

        def pushpop(heap, item):
            sizes.append(len(heap) + 1)
            return real_pushpop(heap, item)

        monkeypatch.setattr(heapq, "heappush", push)
        monkeypatch.setattr(heapq, "heappushpop", pushpop)
        concurrency = 6
        cloud = quiet_cloud()
        results = stream_results(
            cloud,
            until=3 * 3600.0,
            concurrency=concurrency,
            faults=FaultModel({"boot server": {"server-error-status": 0.2}}, seed=1),
            tick_seconds=7.0,
            hour_hook=lambda t: None,
        )
        # Stranded servers fill their quota, so the slots end up parked.
        assert results and cloud.failed
        assert max(sizes) == concurrency + 2

    @pytest.mark.parametrize(
        ("start", "workloads", "steps", "ties"),
        [
            (0.0, 390, 5275, 0),
            # At 2**44 s the 0.001 s launch stagger rounds away, so slots
            # finish at shared instants.
            (2.0**44, 376, 5190, 171),
        ],
    )
    def test_a_finished_workload_hands_its_slot_on_in_one_event(
        self, monkeypatch, start, workloads, steps, ties
    ):
        """A finish runs its slot's next launch in place: after the initial
        stagger a launch is queued only behind a work event waiting at its
        instant.  The heap traffic of a saturated two-hour stream is pinned
        by kind, so one more event per workload fails here."""
        ops = collections.Counter()
        tied = []
        real_push, real_pushpop, real_pop = heapq.heappush, heapq.heappushpop, heapq.heappop

        def push(heap, item):
            ops["push", item[3]] += 1
            real_push(heap, item)

        def pushpop(heap, item):
            ops["pushpop", item[3]] += 1
            if item[3] == "launch":
                tied.append(heap[0][:2] == (item[0], 0))
            return real_pushpop(heap, item)

        def pop(heap):
            item = real_pop(heap)
            ops["pop", item[3]] += 1
            return item

        monkeypatch.setattr(heapq, "heappush", push)
        monkeypatch.setattr(heapq, "heappushpop", pushpop)
        monkeypatch.setattr(heapq, "heappop", pop)
        cloud = quiet_cloud()
        cloud.clock = start
        results = stream_results(
            cloud, until=start + 2 * 3600.0, concurrency=16, hour_hook=lambda t: None
        )
        # The security-group quota turns most workloads away.
        rejected = sum(r.error == "quota-exceeded-security-group" for r in results)
        assert rejected > len(results) / 2
        # The 16 staggered launches are the only ones pushed with heappush;
        # every later one queues behind a work event at its own instant.
        assert tied == [True] * ties
        assert len(results) == workloads
        assert ops == collections.Counter({
            ("push", "launch"): 16,
            ("push", "hour"): 1,
            ("pop", "launch"): 1,
            ("pop", "step"): 1,
            ("pushpop", "step"): steps,
            ("pushpop", "finish"): workloads,
            ("pushpop", "launch"): ties,
        })

    def test_capacity_recount_runs_only_on_ledger_mutations(self, monkeypatch):
        """Over a no-fault scenario the from-scratch capacity recount runs
        at construction and rejuvenation, and the disk recount also at
        the hourly cache cleanup; neither runs per step."""
        recounts = {"capacity": 0, "disk": 0}
        real_capacity = CloudState._recount_capacity
        real_disk = CloudState._recount_disk_full

        def recount_capacity(state):
            recounts["capacity"] += 1
            real_capacity(state)

        def recount_disk(state):
            recounts["disk"] += 1
            real_disk(state)

        monkeypatch.setattr(CloudState, "_recount_capacity", recount_capacity)
        monkeypatch.setattr(CloudState, "_recount_disk_full", recount_disk)
        config = ScenarioConfig(
            scenario_id="counts", concurrency=4, stress_hours=2, seed=3
        )
        report = run_scenario(config)
        assert sum(report.totals.values()) > 100
        assert recounts["capacity"] == 2
        hours = config.stress_hours + config.post_rejuvenation_hours
        assert recounts["disk"] <= 2 + hours

    def test_zero_length_stream(self):
        cloud = quiet_cloud()
        assert stream_results(cloud, until=0.0, concurrency=2) == []
        assert cloud.clock == 0.0

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ConfigError):
            run_stream(DEFN, quiet_cloud(), until=10.0, concurrency=0)

    def test_concurrency_past_the_bound_rejected_before_any_launch(self, monkeypatch):
        def push(heap, item):
            raise AssertionError(f"pushed {item[3]} past the concurrency bound")

        monkeypatch.setattr(heapq, "heappush", push)
        with pytest.raises(ConfigError, match="concurrency must lie in"):
            run_stream(DEFN, quiet_cloud(), until=10.0, concurrency=MAX_CONCURRENCY + 1)

    @pytest.mark.parametrize("tick_seconds", [0.0, -30.0, math.inf, math.nan])
    def test_tick_interval_must_be_positive_and_finite(self, tick_seconds):
        """A negative interval would tick backwards forever, and zero,
        infinity or NaN schedule no sensible tick."""
        cloud = quiet_cloud()
        with pytest.raises(ConfigError, match="tick_seconds"):
            run_stream(DEFN, cloud, until=3600.0, tick_seconds=tick_seconds)
        assert cloud.clock == 0.0
        assert cloud._journal is None

    def test_a_step_below_the_clock_resolution_is_refused(self):
        """From 2**55 s on the clock resolves 8 s, so a 2 s step would leave
        ``t + duration == t`` and the clock would never reach the
        deadline: the stream is refused before its first event.  Steps as
        long as the resolution run."""
        cloud = quiet_cloud()
        t0 = cloud.clock = 2.0**55
        with pytest.raises(ConfigError, match="cannot advance a clock"):
            run_stream(DEFN, cloud, until=t0 + 3600.0, tick_seconds=30.0)
        assert cloud.clock == t0
        assert cloud._journal is None
        timing = TimingParams(default_seconds=8.0, step_seconds={})
        results = stream_results(cloud, until=t0 + 3600.0, timing=timing)
        assert [r.ended_at - r.started_at for r in results] == [29 * 8.0] * 15

    def test_a_deadline_before_the_clock_is_refused(self):
        cloud = quiet_cloud()
        cloud.clock = 7200.0
        with pytest.raises(ConfigError, match="stream deadline precedes the cloud clock"):
            run_stream(DEFN, cloud, until=3600.0, tick_seconds=30.0)
        assert cloud.clock == 7200.0
        assert cloud._journal is None

    @pytest.mark.parametrize("until", [math.inf, -math.inf, math.nan])
    def test_deadline_must_be_finite(self, until):
        """A NaN deadline would leave the cloud's clock at NaN, and an
        infinite one moves it to infinity once the stream parks."""
        cloud = quiet_cloud()
        with pytest.raises(ConfigError, match="deadline"):
            run_stream(DEFN, cloud, until=until)
        assert cloud.clock == 0.0
