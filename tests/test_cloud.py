"""Tests for the cloud ledger, fault model, resource gauges and rejuvenation."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agesim.cloud import (
    DEFAULT_QUOTAS,
    OVERLOAD_INDICATOR_ERRORS,
    AgeingRule,
    CloudState,
    EntityKind,
    ErrorSpec,
    FaultModel,
    IntervalElapsed,
    QuotaExceeded,
    ResourceParams,
    Topology,
    WorkloadStepCompleted,
    apply_resource_effects,
    cache_cleanup,
    check_failed,
    quota_error_name,
    rejuvenate,
)
from agesim.errors import ConfigError, LedgerUnderflowError
from agesim.seeding import stream


def quiet_params(**overrides):
    """Params with warm-up effects disabled so gauges are easy to predict."""
    defaults = dict(warmup_noise_gb=0.0, warmup_alloc_gb=0.0)
    defaults.update(overrides)
    return ResourceParams(**defaults)


# ── Capacity ─────────────────────────────────────────────────────────────


class TestCapacity:
    def test_fresh_cloud(self):
        """With default quotas of 10 and no leftovers, capacity is 10."""
        assert CloudState().capacity() == 10

    def test_three_server_leftovers(self):
        """Three stranded servers cut capacity to 7."""
        state = CloudState()
        for _ in range(3):
            state.add_leftover(EntityKind.SERVER)
        assert state.capacity() == 7

    def test_servers_and_routers(self):
        """Adding four stranded routers to three servers cuts capacity to 6."""
        state = CloudState()
        for _ in range(3):
            state.add_leftover(EntityKind.SERVER)
        for _ in range(4):
            state.add_leftover(EntityKind.ROUTER)
        assert state.capacity() == 6

    def test_floor_at_zero(self):
        state = CloudState(quotas={EntityKind.VOLUME: 2})
        for _ in range(2):
            state.add_leftover(EntityKind.VOLUME)
        assert state.capacity() == 0

    def test_monotone_in_leftovers(self):
        """Capacity never increases as leftovers accumulate."""
        state = CloudState()
        previous = state.capacity()
        for kind in (EntityKind.SERVER, EntityKind.VOLUME, EntityKind.ROUTER) * 4:
            state.add_leftover(kind)
            now = state.capacity()
            assert now <= previous
            previous = now

    def test_live_entities_do_not_reduce_capacity(self):
        """Capacity counts leftovers only; live entities are healthy."""
        state = CloudState()
        for _ in range(5):
            assert state.try_create(EntityKind.SERVER) is None
        assert state.capacity() == 10


# ── Create and delete ────────────────────────────────────────────────────


class TestLedger:
    def test_quota_rejection_at_limit(self):
        """The 11th security group is rejected under a quota of 10."""
        state = CloudState()
        for _ in range(10):
            assert state.try_create(EntityKind.SECURITY_GROUP) is None
        outcome = state.try_create(EntityKind.SECURITY_GROUP)
        assert isinstance(outcome, QuotaExceeded)
        assert outcome.kind is EntityKind.SECURITY_GROUP
        assert outcome.error_name == "quota-exceeded-security-group"

    def test_unlimited_kinds_always_create(self):
        state = CloudState()
        for _ in range(200):
            assert state.try_create(EntityKind.NETWORK) is None

    def test_leftovers_count_against_quota(self):
        """Nine leftovers plus one live server fill the server quota."""
        state = CloudState()
        for _ in range(9):
            state.add_leftover(EntityKind.SERVER)
        assert state.try_create(EntityKind.SERVER) is None
        assert isinstance(state.try_create(EntityKind.SERVER), QuotaExceeded)

    def test_delete_decrements(self):
        state = CloudState()
        state.try_create(EntityKind.VOLUME)
        state.try_delete(EntityKind.VOLUME)
        assert state.live[EntityKind.VOLUME] == 0

    def test_delete_underflow(self):
        with pytest.raises(LedgerUnderflowError):
            CloudState().try_delete(EntityKind.VOLUME)

    def test_delete_does_not_touch_leftovers(self):
        """Leftovers are not deletable through the live ledger."""
        state = CloudState()
        state.add_leftover(EntityKind.VOLUME)
        with pytest.raises(LedgerUnderflowError):
            state.try_delete(EntityKind.VOLUME)
        assert state.leftovers[EntityKind.VOLUME] == 1

    def test_occupancy_never_exceeds_quota(self):
        state = CloudState()
        for _ in range(4):
            state.add_leftover(EntityKind.SERVER)
        created = 0
        while state.try_create(EntityKind.SERVER) is None:
            created += 1
        total = state.live[EntityKind.SERVER] + state.leftovers[EntityKind.SERVER]
        assert created == 6
        assert total == DEFAULT_QUOTAS[EntityKind.SERVER]

    def test_quota_must_be_positive(self):
        with pytest.raises(ConfigError):
            CloudState(quotas={EntityKind.SERVER: 0})


# ── Fault model ──────────────────────────────────────────────────────────


class TestFaultModel:
    def test_zero_probability_never_fires(self):
        model = FaultModel({"boot server": {"server-error-status": 0.0}}, seed=1)
        assert all(model.draw("boot server") is None for _ in range(500))

    def test_certain_fault_fires(self):
        """Probability 1 at boot server yields the server-error entry."""
        model = FaultModel({"boot server": {"server-error-status": 1.0}}, seed=1)
        spec = model.draw("boot server")
        assert spec is not None
        assert spec.name == "server-error-status"
        assert spec.rule is AgeingRule.AGEING
        assert spec.leftover_kind is EntityKind.SERVER

    def test_unconfigured_step_draws_nothing(self):
        model = FaultModel({"boot server": {"server-error-status": 0.5}}, seed=1)
        assert model.draw("create user") is None

    def test_only_steps_with_probabilities_consume_draws(self):
        """``_per_step`` holds exactly the steps with a nonzero probability;
        a draw for any other name, known to a workload or not, returns
        None and leaves the stream where it was."""
        probs = {
            "boot server": {"server-error-status": 0.5},
            "create user": {"rebuild-error": 0.0},
        }
        model = FaultModel(probs, seed=1)
        twin = FaultModel(probs, seed=1)
        assert set(model._per_step) == {"boot server"}
        for name in ("create user", "delete user", "launch rocket"):
            assert model.draw(name) is None
        seq = [getattr(model.draw("boot server"), "name", None) for _ in range(50)]
        assert seq == [getattr(twin.draw("boot server"), "name", None) for _ in range(50)]

    def test_step_names_are_left_to_the_workload(self):
        """The model checks error names and probabilities, not step names:
        the engine checks those against the definition it runs."""
        model = FaultModel({"launch rocket": {"server-error-status": 1.0}}, seed=1)
        assert model.draw("launch rocket").name == "server-error-status"

    def test_unknown_error_rejected(self):
        with pytest.raises(ConfigError):
            FaultModel({"boot server": {"mystery": 0.5}})

    def test_per_step_probabilities_capped(self):
        with pytest.raises(ConfigError):
            FaultModel(
                {"boot server": {"server-error-status": 0.7, "node-unreachable": 0.5}}
            )

    def test_same_seed_same_sequence(self):
        """Two models with one seed produce the identical error sequence."""
        probs = {"boot server": {"server-error-status": 0.3, "node-unreachable": 0.2}}
        a = FaultModel(probs, seed=77)
        b = FaultModel(probs, seed=77)
        seq_a = [getattr(a.draw("boot server"), "name", None) for _ in range(300)]
        seq_b = [getattr(b.draw("boot server"), "name", None) for _ in range(300)]
        assert seq_a == seq_b
        assert any(seq_a)

    def test_empirical_rate_roughly_matches(self):
        model = FaultModel({"boot server": {"server-error-status": 0.25}}, seed=5)
        hits = sum(model.draw("boot server") is not None for _ in range(4000))
        assert 0.20 < hits / 4000 < 0.30

    def test_an_ageing_error_needs_a_leftover_kind(self):
        message = "error 'disk-jam': ageing errors need a leftover kind"
        with pytest.raises(ConfigError, match=message):
            ErrorSpec("disk-jam", AgeingRule.AGEING)

    def test_an_unknown_stream_is_refused(self):
        with pytest.raises(ValueError, match="unknown random stream: 'fault'"):
            stream(0, "fault")

    def test_custom_catalog_entry(self):
        extra = ErrorSpec("disk-jam", AgeingRule.AGEING, EntityKind.VOLUME)
        model = FaultModel(
            {"create volume": {"disk-jam": 1.0}}, catalog={"disk-jam": extra}, seed=2
        )
        assert model.draw("create volume").name == "disk-jam"

    def test_overload_indicator_names(self):
        assert quota_error_name(EntityKind.SECURITY_GROUP) in OVERLOAD_INDICATOR_ERRORS
        assert quota_error_name(EntityKind.SERVER) not in OVERLOAD_INDICATOR_ERRORS


# ── Resource effects ─────────────────────────────────────────────────────


class TestResourceEffects:
    def test_cache_deposit_accumulation(self):
        """1123 boot completions at 0.040 GB each fill ~44.92 GB of cache."""
        state = CloudState(topology=Topology.named("all-in-one"), params=quiet_params())
        for _ in range(1123):
            apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        assert state.cache_image_count() == 1123
        assert abs(state.cache_disk_usage_gb() - 44.92) < 0.001
        assert abs(state.disk_used_gb("all-in-one") - 44.92) < 0.001

    def test_cache_spreads_over_compute_nodes(self):
        """Multi-node deposits alternate across the compute nodes."""
        state = CloudState(params=quiet_params())
        for _ in range(10):
            apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        assert state.disk_used_gb("compute-1") == pytest.approx(0.2)
        assert state.disk_used_gb("compute-2") == pytest.approx(0.2)
        assert state.disk_used_gb("control") == 0.0

    def test_linear_leak_accounting(self):
        """100 finished workloads at 0.001 GB leak cost exactly 0.1 GB."""
        params = quiet_params(initial_memory_gb=8.0, leak_per_workload_gb=0.001)
        state = CloudState(params=params)
        before = state.memory_available_gb()
        for _ in range(100):
            apply_resource_effects(
                state,
                WorkloadStepCompleted(
                    "delete user", workload_finished=True, did_real_work=True
                ),
            )
        assert before - state.memory_available_gb() == pytest.approx(0.1)
        assert state.swap_used_gb() == 0.0

    def test_idle_workloads_do_not_leak(self):
        """Workloads that created nothing leave the gauges untouched."""
        state = CloudState(params=quiet_params())
        apply_resource_effects(
            state,
            WorkloadStepCompleted("delete user", workload_finished=True),
        )
        assert state.memory_available_gb() == state.params.initial_memory_gb
        assert state.ageing_units == 0.0

    def test_warmup_noise_only_in_first_hour(self):
        """Readings carry seeded noise during hour 0 and not afterwards;
        the live reading keeps the last one's."""
        params = ResourceParams(warmup_noise_gb=0.3, warmup_alloc_gb=0.0)
        state = CloudState(params=params, seed=11)
        times = np.array([100.0, 3599.0, 3600.0, 7200.0])
        memory = state._readings(times, state._new_journal())["memory-available"]
        draws = stream(11, "noise").uniform(-0.3, 0.3, size=2)
        assert memory.tolist() == (params.initial_memory_gb + draws).tolist() + [1.5, 1.5]
        assert state.memory_available_gb() == params.initial_memory_gb

        memory = state._readings(times[:2], state._new_journal())["memory-available"]
        assert memory[1] != params.initial_memory_gb
        assert state.memory_available_gb() == memory[1]

    def test_warmup_allocation_applied_once(self):
        """The first tick in the window lands the allocation; the readings
        of every tick show it, and with no noise nothing is drawn."""
        params = ResourceParams(warmup_noise_gb=0.0, warmup_alloc_gb=0.25)
        state = CloudState(params=params, seed=12)
        journal = state._journal = state._new_journal()
        for clock in (0.0, 30.0, 60.0):
            state.clock = clock
            assert apply_resource_effects(state, IntervalElapsed()) is None
        state._journal = None
        readings = state._readings(np.array([0.0, 30.0, 60.0]), journal)
        assert readings["memory-available"].tolist() == [params.initial_memory_gb - 0.25] * 3
        assert state.memory_available_gb() == params.initial_memory_gb - 0.25
        assert state._noise_rng.random() == stream(12, "noise").random()

    def test_swap_grows_below_threshold(self):
        """Once raw available memory sinks under the threshold, swap holds the overflow."""
        params = quiet_params(
            initial_memory_gb=2.0, swap_threshold_gb=1.0, leak_per_workload_gb=0.5
        )
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        apply_resource_effects(state, finish)  # consumed 0.5, raw 1.5
        assert state.swap_used_gb() == 0.0
        apply_resource_effects(state, finish)  # consumed 1.0, raw 1.0
        assert state.swap_used_gb() == 0.0
        apply_resource_effects(state, finish)  # consumed 1.5, raw 0.5
        assert state.swap_used_gb() == pytest.approx(0.5)
        assert state.memory_available_gb() == pytest.approx(0.5)

    def test_memory_never_negative(self):
        params = quiet_params(initial_memory_gb=1.0, leak_per_workload_gb=1.0)
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        for _ in range(5):
            apply_resource_effects(state, finish)
        assert state.memory_available_gb() == 0.0

    def test_leftover_retention_charges_memory(self):
        params = quiet_params(leftover_retention_gb=0.01)
        state = CloudState(params=params)
        for _ in range(5):
            state.add_leftover(EntityKind.SERVER)
        drop = params.initial_memory_gb - state.memory_available_gb()
        assert drop == pytest.approx(0.05)


@pytest.mark.parametrize("seed", [0, 1, 11, 2**16, 123_456_789])
@pytest.mark.parametrize("amplitude", [0.3, 0.1, 1e-9, 5.0])
def test_a_block_of_noise_draws_equals_scalar_draws(seed, amplitude):
    """The readings draw a stream's warm-up noise as one block, where a
    reading at every tick would draw it one value at a time: on the
    installed numpy the two give the same bits, in the same order, and
    leave the noise stream at the same place.  A numpy release that
    breaks this changes every reading in a warm-up window."""
    scalar, block = stream(seed, "noise"), stream(seed, "noise")
    one_by_one = [scalar.uniform(-amplitude, amplitude) for _ in range(1000)]
    at_once = block.uniform(-amplitude, amplitude, size=1000)
    assert np.array(one_by_one).tobytes() == at_once.tobytes()
    assert scalar.random(8).tobytes() == block.random(8).tobytes()


# ── Cache cleanup ────────────────────────────────────────────────────────


class TestCacheCleanup:
    def test_young_images_survive(self):
        state = CloudState(params=quiet_params())
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        state.clock = 3600.0
        assert cache_cleanup(state) == 0.0
        assert state.cache_image_count() == 1

    def test_expired_image_removed(self):
        """An image a full day old is reclaimed."""
        state = CloudState(params=quiet_params())
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        state.clock = 25 * 3600.0
        freed = cache_cleanup(state)
        assert freed == pytest.approx(0.040)
        assert state.cache_image_count() == 0
        assert state.cache_disk_usage_gb() == 0.0

    def test_empty_cache_is_a_noop(self):
        state = CloudState()
        assert cache_cleanup(state) == 0.0

    def test_only_old_prefix_removed(self):
        state = CloudState(topology=Topology.named("all-in-one"), params=quiet_params())
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        state.clock = 10 * 3600.0
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        state.clock = 25 * 3600.0
        assert cache_cleanup(state) == pytest.approx(0.040)
        assert state.cache_image_count() == 1

    def test_negative_max_age_rejected(self):
        """A negative age limit would empty the cache at every cleanup."""
        with pytest.raises(ConfigError, match="cache_max_age_seconds must not be negative"):
            ResourceParams(cache_max_age_seconds=-1.0)
        assert ResourceParams(cache_max_age_seconds=0.0).cache_max_age_seconds == 0.0


# ── Failure predicate ────────────────────────────────────────────────────


class TestCheckFailed:
    def test_fresh_cloud_is_healthy(self):
        state = CloudState()
        assert check_failed(state) is False
        assert state.failed_at is None

    def test_capacity_zero_fails(self):
        """Ten stranded servers exhaust the quota and fail the cloud."""
        state = CloudState()
        for _ in range(10):
            state.add_leftover(EntityKind.SERVER)
        state.clock = 123.0
        assert check_failed(state) is True
        assert state.failed
        assert state.failed_at == 123.0

    def test_disk_full_fails(self):
        params = quiet_params(disk_capacity_gb=0.1, cache_image_gb=0.05)
        state = CloudState(topology=Topology.named("all-in-one"), params=params)
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        assert check_failed(state) is False
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        assert check_failed(state) is True

    def test_memory_and_swap_exhaustion_fails(self):
        params = quiet_params(
            initial_memory_gb=1.5,
            swap_threshold_gb=1.0,
            swap_capacity_gb=2.0,
            leak_per_workload_gb=0.5,
        )
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        for _ in range(4):  # consumed 2.0; raw -0.5; swap 1.5 < 2.0
            apply_resource_effects(state, finish)
        assert check_failed(state) is False
        apply_resource_effects(state, finish)  # consumed 2.5; swap capped at 2.0
        assert check_failed(state) is True

    def test_failed_at_latches_first_occurrence(self):
        state = CloudState()
        for _ in range(10):
            state.add_leftover(EntityKind.SERVER)
        state.clock = 50.0
        check_failed(state)
        state.clock = 90.0
        check_failed(state)
        assert state.failed_at == 50.0


# ── Rejuvenation ─────────────────────────────────────────────────────────


class TestRejuvenate:
    def test_negative_duration_rejected(self):
        """A negative rejuvenation would move the cloud clock backwards."""
        with pytest.raises(ConfigError, match="rejuvenation_seconds must not be negative"):
            ResourceParams(rejuvenation_seconds=-7200.0)
        assert ResourceParams(rejuvenation_seconds=0.0).rejuvenation_seconds == 0.0

    def test_capacity_restored(self):
        """Clearing four router leftovers restores capacity to 10."""
        state = CloudState(params=quiet_params())
        for _ in range(4):
            state.add_leftover(EntityKind.ROUTER)
        assert state.capacity() == 6
        rejuvenate(state)
        assert state.capacity() == 10
        assert state.total_leftovers() == 0

    def test_swap_reset(self):
        params = quiet_params(initial_memory_gb=2.0, leak_per_workload_gb=1.5)
        state = CloudState(params=params)
        apply_resource_effects(
            state, WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        )
        assert state.swap_used_gb() > 0.0
        rejuvenate(state)
        assert state.swap_used_gb() == 0.0

    def test_memory_restored_without_retention(self):
        params = quiet_params(leak_per_workload_gb=0.2, retention_fraction=0.0)
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        for _ in range(3):
            apply_resource_effects(state, finish)
        rejuvenate(state)
        assert state.memory_available_gb() == params.initial_memory_gb

    def test_retention_fraction_leaves_residual(self):
        params = quiet_params(leak_per_workload_gb=0.2, retention_fraction=0.5)
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        for _ in range(3):
            apply_resource_effects(state, finish)  # consumed 0.6
        rejuvenate(state)
        assert state.memory_available_gb() == pytest.approx(
            params.initial_memory_gb - 0.3
        )

    def test_clock_advances_and_cache_clears(self):
        state = CloudState(params=quiet_params())
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        state.clock = 1000.0
        rejuvenate(state)
        assert state.clock == 1000.0 + state.params.rejuvenation_seconds
        assert state.cache_image_count() == 0
        assert state.rejuvenation_count == 1

    def test_failed_flag_cleared(self):
        state = CloudState()
        for _ in range(10):
            state.add_leftover(EntityKind.SERVER)
        check_failed(state)
        rejuvenate(state)
        assert state.failed is False
        assert check_failed(state) is False

    def test_a_redeploy_without_retention_is_a_fresh_cloud(self):
        """Without retention a rejuvenated cloud equals a new one in all
        but what a redeploy carries over, and its warm-up window opens
        as the redeploy ends."""
        params = quiet_params(leak_per_workload_gb=0.2, ageing_rate=0.01)
        state = CloudState(params=params)
        state.try_create(EntityKind.PORT)
        state.add_leftover(EntityKind.SERVER)
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
        apply_resource_effects(
            state, WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        )
        apply_resource_effects(state, IntervalElapsed())
        state._noise_gb = 0.1
        state.clock = 500.0
        check_failed(state)
        rejuvenate(state)
        carried = {"clock", "failed_at", "rejuvenation_count", "_next_compute", "_noise_rng"}

        def deployed(cloud):
            fields = {k: v for k, v in vars(cloud).items() if k not in carried}
            fields["_warmup_start"] -= cloud.clock
            return fields

        assert deployed(state) == deployed(CloudState(params=params))
        assert state._next_compute == 1

    def test_ageing_units_scaled_by_retention(self):
        params = quiet_params(ageing_rate=0.001, retention_fraction=0.0)
        state = CloudState(params=params)
        finish = WorkloadStepCompleted("x", workload_finished=True, did_real_work=True)
        for _ in range(10):
            apply_resource_effects(state, finish)
        assert state.ageing_multiplier == pytest.approx(1.01)
        rejuvenate(state)
        assert state.ageing_multiplier == 1.0


# ── Cached predicate state, as a property ────────────────────────────────


def capacity_from_scratch(state):
    leftovers = state.leftovers
    return max(0, min(quota - leftovers[kind] for kind, quota in state.quotas.items()))


def predicate_from_scratch(state):
    """The failure predicate recomputed from the ledgers and gauges."""
    params = state.params
    available = max(0.0, state._raw_available_gb())
    headroom = params.swap_capacity_gb - state.swap_used_gb()
    return (
        capacity_from_scratch(state) == 0
        or any(
            state.disk_used_gb(node) >= params.disk_capacity_gb
            for node in state.topology.nodes
        )
        or available + headroom <= 0.0
    )


KINDS = tuple(EntityKind)

#: Quota-limited kinds drawn as often as all kinds together.
kinds = st.one_of(st.sampled_from(tuple(DEFAULT_QUOTAS)), st.sampled_from(KINDS))

small = st.floats(min_value=0.0, max_value=0.5)

clouds = st.builds(
    CloudState,
    topology=st.sampled_from([Topology.named("all-in-one"), Topology.named("multi-node")]),
    params=st.builds(
        ResourceParams,
        initial_memory_gb=st.floats(min_value=0.1, max_value=2.0),
        swap_threshold_gb=st.floats(min_value=0.0, max_value=1.0),
        swap_capacity_gb=st.floats(min_value=0.0, max_value=1.0),
        leak_per_workload_gb=small,
        leftover_retention_gb=small,
        warmup_noise_gb=small,
        warmup_alloc_gb=small,
        warmup_after_rejuvenation=st.booleans(),
        cache_image_gb=st.floats(min_value=0.0, max_value=0.1),
        cache_max_age_seconds=st.floats(min_value=0.0, max_value=3600.0),
        disk_capacity_gb=st.floats(min_value=0.01, max_value=0.2),
        retention_fraction=st.floats(min_value=0.0, max_value=1.0),
    ),
    # Quotas small enough for leftovers to exhaust them, on the default
    # quota-limited kinds and on up to two more.
    quotas=st.builds(
        lambda defaults, extra: {**extra, **defaults},
        st.fixed_dictionaries(
            {kind: st.integers(min_value=1, max_value=3) for kind in DEFAULT_QUOTAS}
        ),
        st.dictionaries(
            st.sampled_from(KINDS), st.integers(min_value=1, max_value=3), max_size=2
        ),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("leftover"), kinds, st.booleans()),
        st.tuples(st.just("create"), kinds),
        st.tuples(st.just("delete"), kinds),
        st.just(("boot",)),
        st.just(("leak",)),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=1800.0)),
        st.tuples(st.just("cleanup"), st.floats(min_value=0.0, max_value=7200.0)),
        st.just(("rejuvenate",)),
    ),
    max_size=60,
)


def apply_operation(state, op):
    name = op[0]
    if name == "leftover":
        _, kind, from_live = op
        if from_live and state.live[kind] == 0:
            with pytest.raises(LedgerUnderflowError):
                state.add_leftover(kind, from_live=True)
        else:
            state.add_leftover(kind, from_live=from_live)
    elif name == "create":
        state.try_create(op[1])
    elif name == "delete":
        if state.live[op[1]] == 0:
            with pytest.raises(LedgerUnderflowError):
                state.try_delete(op[1])
        else:
            state.try_delete(op[1])
    elif name == "boot":
        apply_resource_effects(state, WorkloadStepCompleted("boot server"))
    elif name == "leak":
        apply_resource_effects(
            state,
            WorkloadStepCompleted("delete user", workload_finished=True, did_real_work=True),
        )
    elif name == "tick":
        state.clock += op[1]
        apply_resource_effects(state, IntervalElapsed())
    elif name == "cleanup":
        state.clock += op[1]
        cache_cleanup(state)
    else:
        rejuvenate(state)


@settings(max_examples=300)
@given(state=clouds, ops=operations)
def test_cached_predicate_matches_recomputation(state, ops):
    """After any sequence of ledger, gauge and clock operations, the cached
    capacity and failure predicate agree with a from-scratch recount, an
    operation that leaves ``failure_inputs_changed`` clear leaves the
    predicate's answer unchanged, and the ledgers stay within their
    bounds."""
    assert state.capacity() == capacity_from_scratch(state)
    for op in ops:
        leftovers_before = dict(state.leftovers)
        failed_at_before = state.failed_at
        apply_operation(state, op)

        if not state.failure_inputs_changed:
            # Nothing the predicate reads changed since it was last
            # evaluated, so the engine may skip evaluating it.
            polled = copy.deepcopy(state)
            check_failed(polled)
            assert (polled.failed, polled.failed_at) == (state.failed, state.failed_at)
        assert state.capacity() == capacity_from_scratch(state)
        # The predicate as it stands now, on a copy whose latch is open.
        probe = copy.copy(state)
        probe.failed = False
        assert check_failed(probe) is predicate_from_scratch(state)
        # The latched predicate the engine sees.
        expected = state.failed or predicate_from_scratch(state)
        assert check_failed(state) is expected
        if expected and failed_at_before is None:
            assert state.failed_at == state.clock

        for kind in EntityKind:
            assert state.live[kind] >= 0
            assert state.leftovers[kind] >= 0
            if op[0] != "rejuvenate":
                assert state.leftovers[kind] >= leftovers_before[kind]
            quota = state.quotas.get(kind)
            if quota is not None:
                assert state.live[kind] + state.leftovers[kind] <= quota


def gauges_from_scratch(state, node):
    """Memory available, swap used and disk used on ``node``, recomputed
    from the memory terms and the cache-image ledger."""
    params = state.params
    disk = sum(size for _, size, where in state._cache if where == node)
    if node != state.topology.control_node:
        return params.initial_memory_gb, 0.0, disk
    raw = params.initial_memory_gb - state._host_residual_gb - state._consumed_gb
    memory = max(0.0, raw + state._noise_gb)
    swap = min(max(0.0, params.swap_threshold_gb - raw), params.swap_capacity_gb)
    return memory, swap, disk


@settings(max_examples=200)
@given(state=clouds, ops=operations)
def test_gauge_accessors_match_a_recomputation(state, ops):
    """After any sequence of leaks, leftovers, warm-up allocations, cache
    deposits, cleanups and rejuvenations (host residual), on either
    topology and whether swap is unused, filling or capped, every node
    reads the recomputed memory and swap bit for bit and its cache
    images' total disk, and the control node reads the same with no node
    named, as does ``control_memory_gb`` in one reading."""
    control = state.topology.control_node
    for op in [("tick", 0.0), *ops]:
        apply_operation(state, op)
        for node in state.topology.nodes:
            memory, swap, disk = gauges_from_scratch(state, node)
            # repr tells -0.0 from 0.0
            assert repr(state.memory_available_gb(node)) == repr(memory)
            assert repr(state.swap_used_gb(node)) == repr(swap)
            assert state.disk_used_gb(node) == pytest.approx(disk, abs=1e-12)
        assert repr(state.memory_available_gb()) == repr(state.memory_available_gb(control))
        assert repr(state.swap_used_gb()) == repr(state.swap_used_gb(control))
        assert repr(state.control_memory_gb()) == repr(gauges_from_scratch(state, control)[:2])


def test_fresh_leftover_respects_a_full_quota():
    """A fresh leftover is refused when live entities fill the quota."""
    state = CloudState(quotas={EntityKind.SERVER: 2})
    assert state.try_create(EntityKind.SERVER) is None
    assert state.add_leftover(EntityKind.SERVER) is None
    rejected = state.add_leftover(EntityKind.SERVER)
    assert isinstance(rejected, QuotaExceeded)
    assert rejected.kind is EntityKind.SERVER
    assert state.leftovers[EntityKind.SERVER] == 1
    assert state.capacity() == 1
    # Moving a live entity into the ledger keeps the total unchanged.
    assert state.add_leftover(EntityKind.SERVER, from_live=True) is None
    assert state.leftovers[EntityKind.SERVER] == 2

