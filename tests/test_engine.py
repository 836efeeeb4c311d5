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
failure predicate after every step, which must change nothing.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agesim.cloud import (
    DEFAULT_ERROR_CATALOG,
    DEFAULT_QUOTAS,
    CloudState,
    EntityKind,
    FaultModel,
    ResourceParams,
    Topology,
    check_failed,
    rejuvenate,
)
from agesim.errors import ConfigError
from agesim.workload import (
    DEFAULT_STEP_NAMES,
    TimingParams,
    WorkloadDefinition,
    run_stream,
)
from agesim import workload
from single_run import run_single

DEFN = WorkloadDefinition.default()

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
        cloud.memory_available_gb(),
        cloud.swap_used_gb(),
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
    how the golden digests record a tick."""
    return sorted(
        (
            node,
            {
                "memory_available": cloud.memory_available_gb(node),
                "swap_used": cloud.swap_used_gb(node),
                "disk_used": cloud.disk_used_gb(node),
                "disk_capacity": cloud.params.disk_capacity_gb,
            },
        )
        for node in cloud.topology.nodes
    )


def _stream_parts(name: str, cloud_type: type = CloudState) -> list:
    """Everything one golden ``run_stream`` call produced, on a cloud of
    ``cloud_type``."""
    topology, concurrency, params, quotas, table, seed, hours = GOLDEN_CASES[name]
    cloud = cloud_type(
        topology=Topology.named(topology), params=params, quotas=quotas, seed=seed
    )
    faults = FaultModel(table, seed=seed)
    timing = TimingParams(step_seconds={"boot server": 9.0, "create volume": 4.5})
    events: list = []
    samples: list = []
    results: list = []
    run_stream(
        DEFN,
        cloud,
        until=hours * 3600.0,
        concurrency=concurrency,
        faults=faults,
        timing=timing,
        tick_seconds=60.0,
        tick_hook=lambda t: samples.append((t, _gauges(cloud))),
        error_hook=lambda *event: events.append(event),
        result_hook=results.append,
    )
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


def test_step_unknown_to_the_fault_model_raises_at_that_step():
    """A step the fault model does not know still reaches ``draw``,
    which raises after the step's create."""
    cloud = CloudState(params=_quiet())
    faults = FaultModel(seed=0, known_steps=DEFAULT_STEP_NAMES[:3])
    with pytest.raises(ConfigError, match="'create security group'"):
        run_single(DEFN, cloud, faults)
    assert cloud.live[EntityKind.USER] == 1
    assert cloud.live[EntityKind.SECURITY_GROUP] == 1
    assert cloud.live[EntityKind.FLAVOR] == 0


# ── Ledger invariants through the engine ──────────────────────────────────

KINDS = tuple(EntityKind)

fault_tables = st.dictionaries(
    st.sampled_from(DEFAULT_STEP_NAMES),
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
    """Two stream phases around a rejuvenation, checking the ledger in
    every hook; returns everything the run produced."""
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
        assert cloud.total_leftovers() == counts["stranded"]

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
        tick_hook=lambda t: check_ledger(),
        error_hook=error_hook,
        result_hook=result_hook,
    )
    run_stream(DEFN, cloud, until=1800.0, **hooks)
    check_ledger()
    rejuvenate(cloud)
    assert cloud.total_leftovers() == 0
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
