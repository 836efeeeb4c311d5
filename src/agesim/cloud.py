"""State of a simulated quota-limited cloud under accelerated ageing.

The cloud tracks live entities and leftover entities per kind, per-node
resource gauges (memory available, swap used, disk used), a cache-image
ledger filled by server boots, and a virtual clock.  Leftovers are
entities stranded by failed workloads; they occupy quota without being
usable, so the cloud's capacity is::

    capacity = min over quota-limited kinds of (quota - leftovers), floored at 0

Rejuvenation redeploys the cloud: entity ledgers and caches reset, swap
drops to zero and memory returns to its initial level minus a configured
host-level residual.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import ConfigError, LedgerUnderflowError
from .seeding import stream
from .trendstats import SECONDS_PER_HOUR


class EntityKind(Enum):
    """Entity kinds a workload can create."""

    USER = "user"
    ROLE = "role"
    SECURITY_GROUP = "security-group"
    FLAVOR = "flavor"
    IMAGE = "image"
    NETWORK = "network"
    SUBNET = "subnet"
    PORT = "port"
    ROUTER = "router"
    SERVER = "server"
    VOLUME = "volume"

    # Members are singletons, so identity hashing is exact; it avoids
    # Enum.__hash__, a Python-level call on every ledger dict lookup.
    __hash__ = object.__hash__


#: Kinds subject to a per-kind quota, with the default limit of 10 each.
DEFAULT_QUOTAS: dict[EntityKind, int] = {
    EntityKind.SECURITY_GROUP: 10,
    EntityKind.ROUTER: 10,
    EntityKind.SERVER: 10,
    EntityKind.VOLUME: 10,
}


def quota_error_name(kind: EntityKind) -> str:
    return f"quota-exceeded-{kind.value}"


#: Error names that indicate overload rather than ageing; reports can
#: exclude them from error distributions.
OVERLOAD_INDICATOR_ERRORS = frozenset({quota_error_name(EntityKind.SECURITY_GROUP)})


def quota_table(quotas: Mapping[EntityKind, int] | None) -> dict[EntityKind, int]:
    """``DEFAULT_QUOTAS`` overridden by ``quotas``; every quota must be >= 1."""
    table = dict(DEFAULT_QUOTAS)
    if quotas:
        table.update(quotas)
    for kind, quota in table.items():
        if quota < 1:
            raise ConfigError(f"quota for {kind.value} must be >= 1, got {quota}")
    return table


@dataclass(frozen=True)
class Topology:
    """Node layout of the deployment."""

    nodes: tuple[str, ...]
    control_node: str
    compute_nodes: tuple[str, ...]

    @staticmethod
    def named(kind: str) -> "Topology":
        if kind not in TOPOLOGIES:
            raise ConfigError(f"unknown topology: {kind!r}")
        return TOPOLOGIES[kind]


#: The deployments a scenario can name, by kind: nodes, control node, compute nodes.
TOPOLOGIES = {
    "multi-node": Topology(
        ("control", "monitoring", "compute-1", "compute-2"), "control", ("compute-1", "compute-2")
    ),
    "all-in-one": Topology(("all-in-one",), "all-in-one", ("all-in-one",)),
}


@dataclass(frozen=True)
class ResourceParams:
    """Resource-model rates and limits.

    The physical rates are simulation parameters, not measurements; they
    are chosen so that a day-long stress run shows the expected gauge
    shapes (memory decline, late swap growth, cache-driven disk fill)
    and every one of them can be swept through configuration.  No float
    field may be negative: a negative leak, retention or warm-up
    allocation would free memory under load, a negative noise amplitude,
    or one whose range is too wide for a float, cannot be drawn, and a
    negative ageing rate would run the clock back.
    """

    initial_memory_gb: float = 1.5
    swap_threshold_gb: float = 1.0
    swap_capacity_gb: float = 16.0
    leak_per_workload_gb: float = 0.0005
    leftover_retention_gb: float = 0.01
    warmup_noise_gb: float = 0.3
    warmup_alloc_gb: float = 0.25
    warmup_after_rejuvenation: bool = True
    cache_image_gb: float = 0.040
    cache_max_age_seconds: float = 24 * 3600.0
    disk_capacity_gb: float = 250.0
    rejuvenation_seconds: float = 3600.0
    retention_fraction: float = 0.0
    ageing_rate: float = 0.0002
    contention_capacity: float = 1.0
    cache_depositing_steps: tuple[str, ...] = ("boot server",)

    def __post_init__(self):
        if self.initial_memory_gb <= 0:
            raise ConfigError("initial_memory_gb must be positive")
        if not 0.0 <= self.retention_fraction <= 1.0:
            raise ConfigError("retention_fraction must lie in [0, 1]")
        if self.contention_capacity <= 0:
            raise ConfigError("contention_capacity must be positive")
        if not self.disk_capacity_gb > 0:
            raise ConfigError("disk_capacity_gb must be positive")
        for spec in fields(self):
            if spec.type == "float" and not getattr(self, spec.name) >= 0:
                raise ConfigError(f"{spec.name} must not be negative")
        if not math.isfinite(2 * self.warmup_noise_gb):
            raise ConfigError("warmup_noise_gb is too large to draw noise from")


# ── Events consumed by apply_resource_effects ────────────────────────────


@dataclass(frozen=True)
class WorkloadStepCompleted:
    """A workload step finished successfully.

    ``workload_finished`` marks the last executed step of a workload;
    ``did_real_work`` is set when the workload created a quota-limited
    entity that no fault on its create step rolled back, which is what
    makes it count toward memory leak and ageing.  A workload rejected at
    a quota after creating only unlimited kinds (a user and a role, say)
    does not count.
    """

    step_name: str
    workload_finished: bool = False
    did_real_work: bool = False


@dataclass(frozen=True)
class IntervalElapsed:
    """A sampling tick that may land the warm-up allocation."""


# ── Quota rejection ──────────────────────────────────────────────────────


@dataclass(frozen=True)
class QuotaExceeded:
    kind: EntityKind


#: The one rejection per kind that ``try_create`` and ``add_leftover``
#: return; the class is frozen and compares by value, so sharing is safe.
_QUOTA_EXCEEDED = {kind: QuotaExceeded(kind) for kind in EntityKind}


# ── Fault catalog and model ──────────────────────────────────────────────


class AgeingRule(Enum):
    """How an error relates to ageing."""

    NON_AGEING = "non-ageing"
    AGEING = "ageing"
    PHASE_DEPENDENT = "phase-dependent"


@dataclass(frozen=True)
class ErrorSpec:
    """Catalog entry describing an injectable error."""

    name: str
    rule: AgeingRule
    leftover_kind: EntityKind | None = None

    def __post_init__(self):
        if self.rule is AgeingRule.AGEING and self.leftover_kind is None:
            raise ConfigError(f"error {self.name!r}: ageing errors need a leftover kind")


DEFAULT_ERROR_CATALOG: dict[str, ErrorSpec] = {
    spec.name: spec
    for spec in (
        ErrorSpec("server-error-status", AgeingRule.AGEING, EntityKind.SERVER),
        ErrorSpec("volume-error-status", AgeingRule.AGEING, EntityKind.VOLUME),
        ErrorSpec("node-unreachable", AgeingRule.PHASE_DEPENDENT),
        ErrorSpec("external-network-unreachable", AgeingRule.NON_AGEING),
        ErrorSpec("rebuild-error", AgeingRule.NON_AGEING),
    )
}


class FaultModel:
    """Per-step error probabilities drawn from a dedicated random stream.

    ``probabilities`` maps step name to {error name: probability}.  At
    most one error fires per step attempt: a single uniform draw is
    compared against the cumulative probability slots, so each error
    fires with exactly its configured probability and their per-step sum
    must not exceed 1.  Steps without configured entries consume no
    random draws at all.  Step names are not checked here but against
    the workload definition, by ``run_stream`` before its first event.
    Error names resolve against ``DEFAULT_ERROR_CATALOG``; ``seed`` picks
    the ``"faults"`` stream and is not kept.
    """

    def __init__(
        self,
        probabilities: Mapping[str, Mapping[str, float]] | None = None,
        seed: int = 0,
    ):
        self._rng = stream(seed, "faults")

        self._per_step: dict[str, list[tuple[float, ErrorSpec]]] = {}
        for step_name, entries in (probabilities or {}).items():
            slots: list[tuple[float, ErrorSpec]] = []
            cumulative = 0.0
            for error_name, p in entries.items():
                spec = DEFAULT_ERROR_CATALOG.get(error_name)
                if spec is None:
                    raise ConfigError(f"unknown error name {error_name!r}")
                if not 0.0 <= p <= 1.0:
                    raise ConfigError(f"probability {p} for {error_name!r} not in [0, 1]")
                cumulative += p
                if p > 0.0:
                    slots.append((cumulative, spec))
            if cumulative > 1.0 + 1e-12:
                raise ConfigError(
                    f"per-step probabilities for {step_name!r} sum to {cumulative} > 1"
                )
            if slots:
                self._per_step[step_name] = slots

    def draw(self, step_name: str) -> ErrorSpec | None:
        """Sample the error, if any, striking this step attempt."""
        slots = self._per_step.get(step_name)
        if not slots:
            return None
        u = self._rng.random()
        for threshold, spec in slots:
            if u < threshold:
                return spec
        return None


# ── Cloud state ──────────────────────────────────────────────────────────


class CloudState:
    """Mutable ledger-and-gauge state of the simulated cloud.

    The memory model runs on the control node: ``control_memory_gb``
    reads its available memory and swap in use together, and
    ``swap_used_gb`` its swap alone.  ``disk_used_gb`` reads one node's
    cache images, which land on compute nodes only, so any other node
    reads 0.

    Capacity and whether some node's disk is full are kept up to date by
    the mutators that can change them (``add_leftover``,
    ``deposit_cache_image``, ``cache_cleanup`` and ``_deploy``), so
    reading them, and evaluating ``check_failed``, costs O(1); so is the
    ``ageing_multiplier`` attribute.  The quota table is fixed at construction.

    ``failure_inputs_changed`` is set whenever an input of the failure
    predicate may have changed since ``check_failed`` last evaluated it,
    and cleared by ``check_failed``.  It is set by ``_deploy``,
    ``add_leftover``, ``deposit_cache_image`` when a node's disk becomes
    full, ``cache_cleanup``, and ``apply_resource_effects``
    when it charges a finished workload's leak or the warm-up allocation.
    While it is clear the predicate would give the answer it gave last
    time, so the engine skips the evaluation.

    While a stream samples, ``_journal`` logs every change to what its
    readings depend on, so that no tick stops the engine: per gauge, two
    ``array("d")`` columns of clocks and values, the first value the one
    at opening, stamped ``-inf``.  The gauges are ``"memory"`` (the
    control node's raw available memory) and ``("disk", node)`` (each
    compute node's cache total).  A stream samples one deployment:
    ``rejuvenate`` is refused while a journal is open.  Outside a stream
    ``_journal`` is None and nothing is logged.
    """

    def __init__(
        self,
        topology: Topology | None = None,
        params: ResourceParams | None = None,
        quotas: Mapping[EntityKind, int] | None = None,
        seed: int = 0,
    ):
        self.topology = topology or TOPOLOGIES["multi-node"]
        self.params = params or ResourceParams()
        self.quotas = quota_table(quotas)

        self.clock = 0.0
        self.failed_at: float | None = None
        self.ageing_units = 0.0
        self.ageing_multiplier = 1.0
        self._host_residual_gb = 0.0
        self._next_compute = 0
        self._noise_rng = stream(seed, "noise")
        self._journal: dict[object, tuple[array, array]] | None = None
        self._deploy(True)

    def _deploy(self, warmup: bool) -> None:
        """Deploy the cloud afresh at the clock, with a warm-up window opening
        now if ``warmup``.  No journal is open (see ``rejuvenate``), so
        nothing is logged.  A redeploy carries over what this leaves
        alone: the clock, ``failed_at``, ageing, the host residual, the
        placement rotation and the noise stream."""
        self.live: dict[EntityKind, int] = dict.fromkeys(EntityKind, 0)
        self.leftovers: dict[EntityKind, int] = dict.fromkeys(EntityKind, 0)
        self._cache: deque[tuple[float, float, str]] = deque()
        self._cache_total: dict[str, float] = dict.fromkeys(self.topology.compute_nodes, 0.0)
        self._consumed_gb = 0.0
        self._noise_gb = 0.0
        self.failed = False
        self.failure_inputs_changed = True
        self._recount_capacity()
        self._recount_disk_full()
        self._warmup_start = self.clock if warmup else math.nan
        self._warmup_alloc_pending = warmup

    # -- capacity and ledgers ------------------------------------------------

    def capacity(self) -> int:
        """Workloads still executable concurrently, as limited by leftovers."""
        return self._capacity

    def _recount_capacity(self) -> None:
        leftovers = self.leftovers
        self._capacity = max(
            0, min(quota - leftovers[kind] for kind, quota in self.quotas.items())
        )

    def try_create(self, kind: EntityKind) -> QuotaExceeded | None:
        """Create one entity; quota-limited kinds count live plus leftovers.

        Returns None on success and the rejection when the quota is full.
        """
        quota = self.quotas.get(kind)
        if quota is not None and self.live[kind] + self.leftovers[kind] >= quota:
            return _QUOTA_EXCEEDED[kind]
        self.live[kind] += 1
        return None

    def try_delete(self, kind: EntityKind) -> None:
        """Delete one live entity; underflow is a programming error."""
        if self.live[kind] <= 0:
            raise LedgerUnderflowError(f"no live {kind.value} to delete")
        self.live[kind] -= 1

    def add_leftover(
        self, kind: EntityKind, from_live: bool = False
    ) -> QuotaExceeded | None:
        """Record a stranded entity; it occupies quota until rejuvenation.

        ``from_live`` moves an existing live entity into the leftover
        ledger (a failed delete); otherwise the leftover is a fresh
        entity created in an error state, which passes the quota gate
        like ``try_create``: when the quota is full nothing is stranded
        and the rejection is returned.  A stranded entity retains a
        configured slice of memory until the next rejuvenation.
        """
        if from_live:
            self.try_delete(kind)
        else:
            quota = self.quotas.get(kind)
            if quota is not None and self.live[kind] + self.leftovers[kind] >= quota:
                return _QUOTA_EXCEEDED[kind]
        self.leftovers[kind] += 1
        self._consume(self.params.leftover_retention_gb)
        if kind in self.quotas:
            self._recount_capacity()
        return None

    # -- gauges ----------------------------------------------------------------

    def _raw_available_gb(self) -> float:
        return (
            self.params.initial_memory_gb - self._host_residual_gb - self._consumed_gb
        )

    def _consume(self, gb: float) -> None:
        """Take ``gb`` of the control node's memory until rejuvenation."""
        self._consumed_gb += gb
        self.failure_inputs_changed = True
        self._log("memory", self._raw_available_gb())

    def _memory_gauges(self, raw, noise):
        """Available memory and swap in use on the control node, from raw
        available memory and warm-up noise (floats, or arrays of readings);
        swap grows once raw available memory sinks below the threshold.
        On a tie numpy returns the second argument and ``max``/``min`` the
        first, so the arguments run in the reverse of the order
        ``min(max(0.0, overflow), capacity)`` gives them, keeping the sign
        of a zero as that formula did."""
        params = self.params
        overflow = params.swap_threshold_gb - raw
        return (
            np.maximum(raw + noise, 0.0),
            np.minimum(params.swap_capacity_gb, np.maximum(overflow, 0.0)),
        )

    def control_memory_gb(self) -> tuple[float, float]:
        """Available memory and swap in use on the control node, where the
        model runs, from one reading."""
        memory, swap = self._memory_gauges(self._raw_available_gb(), self._noise_gb)
        return float(memory), float(swap)

    def swap_used_gb(self) -> float:
        """Swap in use on the control node; grows once raw available memory
        sinks below the threshold."""
        return self.control_memory_gb()[1]

    def disk_used_gb(self, node: str) -> float:
        return self._cache_total.get(node, 0.0)

    def _recount_disk_full(self) -> None:
        capacity = self.params.disk_capacity_gb
        self._disk_full = any(
            used >= capacity for used in self._cache_total.values()
        )

    # -- sampling journal --------------------------------------------------------

    def _log(self, gauge: object, value: float) -> None:
        """Log a gauge's new value at the clock, while a journal is open."""
        if self._journal is not None:
            stamps, values = self._journal[gauge]
            stamps.append(self.clock)
            values.append(value)

    def _new_journal(self) -> dict[object, tuple[array, array]]:
        """A journal holding every gauge's current value from any time on."""
        disks = {("disk", node): total for node, total in self._cache_total.items()}
        return {
            gauge: (array("d", [-math.inf]), array("d", [value]))
            for gauge, value in {"memory": self._raw_available_gb(), **disks}.items()
        }

    def _call_after_readings(self, hook, t: float):
        """Return ``hook(t)``, called as if after the readings at time
        ``t``: what the journal logs during the call is restamped just
        past ``t``, so only the readings after ``t`` see it."""
        if self._journal is None:
            return hook(t)
        logs = self._journal.values()
        logged = [len(stamps) for stamps, _ in logs]
        result = hook(t)
        after = math.nextafter(t, math.inf)
        for (stamps, _), n in zip(logs, logged):
            stamps[n:] = array("d", [after]) * (len(stamps) - n)
        return result

    def _readings(self, times: np.ndarray, journal: dict) -> dict[str, np.ndarray]:
        """The gauges at each of ``times``, an ascending float64 array, as
        float64 arrays: ``time`` itself, the control node's
        ``memory-available`` and ``swap-used``, and ``disk-used-{node}``
        for each compute node.  A gauge reads the last value ``journal``
        logged for it at or before the time.  The journal samples one
        deployment, so the memory reading carries the warm-up noise at the
        times inside its window, drawn in one block in time order, and
        none elsewhere; the live noise term is left at the last time's."""

        def at_times(gauge):
            stamps, values = journal[gauge]
            # Each logged value holds from the first time at or after its
            # stamp until the next value takes over; the first is stamped
            # -inf, so every time reads one value.
            holds_from = np.searchsorted(times, np.frombuffer(stamps))
            return np.repeat(np.frombuffer(values), np.diff(holds_from, append=len(times)))

        warming = in_warmup_window(self._warmup_start, times)
        noise = np.zeros(len(times))
        amp = self.params.warmup_noise_gb
        if amp:
            noise[warming] = self._noise_rng.uniform(-amp, amp, size=np.count_nonzero(warming))
        if len(times):
            self._noise_gb = float(noise[-1])
        memory, swap = self._memory_gauges(at_times("memory"), noise)
        readings = {"time": times, "memory-available": memory, "swap-used": swap}
        for node in self.topology.compute_nodes:
            readings[f"disk-used-{node}"] = at_times(("disk", node))
        return readings

    def cache_image_count(self) -> int:
        return len(self._cache)

    # -- ageing bookkeeping ------------------------------------------------------

    def _recompute_ageing(self) -> None:
        self.ageing_multiplier = 1.0 + self.params.ageing_rate * self.ageing_units

    def deposit_cache_image(self) -> None:
        """One boot completed: place a cache image on the next compute node."""
        computes = self.topology.compute_nodes
        node = computes[self._next_compute % len(computes)]
        self._next_compute += 1
        size = self.params.cache_image_gb
        self._cache.append((self.clock, size, node))
        self._cache_total[node] += size
        self._log(("disk", node), self._cache_total[node])
        if self._cache_total[node] >= self.params.disk_capacity_gb:
            self._disk_full = True
            self.failure_inputs_changed = True


# ── Operations on the cloud ──────────────────────────────────────────────


def in_warmup_window(start, t):
    """Whether ``t`` (a float or an array) lies in the warm-up window that
    opened at ``start``, the hour from it; a NaN start opens none."""
    return (start <= t) & (t < start + SECONDS_PER_HOUR)


def apply_resource_effects(
    state: CloudState, event: WorkloadStepCompleted | IntervalElapsed
) -> None:
    """Fold one event into the resource gauges.

    Callers read the gauges afterwards through ``control_memory_gb`` and
    ``disk_used_gb``; while a journal is open (see
    ``CloudState``) every change is logged there too.

    Step completions deposit cache images (for configured steps, server
    boots by default) and, on the final step of a workload that did real
    work, charge the per-workload memory leak and one ageing unit.
    An interval event, the first sampling tick in a warm-up window, lands
    the window's one-time allocation if it is pending; the seeded noise
    on the window's memory readings is drawn with them (``_readings``).
    """
    params = state.params
    if isinstance(event, WorkloadStepCompleted):
        if event.step_name in params.cache_depositing_steps:
            state.deposit_cache_image()
        if event.workload_finished and event.did_real_work:
            state._consume(params.leak_per_workload_gb)
            state.ageing_units += 1.0
            state._recompute_ageing()
    elif isinstance(event, IntervalElapsed):
        if state._warmup_alloc_pending and in_warmup_window(state._warmup_start, state.clock):
            state._consume(params.warmup_alloc_gb)
            state._warmup_alloc_pending = False
    else:
        raise TypeError(f"unsupported event: {event!r}")


def cache_cleanup(state: CloudState) -> None:
    """Drop cache images older than the configured age."""
    max_age = state.params.cache_max_age_seconds
    cache = state._cache
    while cache and state.clock - cache[0][0] > max_age:
        _, size, node = cache.popleft()
        state._cache_total[node] -= size
        state._log(("disk", node), state._cache_total[node])
    state._recount_disk_full()
    state.failure_inputs_changed = True


def check_failed(state: CloudState) -> bool:
    """Evaluate the failure predicate and update the state's flag.

    The cloud has failed when its capacity is zero, any node's disk is
    full, or available memory plus remaining swap headroom is exhausted.
    A failed cloud stays failed until rejuvenation; the first time the
    predicate turns true the virtual time is latched into ``failed_at``.

    The first two clauses read state that ``CloudState`` caches: the
    capacity, recounted by ``add_leftover`` and ``_deploy``, and the
    disk-full flag, updated by ``deposit_cache_image``, ``cache_cleanup``
    and ``_deploy``.  The memory clause is O(1) arithmetic on the raw
    available memory: available memory and swap headroom are both
    non-negative, so their sum is exhausted exactly when no memory is left
    (raw <= 0) and swap has filled (threshold - raw >= swap capacity, with
    both swap parameters non-negative).

    Every call evaluates and clears ``state.failure_inputs_changed``; the
    engine calls it only while that flag is set.
    """
    state.failure_inputs_changed = False
    if not state.failed:
        raw = state._raw_available_gb()
        params = state.params
        state.failed = (
            state._capacity == 0
            or state._disk_full
            or (
                raw <= 0.0
                and params.swap_threshold_gb - raw >= params.swap_capacity_gb
            )
        )
        if state.failed and state.failed_at is None:
            state.failed_at = state.clock
    return state.failed


def rejuvenate(state: CloudState) -> None:
    """Redeploy the cloud: after the configured rejuvenation duration it
    is freshly deployed (``CloudState._deploy``), with the warm-up window
    ``warmup_after_rejuvenation`` asks for.

    A configured fraction of the accumulated cloud-level ageing survives
    as a host-level residual (memory restored to initial minus residual,
    ageing units scaled by the same fraction).

    A stream samples one deployment, so a redeploy while one samples (a
    hook of a ``run_stream`` call with ``tick_seconds`` set) is refused
    with ``RuntimeError`` before anything changes.
    """
    if state._journal is not None:
        raise RuntimeError("cannot rejuvenate a cloud while a stream samples it")
    params = state.params
    state._host_residual_gb += params.retention_fraction * state._consumed_gb
    state.ageing_units *= params.retention_fraction
    state._recompute_ageing()
    state.clock += params.rejuvenation_seconds
    state._deploy(params.warmup_after_rejuvenation)
