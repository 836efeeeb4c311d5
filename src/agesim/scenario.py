"""Scenario runner: stress, rejuvenation and post-rejuvenation phases.

A scenario deploys a cloud, runs a stress phase of back-to-back
workloads while sampling resource gauges, rejuvenates the cloud, and
runs one more observation window after rejuvenation.  The collected
indicator series are binned hourly and fed to the trend tests; the
ageing summary compares the last stress hour against both the baseline
hour and the first post-rejuvenation hour.

If the cloud fails before the scheduled rejuvenation, the configured
policy decides what happens: ``wait-for-schedule`` leaves the cloud
down until the planned rejuvenation time (the dead window is excluded
from analysis), while ``rejuvenate-on-failure`` rejuvenates at the hour
mark where the failure was detected.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from array import array
from collections import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .cloud import (
    OVERLOAD_INDICATOR_ERRORS,
    SECONDS_PER_HOUR,
    CloudState,
    EntityKind,
    FaultModel,
    ResourceParams,
    Topology,
    cache_cleanup,
    check_failed,
    quota_table,
    rejuvenate,
)
from .errors import ConfigError
from .seeding import scenario_seed, stream
from .trendstats import (
    IndicatorAnalysis,
    IndicatorSeries,
    evaluate_indicator,
    nudge_ties,
)
from .workload import (
    DEFAULT_STEP_NAMES,
    STOP_STREAM,
    TimingParams,
    WorkloadDefinition,
    WorkloadStatus,
    run_stream,
)


class EarlyFailurePolicy(Enum):
    """What to do when the cloud fails before the scheduled rejuvenation."""

    WAIT = "wait-for-schedule"
    REJUVENATE = "rejuvenate-on-failure"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one scenario deterministically."""

    scenario_id: str
    topology: str = "multi-node"
    concurrency: int = 1
    stress_hours: int = 24
    post_rejuvenation_hours: int = 1
    seed: int = 0
    policy: EarlyFailurePolicy = EarlyFailurePolicy.WAIT
    resources: ResourceParams = field(default_factory=ResourceParams)
    timing: TimingParams = field(default_factory=TimingParams)
    quotas: Mapping[EntityKind, int] | None = None
    faults: Mapping[str, Mapping[str, float]] | None = None
    workload: WorkloadDefinition | None = None
    sample_interval_seconds: float = 30.0
    deploy_failure_probability: float = 0.0

    def __post_init__(self):
        if not self.scenario_id:
            raise ConfigError("scenario_id must be non-empty")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be at least 1")
        if self.stress_hours < 0 or self.post_rejuvenation_hours < 0:
            raise ConfigError("phase lengths cannot be negative")
        if not 1.0 <= self.sample_interval_seconds <= SECONDS_PER_HOUR:
            raise ConfigError("sample interval must lie in [1, 3600] seconds")
        if not 0.0 <= self.deploy_failure_probability <= 1.0:
            raise ConfigError("deploy failure probability must lie in [0, 1]")
        Topology.named(self.topology)
        quota_table(self.quotas)  # raises on a quota below 1
        steps = (
            DEFAULT_STEP_NAMES
            if self.workload is None
            else [s.name for s in self.workload.steps]
        )
        for path, named in (
            ("timing.step_seconds", self.timing.step_seconds),
            ("resources.cache_depositing_steps", self.resources.cache_depositing_steps),
        ):
            for name in named:
                if name not in steps:
                    raise ConfigError(f"{path} names unknown step {name!r}")
        if self.faults:
            FaultModel(self.faults, known_steps=steps)  # raises on a bad table

    def to_document(self) -> dict:
        return _encode(self)

    @classmethod
    def from_document(cls, doc: Mapping) -> "ScenarioConfig":
        return _decode(cls, doc, "scenario")


def _encode(value):
    """Plain JSON data for a config value: enums by value, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {_encode(k): _encode(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(hint, value, path: str):
    """Build a value of the annotated type ``hint`` from JSON data.

    Every field is checked against its annotation, and a ``float`` field
    must hold a finite number; ``path`` names the value in errors, such as
    ``scenario.resources.ageing_rate``.
    """
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        if value is None:
            return None
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
        return _decode(hint, value, path)
    if origin is abc.Mapping:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        key_hint, item_hint = typing.get_args(hint)
        return {
            _decode(key_hint, k, path): _decode(item_hint, v, f"{path}[{k!r}]")
            for k, v in value.items()
        }
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        item_hint, _ellipsis = typing.get_args(hint)
        return tuple(_decode(item_hint, v, f"{path}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, Mapping):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        fields = dataclasses.fields(hint)
        unknown = sorted(set(value) - {f.name for f in fields})
        if unknown:
            raise ConfigError(f"{path}.{unknown[0]}: unknown field")
        hints = typing.get_type_hints(hint)
        kwargs = {}
        for f in fields:
            if f.name in value:
                kwargs[f.name] = _decode(hints[f.name], value[f.name], f"{path}.{f.name}")
            elif f.default is f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{path}.{f.name}: missing required field")
        return hint(**kwargs)
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"{path}: unknown {hint.__name__} {value!r}") from None
    if hint is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return value
    if type(value) is not hint:
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ErrorEvent:
    """One recorded workload error with its ageing and overload nature."""

    time: float
    step: str
    error: str
    ageing: bool
    overload: bool


@dataclass(frozen=True)
class ScenarioReport:
    """Everything a scenario run produced."""

    scenario_id: str
    topology: str
    concurrency: int
    seed: int
    policy: str
    stress_hours: int
    post_rejuvenation_hours: int
    deploy_failed: bool
    failure_point: float | None
    rejuvenation_started: float | None
    rejuvenation_ended: float | None
    excluded_windows: tuple[tuple[float, float], ...]
    series: Mapping[str, IndicatorSeries]
    analyses: Mapping[str, IndicatorAnalysis]
    hourly_counts: tuple[dict, ...]
    totals: Mapping[str, int]
    error_log: tuple[ErrorEvent, ...]
    #: Hourly bins fed to the trend test: stress-phase bins only; the
    #: rejuvenation and post-rejuvenation bins never enter the test.
    trend_input: str = "stress-bins-only"


def _deploy_fails(config: ScenarioConfig) -> bool:
    if config.deploy_failure_probability <= 0.0:
        return False
    rng = stream(config.seed, "deploy")
    return bool(rng.random() < config.deploy_failure_probability)


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run one scenario and analyse every collected indicator."""
    identity = dict(
        scenario_id=config.scenario_id,
        topology=config.topology,
        concurrency=config.concurrency,
        seed=config.seed,
        policy=config.policy.value,
        stress_hours=config.stress_hours,
        post_rejuvenation_hours=config.post_rejuvenation_hours,
    )
    if _deploy_fails(config):
        return ScenarioReport(
            **identity,
            deploy_failed=True,
            failure_point=None,
            rejuvenation_started=None,
            rejuvenation_ended=None,
            excluded_windows=(),
            series={},
            analyses={},
            hourly_counts=(),
            totals={status.value: 0 for status in WorkloadStatus},
            error_log=(),
        )

    topology = Topology.named(config.topology)
    cloud = CloudState(
        topology=topology,
        params=config.resources,
        quotas=config.quotas,
        seed=config.seed,
    )
    defn = config.workload or WorkloadDefinition.default()
    faults = FaultModel(
        config.faults,
        seed=config.seed,
        known_steps=[s.name for s in defn.steps],
    )

    # workload starts and durations; tick times and each gauge's readings
    starts, durations = array("d"), array("d")
    tick_times = array("d")
    memory_available, swap_used = array("d"), array("d")
    gauge_readings = {"memory-available": memory_available, "swap-used": swap_used}
    disk_readings = {}
    for node in topology.compute_nodes:
        disk_readings[node] = gauge_readings[f"disk-used-{node}"] = array("d")
    # workload counts per status, keyed by member until the report is built
    hourly: dict[int, dict[WorkloadStatus, int]] = {}
    totals = dict.fromkeys(WorkloadStatus, 0)
    error_log: list[ErrorEvent] = []

    def tick_hook(t: float) -> None:
        tick_times.append(t)
        memory_available.append(cloud.memory_available_gb())
        swap_used.append(cloud.swap_used_gb())
        for node, readings in disk_readings.items():
            readings.append(cloud.disk_used_gb(node))

    def hour_hook(t: float):
        cache_cleanup(cloud)
        check_failed(cloud)
        if cloud.failed:
            return STOP_STREAM
        return None

    success = WorkloadStatus.SUCCESS

    def result_hook(result) -> None:
        status = result.status
        hour = int(result.started_at // SECONDS_PER_HOUR)
        bucket = hourly.get(hour)
        if bucket is None:
            bucket = hourly[hour] = dict.fromkeys(WorkloadStatus, 0)
        bucket[status] += 1
        totals[status] += 1
        if status is success:
            starts.append(result.started_at)
            durations.append(result.duration)

    def error_hook(t: float, step: str, error: str, stranded: bool) -> None:
        error_log.append(
            ErrorEvent(
                time=t,
                step=step,
                error=error,
                ageing=stranded,
                overload=error in OVERLOAD_INDICATOR_ERRORS,
            )
        )

    hooks = dict(
        faults=faults,
        timing=config.timing,
        tick_seconds=config.sample_interval_seconds,
        tick_hook=tick_hook,
        hour_hook=hour_hook,
        error_hook=error_hook,
        result_hook=result_hook,
    )

    # Stress phase.
    stress_end = config.stress_hours * SECONDS_PER_HOUR
    excluded: list[tuple[float, float]] = []
    if config.stress_hours > 0:
        run_stream(
            defn,
            cloud,
            until=stress_end,
            concurrency=config.concurrency,
            **hooks,
        )
    if cloud.failed and cloud.clock < stress_end:
        if config.policy is EarlyFailurePolicy.WAIT:
            excluded.append((cloud.clock, stress_end))
            cloud.clock = stress_end
        # Under rejuvenate-on-failure the clock stays at the detection
        # hour and rejuvenation begins right away.
    rejuvenation_started = cloud.clock

    # Rejuvenation: redeploy, then record one clean sample near the end
    # of the rejuvenation window for every gauge.
    rejuvenate(cloud)
    rejuvenation_ended = cloud.clock
    sample_ts = max(
        rejuvenation_started, rejuvenation_ended - config.sample_interval_seconds
    )
    tick_hook(sample_ts)

    # Post-rejuvenation phase.
    post_end = rejuvenation_ended + config.post_rejuvenation_hours * SECONDS_PER_HOUR
    if config.post_rejuvenation_hours > 0:
        run_stream(
            defn,
            cloud,
            until=post_end,
            concurrency=config.concurrency,
            **hooks,
        )

    series: dict[str, IndicatorSeries] = {}
    if starts:
        series["workload-duration"] = IndicatorSeries(
            "workload-duration", "seconds", *nudge_ties(starts, durations)
        )
    if tick_times:
        for name, readings in gauge_readings.items():
            series[name] = IndicatorSeries(
                name, "GB", *nudge_ties(tick_times, readings)
            )

    boundaries = (rejuvenation_started, rejuvenation_ended)
    analyses = {
        name: evaluate_indicator(
            s, phase_boundaries=boundaries, exclude_windows=tuple(excluded)
        )
        for name, s in series.items()
    }

    counts = tuple(
        {"hour": hour, **_by_value(hourly[hour])} for hour in sorted(hourly)
    )
    return ScenarioReport(
        **identity,
        deploy_failed=False,
        failure_point=cloud.failed_at,
        rejuvenation_started=rejuvenation_started,
        rejuvenation_ended=rejuvenation_ended,
        excluded_windows=tuple(excluded),
        series=series,
        analyses=analyses,
        hourly_counts=counts,
        totals=_by_value(totals),
        error_log=tuple(error_log),
    )


def _by_value(counts: Mapping[WorkloadStatus, int]) -> dict[str, int]:
    """Status counts keyed by the statuses' values, in the same order."""
    return {status.value: n for status, n in counts.items()}


@dataclass(frozen=True)
class SuiteResult:
    """Reports per scenario, plus error strings for scenarios that threw."""

    reports: tuple[ScenarioReport, ...]
    errors: Mapping[str, str]


def run_suite(configs: list[ScenarioConfig]) -> SuiteResult:
    """Run scenarios in order, isolating failures per scenario."""
    ids = [c.scenario_id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("scenario ids must be unique")
    reports = []
    errors: dict[str, str] = {}
    for config in configs:
        try:
            reports.append(run_scenario(config))
        except Exception as exc:  # noqa: BLE001 - isolate scenario crashes
            errors[config.scenario_id] = f"{type(exc).__name__}: {exc}"
    return SuiteResult(reports=tuple(reports), errors=errors)


#: Concurrency sweep used by the default scenario matrix.
MATRIX_CONCURRENCIES = (1, 2, 4, 8, 16, 64)


def default_matrix(base_seed: int = 0) -> list[ScenarioConfig]:
    """The standard 12-scenario matrix.

    Scenarios 1-6 run the multi-node topology and 7-12 the all-in-one
    topology, each sweeping concurrency 1, 2, 4, 8, 16 and 64 over a
    24-hour stress phase plus rejuvenation and one post-rejuvenation
    hour.  Every scenario derives its own independent seed.
    """
    configs = []
    for offset, topology in ((0, "multi-node"), (6, "all-in-one")):
        for i, concurrency in enumerate(MATRIX_CONCURRENCIES, start=1):
            scenario_id = str(offset + i)
            configs.append(
                ScenarioConfig(
                    scenario_id=scenario_id,
                    topology=topology,
                    concurrency=concurrency,
                    seed=scenario_seed(base_seed, offset + i),
                )
            )
    return configs
