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
import re
import sys
import types
import typing
from array import array
from collections import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

from .cloud import (
    OVERLOAD_INDICATOR_ERRORS,
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
    SECONDS_PER_HOUR,
    IndicatorAnalysis,
    IndicatorSeries,
    evaluate_indicator,
    nudge_ties,
)
from .workload import (
    DEFAULT_STEP_NAMES,
    DEFAULT_STEPS,
    STOP_STREAM,
    TimingParams,
    WorkloadDefinition,
    WorkloadStatus,
    check_concurrency,
    check_deadline,
    run_stream,
)


#: A scenario id names its bundle directory, ``scenario-{id}``, so it may
#: hold only these characters, and may not be ``.`` or ``..``.
_SCENARIO_ID = re.compile(r"[A-Za-z0-9._-]+")


class EarlyFailurePolicy(Enum):
    """What to do when the cloud fails before the scheduled rejuvenation."""

    WAIT = "wait-for-schedule"
    REJUVENATE = "rejuvenate-on-failure"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one scenario deterministically.  A config
    that exists can run: each stream ``run_scenario`` starts on a cloud
    that does not fail early can reach its deadline (``check_deadline``)."""

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
        if not _SCENARIO_ID.fullmatch(self.scenario_id) or self.scenario_id in (".", ".."):
            raise ConfigError(
                f"scenario_id must be letters, digits, '.', '_' or '-' (not '.' or '..'),"
                f" got {self.scenario_id!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        check_concurrency(self.concurrency)
        if self.stress_hours < 0 or self.post_rejuvenation_hours < 0:
            raise ConfigError("phase lengths cannot be negative")
        for name in ("stress_hours", "post_rejuvenation_hours"):
            # any longer phase overflows a float when counted in seconds
            if not getattr(self, name) <= sys.float_info.max / SECONDS_PER_HOUR:
                raise ConfigError(f"{name} is too long to count in seconds")
        if not 1.0 <= self.sample_interval_seconds <= SECONDS_PER_HOUR:
            raise ConfigError("sample interval must lie in [1, 3600] seconds")
        if not 0.0 <= self.deploy_failure_probability <= 1.0:
            raise ConfigError("deploy failure probability must lie in [0, 1]")
        Topology.named(self.topology)
        quota_table(self.quotas)  # raises on a quota below 1
        if self.workload is None:
            steps = DEFAULT_STEP_NAMES
        else:
            steps = tuple(s.name for s in self.workload.steps)
        for path, named in (
            ("timing.step_seconds", self.timing.step_seconds),
            ("resources.cache_depositing_steps", self.resources.cache_depositing_steps),
            ("faults", self.faults or ()),
        ):
            for name in named:
                if name not in steps:
                    raise ConfigError(f"{path} names unknown step {name!r}")
        if self.faults:
            FaultModel(self.faults)  # raises on a bad error name or probability
        # the stress phase runs to its end, then rejuvenation, then the post
        # phase, whose end may not round onto its start
        shortest = min(map(self.timing.base_for, steps))
        stress_end = self.stress_hours * SECONDS_PER_HOUR
        check_deadline(0.0, stress_end, shortest)
        start = stress_end + self.resources.rejuvenation_seconds
        post = self.post_rejuvenation_hours * SECONDS_PER_HOUR
        check_deadline(start, start + post, shortest)
        if post > 0 and start + post == start:
            raise ConfigError(
                f"a {post} s post-rejuvenation phase cannot advance a clock at {start} s: "
                f"its resolution there is {math.ulp(start)} s"
            )

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


@dataclass(frozen=True, slots=True, eq=False)
class ErrorLog:
    """The workload errors one scenario recorded, kept as columns.

    ``times`` holds each error's time and ``codes`` its kind, an index
    into ``kinds``: the distinct ``(step, error, ageing, overload)``
    tuples, in the order each was first seen.  ``ErrorLog(times, codes,
    kinds)`` copies the two columns into read-only float64 and intp
    arrays, and checks that they are one-dimensional and of one length,
    that every code indexes ``kinds`` and that no kind is listed twice.
    Logs are immutable, and equal when both columns and the kinds
    compare equal.
    """

    times: np.ndarray
    codes: np.ndarray
    kinds: tuple[tuple[str, str, bool, bool], ...]

    def __post_init__(self):
        ts = np.array(self.times, dtype=np.float64)
        cs = np.array(self.codes, dtype=np.intp)
        kinds = tuple(map(tuple, self.kinds))
        if ts.ndim != 1 or ts.shape != cs.shape:
            raise ValueError("error log times and codes must be two arrays of one length")
        if cs.size and not (cs.min() >= 0 and cs.max() < len(kinds)):
            raise ValueError(f"error log codes must index its {len(kinds)} kinds")
        if len(set(kinds)) != len(kinds):
            raise ValueError("error log kinds must be distinct")
        ts.flags.writeable = False
        cs.flags.writeable = False
        for name, value in (("times", ts), ("codes", cs), ("kinds", kinds)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, ErrorLog):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.codes, other.codes)
        )

    def __reduce__(self):
        # through the constructor, so that a copy's columns are read-only too
        return (ErrorLog, (self.times, self.codes, self.kinds))


@dataclass(frozen=True)
class ScenarioReport:
    """Everything a scenario run produced; the defaults describe a
    deployment that never ran."""

    scenario_id: str
    topology: str
    concurrency: int
    seed: int
    policy: str
    stress_hours: int
    post_rejuvenation_hours: int
    deploy_failed: bool = False
    failure_point: float | None = None
    rejuvenation_started: float | None = None
    rejuvenation_ended: float | None = None
    excluded_windows: tuple[tuple[float, float], ...] = ()
    series: Mapping[str, IndicatorSeries] = field(default_factory=dict)
    analyses: Mapping[str, IndicatorAnalysis] = field(default_factory=dict)
    hourly_counts: tuple[dict, ...] = ()
    error_log: ErrorLog = field(default_factory=lambda: ErrorLog((), (), ()))

    @property
    def totals(self) -> dict[str, int]:
        """Workloads per status over the run, summed from ``hourly_counts``."""
        return {s.value: sum(c[s.value] for c in self.hourly_counts) for s in WorkloadStatus}


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run one scenario and analyse every collected indicator.

    The gauge series of the report share one read-only ``timestamps``
    array, the tick clock of all three phases, which the bundle writer
    renders once for all of them."""
    identity = dict(
        scenario_id=config.scenario_id,
        topology=config.topology,
        concurrency=config.concurrency,
        seed=config.seed,
        policy=config.policy.value,
        stress_hours=config.stress_hours,
        post_rejuvenation_hours=config.post_rejuvenation_hours,
    )
    p_deploy_fails = config.deploy_failure_probability
    if p_deploy_fails > 0.0 and stream(config.seed, "deploy").random() < p_deploy_fails:
        return ScenarioReport(**identity, deploy_failed=True)

    topology = Topology.named(config.topology)
    cloud = CloudState(
        topology=topology,
        params=config.resources,
        quotas=config.quotas,
        seed=config.seed,
    )
    defn = config.workload or WorkloadDefinition(DEFAULT_STEPS)
    faults = FaultModel(config.faults, seed=config.seed)

    # workload starts and durations
    starts, durations = array("d"), array("d")
    # the gauge readings of each phase: stress, rejuvenation and post
    readings: list[dict[str, np.ndarray]] = []
    # workload counts per hour, keyed by status value as the report holds them
    hourly: dict[int, dict[str, int]] = {}
    # error times and kind codes; each kind's code by step, error and
    # stranded flag, numbered in the order first seen
    error_times, error_codes = array("d"), array("q")
    kind_codes: dict[tuple[str, str, bool], int] = {}

    def hour_hook(t: float):
        cache_cleanup(cloud)
        return STOP_STREAM if check_failed(cloud) else None

    success = WorkloadStatus.SUCCESS
    value_of = {status: status.value for status in WorkloadStatus}

    def result_hook(result) -> None:
        status = result.status
        hour = int(result.started_at // SECONDS_PER_HOUR)
        bucket = hourly.get(hour)
        if bucket is None:
            bucket = hourly[hour] = dict.fromkeys(value_of.values(), 0)
        bucket[value_of[status]] += 1
        if status is success:
            starts.append(result.started_at)
            durations.append(result.duration)

    append_error_time, append_error_code = error_times.append, error_codes.append

    def error_hook(t: float, step: str, error: str, stranded: bool) -> None:
        append_error_time(t)
        append_error_code(kind_codes.setdefault((step, error, stranded), len(kind_codes)))

    hooks = dict(
        faults=faults,
        timing=config.timing,
        tick_seconds=config.sample_interval_seconds,
        hour_hook=hour_hook,
        error_hook=error_hook,
        result_hook=result_hook,
    )

    # Stress phase.
    stress_end = config.stress_hours * SECONDS_PER_HOUR
    excluded: list[tuple[float, float]] = []
    readings.append(
        run_stream(defn, cloud, until=stress_end, concurrency=config.concurrency, **hooks)
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
    memory, swap = cloud.control_memory_gb()
    sample = {"time": sample_ts, "memory-available": memory, "swap-used": swap}
    for node in topology.compute_nodes:
        sample[f"disk-used-{node}"] = cloud.disk_used_gb(node)
    readings.append({name: np.array([value]) for name, value in sample.items()})

    # Post-rejuvenation phase.
    post_end = rejuvenation_ended + config.post_rejuvenation_hours * SECONDS_PER_HOUR
    readings.append(
        run_stream(defn, cloud, until=post_end, concurrency=config.concurrency, **hooks)
    )

    series: dict[str, IndicatorSeries] = {}
    if starts:
        series["workload-duration"] = IndicatorSeries(
            "workload-duration", "seconds", *nudge_ties(starts, durations)
        )
    # Join the phases one gauge at a time, dropping each part once joined,
    # so that no more than one gauge is held twice.  Every gauge holds one
    # read-only clock: nudged stamps depend on the stamps alone.
    tick_times = np.concatenate([part.pop("time") for part in readings])
    clock, _ = nudge_ties(tick_times, tick_times)
    clock.flags.writeable = False
    for name in list(readings[0]):
        _, values = nudge_ties(tick_times, np.concatenate([part.pop(name) for part in readings]))
        values.flags.writeable = False
        series[name] = IndicatorSeries(name, "GB", clock, values)

    boundaries = (rejuvenation_started, rejuvenation_ended)
    analyses = {
        name: evaluate_indicator(
            s, phase_boundaries=boundaries, exclude_windows=tuple(excluded)
        )
        for name, s in series.items()
    }

    kinds = [
        (step, error, stranded, error in OVERLOAD_INDICATOR_ERRORS)
        for step, error, stranded in kind_codes
    ]
    return ScenarioReport(
        **identity,
        deploy_failed=False,
        failure_point=cloud.failed_at,
        rejuvenation_started=rejuvenation_started,
        rejuvenation_ended=rejuvenation_ended,
        excluded_windows=tuple(excluded),
        series=series,
        analyses=analyses,
        hourly_counts=tuple({"hour": hour, **hourly[hour]} for hour in sorted(hourly)),
        error_log=ErrorLog(error_times, error_codes, kinds),
    )


@dataclass(frozen=True)
class SuiteResult:
    """Reports per scenario, plus error strings for scenarios that threw."""

    reports: tuple[ScenarioReport, ...]
    errors: Mapping[str, str]


def run_suite(configs: list[ScenarioConfig]) -> SuiteResult:
    """Run scenarios in order, isolating failures per scenario.

    A suite that repeats a scenario id is refused with ``ConfigError``
    before any scenario runs."""
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
