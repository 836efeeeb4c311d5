"""Tests for the scenario runner: phases, policies, suites, the matrix."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agesim.cloud import MAX_DEPOSIT_GB, EntityKind, ResourceParams
from agesim.errors import AgesimError, ConfigError
from agesim.report import render_tables, report_document
from agesim.scenario import (
    MATRIX_CONCURRENCIES,
    MAX_SLOT_HOURS,
    MAX_TICKS,
    EarlyFailurePolicy,
    ErrorLog,
    ScenarioConfig,
    ScenarioReport,
    default_matrix,
    run_scenario,
    run_suite,
)
from agesim.trendstats import TREND_INPUT, TrendVerdict
from agesim.workload import (
    DEFAULT_STEPS,
    MAX_CONCURRENCY,
    TimingParams,
    WorkloadDefinition,
    WorkloadStatus,
)


def quiet_resources(**overrides) -> ResourceParams:
    defaults = dict(warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.0)
    defaults.update(overrides)
    return ResourceParams(**defaults)


#: Fault mix that strands ten servers well inside the first hour.
CRASHY_FAULTS = {"boot server": {"server-error-status": 0.5}}


def crashy_config(policy: EarlyFailurePolicy, **overrides) -> ScenarioConfig:
    fields = dict(
        scenario_id="crash",
        concurrency=8,
        stress_hours=4,
        seed=3,
        policy=policy,
        faults=CRASHY_FAULTS,
        resources=quiet_resources(),
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def errors_by_kind(log: ErrorLog) -> dict[tuple[str, str, bool, bool], int]:
    """How many errors of each ``(step, error, ageing, overload)`` kind a log holds."""
    return dict(zip(log.kinds, np.bincount(log.codes, minlength=len(log.kinds)).tolist()))


# ── Full default day ─────────────────────────────────────────────────────


@pytest.fixture(scope="module")
def report():
    return run_scenario(ScenarioConfig(scenario_id="1", seed=7))


class TestDefaultDay:

    def test_all_workloads_succeed(self, report):
        assert report.totals["success"] > 1000
        assert report.totals["ageing-failure"] == 0
        assert report.totals["non-ageing-failure"] == 0
        assert report.failure_point is None
        assert not report.deploy_failed

    def test_phase_boundaries(self, report):
        assert report.rejuvenation_started == 24 * 3600.0
        assert report.rejuvenation_ended == 25 * 3600.0
        assert report.excluded_windows == ()

    def test_expected_trend_verdicts(self, report):
        verdicts = {n: a.trend.verdict for n, a in report.analyses.items()}
        assert verdicts["memory-available"] is TrendVerdict.DOWNWARD
        assert verdicts["swap-used"] is TrendVerdict.UPWARD
        assert verdicts["workload-duration"] is TrendVerdict.UPWARD
        assert verdicts["disk-used-compute-1"] is TrendVerdict.UPWARD

    def test_trend_uses_24_stress_bins(self, report):
        for analysis in report.analyses.values():
            assert analysis.trend.n == 24
        assert report_document(report)["trend_input"] == TREND_INPUT == "stress-bins-only"

    def test_ageing_summaries_present(self, report):
        for name, analysis in report.analyses.items():
            assert analysis.ageing is not None, name
        memory = report.analyses["memory-available"].ageing
        assert memory.ageing_a < 0  # memory declined over the day
        duration = report.analyses["workload-duration"].ageing
        assert duration.ageing_a > 0  # workloads got slower
        # Rejuvenation recovered the slowdown: the post-rejuvenation
        # hour sits near the baseline again.
        assert duration.rejuvenation_r == pytest.approx(duration.ageing_a, rel=0.05)

    def test_hourly_counts_cover_stress_and_post(self, report):
        """The counts cover hours 0-23 and 25.  ``totals`` is no field a
        caller could set apart from them: it sums them per status, in
        ``WorkloadStatus`` order, and no hourly counts total zero each."""
        hours = [entry["hour"] for entry in report.hourly_counts]
        assert hours == list(range(24)) + [25]
        assert "totals" not in {f.name for f in dataclasses.fields(ScenarioReport)}
        assert list(report.totals.items()) == [
            (status.value, sum(entry[status.value] for entry in report.hourly_counts))
            for status in WorkloadStatus
        ]
        assert dataclasses.replace(report, hourly_counts=()).totals == {
            "success": 0,
            "ageing-failure": 0,
            "non-ageing-failure": 0,
        }

    def test_gauge_series_include_rejuvenation_sample(self, report):
        memory = report.series["memory-available"]
        rejuvenation_ts = 25 * 3600.0 - 30.0
        assert rejuvenation_ts in memory.timestamps

    def test_flat_duration_when_ageing_disabled(self):
        config = ScenarioConfig(
            scenario_id="flat", seed=7, resources=quiet_resources(warmup_noise_gb=0.3)
        )
        report = run_scenario(config)
        trend = report.analyses["workload-duration"].trend
        assert trend.verdict is TrendVerdict.NO_TREND
        assert trend.s_statistic == 0


# ── Determinism ──────────────────────────────────────────────────────────


class TestDeterminism:
    def test_same_config_same_report(self):
        config = ScenarioConfig(scenario_id="d", seed=11, stress_hours=3)
        a = run_scenario(config)
        b = run_scenario(config)
        assert a.totals == b.totals
        assert a.error_log == b.error_log
        assert a.series == b.series
        for name in a.analyses:
            assert a.analyses[name].trend == b.analyses[name].trend

    def test_different_seeds_differ(self):
        base = ScenarioConfig(scenario_id="d", seed=1, stress_hours=2)
        other = dataclasses.replace(base, seed=2)
        a = run_scenario(base)
        b = run_scenario(other)
        assert a.series["memory-available"] != b.series["memory-available"]


# ── Early failure policies ───────────────────────────────────────────────


class TestEarlyFailure:
    def test_wait_policy_leaves_dead_window(self):
        report = run_scenario(crashy_config(EarlyFailurePolicy.WAIT))
        assert report.failure_point is not None
        assert report.failure_point < 3600.0
        # Detected at the next hour mark; dead until the planned slot.
        assert report.excluded_windows == ((3600.0, 4 * 3600.0),)
        assert report.rejuvenation_started == 4 * 3600.0
        assert report.rejuvenation_ended == 5 * 3600.0

    def test_rejuvenate_policy_acts_at_detection_hour(self):
        report = run_scenario(crashy_config(EarlyFailurePolicy.REJUVENATE))
        assert report.failure_point is not None
        assert report.excluded_windows == ()
        assert report.rejuvenation_started == 3600.0
        assert report.rejuvenation_ended == 2 * 3600.0

    def test_post_phase_runs_clean_after_recovery(self):
        report = run_scenario(crashy_config(EarlyFailurePolicy.REJUVENATE))
        post_hour = int(report.rejuvenation_ended // 3600.0)
        post = [e for e in report.hourly_counts if e["hour"] >= post_hour]
        assert post
        assert sum(e["success"] for e in post) > 0

    def test_stranding_errors_logged_as_ageing(self):
        report = run_scenario(crashy_config(EarlyFailurePolicy.WAIT))
        strandings = {
            kind: n
            for kind, n in errors_by_kind(report.error_log).items()
            if kind[1] == "server-error-status"
        }
        assert sum(strandings.values()) >= 10
        assert all(ageing and not overload for _s, _e, ageing, overload in strandings)

    def test_cloud_unavailable_aborts_are_logged(self):
        report = run_scenario(crashy_config(EarlyFailurePolicy.WAIT))
        aborted = {
            kind: n
            for kind, n in errors_by_kind(report.error_log).items()
            if kind[1] == "cloud-unavailable"
        }
        assert sum(aborted.values()) > 0
        assert not any(ageing for _s, _e, ageing, _o in aborted)


class TestSharedClock:
    """The gauge series of a report hold one read-only clock."""

    @pytest.mark.parametrize("tie", [False, True], ids=["plain", "tied-rejuvenation-sample"])
    def test_every_gauge_holds_one_timestamps_object(self, tie):
        """With a rejuvenation shorter than the sample interval, the
        rejuvenation sample lands on the detection hour's tick and is
        nudged past it; the gauges still share the nudged clock."""
        rejuvenation = 30.0 if tie else 3600.0
        report = run_scenario(
            crashy_config(
                EarlyFailurePolicy.REJUVENATE,
                resources=quiet_resources(rejuvenation_seconds=rejuvenation),
            )
        )
        gauges = [s for name, s in report.series.items() if name != "workload-duration"]
        assert len(gauges) == 4
        clock = gauges[0].timestamps
        assert all(s.timestamps is clock for s in gauges)
        assert not clock.flags.writeable
        assert (3600.0 + 1e-9 in clock.tolist()) is tie

    def test_tied_readings_keep_the_order_they_were_read_in(self):
        """The detection hour's last stress tick and the rejuvenation sample
        share a stamp; every gauge holds the stress tick at the stamp and
        the rejuvenation sample just past it, rather than whichever of its
        two readings is the larger at each."""
        report = run_scenario(
            crashy_config(
                EarlyFailurePolicy.REJUVENATE, resources=quiet_resources(rejuvenation_seconds=10.0)
            )
        )
        assert report.rejuvenation_started == 3600.0
        gauges = {name: s for name, s in report.series.items() if name != "workload-duration"}
        clock = gauges["memory-available"].timestamps.tolist()
        after = clock.index(3600.0) + 1
        assert clock[after] == 3600.0 + 1e-9
        fresh = {name: s.values[after] for name, s in gauges.items()}
        assert fresh == {
            "memory-available": 1.5,
            "swap-used": 0.0,
            "disk-used-compute-1": 0.0,
            "disk-used-compute-2": 0.0,
        }
        assert gauges["memory-available"].values[after - 1] < 1.5

    def test_report_survives_pickle(self):
        report = run_scenario(
            crashy_config(
                EarlyFailurePolicy.REJUVENATE, resources=quiet_resources(rejuvenation_seconds=30.0)
            )
        )
        copy = pickle.loads(pickle.dumps(report))
        assert copy == report
        for f in dataclasses.fields(report):
            assert getattr(copy, f.name) == getattr(report, f.name), f.name
        assert repr(copy) == repr(report)
        assert copy.totals == report.totals
        assert render_tables(copy) == render_tables(report)
        assert report_document(copy) == report_document(report)

    @pytest.mark.parametrize("protocol", [4, 5])
    def test_a_pickled_report_keeps_one_clock(self, protocol):
        """The pickle memo keeps one timestamps array for all the gauges;
        unpickling hands that one array to every gauge series again."""
        report = run_scenario(ScenarioConfig(scenario_id="x", stress_hours=2))
        copy = pickle.loads(pickle.dumps(report, protocol=protocol))
        assert copy == report
        gauges = [s for name, s in copy.series.items() if name != "workload-duration"]
        assert len(gauges) == 4
        assert len({id(s.timestamps) for s in gauges}) == 1
        assert not gauges[0].timestamps.flags.writeable


# ── Overload ─────────────────────────────────────────────────────────────


class TestOverload:
    def test_quota_rejections_flagged_as_overload(self):
        config = ScenarioConfig(
            scenario_id="ov",
            concurrency=16,
            stress_hours=2,
            seed=5,
            resources=quiet_resources(),
        )
        report = run_scenario(config)
        rejections = {
            kind: n for kind, n in errors_by_kind(report.error_log).items() if kind[3]
        }
        assert sum(rejections.values()) > 0
        assert all(
            error == "quota-exceeded-security-group" and not ageing
            for _s, error, ageing, _o in rejections
        )
        # Rejections still unwinding at the deadline are logged but not
        # recorded as results, so the tallies differ by at most the slots.
        assert 0 <= sum(rejections.values()) - report.totals["non-ageing-failure"] <= 16
        assert report.totals["success"] > 0
        assert report.failure_point is None


# ── Degenerate phases ────────────────────────────────────────────────────


class TestDegeneratePhases:
    def test_zero_stress_hours(self):
        config = ScenarioConfig(
            scenario_id="z", stress_hours=0, seed=1, resources=quiet_resources()
        )
        report = run_scenario(config)
        assert report.rejuvenation_started == 0.0
        assert report.rejuvenation_ended == 3600.0
        memory = report.analyses["memory-available"]
        assert memory.trend.verdict is TrendVerdict.INSUFFICIENT_DATA
        assert memory.ageing is None
        assert memory.ageing_unavailable is not None

    def test_zero_post_hours(self):
        config = ScenarioConfig(
            scenario_id="z",
            stress_hours=2,
            post_rejuvenation_hours=0,
            seed=1,
            resources=quiet_resources(),
        )
        report = run_scenario(config)
        memory = report.analyses["memory-available"]
        assert memory.ageing is None
        assert "post-rejuvenation" in memory.ageing_unavailable

    def test_unreachable_post_deadline_refused_before_the_stress_phase(self):
        """A post phase the clock cannot reach is refused when the config is
        built, not after a simulated stress day: by the constructor, by
        ``from_document`` and by ``dataclasses.replace``, the ``--phases``
        path of ``agesim run``."""
        fields = dict(scenario_id="late", concurrency=64)
        with pytest.raises(ConfigError, match="cannot advance a clock"):
            ScenarioConfig(**fields, post_rejuvenation_hours=10**300)
        with pytest.raises(ConfigError, match="cannot advance a clock"):
            ScenarioConfig.from_document({**fields, "post_rejuvenation_hours": 10**300})
        with pytest.raises(ConfigError, match="cannot advance a clock"):
            dataclasses.replace(ScenarioConfig(**fields), post_rejuvenation_hours=10**300)


# ── Error log ────────────────────────────────────────────────────────────


class TestErrorLog:
    @pytest.fixture(scope="class")
    def log(self):
        return run_scenario(crashy_config(EarlyFailurePolicy.WAIT, stress_hours=1)).error_log

    def test_two_runs_of_one_config_give_equal_logs(self, log):
        again = run_scenario(crashy_config(EarlyFailurePolicy.WAIT, stress_hours=1)).error_log
        assert len(log) > 0
        assert again == log
        assert again != ErrorLog(log.times + 1.0, log.codes, log.kinds)

    def test_kinds_are_listed_in_order_of_first_appearance(self, log):
        _, first_rows = np.unique(log.codes, return_index=True)
        assert sorted(first_rows.tolist()) == first_rows.tolist()
        assert len(set(log.codes.tolist())) == len(log.kinds)

    def test_survives_pickle(self, log):
        copy = pickle.loads(pickle.dumps(log))
        assert copy == log
        assert not copy.times.flags.writeable and not copy.codes.flags.writeable

    def test_fields_and_columns_are_read_only(self, log):
        with pytest.raises(dataclasses.FrozenInstanceError):
            log.times = log.times[:1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            del log.kinds
        with pytest.raises(ValueError):
            log.codes[0] = 0

    @pytest.mark.parametrize(
        "times, codes, kinds",
        [
            ([1.0, 2.0], [0], [("s", "e", False, False)]),
            ([1.0], [1], [("s", "e", False, False)]),
            ([1.0], [-1], [("s", "e", False, False)]),
            ([1.0], [0], []),
            ([1.0], [0], [("s", "e", False, False), ("s", "e", False, False)]),
        ],
        ids=["lengths-differ", "code-past-kinds", "code-negative", "no-kinds", "kind-repeated"],
    )
    def test_constructor_rejects_a_broken_log(self, times, codes, kinds):
        with pytest.raises(ValueError):
            ErrorLog(times, codes, kinds)


# ── Deploy failures ──────────────────────────────────────────────────────


class TestDeployFailure:
    def test_certain_deploy_failure(self):
        config = ScenarioConfig(
            scenario_id="df", deploy_failure_probability=1.0, seed=1
        )
        report = run_scenario(config)
        assert report.deploy_failed
        assert report.series == {}
        assert len(report.error_log) == 0
        assert sum(report.totals.values()) == 0

    def test_zero_probability_never_fails_deploy(self):
        config = ScenarioConfig(
            scenario_id="df", stress_hours=1, seed=1, resources=quiet_resources()
        )
        assert not run_scenario(config).deploy_failed

    def test_deploy_draw_is_seeded(self):
        config = ScenarioConfig(
            scenario_id="df", stress_hours=1, deploy_failure_probability=0.5, seed=9
        )
        outcomes = {run_scenario(config).deploy_failed for _ in range(3)}
        assert len(outcomes) == 1


# ── Config documents ─────────────────────────────────────────────────────


class TestConfigDocuments:
    def test_round_trip(self):
        config = ScenarioConfig(
            scenario_id="rt",
            topology="all-in-one",
            concurrency=4,
            stress_hours=6,
            post_rejuvenation_hours=2,
            seed=123,
            policy=EarlyFailurePolicy.REJUVENATE,
            resources=quiet_resources(disk_capacity_gb=50.0),
            timing=TimingParams(default_seconds=1.0, step_seconds={"boot server": 4.0}),
            quotas={EntityKind.SERVER: 5},
            faults={"boot server": {"server-error-status": 0.25}},
            workload=WorkloadDefinition(DEFAULT_STEPS),
            sample_interval_seconds=60.0,
            deploy_failure_probability=0.1,
        )
        assert ScenarioConfig.from_document(config.to_document()) == config

    def test_defaults_round_trip(self):
        config = ScenarioConfig(scenario_id="rt")
        assert ScenarioConfig.from_document(config.to_document()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_document({"scenario_id": "x", "surprise": 1})

    def test_unknown_resource_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_document(
                {"scenario_id": "x", "resources": {"ram_gb": 4}}
            )

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_document({"scenario_id": "x", "policy": "hope"})

    def test_bad_quota_kind_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_document({"scenario_id": "x", "quotas": {"widget": 3}})

    def test_missing_id_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_document({"topology": "multi-node"})

    def test_validation_guards(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario_id="x", concurrency=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario_id="x", stress_hours=-1)
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario_id="x", topology="ring")
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario_id="x", sample_interval_seconds=0.0)

    def test_fault_table_checked_against_the_workload(self):
        """Step names under ``faults`` are checked against the scenario's
        definition: the default one, or the custom one it names."""
        with pytest.raises(ConfigError, match="faults names unknown step 'launch rocket'"):
            ScenarioConfig(scenario_id="x", faults={"launch rocket": {"rebuild-error": 0.0}})
        default = DEFAULT_STEPS
        custom = {
            "workload": WorkloadDefinition(steps=default[:2] + default[-2:]),  # user and role
            "timing": TimingParams(step_seconds={}),
            "resources": ResourceParams(cache_depositing_steps=()),
        }
        with pytest.raises(ConfigError, match="faults names unknown step 'boot server'"):
            ScenarioConfig(
                scenario_id="x", faults={"boot server": {"server-error-status": 0.5}}, **custom
            )
        table = {"create role": {"rebuild-error": 0.5}}
        assert ScenarioConfig(scenario_id="x", faults=table, **custom).faults == table

    def test_concurrency_is_bounded(self):
        """Built only: a stream schedules every slot's launch up front."""
        assert ScenarioConfig(scenario_id="x", concurrency=MAX_CONCURRENCY).concurrency
        for concurrency in (MAX_CONCURRENCY + 1, 10**30):
            with pytest.raises(ConfigError, match="concurrency must lie in"):
                ScenarioConfig(scenario_id="x", concurrency=concurrency)
        with pytest.raises(ConfigError, match="concurrency must lie in"):
            ScenarioConfig.from_document({"scenario_id": "x", "concurrency": 10**30})

    def test_tick_count_is_bounded(self):
        """Built only: 2,000 hours sampled at exactly ``MAX_TICKS`` ticks
        builds, and one float step of the interval below refuses."""
        interval = 3600.0 * 2000 / (MAX_TICKS - 1)
        fields = dict(scenario_id="x", stress_hours=1999, post_rejuvenation_hours=1)
        assert ScenarioConfig(**fields, sample_interval_seconds=interval)
        with pytest.raises(ConfigError, match=f"at most {MAX_TICKS} ticks, got 4194304.00"):
            ScenarioConfig(**fields, sample_interval_seconds=math.nextafter(interval, 0.0))

    def test_slot_hours_are_bounded(self):
        """Built only: 64 slots for ``MAX_SLOT_HOURS / 64`` hours builds,
        and one stress hour more is refused."""
        fields = dict(scenario_id="x", concurrency=64, sample_interval_seconds=3600.0)
        hours = MAX_SLOT_HOURS // 64
        assert ScenarioConfig(**fields, stress_hours=hours - 1)
        with pytest.raises(
            ConfigError, match=f"at most {MAX_SLOT_HOURS} slot-hours, got {MAX_SLOT_HOURS + 64}$"
        ):
            ScenarioConfig(**fields, stress_hours=hours)

    @pytest.mark.parametrize("field", ["stress_hours", "post_rejuvenation_hours"])
    def test_phase_overflowing_a_float_in_seconds_rejected(self, field):
        """Phase seconds are floats; an hour count past them is no long run."""
        for hours in (10**400, 1e305):
            with pytest.raises(ConfigError, match=f"{field} is too long"):
                ScenarioConfig(scenario_id="x", **{field: hours})
        with pytest.raises(ConfigError, match=f"{field} is too long"):
            ScenarioConfig.from_document({"scenario_id": "x", field: 10**400})
        # 10**300 hours count in seconds, where no step can advance the clock
        with pytest.raises(ConfigError, match="cannot advance a clock"):
            ScenarioConfig(scenario_id="x", **{field: 10**300})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must not be negative"):
            ScenarioConfig(scenario_id="x", seed=-1)
        assert ScenarioConfig(scenario_id="x", seed=0).seed == 0

    @pytest.mark.parametrize(
        "scenario_id", ["", ".", "..", "/../../../escapedX", "a/b", "a b", "x\\y", "c\n"]
    )
    def test_unsafe_scenario_id_rejected(self, scenario_id):
        """An id names the bundle directory ``scenario-{id}``."""
        with pytest.raises(ConfigError, match="scenario_id must be"):
            ScenarioConfig(scenario_id=scenario_id)

    @pytest.mark.parametrize("scenario_id", ["1", "memory-multi-node-c8", "a.b_C-9", "..."])
    def test_safe_scenario_id_accepted(self, scenario_id):
        assert ScenarioConfig(scenario_id=scenario_id).scenario_id == scenario_id


# ── Hostile config documents ─────────────────────────────────────────────


#: Valid documents whose every field the fuzzer may spoil: the default
#: workload with a quota and a fault table, and a user-and-role workload
#: that spells out its steps.
FUZZ_BASES = (
    ScenarioConfig(
        scenario_id="fuzz",
        concurrency=4,
        stress_hours=1,
        seed=1,
        quotas={EntityKind.SERVER: 5},
        faults={"boot server": {"server-error-status": 0.25}},
    ).to_document(),
    ScenarioConfig(
        scenario_id="fuzz",
        concurrency=2,
        stress_hours=1,
        policy=EarlyFailurePolicy.REJUVENATE,
        resources=ResourceParams(cache_depositing_steps=()),
        timing=TimingParams(step_seconds={}),
        faults={"create role": {"rebuild-error": 0.5}},
        workload=WorkloadDefinition(steps=DEFAULT_STEPS[:2] + DEFAULT_STEPS[-2:]),
    ).to_document(),
)

#: Type swaps, zero, negatives, huge numbers and a null.
HOSTILE_VALUES = (None, "text", [], {}, True, 1.5, 0, 0.0, -1, -1.5, 2**63, 10**30, 10**400, 1e308)
HOSTILE_IDS = ("a/b", "/", "..", "../x", "x/..", ".")


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def document_paths(node, path=()):
    """The key path of ``node`` and of every object, list and value in it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from document_paths(child, (*path, key))


def spoiled(doc, path, value):
    """A copy of ``doc`` with ``value`` in place of what ``path`` names."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node_at(doc, path[:-1])[path[-1]] = value
    return doc


@st.composite
def hostile_documents(draw):
    """A base document with one change: a hostile value in place of any
    field, object or list, an unknown key in any object, or an id that
    is a path."""
    doc = draw(st.sampled_from(FUZZ_BASES))
    kind = draw(st.sampled_from(["value", "unknown-key", "id"]))
    if kind == "id":
        return {**doc, "scenario_id": draw(st.sampled_from(HOSTILE_IDS))}
    paths = list(document_paths(doc))
    if kind == "unknown-key":
        path = draw(st.sampled_from([p for p in paths if isinstance(node_at(doc, p), dict)]))
        return spoiled(doc, path, {**node_at(doc, path), "unknown": 1})
    return spoiled(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(HOSTILE_VALUES)))


@settings(max_examples=400)
@given(doc=hostile_documents())
# a noise range of 2e308 overflowed the draw with an OverflowError
@example(doc=spoiled(FUZZ_BASES[0], ("resources", "warmup_noise_gb"), 1e308))
def test_a_hostile_config_ends_in_a_report_or_an_agesim_error(doc):
    """A config with one spoiled field is refused with an ``AgesimError``,
    or it runs to a report or to an ``AgesimError``; no other exception
    escapes.  It runs only within one stress and one post hour at up to
    256 slots."""
    try:
        config = ScenarioConfig.from_document(doc)
        hours = max(config.stress_hours, config.post_rejuvenation_hours)
        if hours <= 1 and config.concurrency <= 256:
            assert isinstance(run_scenario(config), ScenarioReport)
    except AgesimError:
        pass


@pytest.mark.parametrize(
    "field",
    ["cache_image_gb", "leak_per_workload_gb", "leftover_retention_gb", "warmup_alloc_gb"],
)
def test_a_deposit_near_the_float_limit_is_refused_with_the_config(field):
    """A deposit of 1e308 GB would overflow the gauge it feeds to inf,
    and only the hourly binning would refuse that, after the whole run.
    The config refuses it up front, naming the field and the cap; a
    deposit of exactly ``MAX_DEPOSIT_GB`` is valid."""
    config = spoiled(FUZZ_BASES[0], ("resources", field), 1e308)
    with pytest.raises(ConfigError, match=f"^{field} must be at most 1e\\+12 GB$"):
        ScenarioConfig.from_document(config)
    at_cap = spoiled(FUZZ_BASES[0], ("resources", field), MAX_DEPOSIT_GB)
    assert getattr(ScenarioConfig.from_document(at_cap).resources, field) == MAX_DEPOSIT_GB


# ── Suites and the default matrix ────────────────────────────────────────


class TestSuite:
    def test_runs_all_scenarios(self):
        configs = [
            ScenarioConfig(
                scenario_id=str(i), stress_hours=1, seed=i, resources=quiet_resources()
            )
            for i in (1, 2)
        ]
        result = run_suite(configs)
        assert [r.scenario_id for r in result.reports] == ["1", "2"]
        assert result.errors == {}

    def test_duplicate_ids_rejected(self):
        configs = [
            ScenarioConfig(scenario_id="1", stress_hours=1),
            ScenarioConfig(scenario_id="1", stress_hours=1),
        ]
        with pytest.raises(ConfigError):
            run_suite(configs)

    def test_empty_suite(self):
        result = run_suite([])
        assert result.reports == ()
        assert result.errors == {}

    @pytest.mark.parametrize(
        "stress_hours, post_hours, rejuvenation_seconds, refusal",
        [
            # the post phase runs where the clock resolves 16 s
            (
                *(0, 1, 1e17),
                "a 2.0 s step cannot advance a clock at 1.000000000000036e+17 s:"
                " its resolution there is 16.0 s",
            ),
            (
                *(1, 1, 1e17),
                "a 2.0 s step cannot advance a clock at 1.000000000000072e+17 s:"
                " its resolution there is 16.0 s",
            ),
            (1, 0, 1e17, None),  # no stream runs after the rejuvenation
            (0, 1, 2.0**53, None),  # the clock resolves 2 s, which a 2 s step advances
            (
                *(0, 1, 2.0**54),
                "a 2.0 s step cannot advance a clock at 1.8014398509485584e+16 s:"
                " its resolution there is 4.0 s",
            ),
            # the post phase's end rounds onto its start
            (
                *(0, 1, 1e20),
                "a 3600.0 s post-rejuvenation phase cannot advance a clock at 1e+20 s:"
                " its resolution there is 16384.0 s",
            ),
            (
                *(1, 1, 1e308),
                "a 3600.0 s post-rejuvenation phase cannot advance a clock at 1e+308 s:"
                " its resolution there is 1.99584030953472e+292 s",
            ),
            (0, 1, math.inf, "stream deadline must be finite, got inf"),
            # the empty post phase would start at infinity
            (1, 0, math.inf, "stream deadline must be finite, got inf"),
            # the stress phase cannot reach its end
            (
                *(10**300, 1, 0.0),
                "a 2.0 s step cannot advance a clock at 3.6e+303 s:"
                " its resolution there is 6.090821257125e+287 s",
            ),
        ],
    )
    def test_refuses_before_any_run_what_run_scenario_refuses(
        self, stress_hours, post_hours, rejuvenation_seconds, refusal
    ):
        """A config whose streams could not reach or resolve a deadline
        cannot be built, from fields or from a document, and the refusal
        keeps the text ``run_scenario`` gave while it checked deadlines
        itself; any other config runs in ``run_suite``."""
        fields = dict(
            scenario_id="late", stress_hours=stress_hours, post_rejuvenation_hours=post_hours
        )
        resources = dict(warmup_noise_gb=0.0, warmup_alloc_gb=0.0, ageing_rate=0.0)
        resources["rejuvenation_seconds"] = rejuvenation_seconds
        if refusal is not None:
            exact = f"^{re.escape(refusal)}$"
            with pytest.raises(ConfigError, match=exact):
                ScenarioConfig(**fields, resources=ResourceParams(**resources))
            # a document holds finite numbers only, so refuses inf as its own error
            if math.isfinite(rejuvenation_seconds):
                with pytest.raises(ConfigError, match=exact):
                    ScenarioConfig.from_document({**fields, "resources": resources})
            return
        late = ScenarioConfig(**fields, resources=ResourceParams(**resources))
        assert ScenarioConfig.from_document({**fields, "resources": resources}) == late
        first = ScenarioConfig(scenario_id="first", stress_hours=0, post_rejuvenation_hours=0)
        result = run_suite([first, late])
        assert [r.scenario_id for r in result.reports] == ["first", "late"]
        assert result.errors == {}


class TestDefaultMatrix:
    def test_twelve_scenarios(self):
        configs = default_matrix(base_seed=0)
        assert [c.scenario_id for c in configs] == [str(i) for i in range(1, 13)]
        assert [c.topology for c in configs[:6]] == ["multi-node"] * 6
        assert [c.topology for c in configs[6:]] == ["all-in-one"] * 6
        assert tuple(c.concurrency for c in configs[:6]) == MATRIX_CONCURRENCIES
        assert tuple(c.concurrency for c in configs[6:]) == MATRIX_CONCURRENCIES

    def test_scenario_seeds_are_distinct(self):
        configs = default_matrix(base_seed=0)
        seeds = {c.seed for c in configs}
        assert len(seeds) == 12

    def test_matrix_is_reproducible(self):
        assert default_matrix(base_seed=42) == default_matrix(base_seed=42)
        assert default_matrix(base_seed=1) != default_matrix(base_seed=2)
