"""Report rendering: documents, tables, disk bundles, determinism."""

import csv
import dataclasses
import filecmp
import json

import pytest

from agesim.cloud import ResourceParams
from agesim.ingest import ingest
from agesim.report import (
    error_distribution,
    render_tables,
    report_document,
    suite_trend_table,
    verdict_marker,
    write_bundle,
    write_error_log,
    write_suite_bundle,
)
from agesim.scenario import (
    EarlyFailurePolicy,
    ErrorEvent,
    ScenarioConfig,
    run_scenario,
    run_suite,
)
from agesim.trendstats import TrendVerdict
from agesim.workload import StepAction, StepSpec, TimingParams, WorkloadDefinition


@pytest.fixture(scope="module")
def report():
    return run_scenario(ScenarioConfig(scenario_id="1", seed=7))


@pytest.fixture(scope="module")
def overload_report():
    config = ScenarioConfig(
        scenario_id="ov",
        concurrency=16,
        stress_hours=2,
        post_rejuvenation_hours=1,
        seed=11,
    )
    return run_scenario(config)


@pytest.fixture(scope="module")
def crashy_report():
    config = ScenarioConfig(
        scenario_id="crash",
        concurrency=8,
        stress_hours=4,
        post_rejuvenation_hours=1,
        seed=3,
        policy=EarlyFailurePolicy.WAIT,
        faults={"boot server": {"server-error-status": 0.5}},
    )
    return run_scenario(config)


@pytest.fixture(scope="module")
def suite():
    configs = [
        ScenarioConfig(
            scenario_id="s1", stress_hours=1, post_rejuvenation_hours=1, seed=1
        ),
        ScenarioConfig(
            scenario_id="s2",
            concurrency=4,
            stress_hours=1,
            post_rejuvenation_hours=1,
            seed=2,
        ),
    ]
    return run_suite(configs)


@pytest.fixture(scope="module")
def failed_report():
    config = ScenarioConfig(
        scenario_id="dead", seed=5, deploy_failure_probability=1.0
    )
    return run_scenario(config)


class TestVerdictMarkers:
    def test_all_verdicts_have_markers(self):
        assert verdict_marker(TrendVerdict.UPWARD) == "up"
        assert verdict_marker(TrendVerdict.DOWNWARD) == "down"
        assert verdict_marker(TrendVerdict.NO_TREND) == "flat"
        assert verdict_marker(TrendVerdict.INSUFFICIENT_DATA) == "n/a"


class TestDocument:
    def test_scenario_block(self, report):
        doc = report_document(report)
        assert doc["scenario"] == {
            "id": "1",
            "topology": "multi-node",
            "concurrency": 1,
            "seed": 7,
            "policy": "wait-for-schedule",
            "stress_hours": 24,
            "post_rejuvenation_hours": 1,
        }
        assert doc["deploy_failed"] is False
        assert doc["failure_point"] is None
        assert doc["rejuvenation"] == {"started": 86400.0, "ended": 90000.0}
        assert doc["trend_input"] == "stress-bins-only"

    def test_indicator_entries_match_analyses(self, report):
        doc = report_document(report)
        assert sorted(doc["indicators"]) == sorted(report.analyses)
        entry = doc["indicators"]["memory-available"]
        analysis = report.analyses["memory-available"]
        assert entry["trend"]["n"] == analysis.trend.n
        assert entry["trend"]["s_statistic"] == analysis.trend.s_statistic
        assert entry["trend"]["verdict"] == "downward"
        assert entry["hourly"]["hours"] == list(analysis.hourly.hours)
        assert entry["ageing"]["ageing_a"] == pytest.approx(
            analysis.ageing.ageing_a, rel=1e-9
        )
        assert entry["ageing_unavailable"] is None

    def test_document_is_json_serializable(self, report):
        text = json.dumps(report_document(report))
        assert json.loads(text)["scenario"]["id"] == "1"

    def test_totals_and_counts_copied(self, report):
        doc = report_document(report)
        assert doc["totals"] == dict(report.totals)
        assert len(doc["hourly_counts"]) == len(report.hourly_counts)


class TestErrorDistribution:
    def test_overload_held_out_by_default(self, overload_report):
        distribution, overload = error_distribution(overload_report)
        assert overload > 0
        assert "quota-exceeded-security-group" not in distribution

    def test_overload_included_on_request(self, overload_report):
        distribution, overload = error_distribution(
            overload_report, exclude_overload=False
        )
        assert overload == 0
        assert distribution["quota-exceeded-security-group"] > 0

    def test_counts_cover_whole_log(self, overload_report):
        distribution, overload = error_distribution(overload_report)
        assert sum(distribution.values()) + overload == len(
            overload_report.error_log
        )

    def test_sorted_most_frequent_first(self, crashy_report):
        distribution, _ = error_distribution(crashy_report)
        counts = list(distribution.values())
        assert counts == sorted(counts, reverse=True)


class TestTables:
    def test_header_and_phases(self, report):
        text = render_tables(report)
        assert "scenario 1" in text
        assert "topology multi-node" in text
        assert "rejuvenation from 86400 s to 90000 s" in text

    def test_verdict_markers_rendered(self, report):
        text = render_tables(report)
        lines = [l for l in text.splitlines() if l.startswith("memory-available")]
        assert any("down" in l for l in lines)
        lines = [l for l in text.splitlines() if l.startswith("swap-used")]
        assert any(" up " in l or l.rstrip().endswith("up") or " up" in l for l in lines)

    def test_hourly_counts_rendered(self, report):
        text = render_tables(report)
        assert "workloads per hour" in text
        # one row per populated hour plus header
        section = text.split("workloads per hour")[1]
        rows = [l for l in section.splitlines() if l.strip() and l[:4].strip().isdigit()]
        assert len(rows) == len(report.hourly_counts)

    def test_failure_and_exclusion_lines(self, crashy_report):
        text = render_tables(crashy_report)
        assert "cloud failed at" in text
        assert "excluded window" in text

    def test_overload_note(self, overload_report):
        text = render_tables(overload_report)
        assert "overload rejections excluded from the table" in text
        without = render_tables(overload_report, exclude_overload=False)
        assert "overload rejections excluded" not in without
        assert "quota-exceeded-security-group" in without


class TestBundle:
    def test_file_layout(self, report, tmp_path):
        out = write_bundle(report, tmp_path / "bundle")
        assert (out / "report.json").is_file()
        assert (out / "tables.txt").is_file()
        assert (out / "errors.csv").is_file()
        series = sorted(p.name for p in (out / "series").iterdir())
        expected = sorted(f"{name}.csv" for name in report.series)
        assert series == expected

    def test_series_round_trip_exact(self, report, tmp_path):
        out = write_bundle(report, tmp_path / "bundle")
        for name, original in report.series.items():
            parsed = ingest(out / "series" / f"{name}.csv", unit=original.unit)
            assert parsed[name].samples == original.samples

    def test_errors_csv_keeps_all_rows(self, overload_report, tmp_path):
        out = write_bundle(overload_report, tmp_path / "bundle")
        rows = (out / "errors.csv").read_text().splitlines()
        assert rows[0] == "time,step,error,ageing,overload"
        assert len(rows) - 1 == len(overload_report.error_log)
        assert any(",true" in row for row in rows[1:])

    def test_errors_csv_quotes_step_names_holding_commas(self, tmp_path):
        poke = StepSpec("poke, twice", "test", StepAction.OPERATE)
        config = ScenarioConfig(
            scenario_id="poke",
            stress_hours=1,
            post_rejuvenation_hours=0,
            workload=WorkloadDefinition(steps=(poke,)),
            timing=TimingParams(step_seconds={}),
            resources=ResourceParams(cache_depositing_steps=()),
            faults={poke.name: {"rebuild-error": 0.5}},
        )
        report = run_scenario(config)
        out = write_bundle(report, tmp_path / "bundle")
        with open(out / "errors.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == len(report.error_log) > 0
        assert {len(row) for row in rows} == {5}
        assert {row[1] for row in rows[1:]} == {"poke, twice"}

    def test_errors_csv_writes_both_flags_of_each_event(self, overload_report, tmp_path):
        events = tuple(
            ErrorEvent(time=60.0 * i, step="boot server", error="e", ageing=ageing, overload=overload)
            for i, (ageing, overload) in enumerate(
                [(False, False), (True, False), (False, True), (True, True)]
            )
        )
        path = tmp_path / "errors.csv"
        write_error_log(dataclasses.replace(overload_report, error_log=events), path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "time,step,error,ageing,overload",
            "0,boot server,e,false,false",
            "60,boot server,e,true,false",
            "120,boot server,e,false,true",
            "180,boot server,e,true,true",
        ]

    def test_json_reflects_exclusion_flag(self, overload_report, tmp_path):
        out = write_bundle(overload_report, tmp_path / "kept", exclude_overload=False)
        doc = json.loads((out / "report.json").read_text())
        assert doc["overload_errors_excluded"] == 0
        assert doc["error_distribution"]["quota-exceeded-security-group"] > 0

    def test_bundle_is_byte_deterministic(self, report, tmp_path):
        first = write_bundle(report, tmp_path / "a")
        second = write_bundle(report, tmp_path / "b")
        for path in sorted(first.rglob("*")):
            if path.is_dir():
                continue
            twin = second / path.relative_to(first)
            assert path.read_bytes() == twin.read_bytes(), path.name


class TestSuiteBundle:
    def test_layout(self, suite, tmp_path):
        out = write_suite_bundle(suite, tmp_path / "suite")
        assert (out / "scenario-s1" / "report.json").is_file()
        assert (out / "scenario-s2" / "report.json").is_file()
        assert (out / "trend_table.txt").is_file()
        assert (out / "suite.json").is_file()

    def test_trend_table_rows(self, suite):
        text = suite_trend_table(suite.reports)
        lines = text.splitlines()
        body = [l for l in lines[1:] if l.strip()]
        expected = sum(len(r.analyses) for r in suite.reports)
        assert len(body) == expected
        assert all(l.lstrip().startswith(("s1", "s2")) for l in body)

    def test_suite_json_summary(self, suite, tmp_path):
        out = write_suite_bundle(suite, tmp_path / "suite")
        doc = json.loads((out / "suite.json").read_text())
        assert [s["id"] for s in doc["scenarios"]] == ["s1", "s2"]
        assert doc["errors"] == {}
        for entry in doc["scenarios"]:
            assert entry["deploy_failed"] is False
            assert set(entry["verdicts"]) == set(
                suite.reports[0].analyses
            ) or set(entry["verdicts"])

    def test_suite_bundle_deterministic(self, suite, tmp_path):
        a = write_suite_bundle(suite, tmp_path / "a")
        b = write_suite_bundle(suite, tmp_path / "b")
        comparison = filecmp.dircmp(a, b)
        mismatches = []

        def collect(cmp):
            mismatches.extend(cmp.diff_files)
            for sub in cmp.subdirs.values():
                collect(sub)

        collect(comparison)
        assert mismatches == []


class TestDeployFailedRendering:
    def test_short_table(self, failed_report):
        text = render_tables(failed_report)
        assert "deployment failed; no phases were run" in text
        assert "workloads per hour" not in text

    def test_document_flags(self, failed_report):
        doc = report_document(failed_report)
        assert doc["deploy_failed"] is True
        assert doc["indicators"] == {}

    def test_bundle_skips_series_dir(self, failed_report, tmp_path):
        out = write_bundle(failed_report, tmp_path / "dead")
        assert not (out / "series").exists()
        assert (out / "report.json").is_file()
