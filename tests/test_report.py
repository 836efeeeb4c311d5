"""Report rendering: documents, tables, disk bundles, determinism."""

import csv
import dataclasses
import filecmp
import hashlib
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agesim import report as report_module
from agesim.cloud import ResourceParams
from agesim.ingest import (
    csv_cell,
    format_timestamp,
    ingest,
    serialize_series,
    write_error_log,
)
from agesim.report import (
    VERDICT_MARKERS,
    error_distribution,
    render_tables,
    report_document,
    suite_trend_table,
    write_bundle,
    write_suite_bundle,
)
from agesim.scenario import (
    EarlyFailurePolicy,
    ErrorLog,
    ScenarioConfig,
    run_scenario,
    run_suite,
)
from agesim.trendstats import IndicatorSeries, TrendVerdict
from agesim.workload import StepAction, StepSpec, TimingParams, WorkloadDefinition
from chunk_edges import CHUNK_EDGE_ROWS, chunk_edge_series


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
        assert VERDICT_MARKERS[TrendVerdict.UPWARD] == "up"
        assert VERDICT_MARKERS[TrendVerdict.DOWNWARD] == "down"
        assert VERDICT_MARKERS[TrendVerdict.NO_TREND] == "flat"
        assert VERDICT_MARKERS[TrendVerdict.INSUFFICIENT_DATA] == "n/a"


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

    def test_held_out_count_completes_the_tally_by_name(self, overload_report):
        """The distribution plus the held-out count is the tally by name
        that the README's ``np.bincount`` recipe gives."""
        log = overload_report.error_log
        by_name = Counter()
        counts = np.bincount(log.codes, minlength=len(log.kinds))
        for (_step, error, _ageing, _overload), n in zip(log.kinds, counts.tolist()):
            by_name[error] += n
        distribution, overload = error_distribution(overload_report)
        assert overload > 0
        held_out = Counter({"quota-exceeded-security-group": overload})
        assert Counter(distribution) + held_out == by_name

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
        poke = StepSpec("poke, twice", StepAction.OPERATE)
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

    def test_errors_csv_writes_both_flags_of_each_event(self, tmp_path):
        flags = [(False, False), (True, False), (False, True), (True, True)]
        log = ErrorLog(
            [60.0 * i for i in range(4)],
            range(4),
            [("boot server", "e", ageing, overload) for ageing, overload in flags],
        )
        path = tmp_path / "errors.csv"
        write_error_log(log, path)
        assert path.read_text(encoding="utf-8").splitlines() == [
            "time,step,error,ageing,overload",
            "0,boot server,e,false,false",
            "60,boot server,e,true,false",
            "120,boot server,e,false,true",
            "180,boot server,e,true,true",
        ]

    def test_json_counts_the_rows_flagged_overload(self, overload_report, tmp_path):
        out = write_bundle(overload_report, tmp_path / "bundle")
        doc = json.loads((out / "report.json").read_text())
        with open(out / "errors.csv", newline="", encoding="utf-8") as handle:
            flagged = sum(row["overload"] == "true" for row in csv.DictReader(handle))
        assert doc["overload_errors_excluded"] == flagged > 0

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

    def test_failed_deployment_in_the_suite_outputs(self, tmp_path):
        """A scenario whose deployment failed gets one table row and a
        suite.json entry with no failure point, zero totals and no verdicts,
        beside a scenario that ran."""
        suite = run_suite(
            [
                ScenarioConfig(scenario_id="dead", seed=5, deploy_failure_probability=1.0),
                ScenarioConfig(
                    scenario_id="s1", stress_hours=1, post_rejuvenation_hours=1, seed=1
                ),
            ]
        )
        out = write_suite_bundle(suite, tmp_path / "suite")
        lines = (out / "trend_table.txt").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "    dead multi-node     1 deployment failed"
        assert all(line.lstrip().startswith("s1") for line in lines[2:])
        dead, ran = json.loads((out / "suite.json").read_text())["scenarios"]
        assert dead == {
            "id": "dead",
            "topology": "multi-node",
            "concurrency": 1,
            "deploy_failed": True,
            "failure_point": None,
            "totals": {"success": 0, "ageing-failure": 0, "non-ageing-failure": 0},
            "verdicts": {},
        }
        assert ran["deploy_failed"] is False
        assert ran["verdicts"]
        assert not (out / "scenario-dead" / "series").exists()

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


# ── Pinned bundle bytes ──────────────────────────────────────────────────


#: Fault mix that strands servers and fails the cloud inside the first hour.
_FAILING_FAULTS = {"boot server": {"server-error-status": 0.5}}

#: Short scenarios whose whole bundle tree is pinned: an early failure left
#: down until the scheduled rejuvenation (an excluded window), the same
#: failure rejuvenated at once, a run with no stress phase, and a
#: deployment that failed before anything ran.
BUNDLE_CASES = {
    "wait": ScenarioConfig(
        scenario_id="wait",
        concurrency=8,
        stress_hours=2,
        seed=3,
        policy=EarlyFailurePolicy.WAIT,
        faults=_FAILING_FAULTS,
    ),
    "rejuvenate": ScenarioConfig(
        scenario_id="rejuvenate",
        concurrency=8,
        stress_hours=2,
        seed=3,
        policy=EarlyFailurePolicy.REJUVENATE,
        faults=_FAILING_FAULTS,
    ),
    "no-stress": ScenarioConfig(scenario_id="no-stress", concurrency=4, stress_hours=0, seed=5),
    "dead": ScenarioConfig(scenario_id="dead", seed=5, deploy_failure_probability=1.0),
}

#: SHA-256 over the bundle tree of each case: every file's relative path,
#: byte length and bytes, in sorted path order.
BUNDLE_DIGESTS = {
    "wait": "57b7fa4d0e095875b0c74f984a1dde30c62f12b488d31ca269add2983c776c25",
    "rejuvenate": "9d487da02724588fa7cd0810c8b4e2e0b8b62a7907ad09e58b0fb38ac7b19a33",
    "no-stress": "63badc7606ad3b923619416b7a5914723871783eb8cfc8dd1958975bb0094bee",
    "dead": "2381652e409ec0836fb16b71441dbf7eebfc9b1de63d3f7cd12f13e25ed389a5",
}


def _tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


@pytest.mark.parametrize("name", BUNDLE_CASES)
def test_bundle_tree_digest(name, tmp_path):
    """``report.json``, ``tables.txt``, ``errors.csv`` and ``series/`` of
    each case are byte for byte the pinned ones."""
    report = run_scenario(BUNDLE_CASES[name])
    assert bool(report.excluded_windows) == (name == "wait")
    assert (report.failure_point is not None) == (name not in ("no-stress", "dead"))
    assert report.deploy_failed == (name == "dead")
    assert _tree_digest(write_bundle(report, tmp_path / name)) == BUNDLE_DIGESTS[name]


# ── Error log oracle ─────────────────────────────────────────────────────


def errors_csv_row_by_row(log: ErrorLog) -> str:
    """``errors.csv`` rendered one row at a time, as the writer did before
    the log was kept as columns: the reference for ``write_error_log``."""
    flag_cells = {
        (ageing, overload): f"{str(ageing).lower()},{str(overload).lower()}"
        for ageing in (False, True)
        for overload in (False, True)
    }
    rows = ["time,step,error,ageing,overload"]
    for t, code in zip(log.times.tolist(), log.codes.tolist()):
        step, error, ageing, overload = log.kinds[code]
        rows.append(
            f"{format_timestamp(t)},{csv_cell(step)},{csv_cell(error)},"
            f"{flag_cells[ageing, overload]}"
        )
    return "\n".join(rows) + "\n"


#: Names with the characters CSV must quote, beside plain ones.
error_names = st.one_of(
    st.sampled_from(["boot server", "quota-exceeded-security-group", "cloud-unavailable"]),
    st.text(st.sampled_from('ab ,"\n\r\'é'), max_size=6),
    st.text(max_size=4),
)
error_times = st.one_of(
    st.integers(-(10**6), 10**6).map(float),  # whole seconds
    st.floats(-1e6, 1e6).filter(lambda t: not t.is_integer()),  # fractional
    # negative zero, and whole stamps at the edges of float and int64 precision
    st.sampled_from([-0.0, 2.0**53, 2.0**63, -(2.0**63), 1e300, -1e300]),
    st.floats(),  # anything, infinities and NaN included
)


@st.composite
def error_logs(draw):
    kind = st.tuples(error_names, error_names, st.booleans(), st.booleans())
    kinds = draw(st.lists(kind, unique=True, max_size=6))
    codes = draw(st.lists(st.integers(0, len(kinds) - 1), max_size=40)) if kinds else []
    times = draw(st.lists(error_times, min_size=len(codes), max_size=len(codes)))
    return ErrorLog(times, codes, kinds)


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=150)
@given(log=error_logs())
@example(log=ErrorLog((), (), ()))
@example(
    log=ErrorLog(
        [0.0, -0.0, 1.5, 2.0**63, 1e300],
        [0, 1, 2, 3, 0],
        [("a,b", 'say "hi"', False, False), ("x\ny", "e", True, False),
         ("s", "quota", False, True), ("s", "quota", True, True)],
    )
)
def test_error_log_writer_and_counts_match_a_row_by_row_oracle(overload_report, oracle_dir, log):
    report = dataclasses.replace(overload_report, error_log=log)
    path = oracle_dir / "errors.csv"
    write_error_log(log, path)
    assert path.read_bytes() == errors_csv_row_by_row(log).encode("utf-8")

    rows = [log.kinds[code] for code in log.codes.tolist()]
    held_out = [error for _s, error, _a, overload in rows if overload]
    kept = Counter(error for _s, error, _a, overload in rows if not overload)
    distribution, overload = error_distribution(report)
    assert distribution == kept
    assert list(distribution) == sorted(kept, key=lambda error: (-kept[error], error))
    assert overload == len(held_out)


@pytest.mark.parametrize("n", CHUNK_EDGE_ROWS)
def test_bundle_csvs_across_chunk_edges(overload_report, tmp_path, n):
    """At every chunk edge, ``errors.csv`` matches the row-by-row oracle
    and each series file matches ``serialize_series`` of that series alone,
    while ``a`` and ``b`` share one stamp column and ``c1`` and ``c2`` one
    holding a NaN stamp."""
    k = np.arange(n)
    kinds = [("boot server", "e", False, False), ("a,b", 'say "hi"', True, True)]
    log = ErrorLog(0.5 * k + 0.25 * (k % 3 == 0), k % 2, kinds)
    series = chunk_edge_series(n)
    report = dataclasses.replace(overload_report, error_log=log, series=series)
    out = write_bundle(report, tmp_path / "bundle")
    assert (out / "errors.csv").read_bytes() == errors_csv_row_by_row(log).encode("utf-8")
    for name in series:
        assert (out / "series" / f"{name}.csv").read_text(encoding="utf-8") == serialize_series(
            {name: series[name]}
        )


def test_error_log_writer_holds_a_chunk_not_the_file(tmp_path):
    """A 200,000-row log of fractional times is written in traced memory
    below a quarter of the file's size: the rows are written a chunk at a
    time, never joined, concatenated or encoded as one file."""
    n = 200_000
    k = np.arange(n)
    kinds = [("boot server", "server-error-status", True, False), ("create user", "e", False, True)]
    log = ErrorLog(0.37 * k + 1 / 3, k % 2, kinds)
    path = tmp_path / "errors.csv"
    tracemalloc.start()
    try:
        write_error_log(log, path)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def test_series_writer_holds_a_chunk_not_a_column(failed_report, tmp_path):
    """A bundle's two 200,000-row series on one clock of fractional stamps
    are written in traced memory below a quarter of one file's size: each
    chunk of stamp cells is rendered once and written to both files side
    by side."""
    n = 200_000
    k = np.arange(n, dtype=np.float64)
    clock = 0.37 * k + 1 / 3
    clock.flags.writeable = False
    series = {name: IndicatorSeries(name, "GB", clock, k // 1000) for name in ("a", "b")}
    tracemalloc.start()
    try:
        write_bundle(dataclasses.replace(failed_report, series=series), tmp_path)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    series_dir = tmp_path / "series"
    assert (series_dir / "a.csv").read_text(encoding="utf-8") == serialize_series(
        {"a": series["a"]}
    )
    assert peak < (series_dir / "b.csv").stat().st_size / 4


class TestDeployFailedRendering:
    def test_short_table(self, failed_report):
        text = render_tables(failed_report)
        assert "deployment failed; no phases were run" in text
        assert "workloads per hour" not in text

    def test_document_flags(self, failed_report):
        doc = report_document(failed_report)
        assert doc["deploy_failed"] is True
        assert doc["indicators"] == {}

    def test_errors_csv_holds_only_the_header(self, failed_report, tmp_path):
        assert len(failed_report.error_log) == 0
        out = write_bundle(failed_report, tmp_path / "dead")
        assert (out / "errors.csv").read_bytes() == b"time,step,error,ageing,overload\n"

    def test_bundle_skips_series_dir(self, failed_report, tmp_path):
        out = write_bundle(failed_report, tmp_path / "dead")
        assert not (out / "series").exists()
        assert (out / "report.json").is_file()


# ── JSON rendering ───────────────────────────────────────────────────────

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=4),
)
plain_numbers = st.one_of(
    st.integers(-(2**70), 2**70), st.floats(allow_nan=False, allow_infinity=False)
)
#: Lists of plain numbers, empty ones among them, some ending in a nan,
#: an infinity or a bool, which are not plain numbers.
number_lists = st.tuples(
    st.lists(plain_numbers, max_size=80),
    st.lists(st.one_of(st.floats(), st.booleans()), max_size=1),
).map(lambda parts: parts[0] + parts[1])
json_documents = st.recursive(
    st.one_of(json_scalars, number_lists, number_lists.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.dictionaries(st.one_of(st.integers(), st.none()), children, max_size=2),
    ),
    max_leaves=8,
)


@settings(max_examples=300)
@given(document=json_documents)
@example(document={"a": [0.5] * 70 + [float("nan")]})
@example(document=[[1] * 70 + [float("-inf")]])
@example(document=(True,) * 70)
@example(document={"a": [], "b": [[]], "c": [7], "d": (0.5,)})
def test_json_text_matches_json_dumps_byte_for_byte(document):
    assert report_module._json_text(document) == json.dumps(document, indent=2)


def test_analysis_columns_are_rendered_as_json_renders_them(tmp_path):
    hours = list(range(100))
    means = [h / 7 for h in hours]
    document = {"indicators": {"m": {"hourly": {"hours": hours, "means": means}}}}
    path = tmp_path / "doc.json"
    report_module._write_json(document, path)
    assert path.read_text(encoding="utf-8") == json.dumps(document, indent=2) + "\n"


@pytest.mark.parametrize(
    "value, cleaned",
    [
        (1.7976931348623157e308, 1.7976931348623157e308),
        (-1.7976931348623157e308, -1.7976931348623157e308),
        (1.7976931348e308, 1.7976931348e308),
        (1 / 3, 0.3333333333),
        (float("inf"), float("inf")),
        (None, None),
    ],
)
def test_clean_float_never_rounds_a_finite_value_to_infinity(value, cleaned):
    assert report_module._clean_float(value) == cleaned
    if value is not None:
        assert report_module._clean_floats([value, 2.0]) == [cleaned, 2.0]
