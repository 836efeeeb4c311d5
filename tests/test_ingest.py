"""Tests for series CSV ingestion, serialization, workload reports."""

import csv
import importlib
import io
import json
import math
import os
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agesim.errors import DuplicateTimestampError, EmptyFileError, ParseError
from agesim.ingest import (
    _clock_groups,
    _render_group,
    _reprs,
    _stamp_cells,
    csv_cell,
    format_timestamp,
    ingest,
    ingest_workload_report,
    serialize_series,
)
from agesim.trendstats import IndicatorSeries, bin_hourly
from chunk_edges import CHUNK_EDGE_ROWS, chunk_edge_series, chunk_sizes

# the package exports the function ``ingest`` under the module's name
ingest_module = importlib.import_module("agesim.ingest")


def series_of(text: str, unit: str = "GB"):
    return ingest(io.StringIO(text), unit=unit)


class TestIngest:
    def test_basic_numeric_timestamps(self):
        series = series_of(
            "timestamp,metric,value\n"
            "0,memory-available,4.0\n"
            "30,memory-available,3.9\n"
            "60,memory-available,3.8\n"
        )
        memory = series["memory-available"]
        assert memory == IndicatorSeries(
            "memory-available", "GB", [0.0, 30.0, 60.0], [4.0, 3.9, 3.8]
        )
        assert memory.unit == "GB"

    def test_multiple_metrics_in_one_file(self):
        series = series_of(
            "timestamp,metric,value\n"
            "0,swap-used,0.0\n"
            "0,memory-available,4.0\n"
            "30,swap-used,0.1\n"
        )
        assert set(series) == {"swap-used", "memory-available"}
        assert len(series["swap-used"]) == 2

    def test_unsorted_rows_are_sorted(self):
        series = series_of(
            "timestamp,metric,value\n"
            "60,m,3.8\n"
            "0,m,4.0\n"
            "30,m,3.9\n"
        )
        assert series["m"].timestamps.tolist() == [0.0, 30.0, 60.0]

    def test_decimal_timestamps(self):
        series = series_of("timestamp,metric,value\n0.001,m,1.0\n0.002,m,2.0\n")
        assert series["m"].timestamps[0] == 0.001

    def test_iso_timestamps_with_zone(self):
        series = series_of(
            "timestamp,metric,value\n"
            "2026-01-01T00:00:00Z,m,1.0\n"
            "2026-01-01T00:00:30+00:00,m,2.0\n"
        )
        t0, t1 = series["m"].timestamps
        assert t1 - t0 == 30.0

    def test_naive_iso_timestamps_are_utc(self):
        series = series_of(
            "timestamp,metric,value\n"
            "2026-01-01T00:00:00,m,1.0\n"
            "2026-01-01T01:00:00,m,2.0\n"
        )
        t0, t1 = series["m"].timestamps
        assert t1 - t0 == 3600.0

    def test_mixed_styles_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            series_of(
                "timestamp,metric,value\n"
                "0,m,1.0\n"
                "30,m,2.0\n"
                "2026-01-01T00:01:00Z,m,3.0\n"
            )
        assert "line 4" in str(err.value)
        assert "mixed" in str(err.value)

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(DuplicateTimestampError):
            series_of("timestamp,metric,value\n0,m,1.0\n0,m,2.0\n")

    def test_duplicate_names_the_tied_timestamp_of_the_smaller_value(self):
        """Ties sort by value, so the message spells the stamp of the smaller one."""
        with pytest.raises(DuplicateTimestampError, match="timestamp -0.0$"):
            series_of("timestamp,metric,value\n0,m,2.0\n-0,m,1.0\n")

    def test_duplicate_allowed_across_metrics(self):
        series = series_of("timestamp,metric,value\n0,a,1.0\n0,b,2.0\n")
        assert len(series) == 2

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyFileError):
            series_of("")

    def test_header_only_rejected(self):
        with pytest.raises(EmptyFileError):
            series_of("timestamp,metric,value\n")

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError) as err:
            series_of("time,name,val\n0,m,1.0\n")
        assert "line 1" in str(err.value)

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            series_of("timestamp,metric,value\n0,m,1.0\n30,m,lots\n")
        assert "line 3" in str(err.value)

    def test_bad_timestamp_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            series_of("timestamp,metric,value\nyesterday,m,1.0\n")
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize(
        "row",
        ["60,m,nan", "60,m,inf", "60,m,-inf", "nan,m,1.0", "inf,m,1.0", "-inf,m,1.0"],
    )
    def test_non_finite_number_rejected_with_line(self, row):
        with pytest.raises(ParseError) as err:
            series_of(f"timestamp,metric,value\n0,m,1.0\n{row}\n")
        assert "line 3" in str(err.value)

    def test_blank_lines_skipped(self):
        series = series_of("timestamp,metric,value\n0,m,1.0\n\n30,m,2.0\n")
        assert len(series["m"]) == 2

    def test_from_file_path(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,metric,value\n0,m,1.0\n", encoding="utf-8")
        assert ingest(path)["m"] == IndicatorSeries("m", "unknown", [0.0], [1.0])

    def test_ingested_series_bins_hourly(self):
        """Samples every 30 s for two hours bin into two hourly means."""
        rows = ["timestamp,metric,value"]
        for k in range(240):
            value = 10.0 if k < 120 else 30.0
            rows.append(f"{30 * k},m,{value}")
        series = series_of("\n".join(rows) + "\n")
        binned = bin_hourly(series["m"])
        assert binned.hours == (0, 1)
        assert binned.means == (10.0, 30.0)


# A generated data row is a (kind, metric, timestamp cell, value cell)
# template; a good row's timestamp is its own line number, written in one of
# several numeric spellings, so no two good rows share a timestamp.
TS_SPELLINGS = ("{}", "{}.0", " {} ", "{}e0", "+{}.000")
BAD_NUMBERS = ("nan", "inf", "-inf", "", "abc", "1e400", "--1", "0x10")
METRICS = ("a", " b ", "c\t")

good_rows = st.tuples(
    st.just("good"),
    st.sampled_from(METRICS),
    st.sampled_from(TS_SPELLINGS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
bad_timestamp_rows = st.tuples(
    st.just("fault"),
    st.sampled_from(METRICS),
    st.sampled_from(BAD_NUMBERS + ("2024-01-01T00:00:00Z", "2024-13-01")),
    st.just("1.0"),
)
bad_value_rows = st.tuples(
    st.just("fault"), st.sampled_from(METRICS), st.just("{}"), st.sampled_from(BAD_NUMBERS)
)
other_rows = st.sampled_from(
    [
        ("fault", " ", "{}", "1.0"),  # empty metric
        ("fault", None, "{},a", ""),  # two columns
        ("fault", None, "{},a,1,2", ""),  # four columns
        ("blank", None, "", ""),
        ("blank", None, "  ", ""),
        ("dup", "a", "2", "5.0"),  # the first row's timestamp again
    ]
)


def render_row(template, line_no):
    kind, metric, ts_cell, value_cell = template
    ts_cell = ts_cell.format(line_no)
    if metric is None:
        return ts_cell
    return f"{ts_cell},{metric},{value_cell}"


@given(
    rows=st.lists(
        st.one_of(good_rows, good_rows, bad_timestamp_rows, bad_value_rows, other_rows),
        max_size=30,
    )
)
def test_ingest_parses_or_names_the_first_bad_line(rows):
    """Each generated file parses, or fails with the first bad row's line number."""
    rows = [("good", "a", "{}", "1.5"), *rows]
    lines = ["timestamp,metric,value"]
    expected: dict[str, list] = {}
    first_fault = None
    duplicate = False
    for line_no, template in enumerate(rows, start=2):
        lines.append(render_row(template, line_no))
        kind, metric = template[0], template[1]
        if kind == "fault" and first_fault is None:
            first_fault = line_no
        elif kind == "dup":
            duplicate = True
        elif kind == "good":
            expected.setdefault(metric.strip(), []).append(
                (float(line_no), float(template[3]))
            )
    text = "\n".join(lines) + "\n"

    if first_fault is not None:
        with pytest.raises(ParseError) as err:
            series_of(text)
        assert err.value.line == first_fault
        assert str(err.value).startswith(f"line {first_fault}: ")
    elif duplicate:
        with pytest.raises(DuplicateTimestampError):
            series_of(text)
    else:
        series = series_of(text)
        assert series == {
            m: IndicatorSeries(m, "GB", *zip(*samples)) for m, samples in expected.items()
        }


# Rows of (metric, timestamp, value); negative zero is mapped to zero so a
# tied timestamp has one spelling.
shuffle_rows = st.lists(
    st.tuples(
        st.sampled_from(("a", "b")),
        st.one_of(st.integers(-20, 20).map(float), st.floats(-1e9, 1e9).map(lambda t: t + 0.0)),
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1e9, 1e9)),
    ),
    min_size=1,
    max_size=40,
)


def csv_of_rows(rows):
    lines = [f"{ts!r},{metric},{value!r}" for metric, ts, value in rows]
    return "timestamp,metric,value\n" + "\n".join(lines) + "\n"


def first_duplicate_message(rows):
    """The error for the first metric (in file order) holding a tied timestamp."""
    stamps: dict[str, list[float]] = {}
    for metric, ts, _ in rows:
        stamps.setdefault(metric, []).append(ts)
    for metric, seen in stamps.items():
        tied = [t for t in seen if seen.count(t) > 1]
        if tied:
            return f"metric {metric!r} has two samples at timestamp {min(tied)!r}"
    return None


@given(rows=shuffle_rows, order=st.randoms(use_true_random=False))
def test_ingest_of_shuffled_rows_equals_ingest_of_sorted_rows(rows, order):
    """Row order never matters; a duplicate names the smallest tied timestamp."""
    shuffled = list(rows)
    order.shuffle(shuffled)
    in_order = sorted(rows, key=lambda row: row[1])
    for variant in (shuffled, in_order):
        message = first_duplicate_message(variant)
        if message is not None:
            with pytest.raises(DuplicateTimestampError) as err:
                series_of(csv_of_rows(variant))
            assert str(err.value) == message
    if first_duplicate_message(rows) is None:
        from_shuffled = series_of(csv_of_rows(shuffled))
        assert from_shuffled == series_of(csv_of_rows(in_order))
        for metric, series in from_shuffled.items():
            pairs = [(ts, value) for m, ts, value in in_order if m == metric]
            assert series == IndicatorSeries(metric, "GB", *zip(*pairs))


# Padding that ``str.strip`` removes; ``float`` skips all of it except the
# separators \x1c-\x1f, so those cells take the stripped reading.
padding = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u3000", max_size=3)
stamp_cells = st.sampled_from(["{}", "{}.5", "{}e0", "2024-01-01T00:00:{:02d}Z", "soon{}", "nan"])
value_cells = st.sampled_from(["1.5", "-0.0", "2e-3", "nan", "inf", "lots"])


@given(
    rows=st.lists(
        st.tuples(stamp_cells, value_cells, padding, padding, padding, padding),
        min_size=1,
        max_size=6,
    )
)
def test_padded_cells_parse_or_fail_as_their_stripped_text(rows):
    """Padded timestamp and value cells read as the stripped cells do: the same
    samples, or the same error text and line."""
    padded = ["timestamp,metric,value"]
    stripped = ["timestamp,metric,value"]
    for k, (stamp, value, a, b, c, d) in enumerate(rows):
        ts = stamp.format(k)
        padded.append(f"{a}{ts}{b},m,{c}{value}{d}")
        stripped.append(f"{ts},m,{value}")
    try:
        expected = series_of("\n".join(stripped) + "\n")
    except ParseError as exc:
        with pytest.raises(type(exc)) as err:
            series_of("\n".join(padded) + "\n")
        assert str(err.value) == str(exc)
        assert err.value.line == exc.line
    else:
        assert series_of("\n".join(padded) + "\n") == expected


@pytest.mark.parametrize("pad", [" ", "\t", "\x1c", "\x1f", " \x1e\t"])
def test_padded_cells_keep_their_values_and_error_text(pad):
    series = series_of(f"timestamp,metric,value\n{pad}30{pad},m,{pad}1.5{pad}\n")
    assert series["m"] == IndicatorSeries("m", "GB", [30.0], [1.5])
    with pytest.raises(ParseError) as err:
        series_of(f"timestamp,metric,value\n{pad}soon{pad},m,1\n")
    assert str(err.value) == "line 2: unreadable timestamp 'soon'"
    with pytest.raises(ParseError) as err:
        series_of(f"timestamp,metric,value\n0,m,1\n30,m,{pad}inf{pad}\n")
    assert str(err.value) == "line 3: unreadable value 'inf'"


class TestSerializeRoundTrip:
    def test_simple_round_trip(self):
        original = {
            "m": IndicatorSeries("m", "GB", [0.0, 30.0], [1.25, 2.5])
        }
        again = ingest(io.StringIO(serialize_series(original)), unit="GB")
        assert again["m"] == original["m"]

    def test_round_trip_preserves_awkward_floats(self):
        rng = np.random.Generator(np.random.PCG64(7))
        stamps, values = [], []
        ts = 0.0
        for _ in range(200):
            ts += float(rng.uniform(0.001, 100.0))
            stamps.append(ts)
            values.append(float(rng.normal() * 1e-7))
        original = {"gauge": IndicatorSeries("gauge", "GB", stamps, values)}
        again = ingest(io.StringIO(serialize_series(original)), unit="GB")
        assert again["gauge"].samples == original["gauge"].samples

    def test_integral_timestamps_written_as_integers(self):
        text = serialize_series(
            {"m": IndicatorSeries("m", "x", [60.0], [1.0])}
        )
        assert "\n60,m," in text

    def test_write_to_disk(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(
            serialize_series({"m": IndicatorSeries("m", "x", [0.0], [1.0])}), encoding="utf-8"
        )
        assert ingest(path)["m"] == IndicatorSeries("m", "unknown", [0.0], [1.0])

    def test_many_series_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(21))
        original = {}
        for i in range(20):
            ts = np.cumsum(rng.uniform(0.001, 50.0, size=50))
            values = rng.normal(size=50)
            name = f"metric-{i}"
            original[name] = IndicatorSeries(name, "GB", ts, values)
        again = ingest(io.StringIO(serialize_series(original)), unit="GB")
        assert set(again) == set(original)
        for name in original:
            assert again[name].samples == original[name].samples


def writer_reference(series_by_name) -> str:
    """The series CSV as ``csv.writer`` renders it, row by row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp", "metric", "value"))
    for name in sorted(series_by_name):
        for ts, value in series_by_name[name].samples:
            writer.writerow([format_timestamp(ts), name, repr(float(value))])
    return out.getvalue()


@given(
    st.dictionaries(
        st.text(max_size=8),
        st.lists(
            st.tuples(st.floats(allow_nan=False), st.floats()), max_size=4
        ),
        max_size=4,
    )
)
@example({"": [(0.0, 1.0)], "a,b": [(1.5, -2.0)], 'say "hi"': [(3.0, 0.5)]})
@example({"two\nlines": [(1e300, float("inf"))], " padded ": [(-0.0, 0.0)]})
def test_serialize_series_matches_the_csv_writer(samples_by_name):
    """Every byte, for any metric name and any timestamp and value."""
    series_by_name = {}
    for name, rows in samples_by_name.items():
        by_stamp = dict(rows)
        stamps = sorted(by_stamp)
        series_by_name[name] = IndicatorSeries(name, "x", stamps, [by_stamp[t] for t in stamps])
    assert serialize_series(series_by_name) == writer_reference(series_by_name)


#: Timestamps whose rendering has an edge: signed zero, halves, integral
#: floats past 2**53 and past int64, subnormals and infinities.
edge_stamps = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 2.0**63, -(2.0**63), math.inf, -math.inf]),
    st.integers(min_value=-(2**60), max_value=2**60).map(lambda k: k / 2),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(allow_nan=False),
)


@given(
    st.dictionaries(
        st.text(max_size=6),
        st.lists(st.tuples(edge_stamps, st.floats()), max_size=6),
        max_size=3,
    )
)
def test_serialize_series_rows_format_as_format_timestamp(rows_by_name):
    """Each row is ``format_timestamp`` of the timestamp, the quoted metric
    cell and the value's repr, for any float on either side."""
    series_by_name = {
        name: types.SimpleNamespace(
            timestamps=np.array([t for t, _ in rows], dtype=np.float64),
            values=np.array([v for _, v in rows], dtype=np.float64),
        )
        for name, rows in rows_by_name.items()
    }
    expected = ["timestamp,metric,value"] + [
        f"{format_timestamp(t)},{csv_cell(name)},{v!r}"
        for name in sorted(rows_by_name)
        for t, v in rows_by_name[name]
    ]
    assert serialize_series(series_by_name) == "\n".join(expected) + "\n"


def array_reference(series_by_name) -> str:
    """The series CSV as ``csv.writer`` renders it from each series'
    ``timestamps`` and ``values`` arrays, one Python float at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("timestamp", "metric", "value"))
    for name in sorted(series_by_name):
        series = series_by_name[name]
        for ts, value in zip(series.timestamps.tolist(), series.values.tolist()):
            writer.writerow([format_timestamp(ts), name, repr(value)])
    return out.getvalue()


def nan_with_bits(bits: int) -> float:
    value = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assert math.isnan(value)
    return value


#: Edges of the bulk columns: each case is (timestamps, values) of one series.
BULK_COLUMN_CASES = {
    "signed-zeros": ([0.0, 1.0, 2.0, 3.0, 4.0], [-0.0, 0.0, -0.0, 1.0, 0.0]),
    "nan-payloads": (
        [0.0, 5.0, 10.0, 15.0, 20.0, 25.0],
        [
            nan_with_bits(0x7FF8000000000000),
            1.5,
            nan_with_bits(0x7FF0000000000001),
            nan_with_bits(0xFFF8000000000000),
            nan_with_bits(0x7FFFFFFFFFFFFFFF),
            nan_with_bits(0xFFF0000000000ABC),
        ],
    ),
    "heavy-repeats": (
        [5.0 * k for k in range(6000)],
        [(0.1, 3.75, -2.5e-300, 1e22)[(k * k) % 4 if k % 7 else 3] for k in range(6000)],
    ),
    "whole-and-fractional-stamps": (
        [-7.5, -3.0, 0.0, 0.25, 1.0, 2.5, 3.0, 1e15 + 0.5, 1e16],
        [1.0, 2.0, 1.0, 2.0, 3.0, 1.0, 0.5, 0.5, 0.1],
    ),
    "int64-and-float-limits": (
        [
            -1e300,
            -(2.0**63) - 2048,  # the float below -2**63: past int64
            -(2.0**63),  # int64's minimum
            -(2.0**53) - 2,
            -(2.0**53),
            2.0**53,
            2.0**53 + 2,
            2.0**63 - 1024,  # the float below 2**63: int64's largest
            2.0**63,
            1e300,
        ],
        [float(k) for k in range(10)],
    ),
    "empty": ([], []),
    "one-run": ([30.0 * k for k in range(40)], [2.75] * 40),
    "alternating-signed-zeros": ([float(k) for k in range(9)], [-0.0, 0.0] * 4 + [-0.0]),
    "long-run-then-nan-payloads": (
        [0.5 * k for k in range(506)],
        [0.125] * 500
        + [
            nan_with_bits(0x7FF8000000000000),
            nan_with_bits(0x7FF8000000000000),
            nan_with_bits(0xFFF8000000000000),
            nan_with_bits(0x7FF0000000000001),
            nan_with_bits(0x7FF8000000000000),
            0.125,
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(BULK_COLUMN_CASES))
def test_serialize_series_bulk_columns_match_the_row_reference(case):
    stamps, values = BULK_COLUMN_CASES[case]
    series = {
        case: IndicatorSeries(case, "x", stamps, values),
        "zz-neighbour": IndicatorSeries("zz-neighbour", "x", [0.5, 2.0], [-0.0, math.nan]),
    }
    assert serialize_series(series) == array_reference(series)


def test_serialize_series_non_finite_and_unsorted_stamps():
    """NaN and infinite stamps, which no ``IndicatorSeries`` of a scenario
    holds, still format as ``format_timestamp`` does, among whole ones."""
    stamps = [3.0, math.nan, -math.inf, 0.5, nan_with_bits(0xFFF8000000000001), math.inf, 2.0**63]
    series_by_name = {
        "m": types.SimpleNamespace(
            timestamps=np.array(stamps, dtype=np.float64),
            values=np.arange(len(stamps), dtype=np.float64),
        )
    }
    assert serialize_series(series_by_name) == array_reference(series_by_name)
    assert serialize_series(series_by_name).splitlines()[1:3] == ["3,m,0.0", "nan,m,1.0"]


def test_empty_columns_render_as_no_cells():
    """An empty column gives no cells, so neither an empty series nor an
    empty error log needs a guard of its own."""
    empty = np.array([], dtype=np.float64)
    assert _reprs(empty) == []
    assert _reprs(empty.astype(np.int64)) == []
    assert _stamp_cells(empty) == []
    assert list(_render_group([("m", IndicatorSeries("m", "x", empty, empty))])) == [("m", "")]


@pytest.mark.parametrize("n", CHUNK_EDGE_ROWS)
def test_serialize_series_across_chunk_edges(n):
    """Series of n rows render as the row reference at every chunk edge,
    in chunks of at most ``_CHUNK_ROWS`` rows.  A stamp column is rendered
    once for ``a`` and ``b``; one holding a NaN stamp never equals itself,
    so it is rendered again for ``c2``."""
    series_by_name = chunk_edge_series(n)
    with mock.patch.object(
        ingest_module, "_stamp_cells", wraps=ingest_module._stamp_cells
    ) as stamp_cells:
        chunks = [pair for group in _clock_groups(series_by_name) for pair in _render_group(group)]
    assert stamp_cells.call_count == (3 if n else 1) * len(chunk_sizes(n))
    groups = [("a", "b"), ("c1",), ("c2",)] if n else [("a", "b", "c1", "c2")]
    assert [(name, chunk.count("\n")) for name, chunk in chunks] == [
        (name, size) for group in groups for size in chunk_sizes(n) for name in group
    ]
    assert serialize_series(series_by_name) == array_reference(series_by_name)


#: A scenario shaped like the benchmark's ageing-failure suite: faults,
#: a memory leak that fails the cloud, 5-second gauge sampling.
AGEING_FAILURE_STYLE = {
    "scenario_id": "leak",
    "topology": "multi-node",
    "concurrency": 8,
    "stress_hours": 6,
    "post_rejuvenation_hours": 1,
    "sample_interval_seconds": 5.0,
    "policy": "rejuvenate-on-failure",
    "resources": {"leak_per_workload_gb": 0.05},
    "faults": {"boot server": {"server-error-status": 0.3}},
}


@pytest.fixture(scope="module")
def ageing_failure_report():
    from agesim import ScenarioConfig, run_scenario

    return run_scenario(ScenarioConfig.from_document(AGEING_FAILURE_STYLE))


def test_serialize_ingest_round_trip_of_an_ageing_failure_scenario(ageing_failure_report):
    report = ageing_failure_report
    assert report.failure_point is not None
    assert len(report.series) == 5
    for name, series in report.series.items():
        # the gauges are flat between deposits and leaks; durations start mid-second
        assert len(np.unique(series.values)) < len(series) or name == "workload-duration"
        again = ingest(io.StringIO(serialize_series({name: series})), unit=series.unit)
        assert again == {name: series}
        assert again[name].timestamps.tobytes() == series.timestamps.tobytes()
        assert again[name].values.tobytes() == series.values.tobytes()


def bundle_series_match_the_row_reference(report, out_dir) -> None:
    from agesim import write_bundle

    write_bundle(report, out_dir)
    written = sorted(path.stem for path in (out_dir / "series").glob("*.csv"))
    assert written == sorted(report.series)
    for name, series in report.series.items():
        text = (out_dir / "series" / f"{name}.csv").read_text(encoding="utf-8")
        assert text == array_reference({name: series})


def test_bundle_series_files_match_the_row_reference(ageing_failure_report, tmp_path):
    """The gauges share their timestamps, and the rendered stamp column with
    them; each file still holds its own series' rows, byte for byte."""
    gauges = [s for s in ageing_failure_report.series.values() if s.name != "workload-duration"]
    assert len(gauges) == 4
    assert all(np.array_equal(s.timestamps, gauges[0].timestamps) for s in gauges)
    bundle_series_match_the_row_reference(ageing_failure_report, tmp_path)


def test_bundle_series_files_with_equal_length_but_different_stamps(
    ageing_failure_report, tmp_path
):
    """A series whose stamps differ from the last ones rendered, in one stamp
    or in all, gets its own stamp column; the next series with the first
    stamps gets theirs back."""
    import dataclasses

    series = dict(ageing_failure_report.series)
    stamps = series["disk-used-compute-1"].timestamps
    last_moved = stamps.copy()
    last_moved[-1] += 0.5
    shifted = {"disk-used-compute-2": last_moved, "memory-available": stamps + 0.25}
    for name, moved in shifted.items():
        assert len(moved) == len(stamps) and not np.array_equal(moved, stamps)
        series[name] = IndicatorSeries(name, series[name].unit, moved, series[name].values)
    report = dataclasses.replace(ageing_failure_report, series=series)
    bundle_series_match_the_row_reference(report, tmp_path)


class TestWorkloadReport:
    def doc(self, records):
        return io.StringIO(json.dumps({"workloads": records}))

    def test_durations_and_counts(self):
        data = ingest_workload_report(
            self.doc(
                [
                    {"start": 0.0, "end": 69.0, "status": "success"},
                    {"start": 69.0, "end": 140.0, "status": "success"},
                    {
                        "start": 140.0,
                        "end": 180.0,
                        "status": "ageing-failure",
                        "error": "server-error-status",
                        "failed_step": "boot server",
                    },
                    {
                        "start": 180.0,
                        "end": 190.0,
                        "status": "non-ageing-failure",
                        "error": "quota-exceeded-security-group",
                    },
                ]
            )
        )
        assert data.status_counts == {
            "success": 2,
            "ageing-failure": 1,
            "non-ageing-failure": 1,
        }
        assert data.durations == IndicatorSeries(
            "workload-duration", "seconds", [0.0, 69.0], [69.0, 71.0]
        )
        assert data.error_tally == {
            "server-error-status": 1,
            "quota-exceeded-security-group": 1,
        }
        assert data.rejected_records == 0

    def test_bad_records_rejected_not_fatal(self):
        data = ingest_workload_report(
            self.doc(
                [
                    {"start": 10.0, "end": 5.0, "status": "success"},
                    {"start": 0.0, "status": "success"},
                    {"start": 0.0, "end": 1.0, "status": "mystery"},
                    {"start": 1.0, "end": 2.0, "status": "success"},
                ]
            )
        )
        assert data.rejected_records == 3
        assert data.status_counts["success"] == 1

    def test_non_string_error_or_status_is_rejected(self):
        data = ingest_workload_report(
            self.doc(
                [
                    {"start": 0.0, "end": 5.0, "status": "success", "error": ["x"]},
                    {"start": 0.0, "end": 5.0, "status": "success", "error": {"a": 1}},
                    {"start": 0.0, "end": 5.0, "status": "success", "error": 7},
                    {"start": 0.0, "end": 5.0, "status": ["success"]},
                    {"start": 1.0, "end": 2.0, "status": "ageing-failure", "error": "e"},
                    {"start": 2.0, "end": 3.0, "status": "success", "error": None},
                ]
            )
        )
        assert data.rejected_records == 4
        assert data.status_counts["success"] == 1
        assert data.error_tally == {"e": 1}

    def test_duplicate_start_times_are_nudged(self):
        data = ingest_workload_report(
            self.doc(
                [
                    {"start": 0.0, "end": 60.0, "status": "success"},
                    {"start": 0.0, "end": 70.0, "status": "success"},
                ]
            )
        )
        t0, t1 = data.durations.timestamps
        assert t0 < t1

    def test_tied_starts_are_ordered_by_duration_and_nudged_in_turn(self):
        """Ties sort by duration; a nudge can run into the next start, which moves on."""
        data = ingest_workload_report(
            self.doc(
                [
                    {"start": 100.0, "end": 170.0, "status": "success"},
                    {"start": 100.0, "end": 160.0, "status": "success"},
                    {"start": 100.0 + 1e-9, "end": 101.0, "status": "success"},
                    {"start": 100.0, "end": 165.0, "status": "success"},
                ]
            )
        )
        t1 = 100.0 + 1e-9
        t2 = t1 + 1e-9
        t3 = t2 + 1e-9
        assert data.durations == IndicatorSeries(
            "workload-duration",
            "seconds",
            [100.0, t1, t2, t3],
            [60.0, 65.0, 70.0, 101.0 - t1],
        )

    def test_no_successes_yields_no_series(self):
        data = ingest_workload_report(
            self.doc([{"start": 0.0, "end": 1.0, "status": "non-ageing-failure"}])
        )
        assert data.durations is None

    def test_empty_report(self):
        data = ingest_workload_report(self.doc([]))
        assert data.durations is None
        assert sum(data.status_counts.values()) == 0

    def test_invalid_json_rejected(self):
        with pytest.raises(ParseError):
            ingest_workload_report(io.StringIO("{not json"))

    def test_missing_workloads_key_rejected(self):
        with pytest.raises(ParseError):
            ingest_workload_report(io.StringIO("{}"))


# Any JSON value as a workload report: scalars and containers at the top,
# and documents whose records mix well-formed fields with arbitrary values.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
times = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from(["0", "1e3", "inf", "-inf", "nan", "x"]),
    json_values,
)
records = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {},
        optional={
            "start": times,
            "end": times,
            "status": st.one_of(
                st.sampled_from(["success", "ageing-failure", "non-ageing-failure", "?"]),
                json_values,
            ),
            "error": st.one_of(st.none(), st.text(max_size=6), json_values),
        },
    ),
)
reports = st.one_of(
    json_values,
    st.fixed_dictionaries({"workloads": st.lists(records, max_size=12)}),
    st.fixed_dictionaries({"workloads": json_values}),
)


TOP = 1.7976931348623157e308


@given(document=reports)
@example(document={"workloads": [{"start": TOP, "end": TOP, "status": "success"}] * 2})
@example(document={"workloads": [{"start": -TOP, "end": TOP, "status": "success"}]})
def test_any_json_workload_report_parses_or_raises_parse_error(document):
    """Every JSON document either parses, accounting for each record as
    counted or rejected with finite durations, or raises ParseError."""
    try:
        data = ingest_workload_report(io.StringIO(json.dumps(document)))
    except ParseError:
        return
    records = document["workloads"]
    assert sum(data.status_counts.values()) + data.rejected_records == len(records)
    assert all(isinstance(error, str) for error in data.error_tally)
    if data.durations is not None:
        assert np.isfinite(data.durations.timestamps).all()
        assert np.isfinite(data.durations.values).all()
        assert (data.durations.values >= 0).all()


# ── The numpy path against the row loop ──────────────────────────────────
#
# ``ingest`` reads a plain numeric file from a seekable handle with numpy's C
# parser and everything else with the csv row loop.  A handle that cannot
# seek always takes the row loop, so it is the reference reading.


class Unseekable(io.StringIO):
    """Text that ``ingest`` may only read front to back."""

    def seekable(self):
        return False


def reading(handle):
    """What ingest makes of a handle: metric -> (timestamp bytes, value
    bytes) in metric order, or the error's type, text and line."""
    try:
        series = ingest(handle, unit="u")
    except ParseError as exc:
        return ("error", type(exc), str(exc), exc.line)
    return [
        (name, s.timestamps.tobytes(), s.values.tobytes()) for name, s in series.items()
    ]


PLAIN_STAMPS = ("{}", "{}.0", "{}e0", "+{}", " {} ", "\t{}", "\x1c{}", "{}\x0b")
ODD_STAMPS = (
    '"{}"',
    "{}_0",
    "1_{}",
    "2024-01-01T00:{:02d}:00Z",
    "nan",
    "inf",
    "1e500",
    "١{}",
    " ",
    "",
)
PLAIN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0.0", ".5", "5.", "1E3", "1e-320", "0.1e-400", " 2 ", "\t-3"]),
)
ODD_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e500", "1_000", '"1.5"', "", "lots", "٢", "0x10"]
)
PLAIN_METRICS = ("a", "b", " a", "a ", "\ta", "b\x1f", "c-d")
ODD_METRICS = ("", "  ", '"a"', "x_y", "é", "a,b")


def lines_of(stamps, metrics, values):
    return st.builds(
        lambda stamp, metric, value: (stamp, f",{metric},{value}"),
        st.sampled_from(stamps),
        st.sampled_from(metrics),
        values,
    )


plain_lines = lines_of(PLAIN_STAMPS, PLAIN_METRICS, PLAIN_VALUES)
# a line with one odd part
odd_lines = st.one_of(
    lines_of(ODD_STAMPS, PLAIN_METRICS, PLAIN_VALUES),
    lines_of(PLAIN_STAMPS, ODD_METRICS, PLAIN_VALUES),
    lines_of(PLAIN_STAMPS, PLAIN_METRICS, ODD_VALUES),
    st.sampled_from(
        [
            ("{}", ",a"),  # two columns
            ("{}", ",a,1,9"),  # four columns
            ("{}", ",a,1,"),  # four columns, the last one empty
            ("", ""),  # blank line
            ("  ", ""),  # whitespace-only line
            ("\x1c", ""),
            ("3", ",a,7"),  # a timestamp other rows may also use
            ("{}", ",a,1\r7,a,2"),  # a carriage return inside a line
            ("{}", ",a\rb,1"),
        ]
    ),
)


@settings(max_examples=500)
@given(
    lines=st.lists(plain_lines, max_size=24),
    odd=st.lists(st.tuples(st.integers(0, 24), odd_lines), max_size=2),
    newline=st.sampled_from(["\n"] * 4 + ["\r\n"]),
    header=st.sampled_from(
        ["timestamp,metric,value"] * 3
        + ["Timestamp, Metric ,VALUE\x1c", '"timestamp",metric,value']
    ),
    chunk=st.sampled_from([1, 40, ingest_module._PLAIN_CHUNK]),
)
@example(
    lines=[("{}", ",a,1"), ("{}", ", a,2"), ("{}", ",b,3")],
    odd=[(1, ("{}", ',"a",4'))],
    newline="\n",
    header="timestamp,metric,value",
    chunk=1,
)
def test_numpy_path_reads_as_the_row_loop(lines, odd, newline, header, chunk):
    """On any file, the numpy path gives the row loop's series bit for bit,
    or the row loop's error text and line, at any chunk size."""
    lines = list(lines)
    for position, line in odd:
        lines.insert(position, line)
    rows = [header] + [stamp.format(k) + rest for k, (stamp, rest) in enumerate(lines, 2)]
    text = newline.join(rows) + newline
    with mock.patch.object(ingest_module, "_PLAIN_CHUNK", chunk):
        assert reading(io.StringIO(text)) == reading(Unseekable(text))


def plain_rows(count, metrics=("m", "n")):
    return [f"{k},{metrics[k % len(metrics)]},{k * 0.25!r}" for k in range(count)]


class TestNumpyPath:
    def test_plain_file_is_read_by_numpy(self):
        text = "\n".join(["timestamp,metric,value", *plain_rows(50)]) + "\n"
        with mock.patch.object(ingest_module, "_read_rows", side_effect=AssertionError):
            series = ingest(io.StringIO(text))
        assert list(series) == ["m", "n"]
        assert series["n"].values.tolist() == [k * 0.25 for k in range(1, 50, 2)]

    def test_underscored_metric_names_stay_on_the_numpy_path(self):
        metrics = ("memory_used", "swap_used_gb")
        text = "\n".join(["timestamp,metric,value", *plain_rows(50, metrics)]) + "\n"
        expected = reading(Unseekable(text))
        with mock.patch.object(ingest_module, "_read_rows", side_effect=AssertionError):
            assert reading(io.StringIO(text)) == expected
        assert [name for name, _, _ in expected] == list(metrics)

    @pytest.mark.parametrize("row", ["20,memory_used,1_000", "2_0,memory_used,1000"])
    def test_underscored_number_reads_as_the_row_loop(self, row):
        """numpy's parser refuses ``1_000``, which ``float`` reads, so the
        file goes to the row loop."""
        text = f"timestamp,metric,value\n0,memory_used,1\n{row}\n"
        with mock.patch.object(
            ingest_module, "_read_rows", wraps=ingest_module._read_rows
        ) as row_loop:
            series = ingest(io.StringIO(text))
        assert row_loop.call_count == 1
        assert series["memory_used"] == IndicatorSeries(
            "memory_used", "unknown", [0.0, 20.0], [1.0, 1000.0]
        )
        assert reading(io.StringIO(text)) == reading(Unseekable(text))

    def test_whitespace_only_lines_stay_on_the_numpy_path(self):
        rows = ["timestamp,metric,value", *plain_rows(50)]
        rows[10:10] = ["  ", "\t\x1c", ""]
        text = "\n".join(rows) + "\n \n"
        expected = reading(Unseekable(text))
        with mock.patch.object(ingest_module, "_read_rows", side_effect=AssertionError):
            assert reading(io.StringIO(text)) == expected
        assert [name for name, _, _ in expected] == ["m", "n"]

    @pytest.mark.parametrize(
        "tail, outcome",
        [
            ("99999999,m,1_000", None),
            ("2024-01-01T00:00:00Z,m,1", "line {}: mixed timestamp styles"),
            ("99999999,m,nan", "line {}: unreadable value 'nan'"),
            ("99999999,m,1,9", "line {}: expected 3 columns, got 4"),
        ],
        ids=["underscore", "iso", "nan", "four-columns"],
    )
    def test_file_plain_past_the_first_chunk_rewinds_to_the_row_loop(
        self, tmp_path, tail, outcome
    ):
        rows = ["timestamp,metric,value", *plain_rows(80_000), tail]
        text = "\n".join(rows) + "\n"
        assert len(text) > ingest_module._PLAIN_CHUNK
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        expected = reading(Unseekable(text))
        assert reading(path) == expected == reading(io.StringIO(text))
        if outcome is None:
            assert expected[0][0] == "m"
            assert np.frombuffer(expected[0][2])[-1] == 1000.0
        else:
            assert expected[2].startswith(outcome.format(len(rows)))
            assert expected[3] == len(rows)

    def test_rewinds_to_where_the_handle_stood(self):
        text = "preamble\ntimestamp,metric,value\n0,m,1\n10,m,x\n"
        handle = io.StringIO(text)
        handle.readline()
        assert reading(handle) == ("error", ParseError, "line 3: unreadable value 'x'", 3)

    def test_non_seekable_handle_reads_as_a_file(self, tmp_path):
        text = "\n".join(["timestamp,metric,value", *plain_rows(300)]) + "\n"
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
            pipe.write(text)
        with open(read_fd, newline="", encoding="utf-8") as pipe:
            assert not pipe.seekable()
            from_pipe = reading(pipe)
        assert from_pipe == reading(path)
        assert [name for name, _, _ in from_pipe] == ["m", "n"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "series file is empty"),
            ("timestamp,metric,value\n", "series file has no data rows"),
            ("timestamp,metric,value", "series file has no data rows"),
            ("timestamp,metric,value\n\n  \n", "series file has no data rows"),
        ],
        ids=["empty", "header-only", "header-without-newline", "blank-lines"],
    )
    def test_empty_and_header_only_files(self, tmp_path, text, message):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        expected = ("error", EmptyFileError, message, None)
        assert reading(path) == reading(Unseekable(text)) == expected

    def test_invalid_utf8_past_the_first_chunk(self, tmp_path):
        rows = ["timestamp,metric,value", *plain_rows(70_000)]
        path = tmp_path / "series.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode() + b"1,m,\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text: invalid start byte"):
            ingest(path)

    def test_field_past_the_csv_size_limit_is_a_parse_error(self, tmp_path):
        """csv.reader refuses a field longer than csv.field_size_limit(), so
        the numpy path leaves such a file to the row loop."""
        long_name = "m" * (csv.field_size_limit() + 1)
        text = f"timestamp,metric,value\n0,a,1\n10,{long_name},2\n"
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        expected = reading(Unseekable(text))
        assert reading(path) == expected
        assert expected[2].startswith("line 3: unreadable CSV row: field larger than field limit")

    def test_lone_carriage_return_is_a_parse_error(self):
        """A text handle that splits lines only at \\n hands csv.reader a bare \\r."""
        text = "timestamp,metric,value\n0,a,1\r7,a,2\n"
        assert reading(io.StringIO(text)) == reading(Unseekable(text))
        with pytest.raises(ParseError, match="^line 2: unreadable CSV row: new-line character"):
            ingest(io.StringIO(text))
