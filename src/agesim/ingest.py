"""Reading and writing indicator series and workload reports.

The series format is a three-column CSV, ``timestamp,metric,value``,
holding any number of metrics in one file.  Timestamps are either all
numeric (seconds, integral or decimal) or all ISO-8601 wall-clock times;
the two styles cannot be mixed within a file.  ISO timestamps without a
zone designator are taken as UTC.  The unit of measure is not part of
the format, so the caller supplies one for the ingested series.

``ingest`` reads a plain numeric file (ASCII without quotes, carriage
returns or NULs, numeric timestamps, finite values, names shorter than
``_NAME_CAP`` bytes, three cells a row) from a seekable source with
numpy's C parser, a chunk of lines at a time into records of stamp,
name and value, and every other file with a ``csv.reader`` row loop.
Both give the same series and the same errors; see ``ingest``.

``serialize_series`` writes the same format back with full-precision
values, so a serialize/ingest round trip reproduces a series exactly.
Its renderer yields each series' rows a chunk at a time, makes one cell
per run of equal values within a chunk, and renders each chunk of a
timestamp column once for the neighbouring series with the same
timestamps, whose chunks it yields side by side.

This module owns the CSV files of a report bundle: ``write_series_files``
writes one file of that format per series through the same renderer,
and ``write_error_log`` writes a scenario's error log.

Workload reports are JSON documents with a ``workloads`` list of
records carrying ``start``, ``end`` and ``status``; they yield a
duration series and a count of rejected records.
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Mapping

import numpy as np

from .errors import DuplicateTimestampError, EmptyFileError, ParseError
from .trendstats import IndicatorSeries, nudge_ties
from .workload import WorkloadStatus

if TYPE_CHECKING:
    from .scenario import ErrorLog

HEADER = ("timestamp", "metric", "value")
_HEADER_ROW = ",".join(HEADER) + "\n"


def _open_text(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", newline="", encoding="utf-8"), True
    return source, False


def load_json(source: str | Path | IO[str], label: str):
    """Parse one JSON document; unreadable text is a ParseError naming ``label``."""
    handle, owned = _open_text(source)
    try:
        return json.load(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{label}: not UTF-8 text: {exc.reason}") from None
    except ValueError as exc:  # bad syntax, or an integer past the digit limit
        raise ParseError(f"{label}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{label}: JSON nested too deeply") from None
    finally:
        if owned:
            handle.close()


def _parse_iso(text: str) -> float | None:
    try:
        moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def _float_of_stripped(cell: str) -> float:
    """The stripped cell as a float, NaN if it is none.

    ``float`` skips surrounding whitespace itself, all but the separators
    ``\\x1c``-``\\x1f``, which ``str.strip`` removes; so a cell ``float``
    rejects gets this second reading.
    """
    try:
        return float(cell.strip())
    except ValueError:
        return math.nan


#: Characters the numpy path reads at a time.  Each read is cut at its last
#: newline and the whole lines before it are parsed as one chunk of
#: records, so the path holds one chunk's names (at most ``_NAME_CAP``
#: bytes a row), never a file's.
_PLAIN_CHUNK = 1 << 16

#: Byte widths of the name field of the numpy path's records.  The field
#: starts at ``_NAME_WIDTH`` and doubles while a name fills its last byte;
#: a name that fills ``_NAME_CAP`` bytes leaves the file to the row loop.
_NAME_WIDTH = 32
_NAME_CAP = 256

#: Odd multiplier that folds a name's 8-byte words into one hash.
_NAME_MIX = np.uint64(0x9E3779B97F4A7C15)


def _is_plain(text: str) -> bool:
    """Whether ``text`` is ASCII without quotes, carriage returns or NULs.

    Underscores may pass: numpy's parser refuses a numeric cell holding
    one (``1_000``), which ``float`` would read, so such a file falls back
    to the row loop, while a metric name holding one reads the same
    either way.  A NUL may not: a bytes field drops trailing NULs, which
    would merge ``a\\x00`` with ``a``.
    """
    return text.isascii() and '"' not in text and "\r" not in text and "\0" not in text


def _rewind_point(handle: IO[str]) -> int | None:
    """Where ``handle`` can be rewound to, or None if it cannot seek."""
    try:
        return handle.tell() if handle.seekable() else None
    except (AttributeError, OSError):
        return None


def _line_chunks(handle: IO[str]) -> Iterator[str]:
    """The rest of ``handle`` as chunks of whole lines, read
    ``_PLAIN_CHUNK`` characters at a time; only the last chunk may lack
    its closing newline."""
    rest = ""
    while text := handle.read(_PLAIN_CHUNK):
        text = rest + text
        cut = text.rfind("\n") + 1
        if cut:
            yield text[:cut]
        rest = text[cut:]
    if rest:
        yield rest


def _load_records(chunk: str, width: int) -> np.ndarray | None:
    """The rows of ``chunk`` as records of a float64 ``stamp``, a bytes
    ``name`` and a float64 ``value``; None where ``np.loadtxt`` refuses
    them (a row of other than three cells among them) or a name fills
    ``_NAME_CAP`` bytes.

    The name field is ``width`` bytes wide, doubled while a name fills its
    last byte, since such a name may have been cut short.
    """
    while width <= _NAME_CAP:
        # the name field starts at byte 8
        dtype = np.dtype([("stamp", np.float64), ("name", f"S{width}"), ("value", np.float64)])
        try:
            records = np.loadtxt(
                io.StringIO(chunk), delimiter=",", comments=None, dtype=dtype, ndmin=1
            )
        except ValueError:
            # loadtxt refuses a whitespace-only line, which the row loop skips
            kept = "\n".join(line for line in chunk.split("\n") if not line.isspace())
            if len(kept) == len(chunk):
                return None
            chunk = kept
            continue
        if not records.view(np.uint8)[8 + width - 1 :: dtype.itemsize].any():
            return records
        width *= 2
    return None


def _name_hashes(records: np.ndarray) -> np.ndarray:
    """One uint64 hash of each record's name, folded from its 8-byte words
    last to first, so that the NUL words past a name leave its hash the
    same at every width."""
    words = records.view(np.uint64).reshape(len(records), -1)[:, 1:-1]
    hashes = np.zeros(len(records), dtype=np.uint64)
    for k in reversed(range(words.shape[1])):
        hashes *= _NAME_MIX
        hashes ^= words[:, k]
    return hashes


def _read_plain(handle: IO[str]) -> dict[str, tuple[np.ndarray, np.ndarray]] | None:
    """Each metric's timestamps and values in file order, read by numpy's C
    parser; None for any file this path does not read exactly as the row loop.

    The file qualifies when its header and every chunk of lines are ASCII
    without quotes, carriage returns or NULs, no line is longer than csv's
    field size limit, ``np.loadtxt`` parses each chunk into records of
    three cells (a float timestamp, a name of fewer than ``_NAME_CAP``
    bytes and a float value), the floats are finite and no metric name is
    blank.  On such text ``csv.reader`` splits rows at the commas, and
    ``loadtxt`` gives each cell the float ``float`` gives it and each name
    its bytes.

    Names are coded a chunk at a time: one hash per row, ``np.unique``
    over the hashes, and a byte-for-byte check of every row against the
    first row of the chunk with its hash, so a hash collision within a
    chunk leaves the file to the row loop.  Codes are keyed by the
    stripped name, so names that hash alike in different chunks keep
    codes of their own.  Metrics are numbered in order of first appearance.
    """
    try:
        header = handle.readline()
        if not _is_plain(header) or tuple(
            h.strip().lower() for h in header.split(",")
        ) != HEADER:
            return None
        width = _NAME_WIDTH
        code_of: dict[str, int] = {}  # stripped name -> code, in order of first appearance
        blocks: list[np.ndarray] = []
        code_blocks: list[np.ndarray] = []
        for chunk in _line_chunks(handle):
            if not _is_plain(chunk):
                return None
            # a line within csv's field size limit holds no field past it
            limit = csv.field_size_limit()
            if len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit:
                return None
            if chunk.isspace():  # blank lines only: the row loop skips them
                continue
            records = _load_records(chunk, width)
            if records is None:
                return None
            stamps, names, readings = records["stamp"], records["name"], records["value"]
            width = names.itemsize
            if not (np.isfinite(stamps).all() and np.isfinite(readings).all()):
                return None

            _, first, inverse = np.unique(
                _name_hashes(records), return_index=True, return_inverse=True
            )
            if not (names[first][inverse] == names).all():
                return None
            # the distinct names in file order, not in hash order
            in_order = np.argsort(first)
            metrics = [raw.decode().strip() for raw in names[first[in_order]].tolist()]
            if not all(metrics):
                return None
            codes = np.empty(len(first), dtype=np.intp)
            codes[in_order] = [code_of.setdefault(m, len(code_of)) for m in metrics]
            blocks.append(np.stack((stamps, readings), axis=1))
            code_blocks.append(codes[inverse])
    except UnicodeDecodeError:
        return None
    if not blocks:
        return None

    stamps, readings = np.concatenate(blocks).T
    codes = np.concatenate(code_blocks)
    del blocks, code_blocks  # before the grouping copies every row
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes)).tolist()
    by_metric = {}
    for metric, start, end in zip(code_of, [0, *ends], ends):
        rows = order[start:end]
        by_metric[metric] = (stamps[rows], readings[rows])
    return by_metric


def _read_rows(handle: IO[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each metric's timestamps and values in file order, read row by row
    with ``csv.reader``; every ParseError of a series file comes from here."""
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
        if header is None:
            raise EmptyFileError("series file is empty")
        if tuple(h.strip().lower() for h in header) != HEADER:
            raise ParseError(
                f"expected header {','.join(HEADER)!r}, got {','.join(header)!r}",
                line=1,
            )

        style: str | None = None
        by_metric: dict[str, tuple[array, array]] = {}
        appenders: dict[str, tuple] = {}
        get_appenders = appenders.get
        isfinite = math.isfinite
        for row in reader:
            if len(row) != 3:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise ParseError(f"expected 3 columns, got {len(row)}", line=reader.line_num)
            raw_ts, metric, raw_value = row
            metric = metric.strip()
            if not metric:
                raise ParseError("empty metric name", line=reader.line_num)

            # nan and inf are not readable data, in either column
            try:
                ts = float(raw_ts)
            except ValueError:
                ts = _float_of_stripped(raw_ts)
            if isfinite(ts):
                row_style = "numeric"
            else:
                raw_ts = raw_ts.strip()
                ts = _parse_iso(raw_ts)
                row_style = "iso-8601"
                if ts is None:
                    raise ParseError(f"unreadable timestamp {raw_ts!r}", line=reader.line_num)
            if style != row_style:
                if style is not None:
                    raise ParseError(
                        f"mixed timestamp styles: file uses {style}, row uses {row_style}",
                        line=reader.line_num,
                    )
                style = row_style

            try:
                value = float(raw_value)
            except ValueError:
                value = _float_of_stripped(raw_value)
            if not isfinite(value):
                raise ParseError(f"unreadable value {raw_value.strip()!r}", line=reader.line_num)
            append = get_appenders(metric)
            if append is None:
                stamps, readings = by_metric[metric] = (array("d"), array("d"))
                append = appenders[metric] = (stamps.append, readings.append)
            append_ts, append_value = append
            append_ts(ts)
            append_value(value)

        if not by_metric:
            raise EmptyFileError("series file has no data rows")
        return {
            metric: (np.array(stamps), np.array(readings))
            for metric, (stamps, readings) in by_metric.items()
        }
    except csv.Error as exc:  # a field past csv.field_size_limit(), or a lone \r
        raise ParseError(f"unreadable CSV row: {exc}", line=reader.line_num) from None


def ingest(source: str | Path | IO[str], unit: str = "unknown") -> dict:
    """Parse a series CSV into indicator series keyed by metric name.

    Samples are sorted by timestamp per metric; a duplicate timestamp
    within one metric is an error naming the smallest tied timestamp.
    The file must use one timestamp style throughout, numeric seconds or
    ISO-8601.  A bad row's error names the physical line it ends on
    (``reader.line_num``), which a quoted cell spanning lines moves past
    the record count.

    A plain numeric file is read by numpy's C parser: a seekable source
    whose text is ASCII without quotes, carriage returns or NULs, with
    numeric timestamps, finite values, metric names shorter than
    ``_NAME_CAP`` bytes and three cells on every non-blank row, which
    the parse into three-field records checks itself.  Every other file,
    and any file a non-seekable handle
    delivers, goes through the ``csv.reader`` row loop, which reads the
    whole file again from where the handle stood when the numpy path
    turns it down.  Results and errors are identical either way: the
    same floats, bit for bit, the same metrics in order of first
    appearance, and every ParseError, with its text and line, comes from
    the row loop.

    Timestamp and value cells go to ``float`` as they are, since it
    skips surrounding whitespace; only a cell it rejects is stripped.
    Each metric's samples are sorted (stably, by timestamp then value)
    only when they are not already strictly increasing.
    """
    handle, owned = _open_text(source)
    try:
        start = _rewind_point(handle)
        by_metric = None if start is None else _read_plain(handle)
        if by_metric is None:
            if start is not None:
                handle.seek(start)
            by_metric = _read_rows(handle)
    except UnicodeDecodeError as exc:
        raise ParseError(f"series file is not UTF-8 text: {exc.reason}") from None
    finally:
        if owned:
            handle.close()

    series: dict[str, IndicatorSeries] = {}
    for metric, (ts, values) in by_metric.items():
        if (ts[1:] <= ts[:-1]).any():
            order = np.lexsort((values, ts))
            ts = ts[order]
            values = values[order]
            tied = np.flatnonzero(ts[1:] == ts[:-1])
            if tied.size:
                raise DuplicateTimestampError(
                    f"metric {metric!r} has two samples at timestamp {float(ts[tied[0]])!r}"
                )
        # each metric's arrays are its own, so the series holds them as they are
        ts.flags.writeable = False
        values.flags.writeable = False
        series[metric] = IndicatorSeries(metric, unit, ts, values)
    return series


def format_timestamp(ts: float) -> str:
    """Render a timestamp: whole seconds as an integer, others at full precision."""
    if float(ts).is_integer():
        return str(int(ts))
    return repr(float(ts))


def csv_cell(text: str) -> str:
    """``text`` as one cell of a multi-column CSV row, quoted exactly as
    ``csv.writer`` quotes it there."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(("", text))
    return out.getvalue()[1:-1]


def _reprs(numbers: np.ndarray) -> list[str]:
    """The Python ``repr`` of each element of an array, from one ``repr``
    of its list (numpy's own float repr is not the CSV's)."""
    text = repr(numbers.tolist())[1:-1]
    return text.split(", ") if text else []


def _stamp_cells(stamps: np.ndarray) -> list[str]:
    """Each timestamp as ``format_timestamp`` renders it.

    Whole stamps inside the int64 range are printed by one ``repr`` of an
    int64 list, and stamps that are not whole (NaN and the infinities
    among them) by one ``repr`` of a float list; only whole stamps past
    int64 go through ``format_timestamp``.
    """
    whole = np.isfinite(stamps) & (np.trunc(stamps) == stamps)
    # 2.0**63 is the first float past int64
    small = whole & (stamps >= -(2.0**63)) & (stamps < 2.0**63)
    if small.all():
        return _reprs(stamps.astype(np.int64))
    cells = np.empty(len(stamps), dtype=object)
    cells[small] = _reprs(stamps[small].astype(np.int64))
    cells[~whole] = _reprs(stamps[~whole])
    big = whole & ~small
    cells[big] = list(map(format_timestamp, stamps[big].tolist()))
    return cells.tolist()


#: Rows a bundle CSV is rendered and written in at a time.
_CHUNK_ROWS = 4096


def _join_rows(stamp_cells: list[str], tails: list[str]) -> str:
    """Rows of one stamp cell and one tail cell each, joined once."""
    rows = [None, None] * len(stamp_cells)
    rows[0::2] = stamp_cells
    rows[1::2] = tails
    return "".join(rows)


def _clock_groups(
    series_by_name: Mapping[str, IndicatorSeries],
) -> Iterator[list[tuple[str, IndicatorSeries]]]:
    """The ``(name, series)`` items in sorted name order, in runs of
    neighbours whose timestamps are equal: the series that share a clock."""
    group: list[tuple[str, IndicatorSeries]] = []
    for name, series in sorted(series_by_name.items()):
        if group and not np.array_equal(series.timestamps, group[0][1].timestamps):
            yield group
            group = []
        group.append((name, series))
    if group:
        yield group


def _render_group(group: list[tuple[str, IndicatorSeries]]) -> Iterator[tuple[str, str]]:
    """The CSV rows, header left out, of series that share a clock, as
    ``(name, chunk)`` pairs of up to ``_CHUNK_ROWS`` rows each, side by
    side: one chunk of every series in turn, then the next chunk.  Empty
    series give one empty chunk each, so that they still get a file.

    Each chunk of the timestamp column is rendered once for the whole
    group, so no more than one chunk of stamp cells is held.  Within a
    chunk, each run of equal value bits (``-0.0`` apart from ``0.0``) gets
    one ``,metric,value`` cell, repeated over the run.  A row is these two
    pieces, and a chunk's rows are joined once.
    """
    stamps = group[0][1].timestamps
    metrics = [csv_cell(name) for name, _series in group]
    for lo in range(0, len(stamps) or 1, _CHUNK_ROWS):
        stamp_cells = _stamp_cells(stamps[lo : lo + _CHUNK_ROWS])
        for (name, series), metric in zip(group, metrics):
            chunk = series.values[lo : lo + _CHUNK_ROWS]
            bits = chunk.view(np.int64)
            starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]][: len(bits)])
            cells = np.array(
                [f",{metric},{text}\n" for text in _reprs(chunk[starts])], dtype=object
            )
            tails = np.repeat(cells, np.diff(starts, append=len(chunk))).tolist()
            yield name, _join_rows(stamp_cells, tails)


def serialize_series(series_by_name: Mapping[str, IndicatorSeries]) -> str:
    """Render series as the ingestable CSV format, full precision, one
    clock group at a time (see ``_render_group``), and join each series'
    chunks, in sorted name order, into one string.  Timestamps and values
    never need quoting; a metric name is quoted as ``csv.writer`` quotes it."""
    chunks: dict[str, list[str]] = {name: [] for name in sorted(series_by_name)}
    for group in _clock_groups(series_by_name):
        for name, rows in _render_group(group):
            chunks[name].append(rows)
    return "".join([_HEADER_ROW, *chain.from_iterable(chunks.values())])


def write_series_files(series_by_name: Mapping[str, IndicatorSeries], directory: Path) -> None:
    """Write each series to ``directory/<name>.csv``, created if there is a
    series to write, with the bytes ``serialize_series`` gives for that
    series alone.  The files of a clock group are written side by side, a
    chunk of rows at a time, so no more than one chunk is held."""
    if series_by_name:
        directory.mkdir(exist_ok=True)
    for group in _clock_groups(series_by_name):
        with ExitStack() as files:
            outs = {}
            for name, _series in group:
                outs[name] = files.enter_context(
                    open(directory / f"{name}.csv", "w", encoding="utf-8")
                )
                outs[name].write(_HEADER_ROW)
            for name, rows in _render_group(group):
                outs[name].write(rows)


def write_error_log(log: ErrorLog, path: Path) -> None:
    """Write a scenario's error log as CSV, ``_CHUNK_ROWS`` rows at a time.

    The times are rendered as ``serialize_series`` renders timestamps, and
    each kind's ``,step,error,ageing,overload`` cells, names quoted as
    ``csv.writer`` quotes them, are built once.  Each chunk's rows are
    joined and written on their own, so the whole file is never held.
    """
    kind_cells = np.array(
        [
            f",{csv_cell(step)},{csv_cell(error)},"
            f"{str(ageing).lower()},{str(overload).lower()}\n"
            for step, error, ageing, overload in log.kinds
        ],
        dtype=object,
    )
    chunks = (
        _join_rows(
            _stamp_cells(log.times[lo : lo + _CHUNK_ROWS]),
            kind_cells[log.codes[lo : lo + _CHUNK_ROWS]].tolist(),
        )
        for lo in range(0, len(log), _CHUNK_ROWS)
    )
    with open(path, "w", encoding="utf-8") as out:
        out.write("time,step,error,ageing,overload\n")
        out.writelines(chunks)


# ── Workload reports ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class WorkloadReportData:
    """Summary of an ingested workload report."""

    durations: IndicatorSeries | None
    rejected_records: int


def ingest_workload_report(source: str | Path | IO[str]) -> WorkloadReportData:
    """Parse a workload-report JSON document into a duration series and a
    count of rejected records.

    Records missing fields, with a status that is not a known string,
    with a start or end that is not a finite JSON number (a string or a
    boolean is not one, nor an integer too large for a float), ending
    before they start, lasting longer than a float can hold, or with an
    ``error`` that is neither a string nor null are counted as rejected
    and skipped.  Durations of successful workloads become an indicator
    series timestamped at each workload's start.
    """
    document = load_json(source, "workload report")
    if not isinstance(document, dict) or "workloads" not in document:
        raise ParseError("workload report needs a top-level 'workloads' list")
    records = document["workloads"]
    if not isinstance(records, list):
        raise ParseError("'workloads' must be a list")

    statuses = {status.value for status in WorkloadStatus}
    starts: list[float] = []
    durations: list[float] = []
    rejected = 0
    for record in records:
        try:
            start, end, status = record["start"], record["end"], record["status"]
            # bool is a subclass of int, so the types are compared exactly
            if type(start) not in (int, float) or type(end) not in (int, float):
                raise TypeError("start and end must be JSON numbers")
            start, end = float(start), float(end)
        except (KeyError, TypeError, OverflowError):
            rejected += 1
            continue
        error = record.get("error")
        if (
            not isinstance(status, str)
            or status not in statuses
            or not (math.isfinite(start) and math.isfinite(end))
            or end < start
            or math.isinf(end - start)
            or not (error is None or isinstance(error, str))
        ):
            rejected += 1
            continue
        if status == WorkloadStatus.SUCCESS.value:
            starts.append(start)
            durations.append(end - start)

    series = None
    if starts:
        ts, values = nudge_ties(starts, durations)
        if math.isinf(ts[-1]):
            raise ParseError("workload start times tie at the largest float")
        series = IndicatorSeries("workload-duration", "seconds", ts, values)
    return WorkloadReportData(durations=series, rejected_records=rejected)
