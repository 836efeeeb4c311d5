"""Rendering scenario results: JSON documents, CSV bundles, text tables.

A scenario bundle on disk looks like::

    <out>/report.json        full machine-readable report
    <out>/series/<name>.csv  each indicator series, ingestable format
    <out>/errors.csv         the raw error log
    <out>/tables.txt         human-readable tables

A suite bundle nests one scenario bundle per scenario and adds a
combined ``trend_table.txt`` plus a ``suite.json`` summary.

Error distributions always hold the overload indicators (quota
rejections of the always-contended kind) out of the table and count
them beside it, so saturation noise does not drown the ageing signal;
``errors.csv`` flags each of their rows in its ``overload`` column.
"""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .scenario import ScenarioReport, SuiteResult
from .trendstats import ALPHA, TREND_INPUT, AgeingSummary, IndicatorAnalysis, TrendVerdict
from .ingest import write_error_log, write_series_files

#: Compact verdict markers used in tables.
VERDICT_MARKERS = {
    TrendVerdict.UPWARD: "up",
    TrendVerdict.DOWNWARD: "down",
    TrendVerdict.NO_TREND: "flat",
    TrendVerdict.INSUFFICIENT_DATA: "n/a",
}


def _clean_floats(values: Sequence[float]) -> list[float]:
    """Round-trip floats through a short repr for compact documents.

    Each value is rounded to 10 significant digits, formatted and parsed
    back by one ``map`` each, unless that rounds it past the largest
    float: then it is kept as it is, so a finite value never becomes an
    infinity (and ``Infinity`` in a JSON document).
    """
    rounded = list(map(float, map(format, values, repeat(".10g"))))
    if math.inf in rounded or -math.inf in rounded:
        return [float(v) if math.isinf(r) else r for v, r in zip(values, rounded)]
    return rounded


def _clean_float(value):
    """``_clean_floats`` of one value, or None for None."""
    return None if value is None else _clean_floats((float(value),))[0]


def analysis_document(analysis: IndicatorAnalysis) -> dict:
    hourly = analysis.hourly
    trend = analysis.trend
    doc = {
        "unit": hourly.unit,
        "hourly": {
            "hours": list(hourly.hours),
            "means": _clean_floats(hourly.means),
            "phases": {
                "rejuvenation": list(hourly.rejuvenation),
                "post_rejuvenation": list(hourly.post_rejuvenation),
                "excluded": list(hourly.excluded),
            },
        },
        "trend": {
            "n": trend.n,
            "s_statistic": trend.s_statistic,
            "variance": _clean_float(trend.variance),
            "z_score": _clean_float(trend.z_score),
            "verdict": trend.verdict.value,
            "alpha": ALPHA,
        },
        "ageing": None,
        "ageing_unavailable": analysis.ageing_unavailable,
    }
    if analysis.ageing is not None:
        doc["ageing"] = {
            f.name: _clean_float(getattr(analysis.ageing, f.name))
            for f in dataclasses.fields(AgeingSummary)
        }
    return doc


def error_distribution(report: ScenarioReport) -> tuple[dict[str, int], int]:
    """Tally errors by name, overload indicators held out; returns
    (distribution, overload count held out).  The count added back to
    its error's entry gives the tally of every error by name."""
    log = report.error_log
    counts = np.bincount(log.codes, minlength=len(log.kinds)).tolist()
    tally: dict[str, int] = {}
    overload = 0
    for (_step, error, _ageing, is_overload), n in zip(log.kinds, counts):
        if is_overload:
            overload += n
        elif n:
            tally[error] = tally.get(error, 0) + n
    return dict(sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))), overload


def report_document(report: ScenarioReport) -> dict:
    """Machine-readable document for one scenario run."""
    distribution, overload = error_distribution(report)
    return {
        "scenario": {
            "id": report.scenario_id,
            "topology": report.topology,
            "concurrency": report.concurrency,
            "seed": report.seed,
            "policy": report.policy,
            "stress_hours": report.stress_hours,
            "post_rejuvenation_hours": report.post_rejuvenation_hours,
        },
        "deploy_failed": report.deploy_failed,
        "failure_point": _clean_float(report.failure_point),
        "rejuvenation": {
            "started": _clean_float(report.rejuvenation_started),
            "ended": _clean_float(report.rejuvenation_ended),
        },
        "excluded_windows": [
            [_clean_float(a), _clean_float(b)] for a, b in report.excluded_windows
        ],
        "trend_input": TREND_INPUT,
        "totals": dict(report.totals),
        "hourly_counts": [dict(entry) for entry in report.hourly_counts],
        "indicators": {
            name: analysis_document(report.analyses[name])
            for name in sorted(report.analyses)
        },
        "error_distribution": distribution,
        "overload_errors_excluded": overload,
    }


# ── Text tables ──────────────────────────────────────────────────────────


def _trend_rows(report: ScenarioReport) -> Iterable[str]:
    yield (
        f"{'indicator':28s} {'unit':8s} {'n':>3s} {'S':>6s} {'Z':>8s}"
        f" {'verdict':8s} {'slope/h':>10s}"
    )
    for name in sorted(report.analyses):
        analysis = report.analyses[name]
        trend = analysis.trend
        slope = analysis.ageing.sens_slope if analysis.ageing else None
        slope_text = f"{slope:10.3f}" if slope is not None else f"{'-':>10s}"
        yield (
            f"{name:28s} {analysis.hourly.unit:8s} {trend.n:3d} {trend.s_statistic:6d}"
            f" {trend.z_score:8.2f} {VERDICT_MARKERS[trend.verdict]:8s} {slope_text}"
        )


def _ageing_rows(report: ScenarioReport) -> Iterable[str]:
    yield (
        f"{'indicator':28s} {'v0':>10s} {'vb':>10s} {'vr':>10s}"
        f" {'A':>10s} {'R':>10s}"
    )
    for name in sorted(report.analyses):
        analysis = report.analyses[name]
        if analysis.ageing is None:
            reason = analysis.ageing_unavailable or "unavailable"
            yield f"{name:28s} {reason}"
            continue
        ageing = analysis.ageing
        yield (
            f"{name:28s} {ageing.v0:10.3f} {ageing.vb:10.3f} {ageing.vr:10.3f}"
            f" {ageing.ageing_a:10.2f} {ageing.rejuvenation_r:10.2f}"
        )


def _count_rows(report: ScenarioReport) -> Iterable[str]:
    yield f"{'hour':>4s} {'success':>8s} {'ageing-failure':>15s} {'non-ageing-failure':>19s}"
    for entry in report.hourly_counts:
        yield (
            f"{entry['hour']:4d} {entry['success']:8d}"
            f" {entry['ageing-failure']:15d} {entry['non-ageing-failure']:19d}"
        )


def render_tables(report: ScenarioReport) -> str:
    """All human-readable tables for one scenario; the error table holds
    the overload indicators out and counts them on a line below it."""
    lines = [
        f"scenario {report.scenario_id}  topology {report.topology}"
        f"  concurrency {report.concurrency}  seed {report.seed}"
        f"  policy {report.policy}",
        "",
    ]
    if report.deploy_failed:
        lines.append("deployment failed; no phases were run")
        return "\n".join(lines) + "\n"
    if report.failure_point is not None:
        lines.append(f"cloud failed at t={report.failure_point:.2f} s")
    for start, end in report.excluded_windows:
        lines.append(f"excluded window: {start:.0f} s to {end:.0f} s (cloud down)")
    lines.append(
        f"rejuvenation from {report.rejuvenation_started:.0f} s"
        f" to {report.rejuvenation_ended:.0f} s"
    )
    lines.append("")
    lines.append(f"trend over stress-phase hourly means ({TREND_INPUT})")
    lines.extend(_trend_rows(report))
    lines.append("")
    lines.append("ageing delta A = vb - v0, rejuvenation delta R = vb - vr")
    lines.extend(_ageing_rows(report))
    lines.append("")
    lines.append("workloads per hour")
    lines.extend(_count_rows(report))
    lines.append("")
    distribution, overload = error_distribution(report)
    lines.append("error distribution (overload indicators excluded)")
    if distribution:
        lines.append(f"{'error':40s} {'count':>7s}")
        for error, count in distribution.items():
            lines.append(f"{error:40s} {count:7d}")
    else:
        lines.append("no errors recorded")
    if overload:
        lines.append(f"overload rejections excluded from the table: {overload}")
    return "\n".join(lines) + "\n"


def suite_trend_table(reports: Iterable[ScenarioReport]) -> str:
    """Combined verdict table across scenarios."""
    lines = [
        f"{'scenario':>8s} {'topology':12s} {'c':>3s} {'indicator':28s}"
        f" {'Z':>8s} {'verdict':8s} {'A':>10s} {'R':>10s}"
    ]
    for report in reports:
        if report.deploy_failed:
            lines.append(
                f"{report.scenario_id:>8s} {report.topology:12s}"
                f" {report.concurrency:3d} deployment failed"
            )
            continue
        for name in sorted(report.analyses):
            analysis = report.analyses[name]
            ageing = analysis.ageing
            a_text = f"{ageing.ageing_a:10.2f}" if ageing else f"{'-':>10s}"
            r_text = f"{ageing.rejuvenation_r:10.2f}" if ageing else f"{'-':>10s}"
            lines.append(
                f"{report.scenario_id:>8s} {report.topology:12s}"
                f" {report.concurrency:3d} {name:28s}"
                f" {analysis.trend.z_score:8.2f}"
                f" {VERDICT_MARKERS[analysis.trend.verdict]:8s} {a_text} {r_text}"
            )
    return "\n".join(lines) + "\n"


# ── Disk bundles ─────────────────────────────────────────────────────────


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` of a value nested at indent ``pad``.

    A dict with string keys is laid out as ``json`` lays it out, around
    its values rendered here.  A non-empty list of plain numbers (ints
    and finite floats) is a column: its items are rendered by one
    ``repr`` of the list, split onto lines by one ``replace``, which is
    how ``json`` renders each of them.  Any other value is
    rendered by ``json.dumps`` and shifted by ``pad``, as a JSON text
    holds no raw newline inside a string.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and value and set(map(type, value)) <= {int, float}:
        items = repr(list(value))[1:-1]
        # only nan and the infinities hold an "n", and json spells them otherwise
        if "n" not in items:
            return f"[\n{inner}" + items.replace(", ", f",\n{inner}") + f"\n{pad}]"
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)  # a scalar, which no indent changes
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _write_json(document: Mapping, path: Path) -> None:
    """Write ``document`` as ``json.dumps(document, indent=2)`` renders it,
    plus a newline, with each list of plain numbers (the hourly columns
    of an analysis, say) rendered as one column; see ``_json_text``."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines((_json_text(document), "\n"))


def write_analysis(
    analyses: Mapping[str, IndicatorAnalysis],
    rebased_from: float,
    phase_boundaries: Sequence[float],
    path: Path,
) -> None:
    """Write the ``analysis.json`` document of ``agesim analyze``: the
    time the series were rebased from, the phase boundaries and each
    indicator's analysis, in sorted name order."""
    document = {
        "rebased_from": rebased_from,
        "phase_boundaries": list(phase_boundaries),
        "indicators": {name: analysis_document(analyses[name]) for name in sorted(analyses)},
    }
    _write_json(document, path)


def write_bundle(report: ScenarioReport, out_dir: str | Path) -> Path:
    """Write one scenario's report bundle; returns the bundle directory.

    The JSON report and the tables are rendered here, each holding the
    overload indicators out of its error table and counting them beside
    it; ``errors.csv`` flags their rows.  The CSV files are
    written by ``agesim.ingest``, which owns their format: the series
    files by ``write_series_files`` and ``errors.csv`` by
    ``write_error_log``, each a chunk of rows at a time, so writing a
    bundle holds one chunk, not a file or a column."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(report_document(report), out / "report.json")
    (out / "tables.txt").write_text(render_tables(report), encoding="utf-8")
    write_error_log(report.error_log, out / "errors.csv")
    write_series_files(report.series, out / "series")
    return out


def write_suite_bundle(suite: SuiteResult, out_dir: str | Path) -> Path:
    """Write every scenario's bundle, overload held out, and the suite files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for report in suite.reports:
        write_bundle(report, out / f"scenario-{report.scenario_id}")
    (out / "trend_table.txt").write_text(
        suite_trend_table(suite.reports), encoding="utf-8"
    )
    summary = {
        "scenarios": [
            {
                "id": r.scenario_id,
                "topology": r.topology,
                "concurrency": r.concurrency,
                "deploy_failed": r.deploy_failed,
                "failure_point": _clean_float(r.failure_point),
                "totals": dict(r.totals),
                "verdicts": {
                    name: r.analyses[name].trend.verdict.value
                    for name in sorted(r.analyses)
                },
            }
            for r in suite.reports
        ],
        "errors": dict(sorted(suite.errors.items())),
    }
    _write_json(summary, out / "suite.json")
    return out
