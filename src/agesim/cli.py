"""Command line entry points.

Three subcommands:

``agesim run CONFIG``
    Run one scenario from a JSON config document and print its tables.

``agesim suite --default-matrix | --configs FILE...``
    Run a batch of scenarios and print the combined verdict table.

``agesim analyze CSV...``
    Trend-test externally collected indicator series.

Exit codes: 0 success, 1 runtime failure, 2 bad configuration,
unparseable input or a path that cannot be read or written (a directory
named as an input file, a file where ``--out`` needs a directory), 3
missing input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .errors import AgesimError, ConfigError, ParseError
from .ingest import ingest, ingest_workload_report, load_json
from .report import (
    render_tables,
    suite_trend_table,
    write_analysis,
    write_bundle,
    write_suite_bundle,
)
from .scenario import (
    EarlyFailurePolicy,
    ScenarioConfig,
    default_matrix,
    run_scenario,
    run_suite,
)
from .seeding import scenario_seed
from .trendstats import IndicatorSeries, evaluate_indicator, rebased


def _parse_int(text: str, what: str) -> int:
    """``text`` as an integer, or an argparse error naming ``what``.

    ``int()`` refuses a value of more digits than the interpreter's limit
    (``sys.get_int_max_str_digits()``, 4,300 by default), and the error
    says so rather than calling it not an integer.  Either error quotes
    at most 24 characters of the value, keeping its two ends.
    """
    try:
        return int(text)
    except ValueError:
        pass
    shown = text if len(text) <= 24 else f"{text[:12]}...{text[-12:]}"
    digits = text.strip().lstrip("+-").replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits.isdecimal() and len(digits) > limit:
        raise argparse.ArgumentTypeError(
            f"{what}: {shown!r} has {len(digits):,} digits, more than the {limit:,} allowed"
        )
    raise argparse.ArgumentTypeError(f"{what}: {shown!r} is not an integer")


#: The ``ScenarioConfig`` field each ``--phases`` key sets.
_PHASE_FIELDS = {"stress": "stress_hours", "post": "post_rejuvenation_hours"}


def _parse_phases(text: str) -> dict[str, int]:
    """Parse ``stress:24,post:1`` into ``ScenarioConfig`` phase-hour overrides."""
    result: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition(":")
        key = key.strip()
        if key not in _PHASE_FIELDS:
            raise argparse.ArgumentTypeError(
                f"unknown phase {key!r}; expected stress or post"
            )
        if _PHASE_FIELDS[key] in result:
            raise argparse.ArgumentTypeError(f"phase {key} is given more than once")
        hours = _parse_int(value.strip(), f"phase {key}")
        if hours < 0:
            raise argparse.ArgumentTypeError(f"phase {key}: hours must be >= 0")
        result[_PHASE_FIELDS[key]] = hours
    if not result:
        raise argparse.ArgumentTypeError("empty phase list")
    return result


def _parse_seed(text: str) -> int:
    """A ``--seed`` value: every random stream needs a non-negative integer."""
    seed = _parse_int(text, "seed")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must not be negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agesim",
        description="Simulate software ageing in a quota-limited cloud "
        "and trend-test the resulting indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario from a JSON config")
    run_p.add_argument("config", help="path to a scenario config document")
    run_p.add_argument("--out", help="directory to write the report bundle into")
    run_p.add_argument("--seed", type=_parse_seed, help="override the config seed")
    run_p.add_argument(
        "--policy",
        choices=[p.value for p in EarlyFailurePolicy],
        help="override the early-failure policy",
    )
    run_p.add_argument(
        "--phases",
        type=_parse_phases,
        metavar="stress:H,post:H",
        help="override phase lengths in hours",
    )
    run_p.set_defaults(handler=_cmd_run)

    suite_p = sub.add_parser("suite", help="run a batch of scenarios")
    source = suite_p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--default-matrix",
        action="store_true",
        help="run the standard 12-scenario concurrency/topology sweep",
    )
    source.add_argument(
        "--configs",
        nargs="+",
        metavar="FILE",
        help="JSON config documents (each file holds one document or a list)",
    )
    suite_p.add_argument("--out", help="directory to write scenario bundles into")
    suite_p.add_argument(
        "--seed",
        type=_parse_seed,
        help="base seed; each scenario gets a distinct stream derived from it",
    )
    suite_p.set_defaults(handler=_cmd_suite)

    analyze_p = sub.add_parser(
        "analyze", help="trend-test indicator series from CSV files"
    )
    analyze_p.add_argument(
        "csvs", nargs="+", metavar="CSV", help="timestamp,metric,value files"
    )
    analyze_p.add_argument(
        "--stress-end",
        type=float,
        help="seconds (after rebasing) where the stress phase ends",
    )
    analyze_p.add_argument(
        "--rejuvenation-end",
        type=float,
        help="seconds (after rebasing) where rejuvenation ends",
    )
    analyze_p.add_argument(
        "--unit", default="unknown", help="unit label for the ingested metrics"
    )
    analyze_p.add_argument(
        "--workload-report",
        help="JSON workload report; successful durations join the analysis",
    )
    analyze_p.add_argument("--out", help="directory to write analysis.json into")
    analyze_p.set_defaults(handler=_cmd_analyze)
    return parser


def _out_dir(path: str | None) -> Path | None:
    """The ``--out`` directory, created once the run has succeeded and
    before any result is printed, so a refused config leaves no directory
    and a path that cannot hold one fails with nothing on stdout."""
    if not path:
        return None
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    doc = load_json(args.config, args.config)
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: expected a JSON object")
    config = ScenarioConfig.from_document(doc)
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.policy is not None:
        overrides["policy"] = EarlyFailurePolicy(args.policy)
    if args.phases is not None:
        overrides.update(args.phases)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    report = run_scenario(config)
    out = _out_dir(args.out)
    print(render_tables(report), end="")
    if out is not None:
        write_bundle(report, out)
        print(f"bundle written to {out}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.default_matrix:
        configs = default_matrix(args.seed if args.seed is not None else 0)
    else:
        docs = []
        for path in args.configs:
            doc = load_json(path, path)
            docs.extend(doc if isinstance(doc, list) else [doc])
        if not docs:
            raise ConfigError("--configs holds no scenario document")
        configs = [ScenarioConfig.from_document(d) for d in docs]
        if args.seed is not None:
            configs = [
                dataclasses.replace(c, seed=scenario_seed(args.seed, i + 1))
                for i, c in enumerate(configs)
            ]
    suite = run_suite(configs)
    out = _out_dir(args.out) if suite.reports else None
    for scenario_id, message in sorted(suite.errors.items()):
        print(f"scenario {scenario_id} failed: {message}", file=sys.stderr)
    if not suite.reports:
        print("no scenario completed", file=sys.stderr)
        return 1
    print(suite_trend_table(suite.reports), end="")
    if out is not None:
        write_suite_bundle(suite, out)
        print(f"suite bundle written to {out}")
    return 0


def _analysis_line(name: str, analysis) -> str:
    trend = analysis.trend
    line = (
        f"{name}: n={trend.n} S={trend.s_statistic}"
        f" Z={trend.z_score:.2f} verdict={trend.verdict.value}"
    )
    if analysis.ageing is not None:
        ageing = analysis.ageing
        if ageing.sens_slope is not None:
            line += f" slope={ageing.sens_slope:.4f}/h"
        line += f" A={ageing.ageing_a:.3f} R={ageing.rejuvenation_r:.3f}"
    elif analysis.ageing_unavailable:
        line += f" ({analysis.ageing_unavailable})"
    return line


def _add_series(series: dict[str, IndicatorSeries], parsed: IndicatorSeries) -> None:
    if parsed.name in series:
        raise ParseError(f"metric {parsed.name!r} appears in more than one input")
    series[parsed.name] = parsed


def _cmd_analyze(args: argparse.Namespace) -> int:
    # a bad flag is refused before any input is read, whatever the inputs
    for flag, seconds in (
        ("--stress-end", args.stress_end),
        ("--rejuvenation-end", args.rejuvenation_end),
    ):
        if seconds is not None and not math.isfinite(seconds):
            raise ConfigError(f"{flag} must be a finite number of seconds, got {seconds!r}")
    if args.rejuvenation_end is not None and args.stress_end is None:
        raise ConfigError("--rejuvenation-end requires --stress-end")
    if not args.unit:
        raise ConfigError("--unit must be non-empty")
    boundaries: tuple[float, ...] = ()
    if args.stress_end is not None:
        boundaries = (args.stress_end,)
        if args.rejuvenation_end is not None:
            if args.rejuvenation_end <= args.stress_end:
                raise ConfigError("--rejuvenation-end must be after --stress-end")
            boundaries = (args.stress_end, args.rejuvenation_end)

    series: dict[str, IndicatorSeries] = {}
    for path in args.csvs:
        for parsed in ingest(path, unit=args.unit).values():
            _add_series(series, parsed)
    if args.workload_report is not None:
        data = ingest_workload_report(args.workload_report)
        if data.rejected_records:
            print(
                f"workload report: {data.rejected_records} malformed records skipped",
                file=sys.stderr,
            )
        if data.durations is not None:
            _add_series(series, data.durations)

    # align all metrics on a shared clock starting at the earliest sample
    t0 = min(float(s.timestamps[0]) for s in series.values())
    # evaluate every metric before printing any, so a bad one leaves no partial output
    analyses = {
        name: evaluate_indicator(rebased(series[name], t0), phase_boundaries=boundaries)
        for name in sorted(series)
    }
    out = _out_dir(args.out)
    for name, analysis in analyses.items():
        print(_analysis_line(name, analysis))

    if out is not None:
        write_analysis(analyses, t0, boundaries, out / "analysis.json")
        print(f"analysis written to {out / 'analysis.json'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a path that exists but cannot serve: a directory named as an
        # input, a file where --out needs a directory, a denied permission
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except AgesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
