"""Profile one scenario of the default matrix, and its bundle, under cProfile.

Runs one scenario of ``default_matrix`` (scenario 6 by default: the
multi-node topology at concurrency 64, the heaviest of the twelve) and
prints the functions that spend the most time in their own code.  Beside
the unprofiled time it prints what the engine did (the steps of finished
workloads and the workloads, counted through the result hook of a third
run, and the ticks sampled, counted from what its ``run_stream`` calls
return), and the unprofiled time per step.  Then
it does the same for ``write_bundle`` of that scenario's report, written
to a temporary directory: the bundle is about 15 % of a ``matrix`` pass.
It also prints an unprofiled split of the bundle (the series CSVs,
through ``write_bundle``'s own series writer, ``errors.csv``, and
``report.json`` plus ``tables.txt``), with the series rows beside their
runs of equal values and their distinct values, and the error rows
beside their kinds: the series writer formats each run of equal values
once, and a timestamp column once for the series that share it; the
error writer formats each error kind once.
Use it to find where the time goes before changing it; cProfile adds a
cost to every Python call, so confirm a candidate with the benchmark
(``perfbench/run.py``) with profiling off.

Run with:  python3 demos/profile_scenario.py [scenario-id] [rows]

The same profile through the command line, for any config file:

    python3 -m cProfile -s tottime -m agesim.cli run config.json | head -60
"""

import cProfile
import json
import pstats
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from agesim import (
    default_matrix,
    render_tables,
    report_document,
    run_scenario,
    write_bundle,
)
from agesim import scenario
from agesim.report import _write_series, write_error_log


def profiled(label: str, call, rows: int):
    """Time ``call()`` once unprofiled, then profile a second call; return
    the result and the unprofiled seconds."""
    started = time.perf_counter()
    call()
    seconds = time.perf_counter() - started
    print(f"{label} unprofiled: {seconds:.2f} s")
    profiler = cProfile.Profile()
    profiler.enable()
    result = call()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("tottime").print_stats(rows)
    return result, seconds


def engine_events(config) -> dict[str, int]:
    """Run ``config`` once more, counting what its ``run_stream`` calls hand
    to the result hook and the ticks they sample."""
    counts = {"steps": 0, "ticks": 0, "workloads": 0}
    run_stream = scenario.run_stream

    def counting_run_stream(*args, result_hook, **options):
        def on_result(result):
            counts["workloads"] += 1
            counts["steps"] += result.steps_executed
            result_hook(result)

        readings = run_stream(*args, result_hook=on_result, **options)
        counts["ticks"] += len(readings["time"])
        return readings

    scenario.run_stream = counting_run_stream
    try:
        run_scenario(config)
    finally:
        scenario.run_stream = run_stream
    return counts


def bundle_split(report, out: Path) -> None:
    """Print the unprofiled time of each part ``write_bundle`` writes, the
    series rows beside their runs of equal values and their distinct values
    (by bits, per series), and the error rows beside their kinds."""
    series = report.series

    def report_and_tables():
        document = json.dumps(report_document(report), indent=2) + "\n"
        (out / "report.json").write_text(document, encoding="utf-8")
        (out / "tables.txt").write_text(render_tables(report), encoding="utf-8")

    parts = {
        "series CSVs": lambda: _write_series(series, out / "series"),
        "errors.csv": lambda: write_error_log(report, out / "errors.csv"),
        "report.json + tables.txt": report_and_tables,
    }
    for label, call in parts.items():
        started = time.perf_counter()
        call()
        print(f"  {label}: {time.perf_counter() - started:.3f} s unprofiled")
    rows = sum(len(s) for s in series.values())
    bits = [s.values.view(np.int64) for s in series.values()]
    runs = sum(int(np.count_nonzero(b[1:] != b[:-1])) + (len(b) > 0) for b in bits)
    distinct = sum(len(np.unique(b)) for b in bits)
    print(f"  series rows: {rows}, value runs: {runs}, distinct values: {distinct}")
    print(f"  error rows: {len(report.error_log)}, kinds: {len(report.error_log.kinds)}")


def main(scenario_id: str = "6", rows: int = 25) -> None:
    configs = {config.scenario_id: config for config in default_matrix()}
    config = configs[scenario_id]
    print(
        f"scenario {config.scenario_id}: {config.topology}, "
        f"concurrency {config.concurrency}, {config.stress_hours} stress hours"
    )
    report, seconds = profiled("run_scenario", lambda: run_scenario(config), rows)
    print(f"workloads simulated: {sum(report.totals.values())}")
    counts = engine_events(config)
    print(
        f"engine: {counts['steps']} steps of {counts['workloads']} finished "
        f"workloads, {counts['ticks']} ticks sampled; "
        f"{seconds / counts['steps'] * 1e6:.2f} us unprofiled per step"
    )

    with tempfile.TemporaryDirectory() as out:
        profiled("write_bundle", lambda: write_bundle(report, out), rows)
        bundle_split(report, Path(out))


if __name__ == "__main__":
    scenario_id = sys.argv[1] if len(sys.argv) > 1 else "6"
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    main(scenario_id, rows)
