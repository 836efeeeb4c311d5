"""Profile one scenario of the default matrix, and its bundle, under cProfile.

Runs one scenario of ``default_matrix`` (scenario 6 by default: the
multi-node topology at concurrency 64, the heaviest of the twelve) and
prints the functions that spend the most time in their own code.  Beside
the unprofiled time it prints the engine's events (the steps of finished
workloads, sampling ticks and workloads, counted through the hooks of a
third run), and the unprofiled time per step or tick.  Then
it does the same for ``write_bundle`` of that scenario's report, written
to a temporary directory: the bundle is about 15 % of a ``matrix`` pass.
Use it to find where the time goes before changing it; cProfile adds a
cost to every Python call, so confirm a candidate with the benchmark
(``perfbench/run.py``) with profiling off.

Run with:  python3 demos/profile_scenario.py [scenario-id] [rows]

The same profile through the command line, for any config file:

    python3 -m cProfile -s tottime -m agesim.cli run config.json | head -60
"""

import cProfile
import pstats
import sys
import tempfile
import time

from agesim import default_matrix, run_scenario, write_bundle
from agesim import scenario


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
    to the tick and result hooks."""
    counts = {"steps": 0, "ticks": 0, "workloads": 0}
    run_stream = scenario.run_stream

    def counting_run_stream(*args, tick_hook, result_hook, **options):
        def on_tick(t, gauges):
            counts["ticks"] += 1
            tick_hook(t, gauges)

        def on_result(result):
            counts["workloads"] += 1
            counts["steps"] += result.steps_executed
            result_hook(result)

        run_stream(*args, tick_hook=on_tick, result_hook=on_result, **options)

    scenario.run_stream = counting_run_stream
    try:
        run_scenario(config)
    finally:
        scenario.run_stream = run_stream
    return counts


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
    events = counts["steps"] + counts["ticks"]
    print(
        f"engine events: {counts['steps']} steps of {counts['workloads']} finished "
        f"workloads, {counts['ticks']} ticks; "
        f"{seconds / events * 1e6:.2f} us unprofiled per step or tick"
    )

    with tempfile.TemporaryDirectory() as out:
        profiled("write_bundle", lambda: write_bundle(report, out), rows)


if __name__ == "__main__":
    scenario_id = sys.argv[1] if len(sys.argv) > 1 else "6"
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    main(scenario_id, rows)
