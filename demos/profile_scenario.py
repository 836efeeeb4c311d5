"""Profile one scenario of the default matrix, and its bundle, under cProfile.

Runs one scenario of ``default_matrix`` (scenario 6 by default: the
multi-node topology at concurrency 64, the heaviest of the twelve) and
prints the functions that spend the most time in their own code.  Then
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


def profiled(label: str, call, rows: int):
    """Time ``call()`` once unprofiled, then profile a second call."""
    started = time.perf_counter()
    call()
    print(f"{label} unprofiled: {time.perf_counter() - started:.2f} s")
    profiler = cProfile.Profile()
    profiler.enable()
    result = call()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("tottime").print_stats(rows)
    return result


def main(scenario_id: str = "6", rows: int = 25) -> None:
    configs = {config.scenario_id: config for config in default_matrix()}
    config = configs[scenario_id]
    print(
        f"scenario {config.scenario_id}: {config.topology}, "
        f"concurrency {config.concurrency}, {config.stress_hours} stress hours"
    )
    report = profiled("run_scenario", lambda: run_scenario(config), rows)
    print(f"workloads simulated: {sum(report.totals.values())}")

    with tempfile.TemporaryDirectory() as out:
        profiled("write_bundle", lambda: write_bundle(report, out), rows)


if __name__ == "__main__":
    scenario_id = sys.argv[1] if len(sys.argv) > 1 else "6"
    rows = int(sys.argv[2]) if len(sys.argv) > 2 else 25
    main(scenario_id, rows)
