"""The 12-scenario concurrency/topology sweep.

Runs the default matrix (concurrencies 1..64 on the multi-node and
all-in-one topologies), prints the combined verdict table and shows
how overload drowns the failure counts at high concurrency.  An
argument shortens every stress phase to that many hours (the matrix
runs 24); below 10 no trend verdict can be reached.

Run with:  python3 demos/scenario_matrix.py [stress-hours]
"""

import dataclasses
import sys

from agesim import default_matrix, run_suite, suite_trend_table


def main(stress_hours: int | None = None):
    configs = default_matrix(base_seed=0)
    if stress_hours is not None:
        configs = [dataclasses.replace(c, stress_hours=stress_hours) for c in configs]
    print(f"running {len(configs)} scenarios...")
    suite = run_suite(configs)
    for scenario_id, message in sorted(suite.errors.items()):
        print(f"scenario {scenario_id} failed to run: {message}")
    print()
    print(suite_trend_table(suite.reports))

    print("completed workloads by scenario:")
    for report in suite.reports:
        totals = report.totals
        done = sum(totals.values())
        rejected = totals.get("non-ageing-failure", 0)
        print(
            f"  scenario {report.scenario_id:>2s}"
            f" ({report.topology}, c={report.concurrency:>2d}):"
            f" {done:5d} completed, {rejected:5d} rejected"
            f" ({rejected / done:5.1%})"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else None)
