"""Round trip through the collector format.

Simulates the external path: a scenario writes its gauge series to
CSV files, a separate analysis pass re-ingests those files and runs
the trend tests -- exactly what `agesim analyze` does for metrics
collected from a real deployment.

Run with:  python3 demos/ingest_and_analyze.py
"""

import tempfile
from pathlib import Path

import numpy as np

from agesim import (
    ScenarioConfig,
    evaluate_indicator,
    ingest,
    run_scenario,
    serialize_series,
)


def main():
    config = ScenarioConfig(scenario_id="collector", seed=11)
    report = run_scenario(config)

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "gauges.csv"
        csv_path.write_text(serialize_series(report.series), encoding="utf-8")
        size_kb = csv_path.stat().st_size / 1024
        print(f"wrote {len(report.series)} series to {csv_path.name} ({size_kb:.0f} KiB)")

        recovered = ingest(csv_path, unit="GB")

    # the CSV is exact: every sample survives the round trip bit for bit
    for name, series in report.series.items():
        assert np.array_equal(recovered[name].timestamps, series.timestamps)
        assert np.array_equal(recovered[name].values, series.values)
    print("round trip exact for all series")
    print()

    boundaries = (report.rejuvenation_started, report.rejuvenation_ended)
    for name in sorted(recovered):
        analysis = evaluate_indicator(recovered[name], phase_boundaries=boundaries)
        trend = analysis.trend
        line = f"{name:24s} Z={trend.z_score:7.2f}  {trend.verdict.value}"
        if analysis.ageing is not None:
            line += f"  A={analysis.ageing.ageing_a:8.3f}"
        print(line)


if __name__ == "__main__":
    main()
