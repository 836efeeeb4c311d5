"""Trend detection on synthetic indicator series.

Builds three hand-made series -- a leaking one, a noisy flat one and a
short one -- and walks them through hourly binning, the Mann-Kendall
test, Sen's slope and the ageing/rejuvenation deltas.

Run with:  python3 demos/trend_detection.py
"""

import numpy as np

from agesim import (
    IndicatorSeries,
    TrendVerdict,
    evaluate_indicator,
    mann_kendall,
    sens_slope,
)

HOUR = 3600.0


def leaking_series(rng):
    """Memory that drains 20 MB per hour under 5 MB of sampling noise,
    recovers after a rejuvenation window at hour 24."""
    times, values = [], []
    for k in range(26 * 120):  # one sample every 30 s for 26 hours
        t = k * 30.0
        hour = t / HOUR
        if hour < 24:
            level = 1.5 - 0.020 * hour
        elif hour < 25:
            level = 1.5  # rejuvenation window, freshly redeployed
        else:
            level = 1.5 - 0.020 * (hour - 25)
        times.append(t)
        values.append(level + rng.normal(0.0, 0.005))
    return IndicatorSeries("memory-available", "GB", times, values)


def flat_series(rng):
    """Pure noise around a constant level; no trend should be claimed."""
    times = [k * 30.0 for k in range(26 * 120)]
    values = [0.8 + rng.normal(0.0, 0.01) for _ in times]
    return IndicatorSeries("steady-gauge", "GB", times, values)


def main():
    rng = np.random.default_rng(42)

    print("== leaking memory ==")
    analysis = evaluate_indicator(
        leaking_series(rng), phase_boundaries=(24 * HOUR, 25 * HOUR)
    )
    trend = analysis.trend
    print(f"stress bins: n={trend.n}  S={trend.s_statistic}  Z={trend.z_score:.2f}")
    print(f"verdict: {trend.verdict.value}")
    ageing = analysis.ageing
    print(f"Sen's slope: {ageing.sens_slope * 1000:.1f} MB/h")
    print(f"ageing delta A = vb - v0 = {ageing.ageing_a:.3f} GB")
    print(f"rejuvenation delta R = vb - vr = {ageing.rejuvenation_r:.3f} GB")
    assert trend.verdict is TrendVerdict.DOWNWARD

    print()
    print("== steady gauge ==")
    analysis = evaluate_indicator(
        flat_series(rng), phase_boundaries=(24 * HOUR, 25 * HOUR)
    )
    print(f"Z={analysis.trend.z_score:.2f}  verdict: {analysis.trend.verdict.value}")
    assert analysis.trend.verdict is TrendVerdict.NO_TREND

    print()
    print("== too short to judge ==")
    # nine steadily rising values: the strength is reported, the verdict
    # stays insufficient until there are ten bins
    result = mann_kendall([float(i) for i in range(9)])
    print(f"n={result.n}  S={result.s_statistic}  verdict: {result.verdict.value}")
    print(f"slope of the same nine values: {sens_slope(range(9)):.2f}/h")


if __name__ == "__main__":
    main()
