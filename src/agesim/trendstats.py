"""Trend detection and ageing deltas for hourly indicator series.

The analysis pipeline mirrors a common accelerated-ageing protocol: raw
samples of an indicator (workload duration, memory available, swap used,
disk used) are averaged into hourly bins, the stress-phase bins feed a
Mann-Kendall trend test plus Sen's slope estimate, and three reference
bins summarise the run:

* ``v0``  - mean of stress hour 0,
* ``vb``  - mean of the last populated stress hour,
* ``vr``  - mean of the post-rejuvenation hour,

giving the ageing delta ``A = vb - v0`` and the rejuvenation delta
``R = vb - vr``.

Mann-Kendall statistic over a series ``x_1..x_n``::

    S = sum_{i<j} sgn(x_j - x_i)

    var(S) = [ n(n-1)(2n+5) - sum_t t(t-1)(2t+5) ] / 18

where ``t`` runs over the sizes of tie groups.  The standard score uses
the continuity correction::

    Z = (S - 1)/sqrt(var(S))  if S > 0
      = 0                     if S = 0
      = (S + 1)/sqrt(var(S))  if S < 0

A series is called Upward when ``Z > 1.96``, Downward when
``Z < -1.96`` (two-sided test at alpha = 0.05) and NoTrend otherwise;
the inequalities are strict.  Fewer than ``MIN_TREND_SAMPLES`` bins
yield InsufficientData.

Sen's slope is the median of all pairwise slopes ``(x_j - x_i)/(j - i)``
over index pairs ``i < j``; the index-distance denominator keeps pairs
with repeated values well-defined, and the result is rescaled by the bin
spacing into per-hour units.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    EmptySeriesError,
    InsufficientDataError,
    InvalidSeriesError,
    MissingPhaseBinError,
)

#: Two-sided critical value at alpha = 0.05.
Z_CRITICAL = 1.96

#: Minimum number of bins for a trend verdict.
MIN_TREND_SAMPLES = 10

SECONDS_PER_HOUR = 3600.0


class TrendVerdict(Enum):
    """Outcome of the Mann-Kendall test."""

    UPWARD = "upward"
    DOWNWARD = "downward"
    NO_TREND = "none"
    INSUFFICIENT_DATA = "insufficient-data"


@dataclass(frozen=True)
class IndicatorSeries:
    """A named, unit-carrying sequence of (timestamp, value) samples.

    Timestamps are seconds since the start of the observation window and
    must be strictly increasing.
    """

    name: str
    unit: str
    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.unit:
            raise InvalidSeriesError("IndicatorSeries.unit must be non-empty")
        samples = tuple(map(tuple, self.samples))
        object.__setattr__(self, "samples", samples)
        ts = [t for t, _ in samples]
        # ``b <= a`` per neighbour pair: a NaN timestamp compares false and passes
        if any(map(operator.le, ts[1:], ts)):
            raise InvalidSeriesError(
                f"timestamps of series {self.name!r} must be strictly increasing"
            )

    def __len__(self) -> int:
        return len(self.samples)


def nudge_ties(samples: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort samples and move tied timestamps just past their predecessor.

    A tie advances by a nanosecond, or by one float step where a
    nanosecond is below the spacing (epoch seconds, for instance), so
    the result is always strictly increasing.
    """
    out: list[tuple[float, float]] = []
    previous = -math.inf
    for ts, value in sorted(samples):
        if ts <= previous:
            ts = max(previous + 1e-9, math.nextafter(previous, math.inf))
        out.append((ts, value))
        previous = ts
    return out


@dataclass(frozen=True)
class PhaseMarks:
    """Hour indices that do not belong to the stress phase."""

    rejuvenation: tuple[int, ...] = ()
    post_rejuvenation: tuple[int, ...] = ()
    excluded: tuple[int, ...] = ()

    def non_stress(self) -> frozenset[int]:
        return frozenset(self.rejuvenation + self.post_rejuvenation + self.excluded)


@dataclass(frozen=True)
class HourlySeries:
    """Hourly bin means of an indicator series.

    ``hours`` holds the populated bin indices in increasing order; hours
    without samples are simply absent.  ``phase_marks`` flags the bins
    that fall outside the stress phase so that trend tests can restrict
    themselves to stress bins.
    """

    name: str
    unit: str
    hours: tuple[int, ...]
    means: tuple[float, ...]
    phase_marks: PhaseMarks = field(default_factory=PhaseMarks)

    def __post_init__(self):
        if len(self.hours) != len(self.means):
            raise ValueError("hours and means must be parallel")
        if any(b <= a for a, b in zip(self.hours, self.hours[1:])):
            raise ValueError("hours must be strictly increasing")

    def stress_hours(self) -> tuple[int, ...]:
        skip = self.phase_marks.non_stress()
        return tuple(h for h in self.hours if h not in skip)

    def stress_means(self) -> tuple[float, ...]:
        skip = self.phase_marks.non_stress()
        return tuple(m for h, m in zip(self.hours, self.means) if h not in skip)

    def mean_at(self, hour: int) -> float:
        try:
            return self.means[self.hours.index(hour)]
        except ValueError:
            raise KeyError(f"hour {hour} has no samples") from None


@dataclass(frozen=True)
class TrendTestResult:
    """Mann-Kendall test output."""

    n: int
    s_statistic: int
    variance: float
    z_score: float
    verdict: TrendVerdict
    alpha: float = 0.05


@dataclass(frozen=True)
class AgeingSummary:
    """Reference bins and deltas of one indicator over a full run.

    ``ageing_a`` and ``rejuvenation_r`` are exact differences of the
    stored bin means; no rounding is applied before storage.
    ``sens_slope`` is the per-hour Sen's slope over the stress bins and
    is None when fewer than two stress bins exist.
    """

    v0: float
    vb: float
    vr: float
    ageing_a: float
    rejuvenation_r: float
    sens_slope: float | None


@dataclass(frozen=True)
class IndicatorAnalysis:
    """Binned view, trend test and ageing summary of one indicator."""

    hourly: HourlySeries
    trend: TrendTestResult
    ageing: AgeingSummary | None
    ageing_unavailable: str | None = None


def classify_z(z: float, n: int) -> TrendVerdict:
    """Map a standard score to a verdict; strict inequalities at +/-1.96."""
    if n < MIN_TREND_SAMPLES:
        return TrendVerdict.INSUFFICIENT_DATA
    if z > Z_CRITICAL:
        return TrendVerdict.UPWARD
    if z < -Z_CRITICAL:
        return TrendVerdict.DOWNWARD
    return TrendVerdict.NO_TREND


def mann_kendall(values: Sequence[float]) -> TrendTestResult:
    """Run the Mann-Kendall test on an ordered sequence of values.

    S and var(S) are computed exactly (integer arithmetic, tie-corrected);
    the continuity-corrected standard score is zero when all values are
    tied.  With fewer than MIN_TREND_SAMPLES values the verdict is
    InsufficientData, S still being reported.
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)

    s = 0
    for i in range(n - 1):
        s += int(np.sign(x[i + 1 :] - x[i]).sum())

    _, counts = np.unique(x, return_counts=True) if n else (None, np.array([], int))
    tie_term = sum(int(t) * (int(t) - 1) * (2 * int(t) + 5) for t in counts if t > 1)
    variance = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0

    if variance == 0.0:
        # Zero variance means a single tie group, which forces S = 0.
        assert s == 0, "variance 0 with nonzero S is impossible"
        z = 0.0
    elif s > 0:
        z = (s - 1) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1) / math.sqrt(variance)
    else:
        z = 0.0

    return TrendTestResult(
        n=n,
        s_statistic=s,
        variance=variance,
        z_score=z,
        verdict=classify_z(z, n),
    )


def sens_slope(values: Sequence[float], spacing_hours: float = 1.0) -> float:
    """Median pairwise slope of a regularly spaced series, per hour.

    Denominators are index distances ``j - i``; ``spacing_hours`` rescales
    the result into per-hour units.  The n(n-1)/2 pair slopes live in one
    buffer of 8 bytes per pair, filled row by row and partitioned in place
    for the median, so no second copy of them is ever made.
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError("Sen's slope needs at least two values")
    if spacing_hours <= 0:
        raise ValueError("spacing_hours must be positive")

    slopes = np.empty(n * (n - 1) // 2)
    lags = np.arange(1, n, dtype=float)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        row = slopes[start:stop]
        np.subtract(x[i + 1 :], x[i], out=row)
        np.divide(row, lags[: n - 1 - i], out=row)
        start = stop
    slope = float(np.median(slopes, overwrite_input=True))
    return slope / spacing_hours


def bin_hourly(
    series: IndicatorSeries,
    phase_boundaries: Sequence[float] = (),
    exclude_windows: Sequence[tuple[float, float]] = (),
) -> HourlySeries:
    """Average samples into hour bins ``[h*3600, (h+1)*3600)``.

    Bins without samples are absent from the result, never zero-filled.
    ``phase_boundaries`` holds up to two sorted timestamps: the end of the
    stress phase and the end of the rejuvenation window.  A bin whose
    start lies at or past the first boundary is marked rejuvenation; at
    or past the second, post-rejuvenation.  ``exclude_windows`` marks
    additional stress-side bins (e.g. an idle wait window) that trend
    tests must skip.

    Bins are found by sorting the samples' hour indices, so memory grows
    with the number of samples, never with the span of hours they cover.
    """
    samples = series.samples
    if not samples:
        raise EmptySeriesError(f"series {series.name!r} has no samples")
    boundaries = list(phase_boundaries)
    if boundaries != sorted(boundaries):
        raise ValueError("phase_boundaries must be sorted ascending")

    flat = np.fromiter(
        itertools.chain.from_iterable(samples), float, 2 * len(samples)
    )
    with np.errstate(invalid="ignore"):
        floors = np.floor_divide(flat[0::2], SECONDS_PER_HOUR)
    bins, index = np.unique(floors, return_inverse=True)
    # bincount adds each bin's values left to right in sample order
    sums = np.bincount(index, weights=flat[1::2])
    counts = np.bincount(index)
    # int() raises on a NaN or infinite timestamp's bin
    hours = tuple(int(h) for h in bins.tolist())
    means = tuple((sums / counts).tolist())

    rejuvenation = []
    post = []
    excluded = []
    for h in hours:
        start = h * SECONDS_PER_HOUR
        if len(boundaries) >= 2 and start >= boundaries[1]:
            post.append(h)
        elif boundaries and start >= boundaries[0]:
            rejuvenation.append(h)
        elif any(ws <= start < we for ws, we in exclude_windows):
            excluded.append(h)

    return HourlySeries(
        name=series.name,
        unit=series.unit,
        hours=hours,
        means=means,
        phase_marks=PhaseMarks(
            rejuvenation=tuple(rejuvenation),
            post_rejuvenation=tuple(post),
            excluded=tuple(excluded),
        ),
    )


def ageing_summary(binned: HourlySeries) -> AgeingSummary:
    """Compute v0, vb, vr and the A/R deltas from a binned series.

    Requires stress hour 0, at least one stress bin for vb (the last
    populated one is used when hour 23 is missing) and one
    post-rejuvenation bin; a missing bin raises MissingPhaseBinError.
    """
    skip = binned.phase_marks.non_stress()
    stress = [(h, m) for h, m in zip(binned.hours, binned.means) if h not in skip]
    if not stress:
        raise MissingPhaseBinError("stress hour 0")
    if stress[0][0] != 0:
        raise MissingPhaseBinError("stress hour 0")
    v0 = stress[0][1]
    vb = stress[-1][1]

    post = [
        binned.mean_at(h)
        for h in binned.phase_marks.post_rejuvenation
        if h in binned.hours
    ]
    if not post:
        raise MissingPhaseBinError("post-rejuvenation hour")
    vr = post[0]

    slope = None
    if len(stress) >= 2:
        slope = sens_slope([m for _, m in stress], spacing_hours=1.0)

    return AgeingSummary(
        v0=v0,
        vb=vb,
        vr=vr,
        ageing_a=vb - v0,
        rejuvenation_r=vb - vr,
        sens_slope=slope,
    )


def evaluate_indicator(
    series: IndicatorSeries,
    phase_boundaries: Sequence[float] = (),
    exclude_windows: Sequence[tuple[float, float]] = (),
) -> IndicatorAnalysis:
    """Bin a series, test the stress bins for trend and summarise ageing.

    The trend test input is the stress-phase bins only; rejuvenation and
    post-rejuvenation bins never enter it.  Any shortfall (empty series,
    missing phase bins) degrades to InsufficientData or a recorded
    reason instead of raising.
    """
    if not series.samples:
        empty = HourlySeries(name=series.name, unit=series.unit, hours=(), means=())
        trend = TrendTestResult(
            n=0,
            s_statistic=0,
            variance=0.0,
            z_score=0.0,
            verdict=TrendVerdict.INSUFFICIENT_DATA,
        )
        return IndicatorAnalysis(
            hourly=empty, trend=trend, ageing=None, ageing_unavailable="empty series"
        )

    hourly = bin_hourly(series, phase_boundaries, exclude_windows)
    trend = mann_kendall(hourly.stress_means())

    ageing = None
    reason = None
    try:
        ageing = ageing_summary(hourly)
    except MissingPhaseBinError as exc:
        reason = str(exc)

    return IndicatorAnalysis(
        hourly=hourly, trend=trend, ageing=ageing, ageing_unavailable=reason
    )


def rebased(series: IndicatorSeries, t0: float | None = None) -> IndicatorSeries:
    """Shift timestamps so ``t0`` (by default the first sample) sits at t = 0."""
    if not series.samples:
        return series
    if t0 is None:
        t0 = series.samples[0][0]
    samples = [(t - t0, v) for t, v in series.samples]
    # the timestamps are increasing, so an overflow shows at an end
    if math.isinf(samples[0][0]) or math.isinf(samples[-1][0]):
        raise InvalidSeriesError(
            f"timestamps of series {series.name!r} overflow when rebased"
        )
    return IndicatorSeries(
        name=series.name,
        unit=series.unit,
        samples=samples,
    )
