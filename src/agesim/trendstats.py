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

import math
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import (
    EmptySeriesError,
    InsufficientDataError,
    InvalidSeriesError,
    MissingPhaseBinError,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

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


class IndicatorSeries:
    """A named, unit-carrying series of (timestamp, value) samples.

    Timestamps are seconds since the start of the observation window and
    must be strictly increasing.  A series holds them and the values as
    two read-only float64 arrays of equal length, ``timestamps`` and
    ``values``; ``samples`` renders them as a tuple of ``(timestamp,
    value)`` float pairs.  ``IndicatorSeries(name, unit, samples)`` builds
    a series from pairs and ``IndicatorSeries.from_arrays`` from the two
    arrays, which it copies; both check the series the same way.  Series
    are immutable, and equal when name, unit and every float compare
    equal.
    """

    __slots__ = ("name", "unit", "timestamps", "values")

    name: str
    unit: str
    timestamps: np.ndarray
    values: np.ndarray

    def __init__(self, name: str, unit: str, samples: Iterable[tuple[float, float]]):
        pairs = np.array(tuple(samples), dtype=np.float64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidSeriesError(f"samples of series {name!r} must be (timestamp, value) pairs")
        self._assign(name, unit, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_arrays(
        cls, name: str, unit: str, timestamps: ArrayLike, values: ArrayLike
    ) -> IndicatorSeries:
        """Build a series from parallel timestamp and value arrays."""
        series = object.__new__(cls)
        series._assign(name, unit, timestamps, values)
        return series

    def _assign(self, name: str, unit: str, timestamps: ArrayLike, values: ArrayLike) -> None:
        if not unit:
            raise InvalidSeriesError("IndicatorSeries.unit must be non-empty")
        ts = np.array(timestamps, dtype=np.float64)
        vs = np.array(values, dtype=np.float64)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise InvalidSeriesError(
                f"timestamps and values of series {name!r} must be two arrays of one length"
            )
        # ``b <= a`` per neighbour pair: a NaN timestamp compares false and passes
        if (ts[1:] <= ts[:-1]).any():
            raise InvalidSeriesError(
                f"timestamps of series {name!r} must be strictly increasing"
            )
        ts.flags.writeable = False
        vs.flags.writeable = False
        for slot, value in zip(self.__slots__, (name, unit, ts, vs)):
            object.__setattr__(self, slot, value)

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.timestamps.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other):
        if not isinstance(other, IndicatorSeries):
            return NotImplemented
        return (
            self.name == other.name
            and self.unit == other.unit
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash(
            (
                self.name,
                self.unit,
                (self.timestamps + 0.0).tobytes(),
                (self.values + 0.0).tobytes(),
            )
        )

    def __repr__(self) -> str:
        return f"IndicatorSeries(name={self.name!r}, unit={self.unit!r}, samples={self.samples!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (
            IndicatorSeries.from_arrays,
            (self.name, self.unit, self.timestamps, self.values),
        )


def nudge_ties(
    timestamps: ArrayLike, values: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Sort finite samples and move tied timestamps just past their predecessor.

    Samples are sorted by timestamp, then value, keeping the input order
    of full ties.  A tie advances by a nanosecond, or by one float step
    where a nanosecond is below the spacing (epoch seconds, for
    instance), so the returned timestamps are always strictly increasing.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    vs = np.asarray(values, dtype=np.float64)
    order = np.lexsort((vs, ts))
    ts = ts[order]
    vs = vs[order]
    ties = np.flatnonzero(ts[1:] <= ts[:-1])
    if ties.size:
        # a nudge can push into the next timestamp, so walk on from the first tie
        stamps = ts.tolist()
        previous = stamps[ties[0]]
        for i in range(int(ties[0]) + 1, len(stamps)):
            if stamps[i] <= previous:
                stamps[i] = max(previous + 1e-9, math.nextafter(previous, math.inf))
            previous = stamps[i]
        ts = np.array(stamps)
    return ts, vs


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


def _strict_inversions(ranks: np.ndarray) -> int:
    """Pairs ``i < j`` with ``ranks[i] > ranks[j]``, by Knight's (1966) merge.

    Level ``w`` of a bottom-up merge sort pairs each block of ``w``
    indices with the block after it.  Every element of a right block is
    looked up in the sorted left blocks at once, on keys ``pair * n +
    rank`` that keep the pairs apart: a right element of pair ``p``
    sees ``(p + 1) * w`` left elements up to its own pair, minus those
    of its pair no greater than it.
    """
    n = ranks.size
    index = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        pair = index // (2 * width)
        keys = pair * n + ranks
        in_left = index % (2 * width) < width
        left = np.sort(keys[in_left])
        right_pairs = pair[~in_left]
        not_greater = np.searchsorted(left, keys[~in_left], side="right")
        inversions += int(((right_pairs + 1) * width - not_greater).sum())
        width *= 2
    return inversions


def mann_kendall(values: Sequence[float]) -> TrendTestResult:
    """Run the Mann-Kendall test on an ordered sequence of values.

    S and var(S) are computed exactly (integer arithmetic, tie-corrected);
    the continuity-corrected standard score is zero when all values are
    tied.  With fewer than MIN_TREND_SAMPLES values the verdict is
    InsufficientData, S still being reported.

    S is counted in O(n log n) over dense ranks: of the n(n-1)/2 pairs,
    those tied in value add nothing and each strict inversion turns a +1
    into a -1, so ``S = pairs - tied pairs - 2 * inversions``.  A NaN, or
    the same infinity twice, has no sign of difference and raises
    ValueError.
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)
    repeated_infinity = (x == math.inf).sum() > 1 or (x == -math.inf).sum() > 1
    if n >= 2 and (np.isnan(x).any() or repeated_infinity):
        raise ValueError("Mann-Kendall values hold a NaN or a repeated infinity")

    _, ranks, counts = np.unique(x, return_inverse=True, return_counts=True)
    tied_pairs = sum(int(t) * (int(t) - 1) // 2 for t in counts if t > 1)
    s = n * (n - 1) // 2 - tied_pairs - 2 * _strict_inversions(ranks)

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
    A bin whose mean is not finite (its sum overflowed, say) raises
    InvalidSeriesError naming the series.
    """
    if not len(series):
        raise EmptySeriesError(f"series {series.name!r} has no samples")
    boundaries = list(phase_boundaries)
    if boundaries != sorted(boundaries):
        raise ValueError("phase_boundaries must be sorted ascending")

    with np.errstate(invalid="ignore"):
        floors = np.floor_divide(series.timestamps, SECONDS_PER_HOUR)
    bins, index = np.unique(floors, return_inverse=True)
    # bincount adds each bin's values left to right in sample order
    sums = np.bincount(index, weights=series.values)
    counts = np.bincount(index)
    # int() raises on a NaN or infinite timestamp's bin
    hours = tuple(int(h) for h in bins.tolist())
    means_array = sums / counts
    overflowed = np.flatnonzero(~np.isfinite(means_array))
    if overflowed.size:
        raise InvalidSeriesError(
            f"series {series.name!r} has a non-finite mean in hour {hours[overflowed[0]]}"
        )
    means = tuple(means_array.tolist())

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
    An A, R or slope that is not finite raises InvalidSeriesError.
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
        # an overflowing slope is reported below, as a non-finite summary
        with np.errstate(over="ignore", invalid="ignore"):
            slope = sens_slope([m for _, m in stress], spacing_hours=1.0)

    ageing_a = vb - v0
    rejuvenation_r = vb - vr
    if not all(map(math.isfinite, (ageing_a, rejuvenation_r, slope or 0.0))):
        raise InvalidSeriesError(
            f"series {binned.name!r} has a non-finite ageing summary:"
            f" A={ageing_a!r} R={rejuvenation_r!r} slope={slope!r}"
        )
    return AgeingSummary(
        v0=v0,
        vb=vb,
        vr=vr,
        ageing_a=ageing_a,
        rejuvenation_r=rejuvenation_r,
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
    if not len(series):
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
    """Shift timestamps so ``t0`` (by default the first sample) sits at t = 0.

    The shift is one vector subtract.  A timestamp that overflows to
    infinity, or two that round to the same float, raise
    InvalidSeriesError.
    """
    ts = series.timestamps
    if not ts.size:
        return series
    if t0 is None:
        t0 = ts[0]
    with np.errstate(over="ignore"):
        shifted = ts - t0
    # the timestamps are increasing, so an overflow shows at an end
    if math.isinf(shifted[0]) or math.isinf(shifted[-1]):
        raise InvalidSeriesError(
            f"timestamps of series {series.name!r} overflow when rebased"
        )
    return IndicatorSeries.from_arrays(series.name, series.unit, shifted, series.values)
