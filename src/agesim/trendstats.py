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
spacing into per-hour units.  It is selected exactly without holding the
n(n-1)/2 slopes: a fixed sample of pairs, drawn from a counter hash
rather than a random generator, brackets the median, one blocked scan
counts the slopes on either side of the bracket and keeps those inside,
and the median is selected among them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptySeriesError,
    InsufficientDataError,
    InvalidSeriesError,
    MissingPhaseBinError,
)

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

#: Significance level of the two-sided Mann-Kendall test.
ALPHA = 0.05

#: Two-sided critical value at ``ALPHA``.
Z_CRITICAL = 1.96

#: The bins ``evaluate_indicator`` feeds the trend test: the stress phase's
#: only; rejuvenation and post-rejuvenation bins never enter it.
TREND_INPUT = "stress-bins-only"

#: Minimum number of bins for a trend verdict.
MIN_TREND_SAMPLES = 10

SECONDS_PER_HOUR = 3600.0

#: Sen's slope scans up to this many pairs with the bracket ``(-inf, inf)``.
_OPEN_BRACKET_PAIRS = 1 << 16

#: Pairs sampled to bracket the median slope of a longer series.
_SAMPLE_PAIRS = 1 << 16

#: Key of the SplitMix64 counter hash that draws the sample: pair ``k`` comes
#: from the hashes of counters ``k`` and ``k + _SAMPLE_PAIRS`` under this key.
_SAMPLE_SEED = 1968

#: Binomial standard deviations of the sample between each bracket end and the median.
_BRACKET_SIGMAS = 4.5

#: Slopes computed at once in one block of lags.
_BLOCK_SLOPES = 1 << 16


class TrendVerdict(Enum):
    """Outcome of the Mann-Kendall test."""

    UPWARD = "upward"
    DOWNWARD = "downward"
    NO_TREND = "none"
    INSUFFICIENT_DATA = "insufficient-data"


@dataclass(frozen=True, slots=True, eq=False)
class IndicatorSeries:
    """A named, unit-carrying series of (timestamp, value) samples.

    Timestamps are seconds since the start of the observation window and
    must be strictly increasing.  ``IndicatorSeries(name, unit,
    timestamps, values)`` holds the two parallel arrays as read-only
    float64 arrays, ``timestamps`` and ``values``, and checks that the
    unit is not empty, that both are one-dimensional and of one length,
    and that the timestamps increase.  A 1-D, read-only float64 ndarray
    that owns its data or views a ``bytes`` is held as that same object,
    so series may share one clock; anything else (a list, a writeable
    array, a read-only view of a writeable base) is copied into a new
    read-only array.  ``samples`` renders them as a tuple of
    ``(timestamp, value)`` float pairs.  Series are frozen dataclasses,
    and equal when name, unit and every float compare equal.
    """

    name: str
    unit: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not self.unit:
            raise InvalidSeriesError("IndicatorSeries.unit must be non-empty")
        ts = _frozen(self.timestamps)
        vs = _frozen(self.values)
        if ts.ndim != 1 or ts.shape != vs.shape:
            raise InvalidSeriesError(
                f"timestamps and values of series {self.name!r}"
                " must be two arrays of one length"
            )
        # ``b <= a`` per neighbour pair: a NaN timestamp compares false and passes
        if (ts[1:] <= ts[:-1]).any():
            raise InvalidSeriesError(
                f"timestamps of series {self.name!r} must be strictly increasing"
            )
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vs)

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

    def __reduce__(self):
        return (_unpickled_series, (self.name, self.unit, self.timestamps, self.values))


def _unpickled_series(name, unit, timestamps, values) -> IndicatorSeries:
    """A series around the arrays the unpickler built, frozen in place, so
    series pickled with one clock share the one array the pickle memo keeps."""
    timestamps.flags.writeable = values.flags.writeable = False
    return IndicatorSeries(name, unit, timestamps, values)


def _frozen(array: ArrayLike) -> np.ndarray:
    """``array`` itself if it is a 1-D, read-only float64 ndarray that owns its
    data or views a ``bytes``, which no one can write; else a read-only copy."""
    if (
        type(array) is np.ndarray
        and array.dtype == np.float64
        and array.ndim == 1
        and not array.flags.writeable
        and (array.base is None or type(getattr(array.base, "base", array.base)) is bytes)
    ):
        return array
    held = np.array(array, dtype=np.float64)
    held.flags.writeable = False
    return held


def nudge_ties(
    timestamps: ArrayLike, values: ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Sort finite samples and move tied timestamps just past their predecessor.

    Samples are sorted by timestamp, then value, keeping the input order
    of full ties.  A tie advances by a nanosecond, or by one float step
    where a nanosecond is below the spacing (epoch seconds, for
    instance), so the returned timestamps are always strictly increasing.
    Strictly increasing timestamps are already in that order: the two
    arrays come back as ``np.asarray`` gives them, unsorted and uncopied.
    The nudged timestamps depend on the timestamps alone, so series
    sampled on one clock get equal timestamps even where values differ.
    """
    ts = np.asarray(timestamps, dtype=np.float64)
    vs = np.asarray(values, dtype=np.float64)
    if ts.ndim == 1 and ts.shape == vs.shape and (ts[1:] > ts[:-1]).all():
        return ts, vs
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
class HourlySeries:
    """Hourly bin means of an indicator series.

    ``hours`` holds the populated bin indices in increasing order; hours
    without samples are simply absent.  ``rejuvenation``,
    ``post_rejuvenation`` and ``excluded`` hold the populated hours that
    fall outside the stress phase; ``stress_bins`` gives the rest, the
    input of the trend tests.
    """

    name: str
    unit: str
    hours: tuple[int, ...]
    means: tuple[float, ...]
    rejuvenation: tuple[int, ...] = ()
    post_rejuvenation: tuple[int, ...] = ()
    excluded: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.hours) != len(self.means):
            raise ValueError("hours and means must be parallel")
        if any(map(operator.le, self.hours[1:], self.hours)):
            raise ValueError("hours must be strictly increasing")

    def stress_bins(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """The stress-phase hours and their means, as two parallel tuples.

        The bins are picked by a mask of bools, not gathered as pairs: a
        pair per bin is thousands of objects for the garbage collector to
        count on a long series, enough to set off a full collection."""
        skip = {*self.rejuvenation, *self.post_rejuvenation, *self.excluded}
        kept = [h not in skip for h in self.hours]
        return tuple(compress(self.hours, kept)), tuple(compress(self.means, kept))


@dataclass(frozen=True)
class TrendTestResult:
    """Mann-Kendall test output."""

    n: int
    s_statistic: int
    variance: float
    z_score: float
    verdict: TrendVerdict


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


def _pair_without_sign(x: np.ndarray) -> bool:
    """Whether some pair's difference is NaN: a NaN, or the same infinity twice."""
    return bool(
        np.isnan(x).any() or (x == math.inf).sum() > 1 or (x == -math.inf).sum() > 1
    )


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
    if n >= 2 and _pair_without_sign(x):
        raise ValueError("Mann-Kendall values hold a NaN or a repeated infinity")

    _, ranks, counts = np.unique(x, return_inverse=True, return_counts=True)
    # Python ints, summed over the tie groups only: exact at any size
    ties = counts[counts > 1].tolist()
    tied_pairs = sum(t * (t - 1) // 2 for t in ties)
    s = n * (n - 1) // 2 - tied_pairs - 2 * _strict_inversions(ranks)

    tie_term = sum(t * (t - 1) * (2 * t + 5) for t in ties)
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


def _splitmix64(counters: np.ndarray) -> np.ndarray:
    """SplitMix64 outputs for ``counters``, keyed by ``_SAMPLE_SEED``.

    Counter ``k`` is the generator state after ``k + 1`` golden-ratio
    steps from the key, and its output is that state through SplitMix64's
    finaliser; uint64 arithmetic wraps as the algorithm needs.
    """
    z = np.uint64(_SAMPLE_SEED) + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _median_bracket(x: np.ndarray, pairs: int, ranks: list[int]) -> tuple[float, float]:
    """Two pair slopes that, with high probability, enclose the slopes at ``ranks``.

    Up to ``_OPEN_BRACKET_PAIRS`` pairs the bracket is ``(-inf, inf)``.
    Above, ``_SAMPLE_PAIRS`` pairs are drawn from a SplitMix64 counter
    hash keyed by ``_SAMPLE_SEED``: one vector hash of fixed counters,
    so a series always gets the same bracket, no random generator is
    built (nor ``numpy.random`` imported) and the global random state is
    left alone.  The hashes are uniform up to a bias of ``n / 2**64``,
    and ``sens_slope`` is exact whatever the bracket.  Each end lies
    ``_BRACKET_SIGMAS`` binomial standard deviations of the sample
    beyond the median ranks; an end past the sample is infinite.
    """
    if pairs <= _OPEN_BRACKET_PAIRS:
        return -math.inf, math.inf
    n = x.size
    size = _SAMPLE_PAIRS
    hashes = _splitmix64(np.arange(2 * size, dtype=np.uint64))
    first = (hashes[:size] % np.uint64(n)).astype(np.intp)
    # an offset in 1..n-1 from a uniform index gives a uniform pair i != j
    last = (first + 1 + (hashes[size:] % np.uint64(n - 1)).astype(np.intp)) % n
    first, last = np.minimum(first, last), np.maximum(first, last)
    sample = (x[last] - x[first]) / (last - first).astype(float)
    margin = _BRACKET_SIGMAS * math.sqrt(size) / 2
    low = math.floor((ranks[0] + 0.5) * size / pairs - margin)
    high = math.ceil((ranks[-1] + 0.5) * size / pairs + margin)
    ends = [k for k in (low, high) if 0 <= k < size]
    if ends:
        sample.partition(ends)
    lo = float(sample[low]) if low >= 0 else -math.inf
    hi = float(sample[high]) if high < size else math.inf
    return lo, hi


def _scan_slopes(x: np.ndarray, lo: float, hi: float) -> tuple[int, int, np.ndarray, int]:
    """Count every pair slope against ``[lo, hi]`` and keep those strictly inside.

    Returns ``(below, at_lo, inside, within)``: the number of slopes
    under ``lo``, the number equal to ``lo``, the slopes strictly
    between the ends in no particular order, and the number of slopes in
    ``[lo, hi]``, ties at both ends included.  Slopes are computed in
    blocks of about ``_BLOCK_SLOPES``, a few lags at a time.  Ties at the
    ends are only counted, never kept, so the many tied slopes of a flat
    or quantised series cost no memory.
    """
    n = x.size
    # windows[k, c] = x[k + c], NaN past the end: such a pair fails every comparison
    windows = sliding_window_view(np.concatenate((x, np.full(n - 1, math.nan))), n - 1)
    lags = np.arange(1.0, n)[:, None]
    capacity = max(_BLOCK_SLOPES, n - 1)
    block = np.empty(capacity)
    at_least_lo = np.empty(capacity, dtype=bool)
    at_most_hi = np.empty(capacity, dtype=bool)
    below = at_lo = within = 0
    kept = []
    lag = 1
    while lag < n:
        rows = n - lag
        width = min(rows, max(1, _BLOCK_SLOPES // rows))
        size = width * rows
        # slopes[c, i] is the slope of pair (i, i + lag + c)
        slopes = block[:size].reshape(width, rows)
        np.subtract(windows[lag : lag + width, :rows], x[:rows], out=slopes)
        np.divide(slopes, lags[lag - 1 : lag - 1 + width], out=slopes)
        low_side = np.greater_equal(slopes, lo, out=at_least_lo[:size].reshape(width, rows))
        # lag + c reaches past the end in the last c rows, a triangle of NaN pairs
        below += size - width * (width - 1) // 2 - np.count_nonzero(low_side)
        high_side = np.less_equal(slopes, hi, out=at_most_hi[:size].reshape(width, rows))
        in_range = slopes[np.logical_and(low_side, high_side, out=low_side)]
        within += in_range.size
        at_lo += np.count_nonzero(in_range == lo)
        kept.append(in_range[(in_range > lo) & (in_range < hi)])
        lag += width
    return below, at_lo, np.concatenate(kept), within


def sens_slope(values: Sequence[float], spacing_hours: float = 1.0) -> float:
    """Median pairwise slope of a regularly spaced series, per hour.

    Denominators are index distances ``j - i``; ``spacing_hours``, which
    must be positive and finite, rescales the result into per-hour
    units.  The result is bit for bit ``np.median`` of all n(n-1)/2 slopes
    ``(x[j] - x[i]) / (j - i)``, but those slopes are never held at once:

    1. a fixed sample of pair slopes, drawn by a counter hash, brackets
       the median rank(s) between two sample slopes ``lo`` and ``hi``
       (``(-inf, inf)`` for short series, see ``_median_bracket``);
    2. one scan in blocks of lags counts the slopes below ``lo``, equal
       to ``lo`` and in ``[lo, hi]``, and keeps only those strictly
       between: all of them up to ``_OPEN_BRACKET_PAIRS`` pairs, about
       1.8 % above;
    3. the median ranks are read off the counts, or selected among the
       kept slopes with ``np.partition``, and averaged by ``np.mean`` as
       ``np.median`` averages them (without its NaN check, which imports
       ``numpy.ma``).  A bracket that misses the median, which the sample
       makes unlikely, is opened to an infinity on that side and scanned
       again, so the result is exact either way.

    Time is O(n^2) vectorised; memory is the series, one block and the
    kept slopes.  A NaN, or the same infinity twice, makes some slope
    NaN, and the result is NaN as with ``np.median``.
    """
    x = np.asarray(values, dtype=float)
    n = int(x.size)
    if n < 2:
        raise InsufficientDataError("Sen's slope needs at least two values")
    if not (spacing_hours > 0 and math.isfinite(spacing_hours)):
        raise ValueError("spacing_hours must be positive and finite")
    if _pair_without_sign(x):
        return math.nan

    pairs = n * (n - 1) // 2
    # the middle rank, or the two middle ranks, that np.median averages
    ranks = sorted({(pairs - 1) // 2, pairs // 2})
    lo, hi = _median_bracket(x, pairs, ranks)
    below, at_lo, inside, within = _scan_slopes(x, lo, hi)
    missed_low = ranks[0] < below
    missed_high = ranks[-1] >= below + within
    if missed_low or missed_high:
        # nothing lies past an infinite end, so the second scan cannot miss
        lo = -math.inf if missed_low else lo
        hi = math.inf if missed_high else hi
        below, at_lo, inside, within = _scan_slopes(x, lo, hi)

    start = below + at_lo
    inner = [r - start for r in ranks if start <= r < start + inside.size]
    if inner:
        inside.partition(inner)
    middle = [
        lo if r < start else hi if r >= start + inside.size else inside[r - start]
        for r in ranks
    ]
    return float(np.mean(np.array(middle))) / spacing_hours


def _hour_bins(floors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bins of non-decreasing hour floors and each sample's bin index.

    This is ``np.unique(floors, return_inverse=True)`` for the floors of
    increasing timestamps, found without a sort: each hour's samples are
    one run of its floor, and the index counts the runs opened so far.
    """
    opens_bin = np.empty(floors.size, dtype=bool)
    opens_bin[:1] = True
    np.not_equal(floors[1:], floors[:-1], out=opens_bin[1:])
    return floors[opens_bin], np.cumsum(opens_bin, dtype=np.intp) - 1


def bin_hourly(
    series: IndicatorSeries,
    phase_boundaries: Sequence[float] = (),
    exclude_windows: Sequence[tuple[float, float]] = (),
) -> HourlySeries:
    """Average samples into hour bins ``[h*3600, (h+1)*3600)``.

    Bins without samples are absent from the result, never zero-filled.
    ``phase_boundaries`` holds up to two sorted timestamps: the end of the
    stress phase and the end of the rejuvenation window.  A bin whose
    start lies at or past the first boundary goes to the result's
    ``rejuvenation`` hours; at or past the second, to
    ``post_rejuvenation``.  ``exclude_windows`` sends further stress-side
    bins (e.g. an idle wait window) to ``excluded``, which trend tests
    skip.

    Bins are the runs of equal hour floors along the increasing
    timestamps, found in one pass with no sort, so memory grows with the
    number of samples, never with the span of hours they cover.  Hours
    are Python ints at any size: one past int64 (a timestamp near 1e300,
    say) is still exact.  A NaN or infinite timestamp raises
    InvalidSeriesError, and so does a bin whose mean is not finite (its
    sum overflowed, say), naming the series.
    """
    if not len(series):
        raise EmptySeriesError(f"series {series.name!r} has no samples")
    boundaries = list(phase_boundaries)
    if boundaries != sorted(boundaries):
        raise ValueError("phase_boundaries must be sorted ascending")

    with np.errstate(invalid="ignore"):
        floors = np.floor_divide(series.timestamps, SECONDS_PER_HOUR)
    if not np.isfinite(floors).all():
        raise InvalidSeriesError(f"series {series.name!r} has a non-finite timestamp")
    bins, index = _hour_bins(floors)
    # bincount adds each bin's values left to right in sample order
    sums = np.bincount(index, weights=series.values)
    counts = np.bincount(index)
    hours = tuple(map(int, bins.tolist()))
    means_array = sums / counts
    overflowed = np.flatnonzero(~np.isfinite(means_array))
    if overflowed.size:
        raise InvalidSeriesError(
            f"series {series.name!r} has a non-finite mean in hour {hours[overflowed[0]]}"
        )
    means = tuple(means_array.tolist())

    # each bin's start, h * 3600.0 as Python computes it for the int hour h
    starts = bins * SECONDS_PER_HOUR
    no_bin = np.zeros(bins.size, dtype=bool)
    post = starts >= boundaries[1] if len(boundaries) >= 2 else no_bin
    rejuvenation = ~post & (starts >= boundaries[0]) if boundaries else no_bin
    excluded = no_bin.copy()
    for window_start, window_end in exclude_windows:
        excluded |= (starts >= window_start) & (starts < window_end)
    excluded &= ~(post | rejuvenation)

    def hours_where(mask: np.ndarray) -> tuple[int, ...]:
        return tuple(hours[i] for i in np.flatnonzero(mask).tolist())

    return HourlySeries(
        name=series.name,
        unit=series.unit,
        hours=hours,
        means=means,
        rejuvenation=hours_where(rejuvenation),
        post_rejuvenation=hours_where(post),
        excluded=hours_where(excluded),
    )


def ageing_summary(binned: HourlySeries) -> AgeingSummary:
    """Compute v0, vb, vr and the A/R deltas from a binned series.

    Requires stress hour 0, at least one stress bin for vb (the last
    populated one is used when hour 23 is missing) and a populated
    post-rejuvenation bin, the first of which gives vr; a missing bin
    raises MissingPhaseBinError.
    An A, R or slope that is not finite raises InvalidSeriesError.
    """
    hours, means = binned.stress_bins()
    if not hours or hours[0] != 0:
        raise MissingPhaseBinError("stress hour 0")
    v0 = means[0]
    vb = means[-1]

    post = set(binned.post_rejuvenation)
    vr = next((m for h, m in zip(binned.hours, binned.means) if h in post), None)
    if vr is None:
        raise MissingPhaseBinError("post-rejuvenation hour")

    slope = None
    if len(means) >= 2:
        # an overflowing slope is reported below, as a non-finite summary
        with np.errstate(over="ignore", invalid="ignore"):
            slope = sens_slope(means, spacing_hours=1.0)

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

    The trend test input is the stress-phase bins only (``TREND_INPUT``);
    rejuvenation and post-rejuvenation bins never enter it.  Any
    shortfall (empty series, missing phase bins) degrades to
    InsufficientData or a recorded reason instead of raising; an empty
    series is tested as no bins.
    """
    if not len(series):
        empty = HourlySeries(name=series.name, unit=series.unit, hours=(), means=())
        trend = mann_kendall(())
        return IndicatorAnalysis(
            hourly=empty, trend=trend, ageing=None, ageing_unavailable="empty series"
        )

    hourly = bin_hourly(series, phase_boundaries, exclude_windows)
    trend = mann_kendall(hourly.stress_bins()[1])

    ageing = None
    reason = None
    try:
        ageing = ageing_summary(hourly)
    except MissingPhaseBinError as exc:
        reason = str(exc)

    return IndicatorAnalysis(
        hourly=hourly, trend=trend, ageing=ageing, ageing_unavailable=reason
    )


def rebased(series: IndicatorSeries, t0: float) -> IndicatorSeries:
    """Shift timestamps so ``t0`` sits at t = 0.

    The shift is one vector subtract, which the new series holds without a
    copy, as it holds the values it shares.  A timestamp that overflows to
    infinity, or two that round to the same float, raise
    InvalidSeriesError.
    """
    ts = series.timestamps
    if not ts.size:
        return series
    with np.errstate(over="ignore"):
        shifted = ts - t0
    # the timestamps are increasing, so an overflow shows at an end
    if math.isinf(shifted[0]) or math.isinf(shifted[-1]):
        raise InvalidSeriesError(
            f"timestamps of series {series.name!r} overflow when rebased"
        )
    shifted.flags.writeable = False
    return IndicatorSeries(series.name, series.unit, shifted, series.values)
