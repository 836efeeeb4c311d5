"""Tests for hourly binning, the Mann-Kendall test, Sen's slope and ageing deltas.

The Mann-Kendall and Sen's slope tests compare the vectorised
implementations against independent brute-force oracles written out
directly from the textbook definitions.
"""

import math
import pickle
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import theilslopes

from agesim import trendstats
from agesim.errors import (
    AgesimError,
    EmptySeriesError,
    InsufficientDataError,
    InvalidSeriesError,
    MissingPhaseBinError,
    ParseError,
)
from agesim.trendstats import (
    AgeingSummary,
    HourlySeries,
    IndicatorSeries,
    TrendVerdict,
    ageing_summary,
    bin_hourly,
    classify_z,
    evaluate_indicator,
    mann_kendall,
    nudge_ties,
    rebased,
    sens_slope,
)

# ── Independent oracles ──────────────────────────────────────────────────


def brute_mann_kendall(values):
    """S and var(S) by direct pairwise enumeration and tie-group counting."""
    n = len(values)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            d = values[j] - values[i]
            s += (d > 0) - (d < 0)
    ties = sum(
        t * (t - 1) * (2 * t + 5) for t in Counter(values).values() if t > 1
    )
    var = (n * (n - 1) * (2 * n + 5) - ties) / 18.0
    return s, var


def brute_sens_slope(values):
    """Median pairwise slope by explicit enumeration over index pairs."""
    n = len(values)
    slopes = sorted(
        (values[j] - values[i]) / (j - i)
        for i in range(n)
        for j in range(i + 1, n)
    )
    m = len(slopes)
    mid = m // 2
    if m % 2:
        return slopes[mid]
    return (slopes[mid - 1] + slopes[mid]) / 2.0


def series_of(samples, name="metric", unit="gigabytes"):
    """A series from ``(timestamp, value)`` pairs."""
    samples = list(samples)
    return IndicatorSeries(name, unit, [t for t, _ in samples], [v for _, v in samples])


# ── Mann-Kendall ─────────────────────────────────────────────────────────


class TestMannKendall:
    def test_strictly_increasing_twelve_points(self):
        """1..12 gives S = 66 and an upward verdict."""
        r = mann_kendall(list(range(1, 13)))
        assert r.n == 12
        assert r.s_statistic == 66
        assert r.z_score > 1.96
        assert r.verdict is TrendVerdict.UPWARD

    def test_all_tied_values(self):
        """Identical values give S = 0, variance 0, Z = 0, no trend."""
        r = mann_kendall([5.0] * 12)
        assert r.s_statistic == 0
        assert r.variance == 0.0
        assert r.z_score == 0.0
        assert r.verdict is TrendVerdict.NO_TREND

    def test_nine_points_insufficient(self):
        """Fewer than 10 samples yields InsufficientData with S reported."""
        r = mann_kendall(list(range(9)))
        assert r.verdict is TrendVerdict.INSUFFICIENT_DATA
        assert r.s_statistic == 36

    def test_ten_points_sufficient(self):
        """Exactly 10 samples is enough for a verdict."""
        r = mann_kendall(list(range(10)))
        assert r.verdict is TrendVerdict.UPWARD

    def test_strictly_decreasing(self):
        """A strictly decreasing series is flagged downward."""
        r = mann_kendall(list(range(24, 0, -1)))
        assert r.s_statistic == -276
        assert r.verdict is TrendVerdict.DOWNWARD

    def test_matches_oracle_on_random_series(self):
        """S and var(S) match brute force bit-for-bit on random data with ties."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(10, 61))
            # Small integer alphabet forces plenty of tie groups.
            values = [float(v) for v in rng.integers(0, 8, size=n)]
            expected_s, expected_var = brute_mann_kendall(values)
            r = mann_kendall(values)
            assert r.s_statistic == expected_s
            assert r.variance == expected_var

    def test_continuity_correction_positive(self):
        """For S > 0 the score is (S - 1) / sqrt(var)."""
        values = [1.0, 3.0, 2.0, 4.0, 6.0, 5.0, 7.0, 9.0, 8.0, 10.0]
        s, var = brute_mann_kendall(values)
        assert s > 0
        r = mann_kendall(values)
        assert r.z_score == (s - 1) / np.sqrt(var)

    def test_continuity_correction_negative(self):
        """For S < 0 the score is (S + 1) / sqrt(var)."""
        values = [10.0, 8.0, 9.0, 7.0, 5.0, 6.0, 4.0, 2.0, 3.0, 1.0]
        s, var = brute_mann_kendall(values)
        assert s < 0
        r = mann_kendall(values)
        assert r.z_score == (s + 1) / np.sqrt(var)

    def test_antisymmetry_under_reversal(self):
        """Reversing a series negates S and leaves var(S) unchanged."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            values = [float(v) for v in rng.integers(0, 15, size=20)]
            fwd = mann_kendall(values)
            rev = mann_kendall(values[::-1])
            assert rev.s_statistic == -fwd.s_statistic
            assert rev.variance == fwd.variance

    def test_extremal_s_for_monotone_series(self):
        """Strictly monotone series reach S = +/- n(n-1)/2."""
        for n in (10, 17, 40):
            up = mann_kendall(list(range(n)))
            down = mann_kendall(list(range(n, 0, -1)))
            assert up.s_statistic == n * (n - 1) // 2
            assert down.s_statistic == -(n * (n - 1) // 2)

    def test_shift_invariance(self):
        """Adding a constant changes neither S, var(S) nor the verdict."""
        rng = np.random.default_rng(13)
        values = [float(v) for v in rng.integers(0, 10, size=30)]
        base = mann_kendall(values)
        shifted = mann_kendall([v + 1000.0 for v in values])
        assert shifted.s_statistic == base.s_statistic
        assert shifted.variance == base.variance
        assert shifted.verdict is base.verdict

    def test_positive_scaling_preserves_verdict(self):
        """Multiplying by a positive constant preserves S and the verdict."""
        rng = np.random.default_rng(17)
        values = [float(v) for v in rng.integers(0, 10, size=30)]
        base = mann_kendall(values)
        scaled = mann_kendall([v * 3.5 for v in values])
        assert scaled.s_statistic == base.s_statistic
        assert scaled.verdict is base.verdict

    def test_alpha_recorded(self):
        """The significance level used for the verdict is stored."""
        assert mann_kendall(list(range(12))).alpha == 0.05


class TestClassifyZ:
    def test_boundary_is_no_trend(self):
        """|Z| equal to 1.96 is not significant; the inequalities are strict."""
        assert classify_z(1.96, 24) is TrendVerdict.NO_TREND
        assert classify_z(-1.96, 24) is TrendVerdict.NO_TREND

    def test_beyond_boundary(self):
        assert classify_z(1.9601, 24) is TrendVerdict.UPWARD
        assert classify_z(-1.9601, 24) is TrendVerdict.DOWNWARD

    def test_small_n_wins_over_large_z(self):
        assert classify_z(8.0, 9) is TrendVerdict.INSUFFICIENT_DATA


# ── Sen's slope ──────────────────────────────────────────────────────────


class TestSensSlope:
    def test_constant_series(self):
        """A flat series has slope zero."""
        assert sens_slope([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_linear_hourly_series(self):
        """Values 1,3,5,7 at one-hour spacing give 2.0 per hour."""
        assert sens_slope([1.0, 3.0, 5.0, 7.0]) == pytest.approx(2.0)

    def test_matches_oracle_on_random_series(self):
        """Matches explicit pairwise enumeration on random series."""
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            values = [float(v) for v in rng.normal(0, 5, size=n)]
            expected = brute_sens_slope(values)
            got = sens_slope(values)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_repeated_values_use_index_distance(self):
        """Pairs with equal values contribute zero slopes instead of NaN."""
        values = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        got = sens_slope(values)
        assert got == pytest.approx(brute_sens_slope(values), rel=1e-12)

    def test_spacing_scales_to_per_hour(self):
        """Half-hour spacing doubles the per-hour slope."""
        values = [0.0, 1.0, 2.0, 3.0]
        assert sens_slope(values, spacing_hours=0.5) == pytest.approx(2.0)

    def test_single_point_raises(self):
        """Fewer than two samples cannot define a slope."""
        with pytest.raises(InsufficientDataError):
            sens_slope([1.0])

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        values = [float(v) for v in rng.normal(0, 2, size=15)]
        assert sens_slope([v + 50.0 for v in values]) == pytest.approx(
            sens_slope(values), rel=1e-9, abs=1e-12
        )

    def test_scaling(self):
        rng = np.random.default_rng(6)
        values = [float(v) for v in rng.normal(0, 2, size=15)]
        assert sens_slope([v * 4.0 for v in values]) == pytest.approx(
            4.0 * sens_slope(values), rel=1e-9, abs=1e-12
        )


# ── Hourly binning ───────────────────────────────────────────────────────


class TestBinHourly:
    def test_single_bin_mean(self):
        """Samples at 10s and 100s average into hour 0."""
        binned = bin_hourly(series_of([(10.0, 2.0), (100.0, 4.0)]))
        assert binned.hours == (0,)
        assert binned.means == (3.0,)

    def test_gap_hours_are_absent(self):
        """Hours without samples do not appear; they are never zero-filled."""
        binned = bin_hourly(series_of([(0.0, 1.0), (7300.0, 5.0)]))
        assert binned.hours == (0, 2)
        assert binned.means == (1.0, 5.0)

    def test_ramp_binned_means(self):
        """A 24 h linear ramp sampled every 30 s bins to ~h+0.5 per hour."""
        samples = [(t, t / 3600.0) for t in range(0, 86400, 30)]
        binned = bin_hourly(series_of(samples))
        assert binned.hours == tuple(range(24))
        for h, mean in zip(binned.hours, binned.means):
            # True deviation is exactly 1/240; leave room for float rounding.
            assert abs(mean - (h + 0.5)) <= 1.0 / 240.0 + 1e-12
            # Cross-check against a direct mean over the bin's samples.
            window = [v for t, v in samples if h * 3600 <= t < (h + 1) * 3600]
            assert mean == pytest.approx(sum(window) / len(window))

    def test_empty_series_rejected(self):
        with pytest.raises(EmptySeriesError):
            bin_hourly(series_of([]))

    def test_phase_hours_from_boundaries(self):
        """Bins at or past the boundaries are rejuvenation then post hours."""
        samples = [(h * 3600.0 + 10.0, float(h)) for h in range(27)]
        binned = bin_hourly(series_of(samples), phase_boundaries=(86400.0, 90000.0))
        assert binned.rejuvenation == (24,)
        assert binned.post_rejuvenation == (25, 26)
        assert binned.stress_bins() == (tuple(range(24)), tuple(map(float, range(24))))

    def test_exclude_windows_mark_bins(self):
        """Bins inside an excluded window drop out of the stress set."""
        samples = [(h * 3600.0 + 5.0, float(h)) for h in range(6)]
        binned = bin_hourly(
            series_of(samples),
            phase_boundaries=(),
            exclude_windows=((7200.0, 14400.0),),
        )
        assert binned.excluded == (2, 3)
        assert binned.stress_bins() == ((0, 1, 4, 5), (0.0, 1.0, 4.0, 5.0))

    def test_no_stress_bins(self):
        binned = HourlySeries(
            "m", "GB", hours=(24, 25), means=(1.0, 2.0), rejuvenation=(24,), post_rejuvenation=(25,)
        )
        assert binned.stress_bins() == ((), ())

    @pytest.mark.parametrize(
        "hours, means, message",
        [
            ((0, 1), (1.0,), "hours and means must be parallel"),
            ((1, 1), (1.0, 2.0), "hours must be strictly increasing"),
            ((2, 1), (1.0, 2.0), "hours must be strictly increasing"),
        ],
    )
    def test_malformed_bins_rejected(self, hours, means, message):
        with pytest.raises(ValueError, match=message):
            HourlySeries("m", "GB", hours=hours, means=means)

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            bin_hourly(series_of([(0.0, 1.0)]), phase_boundaries=(90000.0, 86400.0))


# ── Ageing summary ───────────────────────────────────────────────────────


def ramp_hourly(vr=0.1):
    """Stress bins 0..23 with mean h/10 plus a post-rejuvenation bin."""
    hours = tuple(range(24)) + (25,)
    means = tuple(h / 10.0 for h in range(24)) + (vr,)
    return HourlySeries(
        name="metric",
        unit="gigabytes",
        hours=hours,
        means=means,
        rejuvenation=(24,),
        post_rejuvenation=(25,),
    )


class TestAgeingSummary:
    def test_ramp_deltas(self):
        """v(h) = 0.1h over hours 0..23 with vr = 0.1 gives A = 2.3, R = 2.2."""
        s = ageing_summary(ramp_hourly())
        assert s.v0 == 0.0
        assert s.vb == 2.3
        assert s.vr == 0.1
        assert s.ageing_a == 2.3 - 0.0
        assert s.rejuvenation_r == 2.3 - 0.1
        assert s.sens_slope == pytest.approx(0.1, abs=1e-9)

    def test_deltas_are_exact_differences(self):
        """A and R are stored without rounding."""
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=(0, 23, 25),
            means=(1.234567891, 7.77777777, 3.3333333),
            post_rejuvenation=(25,),
        )
        s = ageing_summary(binned)
        assert s.ageing_a == 7.77777777 - 1.234567891
        assert s.rejuvenation_r == 7.77777777 - 3.3333333

    def test_negative_rejuvenation_delta(self):
        """vr above vb yields a negative R, reported as-is."""
        s = ageing_summary(ramp_hourly(vr=5.0))
        assert s.rejuvenation_r == 2.3 - 5.0

    def test_last_populated_stress_hour_used(self):
        """With hour 23 missing, vb falls back to the last populated bin."""
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=(0, 1, 17, 25),
            means=(1.0, 2.0, 9.0, 4.0),
            post_rejuvenation=(25,),
        )
        s = ageing_summary(binned)
        assert s.vb == 9.0
        assert s.ageing_a == 8.0

    def test_missing_first_stress_hour(self):
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=(3, 4, 25),
            means=(1.0, 2.0, 3.0),
            post_rejuvenation=(25,),
        )
        with pytest.raises(MissingPhaseBinError) as exc:
            ageing_summary(binned)
        assert "stress hour 0" in str(exc.value)

    def test_missing_post_rejuvenation_bin(self):
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=(0, 1, 2),
            means=(1.0, 2.0, 3.0),
        )
        with pytest.raises(MissingPhaseBinError) as exc:
            ageing_summary(binned)
        assert "post-rejuvenation" in str(exc.value)

    def test_single_stress_bin_has_no_slope(self):
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=(0, 25),
            means=(1.0, 0.5),
            post_rejuvenation=(25,),
        )
        s = ageing_summary(binned)
        assert s.vb == s.v0 == 1.0
        assert s.sens_slope is None

    @pytest.mark.parametrize(
        "stress, vr, shown",
        [
            ((-1.5e308, 1.5e308), 1.5e308, "A=inf"),
            ((0.0, 1.5e308), -1.5e308, "R=inf"),
            ((-1.5e308, 0.0, 1.5e308, 0.0), 0.0, "slope=inf"),
        ],
        ids=["ageing-delta", "rejuvenation-delta", "slope-only"],
    )
    def test_non_finite_summary_is_invalid(self, stress, vr, shown):
        """Finite bin means whose A, R or Sen's slope overflow are an input error."""
        hours = tuple(range(len(stress))) + (25,)
        binned = HourlySeries(
            name="m",
            unit="gigabytes",
            hours=hours,
            means=(*stress, vr),
            post_rejuvenation=(25,),
        )
        with pytest.raises(InvalidSeriesError, match="series 'm' has a non-finite") as err:
            ageing_summary(binned)
        assert shown in str(err.value)


# ── End-to-end indicator evaluation ──────────────────────────────────────


class TestEvaluateIndicator:
    def test_ramp_series(self):
        """Raw ramp samples produce an upward verdict and the ramp slope."""
        samples = [(t, t / 36000.0) for t in range(0, 86400, 30)]
        samples.append((89970.0, 2.35))
        samples += [(90000.0 + k * 30.0, 0.1) for k in range(120)]
        series = series_of(samples)
        analysis = evaluate_indicator(series, phase_boundaries=(86400.0, 90000.0))
        assert analysis.trend.verdict is TrendVerdict.UPWARD
        assert analysis.trend.n == 24
        assert analysis.ageing is not None
        assert analysis.ageing.sens_slope == pytest.approx(0.1, abs=1e-6)
        assert analysis.ageing_unavailable is None

    def test_rejuvenation_bin_not_in_trend_input(self):
        """The rejuvenation-hour bin is excluded from the trend test."""
        samples = [(h * 3600.0, float(h)) for h in range(24)]
        samples.append((89970.0, 100.0))  # rejuvenation-slot sample
        series = series_of(samples)
        analysis = evaluate_indicator(series, phase_boundaries=(86400.0, 90000.0))
        assert analysis.trend.n == 24
        assert analysis.hourly.rejuvenation == (24,)

    def test_empty_series_is_well_formed(self):
        """An empty series reports InsufficientData instead of raising."""
        analysis = evaluate_indicator(series_of([]), phase_boundaries=(86400.0,))
        assert analysis.trend.n == 0
        assert analysis.trend.verdict is TrendVerdict.INSUFFICIENT_DATA
        assert analysis.ageing is None
        assert analysis.ageing_unavailable

    def test_short_series_reports_reason(self):
        """Too few bins for the ageing summary yields a reason, not an error."""
        analysis = evaluate_indicator(
            series_of([(0.0, 1.0), (3700.0, 2.0)]), phase_boundaries=(86400.0,)
        )
        assert analysis.trend.verdict is TrendVerdict.INSUFFICIENT_DATA
        assert analysis.ageing is None
        assert "post-rejuvenation" in analysis.ageing_unavailable


# ── Series plumbing ──────────────────────────────────────────────────────


class TestIndicatorSeries:
    def test_timestamps_must_increase(self):
        with pytest.raises(ValueError):
            series_of([(10.0, 1.0), (10.0, 2.0)])

    def test_unit_required(self):
        with pytest.raises(ValueError):
            IndicatorSeries("m", "", [0.0], [1.0])

    def test_rebased_starts_at_zero(self):
        series = series_of([(1000.0, 1.0), (1060.0, 2.0)])
        shifted = rebased(series)
        assert shifted.timestamps.tolist() == [0.0, 60.0]
        assert shifted.values.tolist() == [1.0, 2.0]

    def test_invalid_series_error_is_parse_and_value_error(self):
        """Broken series are input errors for the CLI and ValueErrors for callers."""
        with pytest.raises(InvalidSeriesError) as excinfo:
            series_of([(10.0, 1.0), (5.0, 2.0)])
        assert isinstance(excinfo.value, ParseError)
        assert isinstance(excinfo.value, AgesimError)
        assert isinstance(excinfo.value, ValueError)
        with pytest.raises(InvalidSeriesError):
            IndicatorSeries("m", "", [], [])

    def test_nan_timestamp_is_not_rejected_by_the_order_check(self):
        """``b <= a`` is false against NaN, so a NaN stamp gets past the check."""
        series = series_of([(0.0, 1.0), (math.nan, 2.0), (10.0, 3.0)])
        assert len(series) == 3

    def test_samples_round_trip_through_arrays(self):
        samples = ((0.0, 1.5), (30.0, -2.0), (61.25, 1e-300))
        series = series_of(samples)
        assert series.timestamps.dtype == np.float64
        assert series.timestamps.tolist() == [0.0, 30.0, 61.25]
        assert series.values.tolist() == [1.5, -2.0, 1e-300]
        assert series.samples == samples
        assert all(type(x) is float for pair in series.samples for x in pair)
        copy = IndicatorSeries("metric", "gigabytes", series.timestamps, series.values)
        assert copy.samples == samples

    def test_arrays_are_read_only_and_owned(self):
        stamps = np.array([0.0, 1.0, 2.0])
        series = IndicatorSeries("m", "GB", stamps, [3.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            series.timestamps[0] = 5.0
        with pytest.raises(ValueError):
            series.values[1] = 5.0
        stamps[0] = -1.0  # the caller's array is copied, not shared
        assert series.timestamps[0] == 0.0
        with pytest.raises(FrozenInstanceError):
            series.name = "other"
        with pytest.raises(FrozenInstanceError):
            series.timestamps = np.zeros(3)

    def test_an_owned_read_only_array_is_held_as_it_is(self):
        stamps = np.array([0.0, 1.0, 2.0])
        values = np.array([3.0, 4.0, 5.0])
        stamps.flags.writeable = values.flags.writeable = False
        series = IndicatorSeries("m", "GB", stamps, values)
        assert series.timestamps is stamps
        assert series.values is values

    def test_a_read_only_view_of_a_writeable_base_is_copied(self):
        base = np.array([0.0, 1.0, 2.0])
        view = base[:]
        view.flags.writeable = False
        series = IndicatorSeries("m", "GB", view, view)
        assert series.timestamps is not view
        base[0] = -1.0
        assert series.timestamps[0] == 0.0
        assert series.values[0] == 0.0
        assert not series.timestamps.flags.writeable
        assert not series.values.flags.writeable

    def test_a_read_only_view_of_bytes_is_held_as_it_is(self):
        """No one can write a ``bytes``, so an array over one, as protocol 5
        unpickles it, is held without a copy; one over a ``bytearray`` is not."""
        stamps = np.frombuffer(np.array([0.0, 1.0, 2.0]).tobytes())
        view = stamps[:]
        series = IndicatorSeries("m", "GB", view, stamps)
        assert series.timestamps is view
        assert series.values is stamps
        buffer = np.frombuffer(bytearray(np.array([0.0, 1.0]).tobytes()))
        buffer.flags.writeable = False
        assert IndicatorSeries("m", "GB", buffer, buffer).timestamps is not buffer

    def test_other_read_only_arrays_are_copied_as_float64(self):
        single = np.array([0.0, 1.0], dtype=np.float32)
        swapped = np.array([0.0, 1.0], dtype=">f8")
        for array in (single, swapped):
            array.flags.writeable = False
            series = IndicatorSeries("m", "GB", array, array)
            assert series.timestamps is not array
            assert series.timestamps.dtype == np.dtype(np.float64)
            assert series.timestamps.tolist() == [0.0, 1.0]

    def test_constructor_checks_order_unit_and_shape(self):
        with pytest.raises(InvalidSeriesError, match="strictly increasing"):
            IndicatorSeries("m", "GB", [1.0, 1.0], [2.0, 3.0])
        with pytest.raises(InvalidSeriesError, match="unit"):
            IndicatorSeries("m", "", [1.0], [2.0])
        with pytest.raises(InvalidSeriesError, match="one length"):
            IndicatorSeries("m", "GB", [1.0, 2.0], [2.0])
        with pytest.raises(InvalidSeriesError, match="one length"):
            IndicatorSeries("m", "GB", [[1.0, 2.0]], [[2.0, 3.0]])
        with pytest.raises(InvalidSeriesError, match="one length"):
            IndicatorSeries("m", "GB", 1.0, 2.0)

    def test_series_pickles(self):
        series = series_of([(0.0, 1.0), (5.0, 2.0)])
        assert pickle.loads(pickle.dumps(series)) == series


# ── Tie nudging ──────────────────────────────────────────────────────────


def test_nudge_ties_returns_increasing_stamps_unsorted():
    """Strictly increasing stamps come back as they are: no sort, no copy."""
    stamps = np.array([0.0, 5.0, 10.0])
    values = np.array([3.0, 1.0, 2.0])
    with mock.patch.object(np, "lexsort", side_effect=AssertionError("sorted")):
        ts, vs = nudge_ties(stamps, values)
    assert ts is stamps
    assert vs is values
    assert ts.tolist() == [0.0, 5.0, 10.0]
    assert vs.tolist() == [3.0, 1.0, 2.0]


def test_nudge_ties_sorts_and_nudges_ties_from_the_stamps_alone():
    ts, vs = nudge_ties([5.0, 0.0, 0.0], [9.0, 2.0, 1.0])
    assert ts.tolist() == [0.0, 1e-9, 5.0]
    assert vs.tolist() == [1.0, 2.0, 9.0]
    # other values on the same stamps: the same nudged stamps
    again, _ = nudge_ties([5.0, 0.0, 0.0], [0.0, 1.0, 2.0])
    assert again.tolist() == ts.tolist()
    # a NaN stamp is not increasing, so it is still sorted to the end
    ts, vs = nudge_ties([math.nan, 1.0], [1.0, 2.0])
    assert ts[0] == 1.0 and math.isnan(ts[1])
    assert vs.tolist() == [2.0, 1.0]


# ── Property tests against independent oracles ───────────────────────────


def dict_loop_bins(samples):
    """Hourly sums and counts in a dict, one sample at a time in order."""
    sums = {}
    counts = {}
    for t, v in samples:
        h = int(t // 3600.0)
        sums[h] = sums.get(h, 0.0) + v
        counts[h] = counts.get(h, 0) + 1
    hours = tuple(sorted(sums))
    return hours, tuple(sums[h] / counts[h] for h in hours)


def concatenated_sens_slope(values):
    """Sen's slope from per-row chunks, concatenated, then ``np.median``."""
    x = np.asarray(values, dtype=float)
    chunks = []
    for i in range(x.size - 1):
        diff = x[i + 1 :] - x[i]
        lag = np.arange(1, len(diff) + 1, dtype=float)
        chunks.append(diff / lag)
    return float(np.median(np.concatenate(chunks)))


def bits(values):
    """Exact bit patterns, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in values]


timestamps = st.one_of(
    st.floats(-1e5, 1e5),
    st.sampled_from([0.0, 3599.999, 3600.0, -3600.0, 1e12, -1e12, 1.7e9]),
    st.floats(-1e13, 1e13),
)
sample_values = st.one_of(
    st.floats(-1e9, 1e9),
    st.integers(-5, 5).map(float),
    st.sampled_from([0.0, -0.0, 0.1, 1e-300]),
)
tied_values = st.one_of(st.integers(0, 4).map(float), st.floats(-1e6, 1e6))


@given(
    stamps=st.lists(timestamps, min_size=1, max_size=80, unique=True),
    values=st.lists(sample_values, min_size=80, max_size=80),
)
def test_bin_hourly_matches_dict_loop_bit_exact(stamps, values):
    """Hours and means equal the dict loop's, bit for bit, at any hour span."""
    samples = list(zip(sorted(stamps), values))
    binned = bin_hourly(series_of(samples))
    hours, means = dict_loop_bins(samples)
    assert binned.hours == hours
    assert bits(binned.means) == bits(means)


def test_bin_hourly_far_apart_hours():
    """Two samples 1e12 s apart make two bins, not 2.8e8 empty ones."""
    binned = bin_hourly(series_of([(0.0, 1.0), (1e12, 3.0), (1e12 + 1.0, 4.0)]))
    assert binned.hours == (0, int(1e12 // 3600.0))
    assert binned.means == (1.0, 3.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bin_hourly_non_finite_timestamp_raises_value_error(bad):
    with pytest.raises(ValueError):
        bin_hourly(series_of([(0.0, 1.0), (bad, 2.0)]))


@given(values=st.lists(tied_values, min_size=2, max_size=60))
def test_sens_slope_matches_concatenated_median_bit_exact(values):
    assert sens_slope(values).hex() == concatenated_sens_slope(values).hex()


def exact_slope_pair(values):
    """``sens_slope`` and the concatenated median, both as hex."""
    with np.errstate(over="ignore", invalid="ignore"):
        return sens_slope(values).hex(), concatenated_sens_slope(values).hex()


extreme_values = st.one_of(
    tied_values,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e308, -1.5e308, math.inf, math.nan]),
)


@given(
    values=st.lists(extreme_values, min_size=2, max_size=80),
    sample_pairs=st.integers(1, 64),
    block_slopes=st.integers(1, 200),
    sigmas=st.sampled_from([0.0, 1.0, 4.5]),
)
def test_bracketed_sens_slope_matches_concatenated_median_bit_exact(
    values, sample_pairs, block_slopes, sigmas
):
    """Constants patched down so that every series takes a sampled bracket;
    zero sigmas make it miss often."""
    with mock.patch.multiple(
        trendstats,
        _OPEN_BRACKET_PAIRS=0,
        _SAMPLE_PAIRS=sample_pairs,
        _BLOCK_SLOPES=block_slopes,
        _BRACKET_SIGMAS=sigmas,
    ):
        got, expected = exact_slope_pair(values)
    assert got == expected


def rounded_walk(n, seed=3):
    return np.round(np.cumsum(np.random.default_rng(seed).normal(0.0, 0.01, n)), 3)


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(np.full(400, 2.5), id="all-tied"),
        pytest.param(np.repeat([1.0, 2.0], 200), id="two-level-step"),
        pytest.param(rounded_walk(400), id="rounded-walk-even-pairs"),
        pytest.param(rounded_walk(402), id="rounded-walk-odd-pairs"),
        pytest.param(np.random.default_rng(4).normal(size=401), id="noise-even-pairs"),
        pytest.param(np.random.default_rng(5).normal(size=403), id="noise-odd-pairs"),
        pytest.param(np.tile([1.5e308, -1.5e308, 0.0], 134), id="overflowing-slopes"),
        pytest.param(np.r_[np.full(300, -1.5e308), np.full(100, 1.5e308)], id="overflow-median"),
    ],
)
def test_sens_slope_on_long_series_matches_concatenated_median(values):
    """At the real constants: more pairs than the open bracket takes."""
    assert values.size * (values.size - 1) // 2 > trendstats._OPEN_BRACKET_PAIRS
    got, expected = exact_slope_pair(values)
    assert got == expected


@pytest.mark.parametrize(
    "values, most_kept",
    [(np.full(400, 2.5), 0), (np.repeat([1.0, 2.0], 200), 1000), (rounded_walk(400), 4000)],
)
def test_tied_slopes_at_the_bracket_ends_are_counted_not_kept(values, most_kept):
    """A flat series keeps no slope of its 79,800; a step or a quantised walk few."""
    lo, hi = trendstats._median_bracket(values, 79800, [39899, 39900])
    below, at_lo, inside, within = trendstats._scan_slopes(values, lo, hi)
    assert inside.size <= most_kept
    assert below <= 39899 and 39900 < below + within


@pytest.mark.parametrize(
    "values",
    [
        [1.0, math.nan],
        [math.nan, math.nan],
        [math.inf, 0.0, math.inf],
        [-math.inf, 2.0, -math.inf],
        np.r_[np.arange(500.0), math.nan],
    ],
)
def test_sens_slope_is_nan_where_a_pair_has_no_sign(values):
    assert math.isnan(sens_slope(values))


def test_sens_slope_keeps_opposite_infinities():
    """-inf then +inf is one +inf slope, a median like any other."""
    assert sens_slope([-math.inf, math.inf]) == math.inf
    assert sens_slope([math.inf, 0.0, -math.inf]) == -math.inf


@pytest.mark.parametrize("side", ["above", "just-above", "below", "just-below"])
def test_sens_slope_is_exact_when_the_bracket_misses(side):
    """A bracket wholly above or below the median, even by one slope, is opened
    on that side and scanned again."""
    values = np.cumsum(np.random.default_rng(8).normal(0.1, 1.0, 499))
    rows = [(values[i + 1 :] - values[i]) / np.arange(1.0, 499 - i) for i in range(498)]
    slopes = np.sort(np.concatenate(rows))
    r = slopes.size // 2  # an odd pair count: one middle rank
    missed = {
        "above": (slopes[r + 100], slopes[r + 200]),
        "just-above": (slopes[r + 1], slopes[-1]),
        "below": (slopes[r - 200], slopes[r - 100]),
        "just-below": (slopes[0], slopes[r - 1]),
    }[side]
    scan = mock.Mock(wraps=trendstats._scan_slopes)
    bracket = mock.Mock(return_value=missed)
    with mock.patch.multiple(trendstats, _median_bracket=bracket, _scan_slopes=scan):
        got = sens_slope(values)
    assert got.hex() == concatenated_sens_slope(values).hex() == slopes[r].hex()
    assert scan.call_count == 2
    reopened = (-math.inf, missed[1]) if side.endswith("above") else (missed[0], math.inf)
    assert scan.call_args_list[1].args[1:] == reopened


def test_sens_slope_does_not_touch_the_global_random_state():
    before = np.random.get_state()[1].copy()
    sens_slope(np.arange(1000.0))
    assert np.array_equal(np.random.get_state()[1], before)


def test_sens_slope_memory_stays_far_below_the_pair_count():
    """n = 4,000 has 8M pairs: 64 MB as one buffer."""
    values = np.cumsum(np.random.default_rng(9).normal(size=4000))
    tracemalloc.start()
    try:
        sens_slope(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sens_slope_rejects_a_spacing_that_is_not_positive_and_finite(spacing):
    with pytest.raises(ValueError):
        sens_slope([1.0, 2.0, 4.0], spacing_hours=spacing)


@given(values=st.lists(tied_values, min_size=2, max_size=60))
def test_sens_slope_matches_scipy_theilslopes(values):
    """Theil-Sen over indices, as SciPy computes it (Sen 1968)."""
    expected = theilslopes(values, np.arange(len(values), dtype=float)).slope
    assert sens_slope(values) == expected


@given(values=st.lists(tied_values, min_size=0, max_size=60))
def test_mann_kendall_s_matches_double_sum(values):
    expected_s, expected_var = brute_mann_kendall(values)
    result = mann_kendall(values)
    assert result.s_statistic == expected_s
    assert result.variance == expected_var


@given(
    values=st.integers(0, 300).flatmap(
        lambda n: st.lists(st.integers(0, 4).map(float), min_size=n, max_size=n)
    )
)
def test_mann_kendall_long_series_with_large_tie_groups_match_double_sum(values):
    """Up to 300 values from five levels, so tie groups run to dozens of values."""
    expected_s, expected_var = brute_mann_kendall(values)
    result = mann_kendall(values)
    assert result.s_statistic == expected_s
    assert result.variance == expected_var


@pytest.mark.parametrize(
    "values",
    [[1.0, math.nan], [math.nan, math.nan], [math.inf, 0.0, math.inf], [-math.inf, -math.inf]],
)
def test_mann_kendall_raises_where_a_pair_has_no_sign(values):
    """NaN, or the same infinity twice, leaves a difference without a sign."""
    with pytest.raises(ValueError):
        mann_kendall(values)


def test_mann_kendall_keeps_opposite_infinities_and_a_lone_nan():
    assert mann_kendall([-math.inf, 0.0, math.inf]).s_statistic == 3
    assert mann_kendall([math.nan]).s_statistic == 0


pair_floats = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0]))


@given(
    samples=st.lists(st.tuples(pair_floats, pair_floats), max_size=20).map(
        lambda pairs: sorted(dict(pairs).items())
    ),
    flip=st.booleans(),
)
def test_series_equality_and_hash_agree_on_signed_zeros(samples, flip):
    """Series of equal floats are equal with equal hashes, -0.0 and 0.0 alike."""
    series = series_of(samples)
    signs = -1.0 if flip else 1.0
    zeros_flipped = IndicatorSeries(
        "metric",
        "gigabytes",
        [t if t else signs * 0.0 for t, _ in samples],
        [v if v else signs * 0.0 for _, v in samples],
    )
    assert series == zeros_flipped
    assert hash(series) == hash(zeros_flipped)
    if samples:
        other = IndicatorSeries("metric", "gigabytes", series.timestamps, series.values + 1.0)
        assert other != series


@given(
    values=st.lists(st.integers(-1000, 1000), min_size=0, max_size=40),
    scale=st.integers(1, 100),
    shift=st.integers(-1000, 1000),
)
def test_mann_kendall_s_under_affine_maps(values, scale, shift):
    """S is unchanged by a positive affine map and flips sign under negation."""
    s = mann_kendall([float(v) for v in values]).s_statistic
    mapped = [float(scale * v + shift) for v in values]
    assert mann_kendall(mapped).s_statistic == s
    assert mann_kendall([float(-v) for v in values]).s_statistic == -s
