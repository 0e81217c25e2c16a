"""Unit and statistical tests for arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_WEEK
from repro.workloads.arrivals import (
    diurnal_rate_curve,
    homogeneous_poisson,
    nhpp,
    sample_burst_episodes,
)


class TestHomogeneousPoisson:
    def test_zero_rate_gives_no_arrivals(self, rng):
        assert homogeneous_poisson(0.0, 1000.0, rng).size == 0

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValueError):
            homogeneous_poisson(-1.0, 100.0, rng)

    def test_count_close_to_expectation(self, rng):
        duration = 200 * SECONDS_PER_HOUR
        arrivals = homogeneous_poisson(5.0, duration, rng)
        expected = 5.0 * 200
        assert abs(arrivals.size - expected) < 4 * np.sqrt(expected)

    def test_all_arrivals_in_window(self, rng):
        arrivals = homogeneous_poisson(10.0, 3600.0, rng)
        assert np.all(arrivals >= 0)
        assert np.all(arrivals < 3600.0)
        assert np.all(np.diff(arrivals) > 0)


class TestNhpp:
    def test_rate_curve_shapes_arrivals(self, rng):
        curve = diurnal_rate_curve(
            base_per_hour=0.5, peak_per_hour=20.0, tz_offset_hours=0,
            weekend_factor=1.0,
        )
        arrivals = nhpp(curve, 20.0, SECONDS_PER_WEEK, rng)
        hours = (arrivals % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        daytime = np.sum((hours > 10) & (hours < 18))
        nighttime = np.sum((hours < 4) | (hours > 23))
        assert daytime > 3 * nighttime

    def test_rate_above_bound_rejected(self, rng):
        with pytest.raises(ValueError):
            nhpp(lambda t: np.full(np.shape(t), 50.0), 20.0, 3600.0, rng)

    def test_zero_max_rate(self, rng):
        assert nhpp(lambda t: np.zeros(np.shape(t)), 0.0, 3600.0, rng).size == 0

    def test_thinning_preserves_totals(self, rng):
        # Constant curve at half the max rate -> about half the arrivals.
        duration = 300 * SECONDS_PER_HOUR
        arrivals = nhpp(
            lambda t: np.full(np.shape(t), 5.0), 10.0, duration, rng
        )
        expected = 5.0 * 300
        assert abs(arrivals.size - expected) < 5 * np.sqrt(expected)


class TestDiurnalRateCurve:
    def test_peak_at_local_peak_hour(self):
        curve = diurnal_rate_curve(
            base_per_hour=1, peak_per_hour=10, tz_offset_hours=-8, peak_hour=14
        )
        # 14:00 local = 22:00 UTC
        peak_rate = curve(np.array([22 * 3600.0]))[0]
        off_rate = curve(np.array([10 * 3600.0]))[0]
        assert peak_rate == pytest.approx(10.0)
        assert off_rate < peak_rate

    def test_weekend_factor(self):
        curve = diurnal_rate_curve(
            base_per_hour=2, peak_per_hour=2, tz_offset_hours=0, weekend_factor=0.25
        )
        weekday = curve(np.array([0.0]))[0]
        weekend = curve(np.array([5.5 * SECONDS_PER_DAY]))[0]
        assert weekend == pytest.approx(weekday * 0.25)

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            diurnal_rate_curve(base_per_hour=5, peak_per_hour=1, tz_offset_hours=0)


class TestBurstEpisodes:
    def test_episodes_sorted_and_bounded(self, rng):
        episodes = sample_burst_episodes(
            episodes_per_week=20, size_median=50, size_sigma=0.5,
            duration=SECONDS_PER_WEEK, rng=rng,
        )
        times = [e.time for e in episodes]
        assert times == sorted(times)
        assert all(0 <= t < SECONDS_PER_WEEK for t in times)
        assert all(1 <= e.size <= 2000 for e in episodes)

    def test_expected_count_scales_with_duration(self, rng):
        episodes = sample_burst_episodes(
            episodes_per_week=700, size_median=10, size_sigma=0.1,
            duration=SECONDS_PER_WEEK / 7, rng=rng,
        )
        # 700/week over one day -> ~100 expected.
        assert 60 < len(episodes) < 140

    def test_size_cap(self, rng):
        episodes = sample_burst_episodes(
            episodes_per_week=50, size_median=5000, size_sigma=1.0,
            duration=SECONDS_PER_WEEK, rng=rng, max_size=100,
        )
        assert all(e.size <= 100 for e in episodes)
