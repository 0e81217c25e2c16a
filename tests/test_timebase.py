"""Unit tests for the time conventions."""

from __future__ import annotations

import numpy as np
import pytest

from repro import timebase


def test_week_constants_consistent():
    assert timebase.SECONDS_PER_WEEK == 7 * timebase.SECONDS_PER_DAY
    assert timebase.SAMPLES_PER_WEEK * timebase.SAMPLE_PERIOD == timebase.SECONDS_PER_WEEK
    assert timebase.SAMPLES_PER_DAY == 288
    assert timebase.SAMPLES_PER_HOUR == 12


def test_sample_times_grid():
    times = timebase.sample_times(10)
    assert times.shape == (10,)
    assert times[0] == 0.0
    assert np.all(np.diff(times) == timebase.SAMPLE_PERIOD)


def test_sample_times_offset():
    times = timebase.sample_times(4, offset=100.0)
    assert times[0] == 100.0


def test_hour_of_day_utc():
    times = np.array([0.0, 6 * 3600, 23.5 * 3600, 24 * 3600])
    hours = timebase.hour_of_day(times)
    assert np.allclose(hours, [0.0, 6.0, 23.5, 0.0])


def test_hour_of_day_with_tz_offset():
    noon_utc = np.array([12 * 3600.0])
    assert timebase.hour_of_day(noon_utc, tz_offset_hours=-8)[0] == pytest.approx(4.0)
    assert timebase.hour_of_day(noon_utc, tz_offset_hours=+8)[0] == pytest.approx(20.0)


def test_day_of_week_starts_monday():
    assert timebase.day_of_week(np.array([0.0]))[0] == 0
    assert timebase.day_of_week(np.array([5 * 86400.0]))[0] == 5
    # Wraps weekly.
    assert timebase.day_of_week(np.array([7 * 86400.0]))[0] == 0


def test_day_of_week_negative_times_wrap():
    # One hour before the window is Sunday.
    assert timebase.day_of_week(np.array([-3600.0]))[0] == 6
