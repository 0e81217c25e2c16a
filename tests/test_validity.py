"""Tests for the holiday-week generation mode and validity ablation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.autoscale import diurnal_demand
from repro.timebase import SAMPLES_PER_WEEK, SECONDS_PER_HOUR, sample_times
from repro.workloads.arrivals import diurnal_rate_curve
from repro.workloads.utilization_models import diurnal_signal


class TestHolidaySignals:
    def test_holiday_diurnal_signal_uses_weekend_peak_everywhere(self):
        times = sample_times(SAMPLES_PER_WEEK)
        signal = diurnal_signal(
            times, tz_offset_hours=0, weekday_peak=0.6, weekend_peak=0.2,
            holiday_week=True,
        )
        assert signal.max() == pytest.approx(0.2, abs=0.02)

    def test_holiday_rate_curve_damped_everywhere(self):
        curve = diurnal_rate_curve(
            base_per_hour=2, peak_per_hour=2, tz_offset_hours=0,
            weekend_factor=0.5, holiday_week=True,
        )
        monday = curve(np.array([0.0]))[0]
        assert monday == pytest.approx(1.0)

    def test_holiday_demand_damped_everywhere(self):
        ordinary = diurnal_demand(base=10, amplitude=0, tz_offset_hours=0,
                                  weekend_factor=0.5)
        holiday = diurnal_demand(base=10, amplitude=0, tz_offset_hours=0,
                                 weekend_factor=0.5, holiday_week=True)
        monday_2pm = 14 * SECONDS_PER_HOUR
        assert holiday(monday_2pm) == ordinary(monday_2pm) // 2


class TestValidityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import validity

        return validity.run(seed=7, scale=0.12, cache_dir=None, use_cache=True)

    def test_all_checks_pass(self, result):
        for check in result.checks:
            assert check.passed, check.render()

    def test_series_exported(self, result):
        assert "ordinary_weekly_median" in result.series
        assert "holiday_weekly_median" in result.series
        ordinary = result.series["ordinary_weekly_median"]
        holiday = result.series["holiday_weekly_median"]
        assert holiday.mean() < ordinary.mean()
