"""Tests for the hourly-peak absorption strategies."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.management.peaks import PeakAbsorber, compare_strategies
from repro.timebase import SAMPLES_PER_WEEK, sample_times
from repro.workloads.utilization_models import hourly_peak_signal


@pytest.fixture(scope="module")
def peaky_demand():
    """Aggregate demand with meeting-join peaks exceeding 32-core capacity."""
    times = sample_times(SAMPLES_PER_WEEK)
    signal = hourly_peak_signal(times, tz_offset_hours=0)
    # Scale: base ~20 cores, peaks up to ~44 cores.
    return 20.0 + 35.0 * signal


CAPACITY = 32.0


class TestBaseline:
    def test_baseline_throttles_peaks(self, peaky_demand):
        outcome = PeakAbsorber(peaky_demand, CAPACITY).baseline()
        assert outcome.served_peak_fraction == 0.0
        assert outcome.served_total_fraction < 1.0
        assert outcome.wasted_core_hours == 0.0

    def test_no_excess_demand_serves_everything(self):
        outcome = PeakAbsorber(np.full(288, 10.0), CAPACITY).baseline()
        assert outcome.served_peak_fraction == 1.0
        assert outcome.served_total_fraction == 1.0


class TestPreProvision:
    def test_serves_predicted_peaks(self, peaky_demand):
        absorber = PeakAbsorber(peaky_demand, CAPACITY)
        outcome = absorber.pre_provision()
        # Hourly peaks are perfectly periodic -> prediction works well.
        assert outcome.served_peak_fraction > 0.8
        assert outcome.wasted_core_hours > 0  # reservations idle at night

    def test_zero_standby_is_baseline(self):
        # Demand that never exceeds capacity gets no standby cores.
        absorber = PeakAbsorber(np.full(288, 10.0), CAPACITY)
        outcome = absorber.pre_provision()
        assert dataclasses.replace(outcome, strategy="baseline") == absorber.baseline()

    def test_short_history_raises(self):
        absorber = PeakAbsorber(np.ones(4), CAPACITY, sample_period=300.0)
        with pytest.raises(ValueError):
            absorber.pre_provision()


class TestOverclock:
    def test_serves_peaks_within_budget(self, peaky_demand):
        absorber = PeakAbsorber(peaky_demand, CAPACITY)
        outcome = absorber.overclock(boost=0.5, budget_minutes_per_hour=15)
        assert outcome.served_peak_fraction > 0.5
        assert outcome.overclock_minutes > 0
        assert outcome.wasted_core_hours == 0.0

    def test_budget_limits_boost_time(self, peaky_demand):
        absorber = PeakAbsorber(peaky_demand, CAPACITY)
        tight = absorber.overclock(boost=0.5, budget_minutes_per_hour=5)
        loose = absorber.overclock(boost=0.5, budget_minutes_per_hour=30)
        assert tight.overclock_minutes < loose.overclock_minutes
        assert tight.served_peak_fraction <= loose.served_peak_fraction

    def test_boost_size_matters(self, peaky_demand):
        absorber = PeakAbsorber(peaky_demand, CAPACITY)
        small = absorber.overclock(boost=0.05, budget_minutes_per_hour=30)
        large = absorber.overclock(boost=0.6, budget_minutes_per_hour=30)
        assert large.served_peak_fraction > small.served_peak_fraction

    def test_invalid_boost(self, peaky_demand):
        with pytest.raises(ValueError):
            PeakAbsorber(peaky_demand, CAPACITY).overclock(boost=0.0)


class TestCompare:
    def test_both_strategies_beat_baseline(self, peaky_demand):
        outcomes = compare_strategies(peaky_demand, CAPACITY, boost=0.5)
        assert (
            outcomes["pre-provision"].served_peak_fraction
            > outcomes["baseline"].served_peak_fraction
        )
        assert (
            outcomes["overclock"].served_peak_fraction
            > outcomes["baseline"].served_peak_fraction
        )

    def test_tradeoff_shapes(self, peaky_demand):
        """Pre-provisioning wastes capacity; overclocking spends boost time."""
        outcomes = compare_strategies(peaky_demand, CAPACITY, boost=0.5)
        assert outcomes["pre-provision"].wasted_core_hours > 0
        assert outcomes["pre-provision"].overclock_minutes == 0
        assert outcomes["overclock"].wasted_core_hours == 0
        assert outcomes["overclock"].overclock_minutes > 0


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            PeakAbsorber(np.array([]), 10.0)
        with pytest.raises(ValueError):
            PeakAbsorber(np.array([-1.0]), 10.0)
        with pytest.raises(ValueError):
            PeakAbsorber(np.ones(5), 0.0)
