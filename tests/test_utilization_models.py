"""Unit tests for the synthetic utilization signal models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import utilization_models
from repro.timebase import SAMPLES_PER_DAY, SAMPLES_PER_WEEK, SECONDS_PER_HOUR, sample_times
from repro.workloads.utilization_models import (
    NoiseParams,
    diurnal_signal,
    hourly_peak_signal,
    irregular_signal,
    mask_to_lifetime,
    stable_signal,
    vm_series_from_signal,
)


@pytest.fixture(scope="module")
def times():
    return sample_times(SAMPLES_PER_WEEK)


class TestDiurnalSignal:
    def test_peaks_during_local_day(self, times):
        signal = diurnal_signal(times, tz_offset_hours=0, peak_hour=14)
        day_one = signal[:SAMPLES_PER_DAY]
        peak_idx = int(np.argmax(day_one))
        peak_hour = peak_idx * 300 / 3600
        assert 13 <= peak_hour <= 15

    def test_weekend_peak_lower(self, times):
        signal = diurnal_signal(
            times, tz_offset_hours=0, weekday_peak=0.6, weekend_peak=0.2
        )
        weekday_max = signal[: 5 * SAMPLES_PER_DAY].max()
        weekend_max = signal[5 * SAMPLES_PER_DAY :].max()
        assert weekday_max == pytest.approx(0.6, abs=0.02)
        assert weekend_max == pytest.approx(0.2, abs=0.02)

    def test_night_level(self, times):
        signal = diurnal_signal(times, tz_offset_hours=0, night_level=0.05)
        assert signal.min() == pytest.approx(0.05, abs=0.01)

    def test_timezone_shifts_peak(self, times):
        east = diurnal_signal(times, tz_offset_hours=0)
        west = diurnal_signal(times, tz_offset_hours=-8)
        day = slice(0, SAMPLES_PER_DAY)
        shift_samples = (np.argmax(west[day]) - np.argmax(east[day])) % SAMPLES_PER_DAY
        assert shift_samples * 300 / 3600 == pytest.approx(8.0, abs=0.5)

    def test_phase_jitter_shifts_peak(self, times):
        base = diurnal_signal(times, tz_offset_hours=0)
        shifted = diurnal_signal(times, tz_offset_hours=0, phase_jitter_hours=3.0)
        day = slice(0, SAMPLES_PER_DAY)
        delta = (np.argmax(shifted[day]) - np.argmax(base[day])) % SAMPLES_PER_DAY
        assert delta * 300 / 3600 == pytest.approx(3.0, abs=0.5)


class TestStableSignal:
    def test_small_std(self, times, rng):
        signal = stable_signal(times, level=0.25, rng=rng)
        assert signal.std() < 0.03
        assert signal.mean() == pytest.approx(0.25, abs=0.05)

    def test_bounded(self, times, rng):
        signal = stable_signal(times, level=0.02, rng=rng)
        assert signal.min() >= 0.0


class TestIrregularSignal:
    def test_mostly_low_with_spikes(self, times, rng, monkeypatch):
        monkeypatch.setattr(utilization_models, "SPIKE_RATE_PER_DAY", 2.0)
        signal = irregular_signal(times, rng=rng)
        assert np.median(signal) <= 0.1
        assert signal.max() >= 0.45

    def test_no_spikes_when_rate_zero(self, times, rng, monkeypatch):
        monkeypatch.setattr(utilization_models, "SPIKE_RATE_PER_DAY", 0.0)
        signal = irregular_signal(times, rng=rng)
        assert np.all(signal == signal[0])


class TestHourlyPeakSignal:
    def test_peaks_on_hour_marks(self, times):
        signal = hourly_peak_signal(times, tz_offset_hours=0)
        # At local 13:00 on a weekday the envelope is ~1: the on-hour sample
        # must be far above the mid-hour sample.
        idx_on_hour = 13 * 12  # 13:00, sample grid is 12/hour
        idx_mid = idx_on_hour + 4  # 13:20
        assert signal[idx_on_hour] > signal[idx_mid] + 0.3

    def test_hour_peak_taller_than_half_hour(self, times):
        signal = hourly_peak_signal(times, tz_offset_hours=0)
        idx_on_hour = 13 * 12
        idx_half = idx_on_hour + 6
        assert signal[idx_on_hour] > signal[idx_half]

    def test_night_quiet(self, times):
        signal = hourly_peak_signal(times, tz_offset_hours=0)
        idx_3am = 3 * 12
        assert signal[idx_3am] < 0.25


class TestVmSeriesFromSignal:
    def test_clipped_and_shaped(self, times, rng):
        signal = diurnal_signal(times, tz_offset_hours=0)
        series = vm_series_from_signal(
            signal, noise=NoiseParams(scale_sigma=0.2, additive_sigma=0.1), rng=rng
        )
        assert series.shape == signal.shape
        assert series.min() >= 0.0
        assert series.max() <= 1.0

    def test_correlated_with_signal(self, times, rng):
        signal = diurnal_signal(times, tz_offset_hours=0)
        series = vm_series_from_signal(
            signal, noise=NoiseParams(scale_sigma=0.1, additive_sigma=0.02), rng=rng
        )
        assert np.corrcoef(series, signal)[0, 1] > 0.9


class TestMaskToLifetime:
    def test_zero_outside_life(self, times):
        series = np.ones(times.size)
        masked = mask_to_lifetime(
            series, times, created_at=SECONDS_PER_HOUR, ended_at=2 * SECONDS_PER_HOUR
        )
        assert masked.sum() == 12  # one hour alive = 12 samples
        assert masked[0] == 0.0

    def test_censored_vm_alive_to_end(self, times):
        series = np.ones(times.size)
        masked = mask_to_lifetime(series, times, created_at=0.0, ended_at=np.inf)
        assert np.all(masked == 1.0)

    def test_prewindow_creation(self, times):
        series = np.ones(times.size)
        masked = mask_to_lifetime(series, times, created_at=-999.0, ended_at=np.inf)
        assert masked[0] == 1.0
