"""Unit tests for the scalar and batched autocorrelation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.periodicity import autocorrelation, autocorrelation_block


def sine(period: int, n: int = 2016) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(n) / period)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        acf = autocorrelation(np.random.default_rng(0).normal(size=500))
        assert acf[0] == pytest.approx(1.0)

    def test_periodic_signal_has_acf_peak(self):
        acf = autocorrelation(sine(50), max_lag=120)
        assert acf[50] > 0.8
        assert acf[25] < 0.0  # anti-phase

    def test_constant_signal(self):
        acf = autocorrelation(np.ones(100))
        assert np.all(acf == 0)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            autocorrelation(np.array([1.0]))

    def test_white_noise_decorrelates(self, rng):
        acf = autocorrelation(rng.normal(size=2000), max_lag=50)
        assert np.all(np.abs(acf[1:]) < 0.15)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality, with NaN == NaN (there is no looser tolerance here)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


@pytest.fixture(scope="module")
def mixed_block():
    """Random, periodic, constant and NaN-gap rows of one odd length.

    701 samples exercises rfft's odd-length bin layout; the NaN row models a
    telemetry gap and must poison its own results only.
    """
    rng = np.random.default_rng(99)
    n = 701
    t = np.arange(n, dtype=np.float64)
    gap = 0.4 + 0.1 * np.sin(2 * np.pi * t / 24)
    gap[200:230] = np.nan
    return np.stack(
        [
            rng.normal(size=n),
            np.sin(2 * np.pi * t / 48) + 0.1 * rng.normal(size=n),
            np.sin(2 * np.pi * t / 288) + 0.7 * np.sin(2 * np.pi * t / 12),
            np.full(n, 0.37),
            np.zeros(n),
            gap,
        ]
    )


class TestBatchedBitCompat:
    """autocorrelation_block must match the scalar path bit for bit."""

    def test_autocorrelation_block(self, mixed_block):
        batched = autocorrelation_block(mixed_block)
        for row, series in enumerate(mixed_block):
            assert bitwise_equal(batched[row], autocorrelation(series)), row

    def test_autocorrelation_block_max_lag(self, mixed_block):
        batched = autocorrelation_block(mixed_block, max_lag=64)
        assert batched.shape == (mixed_block.shape[0], 65)
        for row, series in enumerate(mixed_block):
            assert bitwise_equal(batched[row], autocorrelation(series, max_lag=64))

    def test_autocorrelation_block_rejects_1d(self):
        with pytest.raises(ValueError):
            autocorrelation_block(np.ones(16))

    def test_single_row_block(self, mixed_block):
        one = mixed_block[1:2]
        assert bitwise_equal(autocorrelation_block(one)[0], autocorrelation(one[0]))

    def test_empty_block(self):
        assert autocorrelation_block(np.empty((0, 64))).shape == (0, 33)

