"""Unit tests for the scalar autocorrelation and the classifier's short block ACF."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.periodicity import autocorrelation, short_acf, short_acf_length


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
            gap,
        ]
    )


class TestShortAcf:
    """The classifier's wrap-free ACF: scalar values to rounding, few FFT sizes."""

    def test_length_ladder(self):
        sizes = set()
        for n in range(576, 2017):
            max_lag = min(n // 2, 576)
            size = short_acf_length(n, max_lag)
            assert size >= n + max_lag
            k = size.bit_length() - 1
            assert size in (1 << k, 3 << (k - 1))
            next_down = 3 << (k - 2) if size == 1 << k else 1 << k
            assert next_down < n + max_lag  # the smallest rung long enough
            sizes.add(size)
        assert sizes == {1024, 1536, 2048, 3072}
        assert short_acf_length(2016, 576) == 3072

    @pytest.mark.parametrize("max_lag", [64, 350])
    def test_close_to_scalar(self, mixed_block, max_lag):
        rows = mixed_block[:3]
        acf = short_acf(rows - rows.mean(axis=1, keepdims=True), max_lag)
        assert acf.shape == (3, max_lag + 1)
        for got, series in zip(acf, rows):
            expected = autocorrelation(series, max_lag=max_lag)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
            assert got[0] == 1.0

    def test_degenerate_rows_are_nan(self, mixed_block):
        rows = mixed_block[3:]  # constant, NaN gap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acf = short_acf(rows - rows.mean(axis=1, keepdims=True), 64)
        assert np.isnan(acf).all()

    def test_empty_block(self):
        assert short_acf(np.empty((0, 64)), 32).shape == (0, 33)
