"""Autocorrelation of utilization series: a scalar reference and a short block ACF.

The paper detects diurnal and hourly-peak patterns "using the approach
discussed in [18]" -- Vlachos, Yu and Castelli, *On periodicity detection
and structural periodic similarity* (ICDM 2005), a.k.a. AUTOPERIOD.  Its
two stages are a periodogram-power test and validation on a *hill* (local
maximum) of the autocorrelation function, where a true period lands and a
spectral-leakage artifact does not.  :mod:`repro.core.patterns` runs both
stages only at the two periods the paper's four classes ask about (1 hour
and 1 day).

:func:`autocorrelation` is the scalar ACF ``fig3`` reads and the pattern
classifier's reference path (:func:`~repro.core.patterns.classify_series`)
uses.  :func:`short_acf` is the classifier's batched ACF: it needs lags up
to ``max_lag`` only, so it pads each row to the smaller wrap-free length
:func:`short_acf_length` instead of ``2n``.  Its values differ from
:func:`autocorrelation` in the last bits, never in a label:
``tests/test_patterns.py`` checks the batched classifier against the scalar
one row by row.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Biased sample ACF up to ``max_lag`` (defaults to n // 2)."""
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if n < 2:
        raise ValueError("series too short for autocorrelation")
    if max_lag is None:
        max_lag = n // 2
    x = x - x.mean()
    variance = float(np.dot(x, x))
    if variance == 0:
        return np.zeros(max_lag + 1)
    # FFT-based autocorrelation for O(n log n).
    n_fft = int(2 ** np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(x, n_fft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum))[: max_lag + 1]
    return acov / variance


def short_acf_length(n: int, max_lag: int) -> int:
    """The smallest ``2**k`` or ``3 * 2**k`` that is at least ``n + max_lag``.

    Zero-padding a length-``n`` series to ``n + max_lag`` samples keeps the
    circular autocovariance free of wrap-around up to lag ``max_lag``.  The
    sizes come from a short fixed ladder rather than the exact smallest
    5-smooth size, so the windows of a few hundred distinct lengths a store
    sweep classifies share a handful of FFT plans.
    """
    need = n + max_lag
    size = 1 << (need - 1).bit_length()  # the smallest power of two >= need
    return 3 * size // 4 if 3 * size // 4 >= need else size


def short_acf(xc: np.ndarray, max_lag: int) -> np.ndarray:
    """ACF up to ``max_lag`` of every row of ``xc``, rows centered on their means.

    ``(rows, n)`` in, ``(rows, max_lag + 1)`` out, normalized by lag 0.  A
    row of zero variance comes out NaN: the classifier decides those rows
    on their std before it asks for an ACF.
    """
    n_fft = short_acf_length(xc.shape[1], max_lag)
    spectrum = np.fft.rfft(xc, n_fft, axis=1)
    power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
    acov = np.fft.irfft(power, n_fft, axis=1)[:, : max_lag + 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        return acov / acov[:, :1]
