"""Autocorrelation of utilization series, scalar and batched.

The paper detects diurnal and hourly-peak patterns "using the approach
discussed in [18]" -- Vlachos, Yu and Castelli, *On periodicity detection
and structural periodic similarity* (ICDM 2005), a.k.a. AUTOPERIOD.  Its
two stages are a periodogram-power test and validation on a *hill* (local
maximum) of the autocorrelation function, where a true period lands and a
spectral-leakage artifact does not.  :mod:`repro.core.patterns` runs both
stages only at the two periods the paper's four classes ask about (1 hour
and 1 day); this module holds the ACF they share with ``fig3``.

:func:`autocorrelation` is the scalar reference path, one series at a time;
:func:`autocorrelation_block` runs one rFFT over a 2-D block of
equal-length series.  NumPy's pocketfft applies the identical kernel per
row, and every other batched step (row means, broadcast centering, per-row
BLAS dots) was chosen so the block path is **bitwise identical** to the
scalar path -- ``tests/test_periodicity.py`` asserts it on random,
constant and NaN-gap fixtures.
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


def _row_self_dots(block: np.ndarray) -> np.ndarray:
    """``np.dot(row, row)`` per row.

    Deliberately a per-row BLAS ``ddot`` loop rather than ``einsum`` or a
    gemm: on this stack only ``ddot`` reproduces the scalar path's
    accumulation order bit-for-bit, and the loop is negligible next to the
    batched FFTs it accompanies.
    """
    return np.array([np.dot(row, row) for row in block], dtype=np.float64)


def autocorrelation_block(
    block: np.ndarray, max_lag: int | None = None
) -> np.ndarray:
    """Biased sample ACF of every row of ``block``, batched through one FFT.

    ``block`` is ``(n_series, n)``; the result is ``(n_series, max_lag + 1)``
    and is bitwise identical to calling :func:`autocorrelation` per row.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {x.shape}")
    n = x.shape[1]
    if n < 2:
        raise ValueError("series too short for autocorrelation")
    if max_lag is None:
        max_lag = n // 2
    return autocorrelation_centered(x - x.mean(axis=1, keepdims=True), max_lag)


def autocorrelation_centered(xc: np.ndarray, max_lag: int) -> np.ndarray:
    """:func:`autocorrelation_block` of rows already centered on their means.

    The body :func:`autocorrelation_block` runs after centering, exposed so
    the pattern classifier, which centers each tile once for its std and
    spectrum tests too, can hand over its centered rows.
    """
    n = xc.shape[1]
    variance = _row_self_dots(xc)
    n_fft = int(2 ** np.ceil(np.log2(2 * n)))
    spectrum = np.fft.rfft(xc, n_fft, axis=1)
    # The power spectrum is multiplied row by row: numpy's 2-D elementwise
    # complex multiply takes a fused-multiply-add SIMD path whose rounding
    # of the (nominally zero) imaginary part differs from the 1-D loop, and
    # that last-ulp residue survives the inverse FFT.  A row of a 2-D array
    # goes through the same 1-D kernel the scalar path uses.
    power = np.empty_like(spectrum)
    for row in range(spectrum.shape[0]):
        power[row] = spectrum[row] * np.conj(spectrum[row])
    acov = np.fft.irfft(power, axis=1)[:, : max_lag + 1]
    out = np.zeros((xc.shape[0], max_lag + 1))
    live = variance != 0
    out[live] = acov[live] / variance[live, None]
    return out
