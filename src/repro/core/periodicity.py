"""Period detection for utilization series.

The paper classifies diurnal and hourly-peak patterns "using the approach
discussed in [18]" -- Vlachos, Yu and Castelli, *On periodicity detection
and structural periodic similarity* (ICDM 2005), a.k.a. AUTOPERIOD.  The
algorithm has two stages:

1. **Candidate extraction**: pick periodogram peaks whose power exceeds a
   significance threshold (we use the maximum periodogram power of shuffled
   surrogates at a configurable percentile, the paper's Monte-Carlo
   significance test).
2. **Validation on the ACF**: a true period lands on a *hill* (local
   maximum) of the autocorrelation function; spectral leakage artifacts land
   in valleys and are discarded.  The candidate is refined to the nearest
   ACF hill.

Two implementations are provided for the expensive spectral stages: the
scalar functions below (the reference path, one series at a time) and
``*_block`` variants that run one rFFT over a 2-D block of equal-length
series.  NumPy's pocketfft applies the identical kernel per row, and every
other batched step (row means, broadcast centering, per-row BLAS dots) was
chosen so the block path is **bitwise identical** to the scalar path --
``tests/test_periodicity.py`` asserts it on random, constant and NaN-gap
fixtures.  Batching matters because classification at trace scale calls
this once per VM: the surrogate significance test alone is ``n_surrogates``
FFTs per series, which the block path turns into ``n_surrogates`` batched
FFTs per population chunk (see :func:`detect_periods_block`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DetectedPeriod:
    """One validated period, in samples."""

    period_samples: float
    #: Normalized periodogram power of the originating candidate.
    power: float
    #: Autocorrelation value at the validated lag.
    acf_value: float


def periodogram_candidates(
    series: np.ndarray,
    *,
    max_candidates: int = 8,
    significance: float = 0.99,
    n_surrogates: int = 20,
    rng: np.random.Generator | None = None,
) -> list[tuple[float, float]]:
    """Stage 1: ``(period_samples, power)`` candidates from the periodogram.

    The power threshold is the ``significance`` quantile of the maximum
    periodogram power over ``n_surrogates`` random permutations of the
    series (permutation destroys temporal structure but preserves the value
    distribution).
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    n = x.size
    if n < 8:
        return []
    x = x - x.mean()
    if np.allclose(x, 0.0):
        return []
    spectrum = np.abs(np.fft.rfft(x)) ** 2 / n
    spectrum[0] = 0.0

    rng = rng or np.random.default_rng(0)
    surrogate_maxima = np.empty(n_surrogates)
    shuffled = x.copy()
    for i in range(n_surrogates):
        rng.shuffle(shuffled)
        surrogate_spectrum = np.abs(np.fft.rfft(shuffled)) ** 2 / n
        surrogate_spectrum[0] = 0.0
        surrogate_maxima[i] = surrogate_spectrum.max()
    threshold = float(np.quantile(surrogate_maxima, significance))

    candidate_bins = np.where(spectrum > threshold)[0]
    if candidate_bins.size == 0:
        return []
    # Strongest first, cap the list.
    order = np.argsort(spectrum[candidate_bins])[::-1][:max_candidates]
    candidates = []
    for bin_idx in candidate_bins[order]:
        if bin_idx == 0:
            continue
        period = n / bin_idx
        candidates.append((float(period), float(spectrum[bin_idx])))
    return candidates


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


def _is_on_hill(acf: np.ndarray, lag: int, *, search: int) -> tuple[bool, int]:
    """Whether ``lag`` is near a local ACF maximum; returns the hill lag."""
    lo = max(1, lag - search)
    hi = min(acf.size - 2, lag + search)
    if hi <= lo:
        return False, lag
    window = acf[lo : hi + 1]
    peak_offset = int(np.argmax(window))
    peak_lag = lo + peak_offset
    # Hill test: the peak must be a genuine local maximum.
    if 0 < peak_lag < acf.size - 1:
        if acf[peak_lag] >= acf[peak_lag - 1] and acf[peak_lag] >= acf[peak_lag + 1]:
            return True, peak_lag
    return False, lag


def detect_periods(
    series: np.ndarray,
    *,
    min_acf: float = 0.15,
    max_candidates: int = 8,
    significance: float = 0.99,
    rng: np.random.Generator | None = None,
) -> list[DetectedPeriod]:
    """Full AUTOPERIOD: candidates validated and refined on ACF hills.

    Returns validated periods sorted by periodogram power (strongest first).
    Duplicate hills are collapsed to the strongest candidate.
    """
    x = np.asarray(series, dtype=np.float64).ravel()
    candidates = periodogram_candidates(
        x, max_candidates=max_candidates, significance=significance, rng=rng
    )
    if not candidates:
        return []
    acf = autocorrelation(x)
    results: dict[int, DetectedPeriod] = {}
    for period, power in candidates:
        lag = int(round(period))
        if lag < 2 or lag >= acf.size:
            continue
        search = max(1, lag // 8)
        on_hill, hill_lag = _is_on_hill(acf, lag, search=search)
        if not on_hill:
            continue
        if acf[hill_lag] < min_acf:
            continue
        existing = results.get(hill_lag)
        if existing is None or power > existing.power:
            results[hill_lag] = DetectedPeriod(
                period_samples=float(hill_lag),
                power=power,
                acf_value=float(acf[hill_lag]),
            )
    return sorted(results.values(), key=lambda p: p.power, reverse=True)


# ----------------------------------------------------------------------
# batched (2-D block) variants of the spectral stages
# ----------------------------------------------------------------------

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
    xc = x - x.mean(axis=1, keepdims=True)
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
    out = np.zeros((x.shape[0], max_lag + 1))
    live = variance != 0
    out[live] = acov[live] / variance[live, None]
    return out


def _surrogate_permutations(
    n: int, n_surrogates: int, rng: np.random.Generator
) -> np.ndarray:
    """The index form of stage 1's cumulative in-place shuffle sequence.

    ``rng.shuffle`` consumes randomness as a function of the array *length*
    only, so applying the same shuffle sequence to ``arange(n)`` yields, for
    every surrogate ``i``, the index array with ``x[idx[i]]`` equal to the
    scalar path's ``i``-times-shuffled copy of ``x`` -- which is what lets a
    whole block share one permutation set when each scalar call would have
    used its own fresh ``default_rng(0)``.
    """
    idx = np.arange(n)
    perms = np.empty((n_surrogates, n), dtype=np.intp)
    for i in range(n_surrogates):
        rng.shuffle(idx)
        perms[i] = idx
    return perms


def periodogram_candidates_block(
    block: np.ndarray,
    *,
    max_candidates: int = 8,
    significance: float = 0.99,
    n_surrogates: int = 20,
) -> list[list[tuple[float, float]]]:
    """Stage-1 candidates for every row of ``block``, batched.

    Bitwise identical to :func:`periodogram_candidates` per row with its
    default (fresh, seed-0) surrogate generator.  A caller-supplied shared
    ``rng`` cannot be batched -- its state would differ per series -- so this
    variant intentionally has no ``rng`` parameter.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {x.shape}")
    n_series, n = x.shape
    if n < 8 or n_series == 0:
        return [[] for _ in range(n_series)]
    xc = x - x.mean(axis=1, keepdims=True)
    live = np.array([not np.allclose(row, 0.0) for row in xc])
    spectra = np.abs(np.fft.rfft(xc, axis=1)) ** 2 / n
    spectra[:, 0] = 0.0

    perms = _surrogate_permutations(n, n_surrogates, np.random.default_rng(0))
    maxima = np.empty((n_series, n_surrogates))
    for i in range(n_surrogates):
        # One batched FFT per surrogate, not one per series.
        surrogate = np.abs(np.fft.rfft(xc[:, perms[i]], axis=1)) ** 2 / n
        surrogate[:, 0] = 0.0
        maxima[:, i] = surrogate.max(axis=1)

    out: list[list[tuple[float, float]]] = []
    for row in range(n_series):
        if not live[row]:
            out.append([])
            continue
        spectrum = spectra[row]
        threshold = float(np.quantile(maxima[row], significance))
        candidate_bins = np.where(spectrum > threshold)[0]
        if candidate_bins.size == 0:
            out.append([])
            continue
        order = np.argsort(spectrum[candidate_bins])[::-1][:max_candidates]
        candidates = []
        for bin_idx in candidate_bins[order]:
            if bin_idx == 0:
                continue
            period = n / bin_idx
            candidates.append((float(period), float(spectrum[bin_idx])))
        out.append(candidates)
    return out


def detect_periods_block(
    block: np.ndarray,
    *,
    min_acf: float = 0.15,
    max_candidates: int = 8,
    significance: float = 0.99,
) -> list[list[DetectedPeriod]]:
    """Full AUTOPERIOD over every row of ``block`` with batched FFTs.

    Bitwise identical to :func:`detect_periods` per row (with the default
    per-call surrogate generator).  The ACF is computed only for rows that
    produced stage-1 candidates, exactly as the scalar path skips it.
    """
    x = np.asarray(block, dtype=np.float64)
    candidates_per_row = periodogram_candidates_block(
        x, max_candidates=max_candidates, significance=significance
    )
    rows_with = [i for i, c in enumerate(candidates_per_row) if c]
    results: list[list[DetectedPeriod]] = [[] for _ in candidates_per_row]
    if not rows_with:
        return results
    acf_block = autocorrelation_block(x[rows_with])
    for acf, row in zip(acf_block, rows_with, strict=True):
        validated: dict[int, DetectedPeriod] = {}
        for period, power in candidates_per_row[row]:
            lag = int(round(period))
            if lag < 2 or lag >= acf.size:
                continue
            search = max(1, lag // 8)
            on_hill, hill_lag = _is_on_hill(acf, lag, search=search)
            if not on_hill:
                continue
            if acf[hill_lag] < min_acf:
                continue
            existing = validated.get(hill_lag)
            if existing is None or power > existing.power:
                validated[hill_lag] = DetectedPeriod(
                    period_samples=float(hill_lag),
                    power=power,
                    acf_value=float(acf[hill_lag]),
                )
        results[row] = sorted(
            validated.values(), key=lambda p: p.power, reverse=True
        )
    return results


def has_period(
    series: np.ndarray,
    period_samples: float,
    *,
    tolerance: float = 0.15,
    min_acf: float = 0.15,
    rng: np.random.Generator | None = None,
) -> bool:
    """Whether a validated period close to ``period_samples`` exists.

    ``tolerance`` is relative: a detected period within
    ``period_samples * (1 +/- tolerance)`` counts as a match.
    """
    for detected in detect_periods(series, min_acf=min_acf, rng=rng):
        if abs(detected.period_samples - period_samples) <= tolerance * period_samples:
            return True
    return False
