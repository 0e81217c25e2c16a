"""Time-series utilities: hourly counts, occupancy, percentile bands.

These back the temporal-domain figures:

* Fig. 3(b) "normalized VM counts per hour" -- :func:`hourly_occupancy`;
* Fig. 3(c) "numbers of VMs created per hour" -- :func:`hourly_event_counts`;
* Fig. 6 weekly/daily utilization percentile distributions --
  :func:`percentile_bands`, whose quantiles :func:`sorted_percentile` reads
  off sorted values (the knowledge base's p95 reads them the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.timebase import SECONDS_PER_HOUR


def hourly_event_counts(
    event_times: np.ndarray,
    *,
    duration: float,
    start: float = 0.0,
) -> np.ndarray:
    """Count events per UTC hour over ``[start, start + duration)``.

    Events outside the window are ignored.  Returns an integer array with one
    entry per hour.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n_hours = int(np.ceil(duration / SECONDS_PER_HOUR))
    times = np.asarray(event_times, dtype=np.float64).ravel()
    times = times[(times >= start) & (times < start + duration)]
    idx = ((times - start) // SECONDS_PER_HOUR).astype(np.int64)
    return np.bincount(idx, minlength=n_hours)[:n_hours]


def hourly_occupancy(
    start_times: np.ndarray,
    end_times: np.ndarray,
    *,
    duration: float,
    start: float = 0.0,
) -> np.ndarray:
    """Number of intervals alive at the start of each hour.

    ``start_times[i]``/``end_times[i]`` delimit one VM's life; ``end`` may be
    ``inf`` (or ``nan``, treated as ``inf``) for VMs that outlive the window.
    A VM is counted in hour ``h`` when it is alive at the hour boundary,
    which matches the hourly inventory snapshots behind Fig. 3(b).
    """
    starts = np.asarray(start_times, dtype=np.float64).ravel()
    ends = np.asarray(end_times, dtype=np.float64).ravel()
    if starts.shape != ends.shape:
        raise ValueError(f"shape mismatch: {starts.shape} vs {ends.shape}")
    ends = np.where(np.isnan(ends), np.inf, ends)
    # An inverted interval (end < start) is never alive; clamping it to the
    # empty interval [start, start) preserves that under the counting below.
    ends = np.maximum(ends, starts)
    n_hours = int(np.ceil(duration / SECONDS_PER_HOUR))
    boundaries = start + SECONDS_PER_HOUR * np.arange(n_hours, dtype=np.float64)
    # alive at boundary b  <=>  start <= b < end, so the count at b is
    # #{start <= b} - #{end <= b}.  Two sorts plus two searchsorted passes
    # keep this O((n_vms + n_hours) log n_vms) time and O(n_vms + n_hours)
    # memory; the dense (n_hours, n_vms) boolean matrix this replaces was
    # O(n_hours * n_vms) and dominated the fig3b footprint at scale.
    # np.sort (not .sort()) -- `starts` may alias the caller's array.
    n_started = np.searchsorted(np.sort(starts), boundaries, side="right")
    n_ended = np.searchsorted(np.sort(ends), boundaries, side="right")
    return n_started - n_ended


@dataclass(frozen=True)
class PercentileBands:
    """Per-timestamp percentiles across a population of series (Fig. 6)."""

    percentiles: tuple[float, ...]
    #: ``bands[i]`` is the time series of the ``percentiles[i]``-th percentile.
    bands: np.ndarray
    n_series: int

    def band(self, percentile: float) -> np.ndarray:
        """Return the series for one of the configured percentiles."""
        try:
            idx = self.percentiles.index(percentile)
        except ValueError as exc:
            raise KeyError(
                f"percentile {percentile} not computed; have {self.percentiles}"
            ) from exc
        return self.bands[idx]


def percentile_bands(
    series_matrix: np.ndarray,
    percentiles: tuple[float, ...] = (25.0, 50.0, 75.0, 95.0),
) -> PercentileBands:
    """Cross-sectional percentiles of ``series_matrix`` (rows = series).

    For each time step ``t``, computes the requested percentiles over the
    population ``series_matrix[:, t]``.  This is exactly the construction of
    Fig. 6: the distribution of CPU utilization across VMs, tracked over
    time.

    NaN samples (gaps in a VM's telemetry) are excluded per time step rather
    than poisoning the whole column: a single missing reading used to turn
    every percentile at that timestamp into NaN.  A column where *every*
    series is NaN has no distribution to summarize and stays NaN in all
    bands (no RuntimeWarning is emitted for it).

    Each time column is sorted first, in the input dtype and a contiguous
    ``(T, n)`` layout.  A quantile depends only on its column's multiset of
    values, so the bands are bitwise those of the float64 matrix along
    axis 0.  Without NaNs every quantile is read straight off the sorted
    rows (:func:`sorted_percentile`) instead of partitioning them again.
    """
    matrix = np.asarray(series_matrix)
    if matrix.ndim != 2:
        raise ValueError("series_matrix must be 2-D (series x time)")
    if matrix.shape[0] == 0:
        raise ValueError("need at least one series")
    columns = np.array(matrix.T, order="C")  # a copy: sorted in place below
    columns.sort(axis=1)  # NaN sorts last
    if np.isnan(columns[:, -1]).any():
        columns = columns.astype(np.float64, copy=False)
        bands = np.full((len(percentiles), columns.shape[0]), np.nan)
        has_data = ~np.isnan(columns[:, 0])
        if has_data.any():
            bands[:, has_data] = np.nanpercentile(
                columns[has_data], percentiles, axis=1, overwrite_input=True
            )
    else:
        # Only the order statistics read are cast to float64, not the whole
        # sorted block.  A partition is no faster than the sort: on a
        # 720 x 2016 float32 block (2-vCPU Xeon, AVX-512) the sort takes
        # 4.6 ms, a partition at one rank 4.5 ms and at fig6's eight 50 ms.
        bands = sorted_percentile(columns, percentiles, dtype=np.float64)
    return PercentileBands(
        percentiles=tuple(float(p) for p in percentiles),
        bands=bands,
        n_series=int(matrix.shape[0]),
    )


def sorted_percentile(sorted_values: np.ndarray, percentiles, *, dtype=None):
    """``np.percentile(values, percentiles, axis=-1)`` of values already sorted.

    ``sorted_values`` is a non-empty 1-D array, or 2-D with each row
    sorted; ``percentiles`` is a Python number or a sequence of them.
    NumPy's default (linear) method, step for step, so the result is
    bitwise the same: the virtual index ``(n - 1) * q``, its floor and the
    next index (both the last one at or past the end), and ``_lerp``'s two
    formulas, ``a + d * g`` and, where ``g >= 0.5``, ``b - d * (1 - g)``.
    Reading the two neighbours off sorted values replaces NumPy's
    partition, and each percentile's index arithmetic runs on Python
    floats, which is the same float64 arithmetic without NumPy's per-call
    overhead.

    A Python number keeps NumPy's weak promotion: the arithmetic stays in
    the values' dtype (float32 for telemetry) and the result is a scalar.
    A sequence gives float64 weights and a result of shape
    ``(len(percentiles), ...)``.  ``dtype`` casts only the order
    statistics read, so the result is that of ``values.astype(dtype)``.
    NaN sorts last, and a row that holds one gives NaN, as in NumPy.  (A
    sort may order ``-0.0`` and ``0.0`` differently from a partition;
    telemetry holds no negative zeros.)
    """
    values = np.asarray(sorted_values)
    if values.ndim > 2:
        raise ValueError("sorted_values must be 1-D or 2-D")
    if type(percentiles) in (int, float):
        return _read_sorted(values, percentiles / 100, float, dtype)
    reads = [_read_sorted(values, p / 100, np.float64, dtype) for p in percentiles]
    return np.array(reads) if reads else np.empty((0,) + values.shape[:-1])


def _read_sorted(values: np.ndarray, q, weight: type, dtype):
    """Quantile ``q`` of sorted ``values``, its lerp weight of type ``weight``."""
    if not 0 <= q <= 1:
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = values.shape[-1]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = lo = hi = -1
    else:
        below = lo = math.floor(virtual)
        hi = lo + 1
    a, b, last = values[..., lo], values[..., hi], values[..., -1]
    if dtype is not None:
        a, b, last = a.astype(dtype), b.astype(dtype), last.astype(dtype)
    gamma = weight(virtual - below)
    diff = b - a
    out = b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma
    has_nan = np.isnan(last)
    return np.where(has_nan, last, out)[()] if has_nan.any() else out


def fold_daily(series: np.ndarray, samples_per_day: int) -> np.ndarray:
    """Average a week-long series into a single representative day.

    Used for the "within a day" panels of Fig. 6(c, d): the weekly series is
    folded modulo one day and averaged across days.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    if samples_per_day <= 0:
        raise ValueError("samples_per_day must be positive")
    n_full_days = series.size // samples_per_day
    if n_full_days == 0:
        raise ValueError("series shorter than one day")
    trimmed = series[: n_full_days * samples_per_day]
    return trimmed.reshape(n_full_days, samples_per_day).mean(axis=0)
