"""Time-series utilities: hourly counts, occupancy, percentile bands.

These back the temporal-domain figures:

* Fig. 3(b) "normalized VM counts per hour" -- :func:`hourly_occupancy`;
* Fig. 3(c) "numbers of VMs created per hour" -- :func:`hourly_event_counts`;
* Fig. 6 weekly/daily utilization percentile distributions --
  :func:`percentile_bands`.
"""

from __future__ import annotations

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
    rows (:func:`_sorted_quantiles`) instead of partitioning them again.
    """
    matrix = np.asarray(series_matrix)
    if matrix.ndim != 2:
        raise ValueError("series_matrix must be 2-D (series x time)")
    if matrix.shape[0] == 0:
        raise ValueError("need at least one series")
    columns = np.array(matrix.T, order="C")  # a copy: sorted in place below
    columns.sort(axis=1)  # NaN sorts last
    columns = columns.astype(np.float64, copy=False)
    if np.isnan(columns[:, -1]).any():
        bands = np.full((len(percentiles), columns.shape[0]), np.nan)
        has_data = ~np.isnan(columns[:, 0])
        if has_data.any():
            bands[:, has_data] = np.nanpercentile(
                columns[has_data], percentiles, axis=1, overwrite_input=True
            )
    else:
        bands = _sorted_quantiles(columns, percentiles)
    return PercentileBands(
        percentiles=tuple(float(p) for p in percentiles),
        bands=bands,
        n_series=int(matrix.shape[0]),
    )


def _sorted_quantiles(rows: np.ndarray, percentiles: tuple[float, ...]) -> np.ndarray:
    """``np.percentile(rows, percentiles, axis=1)`` of rows already sorted.

    NumPy's default (linear) method, step for step: the virtual index
    ``(n - 1) * q``, its floor and the next index (both the last one at or
    past the end), and ``_lerp``'s two formulas, ``a + d * g`` and, where
    ``g >= 0.5``, ``b - d * (1 - g)``.  Reading the two neighbours off
    sorted rows replaces the partition, so the result is bitwise the same.
    """
    q = np.true_divide(percentiles, 100)
    if q.size and not (q.min() >= 0 and q.max() <= 1):
        raise ValueError("Percentiles must be in the range [0, 100]")
    n = rows.shape[1]
    virtual = (n - 1) * q
    at_end = virtual >= n - 1
    below = np.floor(virtual)
    below[at_end] = -1
    gamma = (virtual - below)[:, None]
    lo = below.astype(np.intp)
    hi = lo + 1
    hi[at_end] = -1
    a, b = rows.T[lo], rows.T[hi]  # (len(q), T)
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


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
