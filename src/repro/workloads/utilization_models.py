"""Synthetic 5-minute CPU utilization series for the four canonical patterns.

Section IV-A classifies VM CPU utilization into *diurnal*, *stable*,
*irregular* and *hourly-peak*.  The models here generate each shape with the
quantitative features the paper describes:

* diurnal: ~60% weekday peaks vs ~20% weekend peaks, low nights (Fig. 5a);
* stable: small standard deviation around a constant level (Fig. 5b top);
* irregular: <10% most of the time with unannounced spikes above 60%
  (Fig. 5b bottom);
* hourly-peak: "regular peaks at the beginning of the hour/half-hour"
  driven by meeting joins (Fig. 5c), with a working-hours envelope.

Correlation structure (the input to Section IV-B) is controlled by the
*shared-signal* mechanism: VMs of the same service draw the same base signal
plus idiosyncratic noise, so co-located private VMs correlate strongly while
diverse public VMs do not.  Region-agnostic services use one global clock for
the signal in every region (the geo-load-balancer of the ServiceX case
study); region-sensitive services follow region-local time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timebase import SECONDS_PER_HOUR, day_of_week, hour_of_day

#: Scale of a stable signal's slow random walk.
STABLE_WOBBLE = 0.01
#: Idle level of an irregular signal.
IRREGULAR_BASE_LEVEL = 0.05
#: Mean spikes per day of an irregular signal in the batched synthesis.
SPIKE_RATE_PER_DAY = 1.5
#: Range of an irregular spike's height, drawn uniformly.
SPIKE_HEIGHT = (0.45, 0.9)
#: Shortest and longest irregular spike, in samples.
SPIKE_DURATION_SAMPLES = (2, 12)
#: Hourly-peak signal: level between meetings, hour- and half-hour-mark peak
#: heights over it, and how many samples each peak lasts.
HOURLY_BASE_LEVEL = 0.08
HOUR_PEAK_HEIGHT = 0.60
HALF_HOUR_PEAK_HEIGHT = 0.40
PEAK_WIDTH_SAMPLES = 2


def diurnal_signal(
    times: np.ndarray,
    *,
    tz_offset_hours: float,
    peak_hour: float = 14.0,
    night_level: float = 0.05,
    weekday_peak: float = 0.60,
    weekend_peak: float = 0.20,
    sharpness: float = 2.0,
    phase_jitter_hours: float = 0.0,
    holiday_week: bool = False,
    clock: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Daily-periodic utilization: high during local daytime, low at night.

    ``holiday_week`` models the seasonality caveat of Section VII: every day
    behaves like a weekend (reduced user activity).  ``clock`` optionally
    supplies precomputed ``(hour_of_day, day_of_week)`` arrays for ``times``
    under ``tz_offset_hours``, so callers synthesizing many signals on the
    same sample grid can share one clock computation per timezone.
    """
    if clock is None:
        hours = hour_of_day(times, tz_offset_hours=tz_offset_hours)
        days = day_of_week(times, tz_offset_hours=tz_offset_hours)
    else:
        hours, days = clock
    bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (hours - peak_hour - phase_jitter_hours) / 24.0))
    if sharpness == 2.0:
        bump = bump * bump
    else:
        bump = bump**sharpness
    if holiday_week:
        peak = np.full(times.shape[0], weekend_peak)
    else:
        # days are 0..6 with Saturday=5, Sunday=6.
        peak = np.where(days >= 5, weekend_peak, weekday_peak)
    return night_level + (peak - night_level) * bump


def stable_signal(
    times: np.ndarray,
    *,
    level: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Near-constant utilization with a tiny slow wobble."""
    rng = rng or np.random.default_rng(0)
    n = times.shape[0]
    # Slow random walk, heavily smoothed so the std stays small.
    walk = np.cumsum(rng.normal(0.0, STABLE_WOBBLE / 10.0, size=n))
    walk -= np.linspace(walk[0], walk[-1], n)  # detrend to stay near level
    return np.clip(level + walk, 0.0, 1.0)


def irregular_signal(
    times: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mostly idle utilization with unannounced short spikes."""
    rng = rng or np.random.default_rng(0)
    n = times.shape[0]
    series = np.full(n, IRREGULAR_BASE_LEVEL, dtype=np.float64)
    window_days = (times[-1] - times[0]) / (24 * SECONDS_PER_HOUR) if n > 1 else 0.0
    n_spikes = int(rng.poisson(max(0.0, SPIKE_RATE_PER_DAY * window_days)))
    for _ in range(n_spikes):
        start = int(rng.integers(0, n))
        width = int(rng.integers(SPIKE_DURATION_SAMPLES[0], SPIKE_DURATION_SAMPLES[1] + 1))
        height = float(rng.uniform(*SPIKE_HEIGHT))
        series[start : start + width] = np.maximum(series[start : start + width], height)
    return series


def hourly_peak_signal(
    times: np.ndarray,
    *,
    tz_offset_hours: float,
    envelope_peak_hour: float = 13.0,
    holiday_week: bool = False,
    clock: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Meeting-join peaks at hour/half-hour marks under a working-hours envelope.

    Hour-mark peaks are taller than half-hour peaks (more meetings start on
    the hour), so the fundamental period stays at one hour as the paper's
    period detector (period = 1 h) expects.
    """
    sample_period = float(times[1] - times[0]) if times.shape[0] > 1 else 300.0
    seconds_into_hour = np.mod(times, SECONDS_PER_HOUR)
    on_hour = seconds_into_hour < PEAK_WIDTH_SAMPLES * sample_period
    half = np.mod(times - SECONDS_PER_HOUR / 2, SECONDS_PER_HOUR)
    on_half_hour = half < PEAK_WIDTH_SAMPLES * sample_period

    # Envelope: meetings happen during the local working day.
    envelope = diurnal_signal(
        times,
        tz_offset_hours=tz_offset_hours,
        peak_hour=envelope_peak_hour,
        night_level=0.05,
        weekday_peak=1.0,
        weekend_peak=0.15,
        sharpness=2.0,
        holiday_week=holiday_week,
        clock=clock,
    )
    series = np.full(times.shape[0], HOURLY_BASE_LEVEL, dtype=np.float64)
    series = np.where(
        on_half_hour, HOURLY_BASE_LEVEL + HALF_HOUR_PEAK_HEIGHT * envelope, series
    )
    series = np.where(on_hour, HOURLY_BASE_LEVEL + HOUR_PEAK_HEIGHT * envelope, series)
    return series


@dataclass(frozen=True)
class NoiseParams:
    """Per-VM deviation from the shared service signal."""

    #: Multiplicative scale drawn per VM: lognormal(0, scale_sigma).
    scale_sigma: float = 0.10
    #: Additive white-noise sigma per sample.
    additive_sigma: float = 0.02


def vm_series_from_signal(
    signal: np.ndarray,
    *,
    noise: NoiseParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Derive one VM's series from its service's shared signal.

    ``series = clip(scale * signal + eps)`` -- the idiosyncratic terms are
    what separates the private cloud's high node-level correlation (small
    noise, shared signal) from the public cloud's near-zero one (each VM has
    its own signal or heavy noise).
    """
    scale = float(rng.lognormal(0.0, noise.scale_sigma))
    eps = rng.normal(0.0, noise.additive_sigma, size=signal.shape[0])
    return np.clip(scale * signal + eps, 0.0, 1.0)


def mask_to_lifetime(
    series: np.ndarray,
    times: np.ndarray,
    *,
    created_at: float,
    ended_at: float,
) -> np.ndarray:
    """Zero out samples outside the VM's life ``[created_at, ended_at)``."""
    alive = (times >= created_at) & (times < ended_at)
    return np.where(alive, series, 0.0)


# ----------------------------------------------------------------------
# batched (one-matrix-per-group) variants used by the generator fast path
# ----------------------------------------------------------------------
def _block_out(
    out: np.ndarray | None, n_series: int, n_samples: int
) -> np.ndarray:
    """Validate or allocate the ``(n, T)`` float32 target of a block helper."""
    if out is None:
        return np.empty((n_series, n_samples), dtype=np.float32)
    if out.shape != (n_series, n_samples) or out.dtype != np.float32:
        raise ValueError(
            f"out must be float32 with shape {(n_series, n_samples)}, "
            f"got {out.dtype} {out.shape}"
        )
    return out


def stable_signal_block(
    times: np.ndarray,
    levels: np.ndarray,
    *,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`stable_signal` for many VMs at once: one ``(n, T)`` matrix.

    Row ``i`` has the same distribution as ``stable_signal(times,
    level=levels[i])``: a heavily smoothed random walk,
    detrended back to its level.  Computed in float32 -- the telemetry
    storage dtype -- directly into ``out`` when given, so callers can fill
    slices of a preallocated matrix without intermediate copies.
    """
    levels = np.asarray(levels, dtype=np.float32).reshape(-1, 1)
    n = times.shape[0]
    walk = _block_out(out, levels.shape[0], n)
    rng.standard_normal(dtype=np.float32, out=walk)
    walk *= np.float32(STABLE_WOBBLE / 10.0)
    np.cumsum(walk, axis=1, out=walk)
    ramp = np.linspace(0.0, 1.0, n, dtype=np.float32)[None, :]
    start = walk[:, :1].copy()
    end = walk[:, -1:].copy()
    walk -= start + (end - start) * ramp
    walk += levels
    return np.clip(walk, 0.0, 1.0, out=walk)


def irregular_spike_counts(
    times: np.ndarray, n_series: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Per-series spike counts for :func:`irregular_signal_block`.

    Chunked callers (the generator's synthesis, spilled or not) draw the
    whole group's counts up front -- the draw order of an unchunked pass --
    and pass ``counts[chunk]`` per call.
    """
    n = times.shape[0]
    window_days = (times[-1] - times[0]) / (24 * SECONDS_PER_HOUR) if n > 1 else 0.0
    return rng.poisson(max(0.0, SPIKE_RATE_PER_DAY * window_days), size=n_series)


def irregular_signal_block(
    times: np.ndarray,
    n_series: int,
    *,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    counts: np.ndarray,
) -> np.ndarray:
    """:func:`irregular_signal` for many VMs at once: one ``(n, T)`` matrix.

    Spike placement stays a (short) per-spike loop -- spikes are rare -- but
    the base matrix is filled in bulk.  ``counts`` holds each row's
    :func:`irregular_spike_counts` draw.
    """
    n = times.shape[0]
    block = _block_out(out, n_series, n)
    block.fill(IRREGULAR_BASE_LEVEL)
    for row, n_spikes in zip(block, counts, strict=True):
        for _ in range(int(n_spikes)):
            start = int(rng.integers(0, n))
            width = int(
                rng.integers(SPIKE_DURATION_SAMPLES[0], SPIKE_DURATION_SAMPLES[1] + 1)
            )
            height = float(rng.uniform(*SPIKE_HEIGHT))
            row[start : start + width] = np.maximum(row[start : start + width], height)
    return block


def vm_series_block_from_signal(
    signal: np.ndarray,
    amplitudes: np.ndarray,
    *,
    additive_sigma: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Derive many VMs' series from one shared signal in a single matrix op.

    Row ``i`` is ``amplitudes[i] * signal + eps_i`` with per-row noise sigma
    ``additive_sigma * amplitudes[i]`` -- the amplitude-proportional noise of
    the generator, which keeps the signal-to-noise ratio (and hence
    classifiability and node-level correlation) controlled per cloud.

    ``eps`` is drawn from a **variance-matched uniform** distribution,
    ``U(-sigma * sqrt(3), sigma * sqrt(3))``, not a Gaussian: every analysis
    consuming these series (Pearson correlation, per-VM standard deviation,
    percentile bands, periodicity detection) depends on the idiosyncratic
    noise only through its variance, and bulk uniform variates sample ~5x
    faster than ziggurat normals -- the difference between the batch fast
    path clearing its speedup budget or not.  The per-VM reference path
    (:func:`vm_series_from_signal`) keeps exact Gaussian noise.

    Computed entirely in place via the factoring ``(width * amplitude) *
    (signal / width + u - 1/2)`` with ``width = sigma * sqrt(12)``, so with
    ``out`` given no ``(n, T)`` temporary is allocated and the matrix is
    touched only three times (fill, broadcast-add, broadcast-scale).
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float32).reshape(-1, 1)
    block = _block_out(out, amplitudes.shape[0], signal.shape[0])
    signal32 = signal.astype(np.float32, copy=False)
    # Full width of the uniform whose standard deviation is additive_sigma.
    width = np.float32(additive_sigma * np.sqrt(12.0))
    if width > 0.0:
        rng.random(dtype=np.float32, out=block)
        block += (signal32 / width - np.float32(0.5))[None, :]
        block *= width * amplitudes
    else:
        np.multiply(amplitudes, signal32[None, :], out=block)
    return block


def mask_to_lifetime_block(
    block: np.ndarray,
    times: np.ndarray,
    *,
    created_at: np.ndarray,
    ended_at: np.ndarray,
) -> np.ndarray:
    """:func:`mask_to_lifetime` applied to every row of a ``(n, T)`` block.

    ``created_at`` / ``ended_at`` give row ``i``'s life window; the block is
    masked in place and returned.  ``times`` must be ascending (it is the
    sample grid), which reduces each row's mask to zeroing two contiguous
    slices instead of materializing an ``(n, T)`` boolean matrix.
    """
    created = np.asarray(created_at, dtype=np.float64).ravel()
    ended = np.asarray(ended_at, dtype=np.float64).ravel()
    first_alive = np.searchsorted(times, created, side="left")
    first_dead = np.searchsorted(times, ended, side="left")
    for row, lo, hi in zip(block, first_alive, first_dead, strict=True):
        row[:lo] = 0.0
        row[hi:] = 0.0
    return block
