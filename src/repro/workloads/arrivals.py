"""Arrival processes for VM creations.

Two temporal shapes matter in the paper (Fig. 3c):

* the **public** cloud's creations "follow a clear and stable diurnal
  pattern" -- a non-homogeneous Poisson process (NHPP) whose rate tracks the
  region-local working day;
* the **private** cloud's creations "usually stay at a low amplitude with
  little variation, [but] bursts in which a large number of new VMs are
  created occasionally are observed" -- a low constant-rate process overlaid
  with burst episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.timebase import SECONDS_PER_HOUR, day_of_week, hour_of_day

RateCurve = Callable[[np.ndarray], np.ndarray]


def homogeneous_poisson(
    rate_per_hour: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a constant-rate Poisson process on ``[0, duration)``."""
    if rate_per_hour < 0:
        raise ValueError("rate must be non-negative")
    if rate_per_hour == 0 or duration <= 0:
        return np.empty(0, dtype=np.float64)
    rate_per_second = rate_per_hour / SECONDS_PER_HOUR
    n_expected = rate_per_second * duration
    # Draw with headroom, then trim; repeat in the unlikely short case.
    times: list[np.ndarray] = []
    t = 0.0
    while t < duration:
        n_draw = max(16, int(n_expected * 1.5) + 16)
        gaps = rng.exponential(1.0 / rate_per_second, size=n_draw)
        chunk = t + np.cumsum(gaps)
        times.append(chunk)
        t = float(chunk[-1])
    all_times = np.concatenate(times)
    return all_times[all_times < duration]


def nhpp(
    rate_curve: RateCurve,
    max_rate_per_hour: float,
    duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Arrival times of an NHPP via Lewis-Shedler thinning.

    ``rate_curve`` maps an array of times (seconds) to instantaneous rates in
    events/hour, bounded above by ``max_rate_per_hour``.
    """
    if max_rate_per_hour <= 0:
        return np.empty(0, dtype=np.float64)
    candidates = homogeneous_poisson(max_rate_per_hour, duration, rng)
    if candidates.size == 0:
        return candidates
    rates = np.asarray(rate_curve(candidates), dtype=np.float64)
    if np.any(rates > max_rate_per_hour * (1 + 1e-9)):
        raise ValueError("rate_curve exceeds max_rate_per_hour; thinning is biased")
    keep = rng.random(candidates.size) < rates / max_rate_per_hour
    return candidates[keep]


def diurnal_rate_curve(
    *,
    base_per_hour: float,
    peak_per_hour: float,
    tz_offset_hours: float,
    peak_hour: float = 14.0,
    weekend_factor: float = 0.5,
    holiday_week: bool = False,
) -> RateCurve:
    """A creation-rate curve following the local working day.

    Raised-cosine bump peaking at ``peak_hour`` local time, damped on
    weekends -- the public cloud's "clear and stable diurnal pattern".
    """
    if peak_per_hour < base_per_hour:
        raise ValueError("peak rate must be >= base rate")

    def curve(times: np.ndarray) -> np.ndarray:
        hours = hour_of_day(times, tz_offset_hours=tz_offset_hours)
        days = day_of_week(times, tz_offset_hours=tz_offset_hours)
        bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (hours - peak_hour) / 24.0))
        rates = base_per_hour + (peak_per_hour - base_per_hour) * bump
        if holiday_week:
            rates = rates * weekend_factor
        else:
            rates = np.where(np.isin(days, (5, 6)), rates * weekend_factor, rates)
        return rates

    return curve


@dataclass(frozen=True)
class BurstEpisode:
    """One private-cloud deployment burst: many VMs created at once."""

    time: float
    size: int


def sample_burst_episodes(
    *,
    episodes_per_week: float,
    size_median: float,
    size_sigma: float,
    duration: float,
    rng: np.random.Generator,
    max_size: int = 2000,
) -> list[BurstEpisode]:
    """Draw burst episodes: Poisson count, uniform times, log-normal sizes.

    These are the "occasional bursts ... mainly caused by the deployment
    behavior of some large services" (Section III-B).
    """
    from repro.timebase import SECONDS_PER_WEEK

    mean_count = episodes_per_week * duration / SECONDS_PER_WEEK
    n_episodes = int(rng.poisson(mean_count))
    episodes = []
    for _ in range(n_episodes):
        time = float(rng.uniform(0.0, duration))
        size = int(round(rng.lognormal(np.log(size_median), size_sigma)))
        size = int(np.clip(size, 1, max_size))
        episodes.append(BurstEpisode(time=time, size=size))
    episodes.sort(key=lambda e: e.time)
    return episodes
