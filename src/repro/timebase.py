"""Common time conventions used across the simulator and analyses.

The paper studies a single ordinary week of telemetry.  We mirror that: all
simulation times are seconds relative to the start of the observation window,
which is defined to be **Monday 00:00 UTC**.  Utilization is reported as
5-minute averages, exactly like the dataset described in Section II of the
paper.

Regions carry a UTC offset so that "region-local" diurnal behaviour (user
activity following the local clock) can be modelled and then detected by the
analyses in Sections III-B and IV.
"""

from __future__ import annotations

import numpy as np

SECONDS_PER_MINUTE = 60
SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

#: Telemetry cadence: "the average resource utilization of VMs (reported
#: every 5 minutes)" -- Section II.
SAMPLE_PERIOD = 5 * SECONDS_PER_MINUTE

#: Number of utilization samples in one observation week.
SAMPLES_PER_WEEK = SECONDS_PER_WEEK // SAMPLE_PERIOD
SAMPLES_PER_DAY = SECONDS_PER_DAY // SAMPLE_PERIOD
SAMPLES_PER_HOUR = SECONDS_PER_HOUR // SAMPLE_PERIOD

def sample_times(n_samples: int = SAMPLES_PER_WEEK) -> np.ndarray:
    """Return the UTC timestamps (seconds) of ``n_samples`` telemetry samples.

    Each sample is stamped at the *start* of its 5-minute averaging window.
    """
    return SAMPLE_PERIOD * np.arange(n_samples, dtype=np.float64)


def hour_of_day(times: np.ndarray, *, tz_offset_hours: float = 0.0) -> np.ndarray:
    """Local hour-of-day in ``[0, 24)`` for UTC ``times`` (seconds)."""
    local = np.asarray(times, dtype=np.float64) + tz_offset_hours * SECONDS_PER_HOUR
    return (local % SECONDS_PER_DAY) / SECONDS_PER_HOUR


def day_of_week(times: np.ndarray, *, tz_offset_hours: float = 0.0) -> np.ndarray:
    """Local day-of-week (0 = Monday) for UTC ``times`` (seconds).

    Days may be negative or exceed 6 for times outside the window; they are
    wrapped modulo 7 so that weekly periodicity is preserved.
    """
    local = np.asarray(times, dtype=np.float64) + tz_offset_hours * SECONDS_PER_HOUR
    return (np.floor_divide(local, SECONDS_PER_DAY)).astype(np.int64) % 7
