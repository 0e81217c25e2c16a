"""Fig. 6: CPU utilization distributions over a week and within a day.

Anchors: the 75th percentile stays below ~30% in both clouds; the public
cloud's bands are more stable over the week (private dips on weekends); the
private cloud's daily median follows a working-hour pattern while the
public cloud's is almost constant.
"""

from __future__ import annotations

import numpy as np

from repro.core import utilization as util
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY


def _weekend_dip(band: np.ndarray, sample_period: float) -> float:
    """Relative drop of a percentile band on the weekend vs weekdays."""
    samples_per_day = int(SECONDS_PER_DAY // sample_period)
    weekday = band[: 5 * samples_per_day]
    weekend = band[5 * samples_per_day : 7 * samples_per_day]
    if weekday.size == 0 or weekend.size == 0 or weekday.mean() == 0:
        return 0.0
    return float(1.0 - weekend.mean() / weekday.mean())


def run(store: TraceStore, *, max_vms: int | None = 1500) -> ExperimentResult:
    """Reproduce Fig. 6 (all four panels)."""
    result = ExperimentResult("fig6", "CPU utilization distribution over time")
    sample_period = store.metadata.sample_period
    p_week = util.weekly_percentiles(store, Cloud.PRIVATE, max_vms=max_vms)
    q_week = util.weekly_percentiles(store, Cloud.PUBLIC, max_vms=max_vms)
    p_day = util.daily_bands(p_week, sample_period)
    q_day = util.daily_bands(q_week, sample_period)
    result.series["private_weekly"] = p_week
    result.series["public_weekly"] = q_week
    result.series["private_daily"] = p_day
    result.series["public_daily"] = q_day

    p75_private = float(p_week.band(75.0).mean())
    p75_public = float(q_week.band(75.0).mean())
    result.check(
        "75th-percentile utilization below ~30% in both clouds",
        p75_private < 0.40 and p75_public < 0.40,
        "P75 < 30%",
        f"mean P75 {p75_private:.0%} private, {p75_public:.0%} public",
    )
    p_dip = _weekend_dip(p_week.band(50.0), sample_period)
    q_dip = _weekend_dip(q_week.band(50.0), sample_period)
    result.check(
        "private utilization drops more on weekends",
        p_dip > q_dip,
        "work-related private workloads dip on weekends",
        f"median weekend dip {p_dip:.0%} vs {q_dip:.0%}",
    )
    p_range = util.daily_range(p_day, 50.0)
    q_range = util.daily_range(q_day, 50.0)
    result.check(
        "private daily median follows a working-hour pattern; public ~constant",
        p_range > 2 * q_range,
        "visible intra-day swing (private) vs flat (public)",
        f"median daily swing {p_range:.3f} vs {q_range:.3f}",
    )
    return result
