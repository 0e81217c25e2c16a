"""Threats-to-validity ablation (Section VII).

The paper's week was "specifically chosen without any holiday", and the
authors caution that "our results may not fully capture the effects of
seasonality and holiday patterns".  This ablation generates a *holiday
week* (every day behaves like a weekend) next to an ordinary week and
checks which findings are robust:

* robust: the private-vs-public burstiness gap (Fig. 3d) and the lifetime
  gap (Fig. 3a) -- driven by *who* deploys, not by user activity levels;
* sensitive: absolute utilization levels and the weekday/weekend contrast
  (Fig. 6) -- driven by user activity, which the holiday suppresses.
"""

from __future__ import annotations

from repro.core import deployment as dep
from repro.core import utilization as util
from repro.experiments import cache
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud
from repro.workloads.generator import GeneratorConfig
from repro.workloads.lifetime import SHORTEST_BIN_SECONDS


def run(
    *,
    seed: int,
    scale: float,
    cache_dir: str | None,
    use_cache: bool,
) -> ExperimentResult:
    """Compare an ordinary week against a holiday week."""
    result = ExperimentResult(
        "validity-holiday", "Threats to validity: holiday-week sensitivity"
    )
    ordinary = cache.fetch_trace(
        GeneratorConfig(seed=seed, scale=scale),
        cache_dir=cache_dir, use_cache=use_cache,
    )[0]
    holiday = cache.fetch_trace(
        GeneratorConfig(seed=seed, scale=scale, holiday_week=True),
        cache_dir=cache_dir, use_cache=use_cache,
    )[0]

    # Robust finding 1: private arrivals remain burstier than public.
    cv_gap_ordinary = (
        dep.creation_cv_boxplot(ordinary, Cloud.PRIVATE).median
        - dep.creation_cv_boxplot(ordinary, Cloud.PUBLIC).median
    )
    cv_gap_holiday = (
        dep.creation_cv_boxplot(holiday, Cloud.PRIVATE).median
        - dep.creation_cv_boxplot(holiday, Cloud.PUBLIC).median
    )
    result.check(
        "burstiness gap (Fig. 3d) survives a holiday week",
        cv_gap_ordinary > 0 and cv_gap_holiday > 0,
        "robust: driven by deployment behaviour, not user activity",
        f"CV gap {cv_gap_ordinary:.2f} (ordinary) vs {cv_gap_holiday:.2f} (holiday)",
    )

    # Robust finding 2: the lifetime gap persists.
    def short_gap(trace) -> float:
        p = dep.lifetime_cdf(trace, Cloud.PRIVATE).evaluate(SHORTEST_BIN_SECONDS)
        q = dep.lifetime_cdf(trace, Cloud.PUBLIC).evaluate(SHORTEST_BIN_SECONDS)
        return float(q - p)

    result.check(
        "lifetime gap (Fig. 3a) survives a holiday week",
        short_gap(ordinary) > 0.1 and short_gap(holiday) > 0.1,
        "robust: 81% vs 49% reflects workload types",
        f"gap {short_gap(ordinary):.2f} (ordinary) vs {short_gap(holiday):.2f} (holiday)",
    )

    # Sensitive finding: weekly utilization level drops during the holiday.
    p_ordinary = util.weekly_percentiles(ordinary, Cloud.PRIVATE, max_vms=400)
    p_holiday = util.weekly_percentiles(holiday, Cloud.PRIVATE, max_vms=400)
    level_ordinary = float(p_ordinary.band(50.0).mean())
    level_holiday = float(p_holiday.band(50.0).mean())
    result.check(
        "utilization levels are holiday-sensitive (as Section VII warns)",
        level_holiday < level_ordinary * 0.9,
        "holiday weeks would bias utilization statistics",
        f"median utilization {level_ordinary:.3f} -> {level_holiday:.3f}",
    )

    # Sensitive finding: the weekday/weekend contrast disappears.
    def weekend_contrast(bands) -> float:
        samples_per_day = 288
        band = bands.band(50.0)
        weekday = band[: 5 * samples_per_day].mean()
        weekend = band[5 * samples_per_day :].mean()
        return float(weekday - weekend)

    result.check(
        "weekday/weekend contrast (Fig. 6) vanishes in a holiday week",
        weekend_contrast(p_holiday) < 0.5 * weekend_contrast(p_ordinary),
        "contrast comes from the ordinary-week choice",
        f"contrast {weekend_contrast(p_ordinary):.3f} -> {weekend_contrast(p_holiday):.3f}",
    )
    result.series["ordinary_weekly_median"] = p_ordinary.band(50.0)
    result.series["holiday_weekly_median"] = p_holiday.band(50.0)
    return result
