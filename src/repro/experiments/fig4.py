"""Fig. 4: VM deployment in the spatial domain.

(a) CDFs of deployed regions per subscription: >50% single-region in both
clouds, longer multi-region tail for the private cloud.
(b) Core-weighted variant: single-region subscriptions account for ~40% of
private-cloud cores versus ~70% of public-cloud cores.
"""

from __future__ import annotations

from repro.core import deployment as dep
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore


def run_fig4a(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 4(a)."""
    result = ExperimentResult("fig4a", "CDF of deployed regions per subscription")
    private = dep.regions_per_subscription_cdf(store, Cloud.PRIVATE)
    public = dep.regions_per_subscription_cdf(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    p_single = private.fraction_at_or_below(1.0)
    q_single = public.fraction_at_or_below(1.0)
    result.check(
        "more than 50% of subscriptions are single-region in both clouds",
        p_single > 0.5 and q_single > 0.5,
        ">50% both",
        f"{p_single:.0%} private, {q_single:.0%} public",
    )
    p_tail = 1.0 - private.fraction_at_or_below(2.0)
    q_tail = 1.0 - public.fraction_at_or_below(2.0)
    result.check(
        "private subscriptions spread over more regions in the tail",
        p_tail > q_tail,
        "longer private multi-region tail",
        f"P(>2 regions) {p_tail:.0%} vs {q_tail:.0%}",
    )
    return result


def run_fig4b(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 4(b)."""
    result = ExperimentResult(
        "fig4b", "Core-weighted CDF of deployed regions per subscription"
    )
    private = dep.regions_per_subscription_core_weighted(store, Cloud.PRIVATE)
    public = dep.regions_per_subscription_core_weighted(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    p_share = private.fraction_at_or_below(1.0)
    q_share = public.fraction_at_or_below(1.0)
    result.check(
        "single-region core share ~40% in the private cloud",
        0.20 <= p_share <= 0.55,
        "40%",
        f"{p_share:.0%}",
    )
    result.check(
        "single-region core share ~70% in the public cloud",
        0.55 <= q_share <= 0.85,
        "70%",
        f"{q_share:.0%}",
    )
    result.check(
        "majority of private cores used by multi-region subscriptions",
        p_share < 0.5 < q_share,
        "private majority multi-region; public majority single-region",
        f"single-region share {p_share:.0%} vs {q_share:.0%}",
    )
    return result
