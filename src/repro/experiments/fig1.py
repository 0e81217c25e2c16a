"""Fig. 1: deployment size and subscriptions per cluster.

(a) CDFs of the normalized number of VMs per subscription -- private-cloud
workloads deploy in larger groups.
(b) Box-plots of subscriptions per cluster -- "a public cloud cluster hosts
about 20 times more subscriptions than a private cloud cluster at the
median level".
"""

from __future__ import annotations

import numpy as np

from repro.core import deployment as dep
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore


def run_fig1a(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 1(a)."""
    result = ExperimentResult("fig1a", "CDF of VMs per subscription")
    private = dep.vms_per_subscription_cdf(store, Cloud.PRIVATE)
    public = dep.vms_per_subscription_cdf(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    result.check(
        "private deployments much larger at the median",
        private.median > 5 * public.median,
        "private CDF far right of public",
        f"median {private.median:.0f} vs {public.median:.0f} VMs/subscription",
    )
    # The public CDF should dominate (lie above) the private CDF: at any
    # deployment size, more public subscriptions are at or below it.
    grid = np.unique(np.concatenate([private.values, public.values]))[:-1]
    dominance = float(np.mean(public.evaluate(grid) >= private.evaluate(grid)))
    result.check(
        "public CDF above private CDF over the size range",
        dominance > 0.9,
        "public curve left/above private",
        f"dominance on {dominance:.0%} of the grid",
    )
    n_private = len(store.vms(cloud=Cloud.PRIVATE))
    n_public = len(store.vms(cloud=Cloud.PUBLIC))
    population_ratio = n_private / max(1, n_public)
    result.check(
        "similar VM populations in both clouds",
        0.3 <= population_ratio <= 3.0,
        "similar populations (Section II)",
        f"private/public {population_ratio:.2f} ({n_private} vs {n_public} VMs)",
    )
    return result


def run_fig1b(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 1(b)."""
    result = ExperimentResult("fig1b", "Subscriptions per cluster (box-plot)")
    private = dep.subscriptions_per_cluster(store, Cloud.PRIVATE)
    public = dep.subscriptions_per_cluster(store, Cloud.PUBLIC)
    result.series["private_box"] = private
    result.series["public_box"] = public

    ratio = public.median / max(1e-9, private.median)
    result.check(
        "public cluster hosts many times more subscriptions",
        ratio >= 8,
        "~20x at the median",
        f"{ratio:.1f}x ({public.median:.0f} vs {private.median:.0f})",
    )
    result.check(
        "whole public box above private box",
        public.q1 > private.q3,
        "disjoint distributions",
        f"public Q1 {public.q1:.0f} vs private Q3 {private.q3:.0f}",
    )
    return result
