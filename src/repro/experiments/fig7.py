"""Fig. 7: spatial similarity of utilization.

(a) VM-to-host-node correlation CDFs -- median 0.55 (private) vs 0.02
    (public);
(b) cross-region correlation CDFs for multi-region subscriptions (US
    regions) -- private much higher;
(c) ServiceX: a region-agnostic private service whose utilization peaks at
    the same instants in every region despite different time zones.
"""

from __future__ import annotations

from repro.core import correlation as corr
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore

#: Our "ServiceX": the geo-load-balanced first-party web tier.
SERVICE_X = "web-application"


def run_fig7a(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 7(a)."""
    result = ExperimentResult("fig7a", "VM-to-node utilization correlation")
    private = corr.node_level_correlation(store, Cloud.PRIVATE)
    public = corr.node_level_correlation(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    result.check(
        "private median correlation much higher",
        private.median - public.median >= 0.25,
        "0.55 vs 0.02",
        f"{private.median:.2f} vs {public.median:.2f}",
    )
    result.check(
        "private workloads similar within a node",
        private.median >= 0.45,
        "median 0.55",
        f"median {private.median:.2f}",
    )
    result.check(
        "public VM and node utilization nearly uncorrelated",
        public.median <= 0.35,
        "median 0.02",
        f"median {public.median:.2f}",
    )
    return result


def run_fig7b(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 7(b)."""
    result = ExperimentResult("fig7b", "Cross-region utilization correlation")
    private = corr.region_level_correlation(store, Cloud.PRIVATE)
    public = corr.region_level_correlation(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    result.check(
        "private subscriptions keep the same pattern across regions",
        private.median - public.median >= 0.3,
        "higher correlation of private utilization across regions",
        f"median {private.median:.2f} vs {public.median:.2f}",
    )
    result.check(
        "a large portion of private subscriptions look region-agnostic",
        1.0 - private.evaluate(0.7) >= 0.4,
        "large region-agnostic portion",
        f"{1.0 - private.evaluate(0.7):.0%} of pairs above r=0.7",
    )
    return result


def run_fig7c(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 7(c)."""
    result = ExperimentResult("fig7c", "ServiceX utilization across regions")
    series = corr.service_region_series(store, SERVICE_X, cloud=Cloud.PRIVATE)
    # Keep the most-populated handful of regions, like the paper's panel.
    series = dict(sorted(series.items())[:6])
    result.series["servicex_daily"] = series

    if len(series) < 2:
        result.check(
            "ServiceX deployed in multiple regions",
            False,
            ">= 2 regions",
            f"{len(series)} region(s) with telemetry",
        )
        return result

    tz = [store.regions[r].tz_offset_hours for r in series]
    tz_spread = max(tz) - min(tz)
    alignment = corr.peak_alignment_hours(series, store.metadata.sample_period)
    result.check(
        "regions span multiple time zones",
        tz_spread >= 2,
        "separate time zones",
        f"{tz_spread:.0f}h spread over {len(series)} regions",
    )
    result.check(
        "utilization peaks roughly at the same time points in all regions",
        alignment <= 3.0,
        "peaks aligned despite time zones (geo load-balancer)",
        f"max peak gap {alignment:.1f}h",
    )
    # Contrast: a region-sensitive public service should NOT align when the
    # time-zone spread is real.
    public_series = corr.service_region_series(store, "customer-web", cloud=Cloud.PUBLIC)
    public_series = {
        r: s
        for r, s in public_series.items()
        if r in store.regions
    }
    if len(public_series) >= 2:
        tz_public = [store.regions[r].tz_offset_hours for r in public_series]
        public_alignment = corr.peak_alignment_hours(
            public_series, store.metadata.sample_period
        )
        result.check(
            "region-sensitive public service shows shifted peaks",
            public_alignment > alignment
            or (max(tz_public) - min(tz_public)) < 2,
            "shifted peaks for region-sensitive workloads",
            f"public max peak gap {public_alignment:.1f}h vs ServiceX {alignment:.1f}h",
        )
    return result
