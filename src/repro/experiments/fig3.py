"""Fig. 3: VM deployment in the temporal domain.

(a) lifetime CDFs -- 49% (private) vs 81% (public) in the shortest bin;
(b) VM counts per hour in one region -- diurnal with weekend dip; private
    series less regular with occasional large spikes;
(c) VMs created per hour -- public clearly diurnal, private low-amplitude
    with bursts;
(d) box-plots of the CV of hourly creations across regions -- private CVs
    larger everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import coefficient_of_variation
from repro.core import deployment as dep
from repro.core.periodicity import autocorrelation
from repro.experiments.base import ExperimentResult
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore
from repro.workloads.lifetime import SHORTEST_BIN_SECONDS


def sample_region(store: TraceStore) -> str:
    """The region the single-region panels plot (the paper samples one).

    It is the first region in topology order (``store.regions``, which
    ``save_trace``/``load_trace`` preserve) that both clouds have VMs in,
    so a seed whose private cloud left ``us-east`` empty still gets a plot.
    """
    shared = set(store.region_names(cloud=Cloud.PRIVATE))
    shared &= set(store.region_names(cloud=Cloud.PUBLIC))
    for region in store.regions:
        if region in shared:
            return region
    raise ValueError("no region has VMs of both clouds")


def run_fig3a(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 3(a)."""
    result = ExperimentResult("fig3a", "CDF of VM lifetimes")
    private = dep.lifetime_cdf(store, Cloud.PRIVATE)
    public = dep.lifetime_cdf(store, Cloud.PUBLIC)
    result.series["private_cdf"] = private.points()
    result.series["public_cdf"] = public.points()

    p_short = private.fraction_at_or_below(SHORTEST_BIN_SECONDS)
    q_short = public.fraction_at_or_below(SHORTEST_BIN_SECONDS)
    result.check(
        "private shortest-bin fraction ~49%",
        0.35 <= p_short <= 0.62,
        "49%",
        f"{p_short:.0%}",
    )
    result.check(
        "public shortest-bin fraction ~81%",
        0.68 <= q_short <= 0.92,
        "81%",
        f"{q_short:.0%}",
    )
    from repro.analysis.distributions import ks_statistic, stochastic_dominance_fraction

    dominance = stochastic_dominance_fraction(public, private, tolerance=0.02)
    result.check(
        "trend continues over the whole range (public CDF above private)",
        dominance > 0.95,
        "public curve dominates",
        f"dominance on {dominance:.0%} of the support, "
        f"KS distance {ks_statistic(public, private):.2f}",
    )
    return result


def _spike_score(counts: np.ndarray) -> float:
    """Largest hour-over-hour jump relative to the series' typical level."""
    counts = counts.astype(np.float64)
    typical = max(1.0, float(np.median(counts)))
    jumps = np.diff(counts)
    return float(jumps.max() / typical) if jumps.size else 0.0


def run_fig3b(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 3(b).

    The paper plots *one sampled region*.  Bursts land in a different region
    every week, so the spike comparison considers every region and contrasts
    the largest spike either cloud produced anywhere -- the claim is about
    the clouds, not about one lucky region.
    """
    result = ExperimentResult("fig3b", "VM counts per hour (one region)")
    region = sample_region(store)
    private = dep.vm_count_series(store, Cloud.PRIVATE, region=region)
    public = dep.vm_count_series(store, Cloud.PUBLIC, region=region)
    result.series["private_counts"] = private
    result.series["public_counts"] = public

    def max_spike(cloud: Cloud) -> float:
        scores = []
        for region in store.region_names(cloud=cloud):
            try:
                counts = dep.vm_count_series(store, cloud, region=region)
            except ValueError:
                continue
            if np.median(counts) >= 10:  # skip nearly empty regions
                scores.append(_spike_score(counts))
        return max(scores) if scores else 0.0

    private_spike = max_spike(Cloud.PRIVATE)
    public_spike = max_spike(Cloud.PUBLIC)
    result.check(
        "private series shows occasional large spikes",
        private_spike > 1.5 * public_spike,
        "spikes from large-service deployment behaviour",
        f"max spike score over regions {private_spike:.2f} vs {public_spike:.2f}",
    )
    acf_public = autocorrelation(public.astype(np.float64), max_lag=48)
    result.check(
        "public counts follow a diurnal pattern",
        float(acf_public[24]) > 0.2,
        "clear 24h cycle",
        f"count ACF at 24h lag = {acf_public[24]:.2f}",
    )
    return result


def run_fig3c(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 3(c)."""
    result = ExperimentResult("fig3c", "VMs created per hour (one region)")
    region = sample_region(store)
    private = dep.vm_creation_series(store, Cloud.PRIVATE, region=region)
    public = dep.vm_creation_series(store, Cloud.PUBLIC, region=region)
    result.series["private_creations"] = private
    result.series["public_creations"] = public

    p_cv = coefficient_of_variation(private)
    q_cv = coefficient_of_variation(public)
    result.check(
        "private creations burstier than public",
        p_cv > q_cv,
        "low amplitude + bursts vs stable diurnal",
        f"CV {p_cv:.2f} vs {q_cv:.2f}",
    )
    acf_public = autocorrelation(public.astype(np.float64), max_lag=48)
    result.check(
        "public creations follow a clear diurnal pattern",
        float(acf_public[24]) > 0.15,
        "stable diurnal creation pattern",
        f"creation ACF at 24h lag = {acf_public[24]:.2f}",
    )
    return result


def run_fig3c_removals(store: TraceStore) -> ExperimentResult:
    """Reproduce the removal companion of Fig. 3(c).

    "VM removal behavior is also studied and the observed temporal pattern
    is similar to that of VM creation" -- private removals stay bursty,
    public removals stay diurnal.
    """
    result = ExperimentResult(
        "fig3c-removals", "VMs removed per hour (one region)"
    )
    region = sample_region(store)
    private = dep.vm_creation_series(
        store, Cloud.PRIVATE, region=region, kind=EventKind.TERMINATE
    )
    public = dep.vm_creation_series(
        store, Cloud.PUBLIC, region=region, kind=EventKind.TERMINATE
    )
    result.series["private_removals"] = private
    result.series["public_removals"] = public

    # Checks run on the fleet-wide removal streams: a single region's
    # removal series is noisy (short-lifetime jitter smears the pattern).
    private_all = dep.vm_creation_series(
        store, Cloud.PRIVATE, kind=EventKind.TERMINATE
    )
    public_all = dep.vm_creation_series(
        store, Cloud.PUBLIC, kind=EventKind.TERMINATE
    )
    p_cv = coefficient_of_variation(private_all)
    q_cv = coefficient_of_variation(public_all)
    result.check(
        "private removals burstier than public (mirrors creations)",
        p_cv > q_cv,
        "removal pattern similar to creation",
        f"CV {p_cv:.2f} vs {q_cv:.2f}",
    )
    acf_public = autocorrelation(public_all.astype(np.float64), max_lag=48)
    result.check(
        "public removals follow a diurnal pattern (mirrors creations)",
        float(acf_public[24]) > 0.15,
        "autoscale scale-in at night",
        f"removal ACF at 24h lag = {acf_public[24]:.2f}",
    )
    return result


def run_fig3d(store: TraceStore) -> ExperimentResult:
    """Reproduce Fig. 3(d)."""
    result = ExperimentResult("fig3d", "CV of hourly creations across regions")
    private = dep.creation_cv_boxplot(store, Cloud.PRIVATE)
    public = dep.creation_cv_boxplot(store, Cloud.PUBLIC)
    result.series["private_box"] = private
    result.series["public_box"] = public

    result.check(
        "private CVs larger across regions",
        private.median > public.median,
        "bursty pattern present in other regions too",
        f"median CV {private.median:.2f} vs {public.median:.2f}",
    )
    result.check(
        "separation beyond quartile overlap",
        private.q1 > public.median,
        "clearly separated distributions",
        f"private Q1 {private.q1:.2f} vs public median {public.median:.2f}",
    )
    return result
