"""Deployment characteristics (Section III).

Pure functions over a :class:`~repro.telemetry.store.TraceStore`, one per
panel of Figures 1-4:

====================  =============================================
Figure                Function
====================  =============================================
Fig. 1(a)             :func:`vms_per_subscription_cdf`
Fig. 1(b)             :func:`subscriptions_per_cluster`
Fig. 2                :func:`vm_size_heatmap`
Fig. 3(a)             :func:`lifetime_cdf`
Fig. 3(b)             :func:`vm_count_series`
Fig. 3(c)             :func:`vm_creation_series`
Fig. 3(d)             :func:`creation_cv_by_region`
Fig. 4(a)             :func:`regions_per_subscription_cdf`
Fig. 4(b)             :func:`regions_per_subscription_core_weighted`
====================  =============================================
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.heatmap import Heatmap2D, build_heatmap
from repro.analysis.stats import BoxplotStats, coefficient_of_variation_rows
from repro.analysis.timeseries import hourly_event_counts, hourly_occupancy
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY

#: Fig. 1's snapshot time: the paper takes it "at one time point on a
#: weekday"; this is Wednesday noon UTC.
SNAPSHOT_TIME = 2 * SECONDS_PER_DAY + 12 * 3600
#: Fewest creations a region needs before its creation CV counts.
MIN_REGION_CREATIONS = 12


def _alive_at(store: TraceStore, cloud: Cloud, time: float):
    """VMs of ``cloud`` alive at ``time``."""
    return [
        vm
        for vm in store.vms(cloud=cloud)
        if vm.created_at <= time < vm.ended_at
    ]


def vms_per_subscription_cdf(store: TraceStore, cloud: Cloud) -> EmpiricalCdf:
    """Fig. 1(a): CDF of the number of VMs per subscription at :data:`SNAPSHOT_TIME`."""
    counts: dict[int, int] = {}
    for vm in _alive_at(store, cloud, SNAPSHOT_TIME):
        counts[vm.subscription_id] = counts.get(vm.subscription_id, 0) + 1
    if not counts:
        raise ValueError(f"no {cloud} VMs alive at t={SNAPSHOT_TIME}")
    return EmpiricalCdf.from_samples(np.array(list(counts.values()), dtype=np.float64))


def subscriptions_per_cluster(store: TraceStore, cloud: Cloud) -> BoxplotStats:
    """Fig. 1(b): box-plot stats of distinct subscriptions per cluster at :data:`SNAPSHOT_TIME`."""
    subs: dict[int, set[int]] = {}
    for vm in _alive_at(store, cloud, SNAPSHOT_TIME):
        subs.setdefault(vm.cluster_id, set()).add(vm.subscription_id)
    if not subs:
        raise ValueError(f"no {cloud} VMs alive at t={SNAPSHOT_TIME}")
    counts = np.array([len(s) for s in subs.values()], dtype=np.float64)
    return BoxplotStats.from_samples(counts)


def vm_size_heatmap(store: TraceStore, cloud: Cloud) -> Heatmap2D:
    """Fig. 2: heatmap of (cores, memory) per VM, log-binned 12 x 12.

    Fixed axis ranges keep the private and public heatmaps comparable.
    """
    vms = store.vms(cloud=cloud)
    if not vms:
        raise ValueError(f"no {cloud} VMs in the trace")
    cores = np.array([vm.cores for vm in vms], dtype=np.float64)
    memory = np.array([vm.memory_gb for vm in vms], dtype=np.float64)
    return build_heatmap(
        cores, memory, bins=12, log=True, x_range=(0.5, 96.0), y_range=(0.5, 768.0)
    )


def lifetime_cdf(store: TraceStore, cloud: Cloud) -> EmpiricalCdf:
    """Fig. 3(a): CDF of lifetimes of VMs started *and* ended in the window.

    "Note that we only include the VMs started and ended in the week to be
    consistent with the time span of the dataset."
    """
    lifetimes = [
        vm.lifetime
        for vm in store.vms(cloud=cloud)
        if store.metadata.completed_in_window(vm)
    ]
    if not lifetimes:
        raise ValueError(f"no completed {cloud} VMs in the window")
    return EmpiricalCdf.from_samples(np.array(lifetimes, dtype=np.float64))


def vm_count_series(
    store: TraceStore,
    cloud: Cloud,
    *,
    region: str | None = None,
) -> np.ndarray:
    """Fig. 3(b): number of alive VMs at each hour boundary."""
    vms = store.vms(cloud=cloud, region=region)
    if not vms:
        raise ValueError(f"no {cloud} VMs match region={region!r}")
    starts = np.array([vm.created_at for vm in vms], dtype=np.float64)
    ends = np.array([vm.ended_at for vm in vms], dtype=np.float64)
    return hourly_occupancy(starts, ends, duration=store.metadata.duration)


def vm_creation_series(
    store: TraceStore,
    cloud: Cloud,
    *,
    region: str | None = None,
    kind: EventKind = EventKind.CREATE,
) -> np.ndarray:
    """Fig. 3(c): VMs created per hour (pass ``TERMINATE`` for removals)."""
    times = store.event_times(kind, cloud=cloud, region=region)
    return hourly_event_counts(times, duration=store.metadata.duration)


def creation_cv_by_region(
    store: TraceStore,
    cloud: Cloud,
) -> dict[str, float]:
    """Fig. 3(d) input: CV of hourly creations, per region.

    Regions with fewer than ``MIN_REGION_CREATIONS`` creations are skipped -- their
    CV estimate would be dominated by Poisson noise.
    """
    # One event scan groups creation times per region (the per-region
    # event_times() calls each rescanned the whole event log, O(regions x
    # events)); the per-region CVs then come from one vectorized pass over
    # the stacked hourly-count rows -- bitwise identical to the scalar
    # coefficient_of_variation per row.
    times_by_region: dict[str, list[float]] = {}
    for event in store.events(kind=EventKind.CREATE, cloud=cloud):
        times_by_region.setdefault(event.region, []).append(event.time)
    regions = [
        region
        for region in store.region_names(cloud=cloud)
        if len(times_by_region.get(region, ())) >= MIN_REGION_CREATIONS
    ]
    if not regions:
        return {}
    counts = np.stack(
        [
            hourly_event_counts(
                np.array(times_by_region[region], dtype=np.float64),
                duration=store.metadata.duration,
            )
            for region in regions
        ]
    )
    cvs = coefficient_of_variation_rows(counts)
    return {
        region: float(cv)
        for region, cv in zip(regions, cvs, strict=True)
        if np.isfinite(cv)
    }


def creation_cv_boxplot(store: TraceStore, cloud: Cloud) -> BoxplotStats:
    """Fig. 3(d): box-plot stats of the per-region CVs."""
    cvs = creation_cv_by_region(store, cloud)
    if not cvs:
        raise ValueError(f"no region of {cloud} has enough creation events")
    return BoxplotStats.from_samples(np.array(list(cvs.values())))


def regions_per_subscription_cdf(store: TraceStore, cloud: Cloud) -> EmpiricalCdf:
    """Fig. 4(a): CDF of the number of deployed regions per subscription."""
    groups = store.vms_by_subscription(cloud=cloud)
    if not groups:
        raise ValueError(f"no {cloud} subscriptions in the trace")
    counts = np.array(
        [len({vm.region for vm in vms}) for vms in groups.values()], dtype=np.float64
    )
    return EmpiricalCdf.from_samples(counts)


def regions_per_subscription_core_weighted(
    store: TraceStore, cloud: Cloud
) -> EmpiricalCdf:
    """Fig. 4(b): the same CDF weighted by each subscription's core usage.

    ``cdf.evaluate(1)`` is the paper's headline number: the share of cores
    used by single-region subscriptions (~40% private vs ~70% public).
    """
    groups = store.vms_by_subscription(cloud=cloud)
    if not groups:
        raise ValueError(f"no {cloud} subscriptions in the trace")
    region_counts = []
    core_weights = []
    for vms in groups.values():
        region_counts.append(len({vm.region for vm in vms}))
        core_weights.append(sum(vm.cores for vm in vms))
    return EmpiricalCdf.from_samples(
        np.array(region_counts, dtype=np.float64),
        weights=np.array(core_weights, dtype=np.float64),
    )
