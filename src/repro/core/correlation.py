"""Spatial similarity analyses (Section IV-B, Figure 7).

Three studies:

* **node level** (Fig. 7a): Pearson correlation between each VM's CPU
  utilization and its host node's, skipping nodes that host a single VM;
* **region level** (Fig. 7b): for multi-region subscriptions, Pearson
  correlation of the subscription's region-averaged utilization between
  every pair of deployed regions (the paper restricts to the ~10 US
  regions);
* **region-agnostic detection** (Fig. 7c and the Canada case study): a
  subscription whose cross-region correlations are all high is a
  region-agnostic candidate -- its load follows one global clock, so it can
  be shifted between regions without hurting users.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.stats import pairwise_pearson, pearson_correlation
from repro.obs import Counter
from repro.telemetry.counters import node_utilization, subscription_region_vm_ids
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY

#: Pairs dropped because one side was constant (Pearson r undefined).
_CONSTANT_PAIRS = Counter("correlation.constant_pairs")


@dataclass(frozen=True)
class CorrelationCdf(EmpiricalCdf):
    """A correlation CDF that accounts for the pairs it could not include.

    Pearson correlation is undefined when either series is constant (zero
    variance makes the estimator 0/0).  Such pairs cannot contribute a
    sample, but dropping them *silently* understates how much of the fleet
    was excluded -- idle VMs pinned at one utilization level are exactly the
    population a capacity analysis should not lose track of.  The count of
    dropped pairs therefore travels with the CDF.
    """

    #: Pairs skipped because Pearson r was undefined (constant series).
    n_constant_pairs: int = 0


def _correlation_cdf(correlations: list[float], n_constant: int) -> CorrelationCdf:
    """Build the CDF and account for skipped constant pairs."""
    if n_constant:
        _CONSTANT_PAIRS.inc(n_constant)
    cdf = CorrelationCdf.from_samples(np.array(correlations))
    return replace(cdf, n_constant_pairs=int(n_constant))


def node_level_correlation(
    store: TraceStore,
    cloud: Cloud,
    *,
    min_alive: float | None = None,
    max_nodes: int | None = None,
) -> CorrelationCdf:
    """Fig. 7(a): CDF of Pearson(VM utilization, host-node utilization).

    "We filter out the trivial case that nodes only host one VM."  VMs must
    be alive at least ``min_alive`` seconds (default: 2 days) so that the
    correlation is estimated over a meaningful overlap; each correlation is
    computed on the VM's alive span.

    When ``max_nodes`` caps the sample, nodes are visited in ascending
    ``node_id`` order so the cap selects the same nodes on every run.
    """
    if min_alive is None:
        min_alive = 2 * SECONDS_PER_DAY
    metadata = store.metadata
    vms_by_node = store.vms_by_node(cloud=cloud)

    correlations: list[float] = []
    n_constant = 0
    n_nodes = 0
    # Node series are derived one node at a time: a dict holding every
    # node's float64 series is O(n_nodes x T) resident memory, which at
    # paper scale is larger than the whole RSS budget.
    for node_id in sorted(vms_by_node):
        node = store.nodes.get(node_id)
        if node is None:
            continue
        vms = [
            vm for vm in vms_by_node[node_id] if store.has_utilization(vm.vm_id)
        ]
        if len(vms) < 2:
            continue  # trivial single-VM nodes are excluded
        n_nodes += 1
        if max_nodes is not None and n_nodes > max_nodes:
            break
        rows = [store.utilization(vm.vm_id) for vm in vms]
        node_util = node_utilization(node, vms, rows)
        eligible = [  # (row, lo, hi)
            (row, *metadata.sample_window(vm))
            for vm, row in zip(vms, rows)
            if metadata.alive_seconds(vm) >= min_alive
        ]
        for r in _node_vm_correlations(node_util, eligible):
            if np.isfinite(r):
                correlations.append(r)
            else:
                n_constant += 1
    if not correlations:
        raise ValueError(f"no multi-VM node of {cloud} has usable telemetry")
    return _correlation_cdf(correlations, n_constant)


def _node_vm_correlations(
    node_util: np.ndarray,
    eligible: list[tuple[np.ndarray, int, int]],
) -> list[float]:
    """Pearson r of each eligible VM against its node, standardization hoisted.

    ``eligible`` holds each VM's utilization row and alive window
    ``[lo, hi)``, so the caller's rows are not read from the store again.
    The scalar path (:func:`_node_level_correlation_reference`) re-centers
    the node slice and recomputes its self-product once per *pair*; here VMs
    sharing an alive window are grouped so the node slice is standardized
    once per window and the VM slices are centered as one 2-D block.  Per-pair
    numerators stay on ``np.dot`` (``ddot``) so results are bitwise identical
    to the scalar path -- asserted by ``tests/test_correlation_analysis.py``.
    Results come back in ``eligible`` order.
    """
    by_window: dict[tuple[int, int], list[int]] = {}
    for idx, (_row, lo, hi) in enumerate(eligible):
        by_window.setdefault((lo, hi), []).append(idx)
    results = [float("nan")] * len(eligible)
    for (lo, hi), idxs in by_window.items():
        if hi - lo < 2:
            raise ValueError("Pearson correlation needs at least two samples")
        node_slice = node_util[lo:hi]
        node_c = node_slice - node_slice.mean()
        ss_node = np.dot(node_c, node_c)
        block = np.empty((len(idxs), hi - lo), dtype=np.float64)
        for row, idx in enumerate(idxs):
            block[row] = eligible[idx][0][lo:hi]
        block -= block.mean(axis=1, keepdims=True)
        for row, idx in enumerate(idxs):
            denom = np.sqrt(np.dot(block[row], block[row]) * ss_node)
            if denom == 0:
                continue  # results[idx] stays nan, counted as constant
            r = float(np.dot(block[row], node_c) / denom)
            results[idx] = max(-1.0, min(1.0, r))
    return results


def _node_level_correlation_reference(
    store: TraceStore,
    cloud: Cloud,
    *,
    min_alive: float | None = None,
    max_nodes: int | None = None,
) -> CorrelationCdf:
    """Pre-hoisting scalar implementation of :func:`node_level_correlation`.

    Kept as the reference path for the bit-compat equality tests: it
    standardizes both series from scratch inside every pair, which is the
    exact textbook computation the blocked kernel must reproduce bitwise.
    """
    if min_alive is None:
        min_alive = 2 * SECONDS_PER_DAY
    sample_period = store.metadata.sample_period
    duration = store.metadata.duration
    vms_by_node = store.vms_by_node(cloud=cloud)

    correlations: list[float] = []
    n_constant = 0
    n_nodes = 0
    for node_id in sorted(vms_by_node):
        node = store.nodes.get(node_id)
        if node is None:
            continue
        vms = [
            vm for vm in vms_by_node[node_id] if store.has_utilization(vm.vm_id)
        ]
        if len(vms) < 2:
            continue
        n_nodes += 1
        if max_nodes is not None and n_nodes > max_nodes:
            break
        total = np.zeros(store.metadata.n_samples, dtype=np.float64)
        for vm in vms:
            total += vm.cores * store.utilization(vm.vm_id).astype(np.float64)
        node_util = np.clip(total / node.capacity_cores, 0.0, 1.0)
        for vm in vms:
            start = max(vm.created_at, 0.0)
            end = min(vm.ended_at, duration)
            if end - start < min_alive:
                continue
            lo = int(np.ceil(start / sample_period))
            hi = int(np.floor(end / sample_period))
            r = pearson_correlation(
                store.utilization(vm.vm_id)[lo:hi], node_util[lo:hi]
            )
            if np.isfinite(r):
                correlations.append(r)
            else:
                n_constant += 1
    if not correlations:
        raise ValueError(f"no multi-VM node of {cloud} has usable telemetry")
    return _correlation_cdf(correlations, n_constant)


def region_level_correlation(
    store: TraceStore,
    cloud: Cloud,
    *,
    countries: tuple[str, ...] = ("US",),
    min_regions: int = 2,
) -> CorrelationCdf:
    """Fig. 7(b): CDF of cross-region utilization correlation per subscription.

    For each subscription deployed in at least ``min_regions`` of the
    selected countries' regions, correlate the region-averaged utilization
    of every region pair.
    """
    allowed = {
        name
        for name, info in store.regions.items()
        if not countries or info.country in countries
    }
    # One fleet pass groups (subscription, region) -> vm ids.
    grouped = subscription_region_vm_ids(store, cloud=cloud)
    correlations: list[float] = []
    n_constant = 0
    for sub_id, sub in store.subscriptions.items():
        if sub.cloud != cloud:
            continue
        ids_by_region = grouped.get(sub_id, {})
        regions = sorted(r for r in ids_by_region if r in allowed)
        if len(regions) < min_regions:
            continue
        finite, constant = _region_pair_correlations(store, ids_by_region, regions)
        correlations.extend(finite)
        n_constant += constant
    if not correlations:
        raise ValueError(f"no multi-region {cloud} subscription with telemetry")
    return _correlation_cdf(correlations, n_constant)


def _region_pair_correlations(
    store: TraceStore, ids_by_region: dict[str, list[int]], regions: list[str]
) -> tuple[list[float], int]:
    """Pearson r of every pair of ``regions``' mean series, and the constant count.

    Each region's series averages its VMs in sorted id order, so the result
    is a pure function of the *set* of VMs per region.  One blocked kernel
    hoists centering and self-products out of the pair loop (bitwise
    identical to the scalar per-pair path, see ``pairwise_pearson``).
    Returns the finite correlations of the upper-triangle pairs and how many
    pairs were constant; callers count the latter on
    ``correlation.constant_pairs``.
    """
    block = np.stack(
        [store.utilization_mean(sorted(ids_by_region[r])) for r in regions]
    )
    matrix = pairwise_pearson(block)
    pairs = [float(matrix[a, b]) for a, b in combinations(range(len(regions)), 2)]
    finite = [r for r in pairs if np.isfinite(r)]
    return finite, len(pairs) - len(finite)


@dataclass(frozen=True)
class RegionAgnosticReport:
    """Cross-region similarity verdict for one subscription."""

    subscription_id: int
    service: str
    regions: tuple[str, ...]
    min_pairwise_correlation: float
    region_agnostic: bool


def subscription_region_report(
    store: TraceStore,
    subscription_id: int,
    service: str,
    ids_by_region: dict[str, list[int]],
    *,
    threshold: float = 0.7,
    allowed_regions: set[str] | None = None,
) -> RegionAgnosticReport | None:
    """Cross-region similarity verdict for one subscription, or ``None``.

    The per-subscription body of :func:`region_agnostic_subscriptions`,
    factored out so the online knowledge-base service
    (:mod:`repro.serving`) can re-derive a single dirty subscription's
    verdict with the exact batch computation.  VM ids are gathered in
    sorted order, making the result a pure function of the *set* of
    telemetry-bearing VMs per region -- ingest/attachment order cannot
    shift a float sum.  ``None`` means the subscription has fewer than two
    allowed regions with telemetry, or every region pair was constant.
    """
    regions = sorted(
        r
        for r in ids_by_region
        if allowed_regions is None or r in allowed_regions
    )
    if len(regions) < 2:
        return None
    finite, constant = _region_pair_correlations(store, ids_by_region, regions)
    if constant:
        _CONSTANT_PAIRS.inc(constant)
    if not finite:
        return None
    worst = float(min(finite))
    return RegionAgnosticReport(
        subscription_id=subscription_id,
        service=service,
        regions=tuple(regions),
        min_pairwise_correlation=worst,
        region_agnostic=worst >= threshold,
    )


def region_agnostic_subscriptions(
    store: TraceStore,
    cloud: Cloud,
    *,
    threshold: float = 0.7,
    countries: tuple[str, ...] = (),
) -> list[RegionAgnosticReport]:
    """Identify region-agnostic candidates: high correlation in every pair.

    The paper cautions that "utilization pattern analysis alone is not
    sufficient" (data locality, compliance, ...), so these are *candidates*
    to be confirmed with the workload owner -- exactly how ServiceX was
    confirmed.
    """
    allowed = {
        name
        for name, info in store.regions.items()
        if not countries or info.country in countries
    }
    grouped = subscription_region_vm_ids(store, cloud=cloud)
    reports = []
    for sub_id, sub in sorted(store.subscriptions.items()):
        if sub.cloud != cloud:
            continue
        report = subscription_region_report(
            store,
            sub_id,
            sub.service,
            grouped.get(sub_id, {}),
            threshold=threshold,
            allowed_regions=allowed,
        )
        if report is not None:
            reports.append(report)
    return reports


def service_region_series(
    store: TraceStore,
    service: str,
    *,
    cloud: Cloud | None = None,
    fold_to_day: bool = True,
) -> dict[str, np.ndarray]:
    """Fig. 7(c): average utilization of one service, per region.

    Returns the average utilization series of all telemetry-bearing VMs of
    ``service`` in each region, optionally folded to one day (the paper
    plots one day).
    """
    by_region: dict[str, list[int]] = {}
    for vm in store.vms(cloud=cloud):
        if vm.service != service or not store.has_utilization(vm.vm_id):
            continue
        by_region.setdefault(vm.region, []).append(vm.vm_id)
    series = {
        region: store.utilization_mean(ids)
        for region, ids in by_region.items()
        if len(ids) >= 2
    }
    if not fold_to_day:
        return series
    from repro.analysis.timeseries import fold_daily

    samples_per_day = int(SECONDS_PER_DAY // store.metadata.sample_period)
    return {r: fold_daily(s, samples_per_day) for r, s in series.items()}


def peak_alignment_hours(series_by_region: dict[str, np.ndarray], sample_period: float) -> float:
    """Largest pairwise gap between regional daily peak times, in hours.

    Region-agnostic services peak "at the same time points" in every region
    despite time-zone differences; region-sensitive ones show shifted peaks.
    """
    if len(series_by_region) < 2:
        raise ValueError("need at least two regions to measure alignment")
    day_seconds = 24 * 3600.0
    peak_hours = [
        (int(np.argmax(series)) * sample_period % day_seconds) / 3600.0
        for series in series_by_region.values()
    ]
    gaps = []
    for a, b in combinations(peak_hours, 2):
        diff = abs(a - b)
        gaps.append(min(diff, 24.0 - diff))  # circular distance
    return float(max(gaps))
