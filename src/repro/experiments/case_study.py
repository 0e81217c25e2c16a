"""The Canada region-shift pilot (Section IV-B).

"In one of the experiments, we focused on the Canadian regions, where one of
the regions had a high percentage of underutilized cores.  Using utilization
data from these regions, we recommended shifting the workload of Service-X
from Canada-A to Canada-B.  As a result of this regional workload shift, the
underutilized core percentage of Canada-A decreased from 23% to 16%, and the
core utilization rate reduced from 42% to 37% ... Canada-B, which has
sufficient idle capacities, showed minor changes."

:func:`build_canada_scenario` constructs a two-region trace matching the
pilot's starting conditions; :func:`run` executes the
:class:`~repro.management.placement.RegionShiftPlanner` end to end and
checks the resulting deltas against the paper's numbers.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.sku import NodeSku, VMSku
from repro.experiments.base import ExperimentResult
from repro.management.placement import RegionShiftPlanner
from repro.telemetry.schema import Cloud, PATTERN_DIURNAL, PATTERN_STABLE, SubscriptionInfo
from repro.telemetry.store import TraceMetadata, TraceStore
from repro.timebase import SECONDS_PER_WEEK, sample_times
from repro.workloads.generator import GLOBAL_CLOCK_TZ
from repro.workloads.utilization_models import diurnal_signal, stable_signal

SERVICE_X = "service-x"
_SKU = VMSku("D8", 8, 32)


def build_canada_scenario(seed: int = 11) -> TraceStore:
    """Two Canadian regions in the pilot's starting state.

    Canada-A: ~42% of cores allocated, ~23% of allocated cores
    underutilized; Service-X holds ~5 percentage points of capacity and is
    ~75% underutilized.  Canada-B: mostly idle, hosting a small Service-X
    deployment (which also makes Service-X detectably region-agnostic).
    """
    rng = np.random.default_rng(seed)
    store = TraceStore(TraceMetadata(duration=SECONDS_PER_WEEK, label="canada-pilot"))
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=(
            RegionSpec("canada-a", -5, "CA", renewable_score=0.8),
            RegionSpec("canada-b", -8, "CA", renewable_score=0.85),
        ),
        clusters_per_region=1,
        racks_per_cluster=5,
        nodes_per_rack=4,
        node_sku=NodeSku("Gen8-96c", 96.0, 768.0),
    )
    topology = build_topology(spec)
    platform = CloudPlatform(topology, store)
    times = sample_times(store.metadata.n_samples)

    # Region capacity: 20 nodes x 96 cores = 1920 cores.
    # Canada-A target: 42% allocated = ~806 cores = ~100 D8 VMs;
    # Service-X: 12 VMs (96 cores, 5 pp of capacity), 9 underutilized;
    # filler:   89 VMs (712 cores), 14 underutilized
    #           => underutilized = (9 + 14) * 8 / 806 = 22.8% ~ 23%.
    sub_x = SubscriptionInfo(
        subscription_id=1, cloud=Cloud.PRIVATE, service=SERVICE_X, party="first",
        regions=("canada-a", "canada-b"),
    )
    sub_filler = SubscriptionInfo(
        subscription_id=2, cloud=Cloud.PRIVATE, service="filler", party="first",
        regions=("canada-a",),
    )
    store.add_subscription(sub_x)
    store.add_subscription(sub_filler)

    def add_vm(sub_id: int, service: str, region: str, deployment: int,
               pattern: str, series: np.ndarray) -> None:
        request = VMRequest(
            subscription_id=sub_id,
            deployment_id=deployment,
            service=service,
            region=region,
            sku=_SKU,
            pattern=pattern,
        )
        vm_id = platform.create_vm(request, 0.0, backdate_to=-3600.0)
        if vm_id is None:
            raise RuntimeError(f"scenario over-packed region {region}")
        store.add_utilization(vm_id, np.clip(series, 0.0, 1.0))

    def service_x_series(underutilized: bool) -> np.ndarray:
        base = diurnal_signal(times, tz_offset_hours=GLOBAL_CLOCK_TZ, peak_hour=14.0)
        amplitude = 0.35 if underutilized else 1.1
        return amplitude * base + rng.normal(0.0, 0.01, times.size)

    def filler_series(underutilized: bool) -> np.ndarray:
        level = 0.06 if underutilized else 0.30
        return stable_signal(times, level=level, rng=rng) + rng.normal(
            0.0, 0.005, times.size
        )

    # Canada-A: Service-X (12 VMs, 9 underutilized) + filler (89 VMs, 14 low).
    for i in range(12):
        add_vm(1, SERVICE_X, "canada-a", 100, PATTERN_DIURNAL, service_x_series(i < 9))
    for i in range(89):
        add_vm(2, "filler", "canada-a", 200, PATTERN_STABLE, filler_series(i < 14))
    # Canada-B: small Service-X footprint; plenty of idle capacity.
    for i in range(6):
        add_vm(1, SERVICE_X, "canada-b", 300, PATTERN_DIURNAL, service_x_series(i < 4))
    for _ in range(20):
        add_vm(2, "filler", "canada-b", 400, PATTERN_STABLE, filler_series(False))
    return store


def run(seed: int = 11) -> ExperimentResult:
    """Reproduce the Canada pilot end to end."""
    result = ExperimentResult(
        "case-study", "Canada region-shift pilot (Service-X from A to B)"
    )
    store = build_canada_scenario(seed)
    planner = RegionShiftPlanner(store, cloud=Cloud.PRIVATE)
    recommendations = planner.recommend(
        source_region="canada-a", target_region="canada-b"
    )
    service_x_recs = [r for r in recommendations if r.service == SERVICE_X]
    result.check(
        "planner recommends shifting Service-X out of Canada-A",
        bool(service_x_recs),
        "shift Service-X from Canada-A to Canada-B",
        f"{len(service_x_recs)} matching recommendation(s)" if service_x_recs
        else f"recommended services: {[r.service for r in recommendations]}",
    )
    if not service_x_recs:
        return result

    outcome = planner.evaluate_shift(service_x_recs[0])
    before = outcome["source_before"]
    after = outcome["source_after"]
    target_before = outcome["target_before"]
    target_after = outcome["target_after"]
    result.series["source_before"] = before
    result.series["source_after"] = after
    result.series["target_before"] = target_before
    result.series["target_after"] = target_after

    result.check(
        "Canada-A underutilized-core percentage drops (paper: 23% -> 16%)",
        after.underutilized_percentage < before.underutilized_percentage - 0.03,
        "23% -> 16%",
        f"{before.underutilized_percentage:.0%} -> "
        f"{after.underutilized_percentage:.0%}",
    )
    result.check(
        "Canada-A core utilization rate drops (paper: 42% -> 37%)",
        after.core_utilization_rate < before.core_utilization_rate - 0.02,
        "42% -> 37%",
        f"{before.core_utilization_rate:.0%} -> {after.core_utilization_rate:.0%}",
    )
    target_delta = abs(
        target_after.core_utilization_rate - target_before.core_utilization_rate
    )
    result.check(
        "Canada-B shows only minor changes",
        target_delta <= 0.10,
        "minor changes (sufficient idle capacity)",
        f"utilization {target_before.core_utilization_rate:.0%} -> "
        f"{target_after.core_utilization_rate:.0%}",
    )
    return result
