"""Region-level placement optimization: the Canada case study.

Section IV-B implication: "region-agnostic workloads can be relocated from
hot to cold regions ... to balance the capacity usage globally, reduce
underutilized clusters, and save cost.  We may also shift more
region-agnostic workloads to regions that are more accessible to renewable
energy."

The piloted experiment: "the underutilized core percentage of Canada-A
decreased from 23% to 16%, and the core utilization rate reduced from 42% to
37%" after shifting Service-X from Canada-A to Canada-B.

:class:`RegionShiftPlanner` measures the same two health metrics per region,
recommends shifting region-agnostic services out of unhealthy regions, and
evaluates the counterfactual trace after the shift.  It does not model the
renewable-energy half of the implication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.correlation import REGION_AGNOSTIC_THRESHOLD, region_agnostic_subscriptions
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore

#: Mean utilization below which a VM's cores count as underutilized.
UNDERUTILIZED_THRESHOLD = 0.12


@dataclass(frozen=True)
class RegionSnapshot:
    """Capacity-health metrics of one region (the case study's columns)."""

    region: str
    capacity_cores: float
    allocated_cores: float
    underutilized_cores: float

    @property
    def core_utilization_rate(self) -> float:
        """Allocated cores / capacity ("core utilization rate ... 42%")."""
        return self.allocated_cores / self.capacity_cores if self.capacity_cores else 0.0

    @property
    def underutilized_percentage(self) -> float:
        """Underutilized cores / allocated cores ("underutilized ... 23%")."""
        if self.allocated_cores <= 0:
            return 0.0
        return self.underutilized_cores / self.allocated_cores


@dataclass(frozen=True)
class ShiftRecommendation:
    """One proposed service move."""

    service: str
    subscription_ids: tuple[int, ...]
    source_region: str
    target_region: str
    moved_cores: float
    reason: str


class RegionShiftPlanner:
    """Measures region health and plans region-agnostic workload shifts."""

    def __init__(
        self,
        store: TraceStore,
        *,
        cloud: Cloud = Cloud.PRIVATE,
    ) -> None:
        self.store = store
        self.cloud = cloud
        #: Health is measured on the VMs alive mid-window.
        self.snapshot_time = store.metadata.duration / 2

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _vm_mean_utilization(self, vm_id: int) -> float | None:
        series = self.store.utilization(vm_id)
        if series is None:
            return None
        lo, hi = self.store.metadata.sample_window(self.store.vm(vm_id))
        window = series[lo:hi]
        if window.size == 0:
            return None
        return float(window.mean())

    def snapshot(
        self,
        region: str,
        *,
        exclude_vm_ids: set[int] | None = None,
        extra_cores: float = 0.0,
        extra_underutilized_cores: float = 0.0,
    ) -> RegionSnapshot:
        """Health metrics of ``region`` at the snapshot time.

        ``exclude_vm_ids``/``extra_*`` build counterfactual snapshots: the
        source region after a shift excludes the moved VMs, the target
        region adds their cores.
        """
        exclude = exclude_vm_ids or set()
        capacity = sum(
            c.capacity_cores
            for c in self.store.clusters.values()
            if c.region == region and c.cloud == self.cloud
        )
        allocated = extra_cores
        underutilized = extra_underutilized_cores
        for vm in self.store.vms(cloud=self.cloud, region=region):
            if vm.vm_id in exclude:
                continue
            if not (vm.created_at <= self.snapshot_time < vm.ended_at):
                continue
            allocated += vm.cores
            mean_util = self._vm_mean_utilization(vm.vm_id)
            if mean_util is not None and mean_util < UNDERUTILIZED_THRESHOLD:
                underutilized += vm.cores
        return RegionSnapshot(
            region=region,
            capacity_cores=capacity,
            allocated_cores=allocated,
            underutilized_cores=underutilized,
        )

    def all_snapshots(self) -> dict[str, RegionSnapshot]:
        """Snapshots of every region hosting this cloud."""
        return {
            region: self.snapshot(region)
            for region in self.store.region_names(cloud=self.cloud)
        }

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def recommend(
        self,
        *,
        source_region: str | None = None,
        target_region: str | None = None,
    ) -> list[ShiftRecommendation]:
        """Recommend shifting up to three region-agnostic services out of a hot region.

        Without explicit regions, picks the region with the highest
        underutilized percentage as the source and the one with the most
        idle capacity as the target.
        """
        snapshots = self.all_snapshots()
        if len(snapshots) < 2:
            return []
        if source_region is None:
            source_region = max(
                snapshots.values(), key=lambda s: s.underutilized_percentage
            ).region
        if target_region is None:
            target_region = max(
                (s for s in snapshots.values() if s.region != source_region),
                key=lambda s: s.capacity_cores - s.allocated_cores,
            ).region

        # Region-agnostic candidates deployed in the source region.
        reports = region_agnostic_subscriptions(self.store, self.cloud)
        by_service: dict[str, list[int]] = {}
        for report in reports:
            if report.region_agnostic and source_region in report.regions:
                by_service.setdefault(report.service, []).append(
                    report.subscription_id
                )

        recommendations = []
        for service, sub_ids in sorted(by_service.items()):
            moved = self._moved_cores(sub_ids, source_region)
            if moved <= 0:
                continue
            recommendations.append(
                ShiftRecommendation(
                    service=service,
                    subscription_ids=tuple(sub_ids),
                    source_region=source_region,
                    target_region=target_region,
                    moved_cores=moved,
                    reason=(
                        f"cross-region utilization correlation >= "
                        f"{REGION_AGNOSTIC_THRESHOLD} in all deployed regions"
                    ),
                )
            )
            if len(recommendations) >= 3:
                break
        return recommendations

    def _moved_vms(self, sub_ids: list[int], region: str) -> list[int]:
        return [
            vm.vm_id
            for vm in self.store.vms(cloud=self.cloud, region=region)
            if vm.subscription_id in set(sub_ids)
            and vm.created_at <= self.snapshot_time < vm.ended_at
        ]

    def _moved_cores(self, sub_ids: list[int], region: str) -> float:
        return sum(self.store.vm(v).cores for v in self._moved_vms(sub_ids, region))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_shift(
        self, recommendation: ShiftRecommendation
    ) -> dict[str, RegionSnapshot]:
        """Before/after snapshots of both regions for one recommendation.

        Returns keys ``source_before``, ``source_after``, ``target_before``,
        ``target_after`` -- the exact quantities of the Canada pilot.
        """
        moved_ids = set(
            self._moved_vms(
                list(recommendation.subscription_ids), recommendation.source_region
            )
        )
        moved_cores = sum(self.store.vm(v).cores for v in moved_ids)
        moved_underutilized = sum(
            self.store.vm(v).cores
            for v in moved_ids
            if (mu := self._vm_mean_utilization(v)) is not None
            and mu < UNDERUTILIZED_THRESHOLD
        )
        return {
            "source_before": self.snapshot(recommendation.source_region),
            "source_after": self.snapshot(
                recommendation.source_region, exclude_vm_ids=moved_ids
            ),
            "target_before": self.snapshot(recommendation.target_region),
            "target_after": self.snapshot(
                recommendation.target_region,
                extra_cores=moved_cores,
                extra_underutilized_cores=moved_underutilized,
            ),
        }
