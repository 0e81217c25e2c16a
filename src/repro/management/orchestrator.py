"""The workload-aware optimization loop (Section V).

"A workload knowledge base will then be the key pillar of the future
workload-aware intelligent cloud platform, and it allows the cloud provider
to maximally optimize the platform's performance by tailoring to its hosted
workloads."

:class:`WorkloadAwareOrchestrator` is that loop, end to end: it builds (or
takes) a knowledge base, routes each subscription to the policies the KB
recommends, sizes every policy's opportunity on the actual trace, and
produces one consolidated report:

* spot adoption            -> bill reduction on the public cloud;
* chance-constrained
  over-subscription        -> utilization gain on private nodes;
* region-agnostic shifting -> hot-region health improvement;
* valley filling           -> peak-to-valley flattening of a hot region;
* peak absorption          -> served hourly peaks (pre-provision/overclock).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.knowledge_base import (
    POLICY_OVERSUBSCRIPTION,
    POLICY_REGION_SHIFT,
    POLICY_SPOT_ADOPTION,
    POLICY_VALLEY_FILL,
    WorkloadKnowledgeBase,
)
from repro.management.oversubscription import ChanceConstrainedOversubscriber
from repro.management.peaks import compare_strategies
from repro.management.placement import RegionShiftPlanner
from repro.management.scheduling import ValleyScheduler, jobs_from_fraction
from repro.management.spot import SpotAdoptionAdvisor
from repro.telemetry.schema import Cloud, PATTERN_HOURLY_PEAK
from repro.telemetry.store import TraceStore


@dataclass
class PolicyOutcome:
    """The sized opportunity of one optimization policy."""

    policy: str
    applicable_subscriptions: int
    metrics: dict[str, float] = field(default_factory=dict)
    detail: str = ""

    def render(self) -> str:
        """One summary block for the console report."""
        lines = [f"{self.policy} ({self.applicable_subscriptions} subscriptions)"]
        for key, value in self.metrics.items():
            if abs(value) < 1 and key.endswith(("fraction", "gain", "reduction", "rate")):
                lines.append(f"    {key}: {value:.1%}")
            else:
                lines.append(f"    {key}: {value:,.2f}")
        if self.detail:
            lines.append(f"    {self.detail}")
        return "\n".join(lines)


@dataclass
class OptimizationReport:
    """Consolidated output of one orchestrator run."""

    outcomes: list[PolicyOutcome]

    def render(self) -> str:
        """Console rendering."""
        lines = ["Workload-aware optimization report", "=" * 40]
        for outcome in self.outcomes:
            lines.append(outcome.render())
        return "\n".join(lines)


class WorkloadAwareOrchestrator:
    """Sizes every paper-motivated optimization on one trace."""

    def __init__(
        self,
        store: TraceStore,
        *,
        knowledge_base: WorkloadKnowledgeBase | None = None,
        node_capacity_cores: float = 96.0,
        spot_discount: float = 0.7,
        seed: int = 0,
    ) -> None:
        self.store = store
        self.kb = knowledge_base or WorkloadKnowledgeBase.from_trace(store)
        self.node_capacity = node_capacity_cores
        self.spot_discount = spot_discount
        self._rng = np.random.default_rng(seed)

    def _subscriptions_with(self, policy: str) -> list[int]:
        return [
            record.subscription_id
            for record in self.kb.subscriptions()
            if policy in self.kb.recommend_policies(record.subscription_id)
        ]

    # ------------------------------------------------------------------
    # per-policy sizing
    # ------------------------------------------------------------------
    def size_spot_adoption(self) -> PolicyOutcome | None:
        """IM2: the bill reduction from running short public VMs as spot."""
        applicable = self._subscriptions_with(POLICY_SPOT_ADOPTION)
        if not applicable:
            return None
        try:
            report = SpotAdoptionAdvisor(
                self.store, spot_discount=self.spot_discount
            ).analyze()
        except ValueError:
            return None
        return PolicyOutcome(
            policy=POLICY_SPOT_ADOPTION,
            applicable_subscriptions=len(applicable),
            metrics={
                "candidate_fraction": report.candidate_fraction,
                "cost_saving_fraction": report.cost_saving_fraction,
                "expected_evictions": report.expected_evictions,
            },
            detail=f"{report.n_candidates} candidate VMs "
            f"({report.candidate_core_hours:,.0f} core-hours)",
        )

    def size_oversubscription(self, *, epsilon: float = 0.05) -> PolicyOutcome | None:
        """IM1: utilization gain from chance-constrained packing."""
        applicable = self._subscriptions_with(POLICY_OVERSUBSCRIPTION)
        if not applicable:
            return None
        try:
            packer = ChanceConstrainedOversubscriber(
                self.store, cloud=Cloud.PRIVATE, max_candidates=400
            )
        except ValueError:
            return None
        baseline = packer.pack_baseline(self.node_capacity)
        packed = packer.pack_chance_constrained(self.node_capacity, epsilon)
        if baseline.mean_utilization <= 0:
            return None
        return PolicyOutcome(
            policy=POLICY_OVERSUBSCRIPTION,
            applicable_subscriptions=len(applicable),
            metrics={
                "utilization_gain": packed.improvement_over(baseline),
                "violation_rate": packed.violation_probability,
            },
            detail=f"epsilon={epsilon}: {baseline.n_vms_packed} -> "
            f"{packed.n_vms_packed} VMs per {self.node_capacity:.0f}-core node",
        )

    def size_region_shift(self) -> PolicyOutcome | None:
        """The Canada-pilot move, on whatever region is unhealthiest."""
        applicable = self._subscriptions_with(POLICY_REGION_SHIFT)
        if not applicable:
            return None
        planner = RegionShiftPlanner(self.store, cloud=Cloud.PRIVATE)
        recommendations = planner.recommend()
        if not recommendations:
            return None
        outcome = planner.evaluate_shift(recommendations[0])
        before = outcome["source_before"]
        after = outcome["source_after"]
        return PolicyOutcome(
            policy=POLICY_REGION_SHIFT,
            applicable_subscriptions=len(applicable),
            metrics={
                "underutilized_reduction": (
                    before.underutilized_percentage - after.underutilized_percentage
                ),
                "moved_cores": recommendations[0].moved_cores,
            },
            detail=f"shift {recommendations[0].service} "
            f"{recommendations[0].source_region} -> "
            f"{recommendations[0].target_region}",
        )

    def size_valley_fill(self) -> PolicyOutcome | None:
        """Deferrable-job flattening of the busiest private region."""
        applicable = self._subscriptions_with(POLICY_VALLEY_FILL)
        if not applicable:
            return None
        from repro.core.deployment import vm_count_series

        regions = self.store.region_names(cloud=Cloud.PRIVATE)
        if not regions:
            return None
        busiest = max(
            regions,
            key=lambda r: len(self.store.vms(cloud=Cloud.PRIVATE, region=r)),
        )
        capacity = sum(
            c.capacity_cores
            for c in self.store.clusters.values()
            if c.region == busiest and c.cloud == Cloud.PRIVATE
        )
        if capacity <= 0:
            return None
        counts = vm_count_series(self.store, Cloud.PRIVATE, region=busiest)
        used = counts.astype(np.float64) * 5.5 * 0.15  # cores x mean util
        scheduler = ValleyScheduler(used, capacity)
        jobs = jobs_from_fraction(used, capacity, fill_fraction=0.3, rng=self._rng)
        outcome = scheduler.schedule(jobs)
        return PolicyOutcome(
            policy=POLICY_VALLEY_FILL,
            applicable_subscriptions=len(applicable),
            metrics={
                "variance_reduction": outcome.variance_reduction,
                "jobs_placed": float(len(outcome.scheduled)),
            },
            detail=f"region {busiest}: peak-to-valley "
            f"{outcome.peak_to_valley_before:.0f} -> "
            f"{outcome.peak_to_valley_after:.0f} cores",
        )

    def size_peak_absorption(self) -> PolicyOutcome | None:
        """Pre-provision vs overclock on an hourly-peak-heavy node demand."""
        hourly_vms = [
            vm_id
            for vm_id in self.store.vm_ids_with_utilization()
            if self.store.vm(vm_id).pattern == PATTERN_HOURLY_PEAK
        ][:24]
        if len(hourly_vms) < 4:
            return None
        matrix = self.store.utilization_matrix(hourly_vms).astype(np.float64)
        cores = np.array([self.store.vm(v).cores for v in hourly_vms])
        demand = (matrix * cores[:, None]).sum(axis=0)
        capacity = float(np.quantile(demand, 0.80))
        if capacity <= 0:
            return None
        outcomes = compare_strategies(
            demand, capacity, sample_period=self.store.metadata.sample_period,
            boost=0.3, budget_minutes_per_hour=15,
        )
        return PolicyOutcome(
            policy="hourly-peak-absorption",
            applicable_subscriptions=len(
                {self.store.vm(v).subscription_id for v in hourly_vms}
            ),
            metrics={
                "baseline_served_peak_fraction": outcomes["baseline"].served_peak_fraction,
                "preprovision_served_peak_fraction": outcomes[
                    "pre-provision"
                ].served_peak_fraction,
                "overclock_served_peak_fraction": outcomes[
                    "overclock"
                ].served_peak_fraction,
            },
            detail=f"{len(hourly_vms)} hourly-peak VMs aggregated "
            f"({demand.max():.0f} peak cores vs {capacity:.0f} capacity)",
        )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self) -> OptimizationReport:
        """Size every applicable policy and consolidate the report."""
        outcomes = [
            self.size_spot_adoption(),
            self.size_oversubscription(),
            self.size_region_shift(),
            self.size_valley_fill(),
            self.size_peak_absorption(),
        ]
        return OptimizationReport(outcomes=[o for o in outcomes if o is not None])
