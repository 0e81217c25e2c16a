"""Region-agnostic workload detection and hot-to-cold rebalancing.

Reproduces the workflow behind the paper's Canada pilot (Section IV-B):

1. detect region-agnostic subscriptions from cross-region utilization
   correlation;
2. measure per-region capacity health (core utilization rate, underutilized
   core percentage);
3. plan a shift out of the unhealthiest region and evaluate the
   counterfactual.

Run:
    python examples/region_balancing.py
"""

from __future__ import annotations

from repro import Cloud
from repro.core.correlation import region_agnostic_subscriptions
from repro.experiments.case_study import build_canada_scenario
from repro.management.placement import RegionShiftPlanner


def main() -> None:
    trace = build_canada_scenario(seed=11)

    # ------------------------------------------------------------------
    # 1. Region-agnostic detection.
    # ------------------------------------------------------------------
    print("1) Region-agnostic candidates (cross-region correlation >= 0.7)")
    for report in region_agnostic_subscriptions(trace, Cloud.PRIVATE):
        verdict = "REGION-AGNOSTIC" if report.region_agnostic else "region-sensitive"
        print(
            f"   sub {report.subscription_id} ({report.service}) over "
            f"{len(report.regions)} regions: min pairwise r = "
            f"{report.min_pairwise_correlation:.2f} -> {verdict}"
        )

    # ------------------------------------------------------------------
    # 2. Region health snapshots.
    # ------------------------------------------------------------------
    print("\n2) Region capacity health")
    planner = RegionShiftPlanner(trace, cloud=Cloud.PRIVATE)
    for region, snap in planner.all_snapshots().items():
        print(
            f"   {region}: utilization {snap.core_utilization_rate:.0%}, "
            f"underutilized cores {snap.underutilized_percentage:.0%} of allocated"
        )

    # ------------------------------------------------------------------
    # 3. Plan and evaluate the shift.
    # ------------------------------------------------------------------
    print("\n3) Shift plan and counterfactual")
    recommendations = planner.recommend(
        source_region="canada-a", target_region="canada-b"
    )
    for rec in recommendations:
        print(
            f"   move {rec.service} ({rec.moved_cores:.0f} cores) "
            f"{rec.source_region} -> {rec.target_region}: {rec.reason}"
        )
        outcome = planner.evaluate_shift(rec)
        before, after = outcome["source_before"], outcome["source_after"]
        print(
            f"     {rec.source_region}: underutilized "
            f"{before.underutilized_percentage:.0%} -> "
            f"{after.underutilized_percentage:.0%}, utilization "
            f"{before.core_utilization_rate:.0%} -> "
            f"{after.core_utilization_rate:.0%}"
        )
        t_before, t_after = outcome["target_before"], outcome["target_after"]
        print(
            f"     {rec.target_region}: utilization "
            f"{t_before.core_utilization_rate:.0%} -> "
            f"{t_after.core_utilization_rate:.0%} (minor, has idle capacity)"
        )


if __name__ == "__main__":
    main()
