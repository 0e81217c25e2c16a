"""Capacity planning for the private cloud.

Exercises the Section III-B implications for private workloads:

1. chance-constrained over-subscription (sweep the safety level and show
   the utilization-gain band);
2. valley filling: schedule deferrable batch jobs into the diurnal valley
   of a region's utilization profile;
3. allocation-failure risk as a function of load and arrival bursts.

Run:
    python examples/capacity_planning.py
"""

from __future__ import annotations

import numpy as np

from repro import Cloud, GeneratorConfig, generate_trace_pair
from repro.core.deployment import vm_count_series
from repro.management.oversubscription import (
    ChanceConstrainedOversubscriber,
    sweep_epsilon,
)
from repro.management.prediction import AllocationFailurePredictor
from repro.management.scheduling import ValleyScheduler, jobs_from_fraction


def main() -> None:
    trace = generate_trace_pair(GeneratorConfig(seed=11, scale=0.2))

    # ------------------------------------------------------------------
    # 1. Over-subscription: how much utilization does each safety level buy?
    # ------------------------------------------------------------------
    print("1) Chance-constrained over-subscription (one 96-core node)")
    oversubscriber = ChanceConstrainedOversubscriber(
        trace, cloud=Cloud.PRIVATE, max_candidates=400
    )
    baseline = oversubscriber.pack_baseline(96.0)
    print(
        f"   baseline: {baseline.n_vms_packed} VMs reserved "
        f"{baseline.reserved_cores:.0f}c, mean utilization "
        f"{baseline.mean_utilization:.0%}"
    )
    for outcome, gain in sweep_epsilon(oversubscriber, 96.0):
        print(
            f"   eps={outcome.epsilon:<6g} packs {outcome.n_vms_packed:3d} VMs, "
            f"utilization {outcome.mean_utilization:.0%} ({gain:+.0%} vs baseline), "
            f"overload probability {outcome.violation_probability:.3f}"
        )

    # ------------------------------------------------------------------
    # 2. Valley filling with deferrable jobs.
    # ------------------------------------------------------------------
    print("\n2) Deferrable-job valley filling (us-east, private cloud)")
    region = "us-east"
    capacity = sum(
        c.capacity_cores
        for c in trace.clusters.values()
        if c.region == region and str(c.cloud) == "private"
    )
    counts = vm_count_series(trace, Cloud.PRIVATE, region=region).astype(np.float64)
    # Approximate used cores: VM count x average cores x average utilization.
    vm_ids = [
        vm.vm_id
        for vm in trace.vms(cloud=Cloud.PRIVATE, region=region)
        if trace.has_utilization(vm.vm_id)
    ]
    avg_util = float(trace.utilization_mean(vm_ids).mean())
    used_cores = counts * 5.5 * avg_util
    scheduler = ValleyScheduler(used_cores, capacity)
    jobs = jobs_from_fraction(used_cores, capacity, fill_fraction=0.3)
    outcome = scheduler.schedule(jobs)
    print(
        f"   {len(outcome.scheduled)} jobs placed, {len(outcome.rejected)} rejected; "
        f"peak-to-valley {outcome.peak_to_valley_before:.0f} -> "
        f"{outcome.peak_to_valley_after:.0f} cores "
        f"(variance reduced by {outcome.variance_reduction:.0%})"
    )

    # ------------------------------------------------------------------
    # 3. Allocation-failure risk model, trained on an under-provisioned
    #    fleet (failures only appear when clusters run hot).
    # ------------------------------------------------------------------
    print("\n3) Allocation-failure risk (load x burst features)")
    from dataclasses import replace

    from repro import private_profile
    from repro.workloads.generator import TraceGenerator

    stressed_profile = replace(
        private_profile(),
        clusters_per_region=1,
        racks_per_cluster=2,
        nodes_per_rack=3,
    )
    stressed = TraceGenerator(
        stressed_profile,
        GeneratorConfig(seed=11, scale=0.25),
    ).generate()
    n_failures = len(
        [e for e in stressed.events() if e.kind.value == "allocation_failure"]
    )
    print(f"   stressed fleet observed {n_failures} allocation failures")
    try:
        predictor = AllocationFailurePredictor().fit(stressed, Cloud.PRIVATE)
        for load, burst in ((0.5, 2), (0.9, 2), (0.9, 120)):
            risk = predictor.predict_risk(load, burst)
            print(
                f"   load={load:.0%} arrivals/h={burst:>3d} -> "
                f"failure risk {risk:.1%}"
            )
    except ValueError as exc:
        print(f"   (skipped: {exc})")


if __name__ == "__main__":
    main()
