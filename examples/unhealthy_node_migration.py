"""Lifetime-aware migration off an unhealthy node (the paper's Section I
motivating example).

"To avoid service interruption, the cloud platform could choose to migrate
out VMs from nodes with unhealthy signals ... With knowledge of the lifetime
of VMs running on this node, the cloud platform can optimize this procedure
by only migrating out VMs with long remaining time."

This example trains the lifetime predictor on the first half of the week,
then replays a failure schedule -- nodes signal unhealthy mid-week and fail
two hours later -- under migrate-all, migrate-none and lifetime-aware
evacuation (:mod:`repro.cloud.health`).

Run:
    python examples/unhealthy_node_migration.py
"""

from __future__ import annotations

import numpy as np

from repro import Cloud, private_profile
from repro.cloud.health import NodeHealthMonitor, evaluate_policies
from repro.management.prediction import LifetimePredictor
from repro.workloads.generator import GeneratorConfig, TraceGenerator

#: Unhealthy signal to node failure; VMs predicted to finish sooner stay put.
LEAD_TIME = 2 * 3600.0


def main() -> None:
    config = GeneratorConfig(seed=9, scale=0.15, synthesize_utilization=False)
    trace = TraceGenerator(private_profile(), config).generate()

    print("Training the lifetime predictor on the first half of the week ...")
    predictor = LifetimePredictor()
    evaluation = predictor.evaluate(trace)
    print(
        f"  holdout accuracy {evaluation.accuracy:.0%} "
        f"(base rate {evaluation.base_rate:.0%}, "
        f"{evaluation.n_train} train / {evaluation.n_test} test VMs)\n"
    )

    # Mid-week, some nodes report unhealthy signals.  Pick nodes that host
    # freshly created (likely short-lived) VMs -- these are exactly the
    # nodes where the lifetime-aware policy pays off.
    now = trace.metadata.duration / 2
    rng = np.random.default_rng(1)
    alive_by_node = {}
    for node_id, vms in trace.vms_by_node(cloud=Cloud.PRIVATE).items():
        alive = [vm for vm in vms if vm.created_at <= now < vm.ended_at]
        if len(alive) >= 3 and any(now - vm.created_at < 1800 for vm in alive):
            alive_by_node[node_id] = alive
    candidates = sorted(alive_by_node)
    unhealthy = rng.choice(candidates, size=min(5, len(candidates)), replace=False)

    monitor = NodeHealthMonitor(
        failure_times={int(node_id): now + LEAD_TIME for node_id in unhealthy},
        lead_time=LEAD_TIME,
    )
    predicted = {
        vm.vm_id: predictor.predict_remaining_time(vm, now=now)
        for node_id in monitor.failure_times
        for vm in alive_by_node[node_id]
    }
    outcomes = evaluate_policies(trace, monitor, predicted_remaining=predicted)

    print(
        f"{len(monitor.failure_times)} nodes signal unhealthy at t={now / 3600:.0f} h "
        f"and fail {LEAD_TIME / 3600:.0f} h later ({len(predicted)} VMs alive):"
    )
    for policy, outcome in outcomes.items():
        print(
            f"  {policy:<15} migrate {outcome.migrations:3d}, "
            f"interrupted {outcome.interrupted:3d}, "
            f"wasted migrations {outcome.wasted_migrations:3d}"
        )

    saved = outcomes["migrate-all"].migrations - outcomes["lifetime-aware"].migrations
    print(
        f"\nSummary: lifetime-aware evacuation avoids {saved} of "
        f"{outcomes['migrate-all'].migrations} migrations "
        f"({outcomes['lifetime-aware'].wasted_migrations} would-have-finished "
        "VMs still moved)."
    )


if __name__ == "__main__":
    main()
