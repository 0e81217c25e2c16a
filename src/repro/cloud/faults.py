"""Failure injection: node failures and VM live migration.

:class:`FailureInjector` fails a node on a running :class:`CloudPlatform`
and re-places every VM it hosted elsewhere in the region (or evicts it
when capacity is exhausted).  Which VMs are *worth* moving ahead of a
predicted failure -- the lifetime-aware evacuation of the paper's
Section I example -- is decided and evaluated in :mod:`repro.cloud.health`.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.allocator import AllocationFailure
from repro.cloud.platform import CloudPlatform
from repro.telemetry.schema import EventKind, EventRecord


class FailureInjector:
    """Fails nodes and relocates their VMs elsewhere in the region."""

    def __init__(
        self, platform: CloudPlatform, *, rng: np.random.Generator | None = None
    ) -> None:
        self.platform = platform
        self._rng = rng or np.random.default_rng(0)
        self.migrations = 0
        self.lost_vms = 0

    def fail_node(self, node_id: int, time: float) -> dict[int, int | None]:
        """Fail a node: evacuate every hosted VM to another node.

        Returns ``{vm_id: new_node_id}``; ``None`` marks VMs that could not
        be re-placed (capacity exhausted) and were lost.
        """
        allocator = self.platform.allocator
        store = self.platform.store
        victim_ids = allocator.mark_node_down(node_id)
        outcome: dict[int, int | None] = {}
        for vm_id in victim_ids:
            vm = store.vm(vm_id)
            allocator.release(vm_id, deployment_id=vm.deployment_id)
            try:
                new_node = allocator.allocate(
                    vm_id,
                    vm.cores,
                    vm.memory_gb,
                    region=vm.region,
                    deployment_id=vm.deployment_id,
                    subscription_id=vm.subscription_id,
                )
            except AllocationFailure:
                store.finalize_vm(vm_id, time)
                store.add_event(
                    EventRecord(
                        time=time,
                        kind=EventKind.EVICT,
                        vm_id=vm_id,
                        cloud=vm.cloud,
                        region=vm.region,
                        detail=f"node {node_id} failed; no capacity",
                    )
                )
                self.lost_vms += 1
                outcome[vm_id] = None
                continue
            store.reassign_vm_placement(
                vm_id,
                node_id=new_node.node_id,
                rack_id=new_node.rack_id,
                cluster_id=new_node.cluster_id,
            )
            store.add_event(
                EventRecord(
                    time=time,
                    kind=EventKind.MIGRATE,
                    vm_id=vm_id,
                    cloud=vm.cloud,
                    region=vm.region,
                    detail=f"node {node_id} -> node {new_node.node_id}",
                )
            )
            self.migrations += 1
            outcome[vm_id] = new_node.node_id
        return outcome

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back into rotation."""
        self.platform.allocator.mark_node_up(node_id)
