"""Stateful property test: the platform under random lifecycle sequences.

Hypothesis drives random create/terminate sequences against a small fleet
and checks the core safety invariants after every step:

* no node ever exceeds its core/memory capacity;
* the trace store and the allocator agree on who is alive and where;
* released resources are really released (conservation).
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.sku import NodeSku, VMSku
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore

SKUS = (VMSku("s1", 1, 4), VMSku("s2", 2, 8), VMSku("s4", 4, 16), VMSku("s8", 8, 32))


class PlatformMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        spec = TopologySpec(
            cloud=Cloud.PRIVATE,
            regions=(RegionSpec("a", 0), RegionSpec("b", 0)),
            clusters_per_region=1,
            racks_per_cluster=2,
            nodes_per_rack=2,
            node_sku=NodeSku("n", 16, 64),
        )
        self.platform = CloudPlatform(
            build_topology(spec), TraceStore(), rng=np.random.default_rng(0)
        )
        self.clock = 0.0
        self.live: set[int] = set()

    def _tick(self) -> float:
        self.clock += 60.0
        return self.clock

    @rule(
        sku_idx=st.integers(0, len(SKUS) - 1),
        region=st.sampled_from(["a", "b"]),
        sub=st.integers(1, 4),
    )
    def create(self, sku_idx, region, sub):
        vm_id = self.platform.create_vm(
            VMRequest(
                subscription_id=sub,
                deployment_id=sub,
                service="svc",
                region=region,
                sku=SKUS[sku_idx],
            ),
            self._tick(),
        )
        if vm_id is not None:
            self.live.add(vm_id)

    @rule(pick=st.randoms(use_true_random=False))
    def terminate(self, pick):
        if not self.live:
            return
        vm_id = pick.choice(sorted(self.live))
        self.platform.terminate_vm(vm_id, self._tick())
        self.live.discard(vm_id)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    @invariant()
    def nodes_never_overcommitted(self):
        for node in self.platform.topology.nodes.values():
            assert node.used_cores <= node.capacity_cores + 1e-9
            assert node.used_memory_gb <= node.capacity_memory_gb + 1e-9
            booked = sum(c for c, _m in node.hosted.values())
            assert abs(booked - node.used_cores) < 1e-9

    @invariant()
    def store_and_allocator_agree(self):
        assert self.platform.allocated_vm_count == len(self.live)
        for vm_id in self.live:
            node = self.platform.allocator.node_of(vm_id)
            assert node is not None
            assert vm_id in node.hosted
            record = self.platform.store.vm(vm_id)
            assert record.node_id == node.node_id
            assert record.ended_at == float("inf")

    @invariant()
    def dead_vms_are_finalized(self):
        for vm in self.platform.store.vms():
            if vm.vm_id not in self.live:
                assert vm.ended_at != float("inf")
                assert self.platform.allocator.node_of(vm.vm_id) is None


TestPlatformStateMachine = PlatformMachine.TestCase
TestPlatformStateMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
