"""Unit tests for failure injection: node failure, eviction and recovery."""

from __future__ import annotations

import numpy as np

from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.faults import FailureInjector
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.sku import NodeSku, VMSku
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore


def make_platform(nodes_per_rack=2, racks=2) -> CloudPlatform:
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=(RegionSpec("a", 0),),
        clusters_per_region=1,
        racks_per_cluster=racks,
        nodes_per_rack=nodes_per_rack,
        node_sku=NodeSku("t", 16, 64),
    )
    return CloudPlatform(build_topology(spec), TraceStore(), rng=np.random.default_rng(0))


def fill_node(platform, n_vms=3, deployment_id=1):
    vm_ids = []
    for _ in range(n_vms):
        vm_id = platform.create_vm(
            VMRequest(
                subscription_id=1,
                deployment_id=deployment_id,
                service="svc",
                region="a",
                sku=VMSku("D2", 2, 8),
            ),
            0.0,
        )
        vm_ids.append(vm_id)
    return vm_ids


def test_fail_node_migrates_vms():
    platform = make_platform()
    vm_ids = fill_node(platform, n_vms=4)
    injector = FailureInjector(platform)
    victim_node = platform.store.vm(vm_ids[0]).node_id
    victims_before = [
        v for v in vm_ids if platform.store.vm(v).node_id == victim_node
    ]
    outcome = injector.fail_node(victim_node, 1000.0)

    assert set(outcome) == set(victims_before)
    assert injector.migrations == len(victims_before)
    assert injector.lost_vms == 0
    for vm_id, new_node in outcome.items():
        assert new_node is not None and new_node != victim_node
        # Store placement updated to the new node.
        assert platform.store.vm(vm_id).node_id == new_node
    migrate_events = platform.store.events(kind=EventKind.MIGRATE)
    assert len(migrate_events) == len(victims_before)


def test_fail_node_without_capacity_loses_vms():
    platform = make_platform(nodes_per_rack=1, racks=1)  # single node!
    vm_ids = fill_node(platform, n_vms=2)
    injector = FailureInjector(platform)
    node_id = platform.store.vm(vm_ids[0]).node_id
    outcome = injector.fail_node(node_id, 500.0)
    assert all(v is None for v in outcome.values())
    assert injector.lost_vms == 2
    evictions = platform.store.events(kind=EventKind.EVICT)
    assert len(evictions) == 2
    # Lost VMs are finalized at the failure time.
    for vm_id in outcome:
        assert platform.store.vm(vm_id).ended_at == 500.0


def test_recover_node_restores_rotation():
    platform = make_platform()
    vm_ids = fill_node(platform)
    injector = FailureInjector(platform)
    node_id = platform.store.vm(vm_ids[0]).node_id
    injector.fail_node(node_id, 100.0)
    assert platform.allocator.is_down(node_id)
    injector.recover_node(node_id)
    assert not platform.allocator.is_down(node_id)
