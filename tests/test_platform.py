"""Unit tests for the cloud platform layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.simulation import Simulator
from repro.cloud.sku import NodeSku, VMSku
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore
from repro.workloads.generator import _timed_terminator


@pytest.fixture()
def platform():
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=(RegionSpec("a", -5), RegionSpec("b", -8)),
        clusters_per_region=1,
        racks_per_cluster=2,
        nodes_per_rack=2,
        node_sku=NodeSku("t", 16, 64),
    )
    store = TraceStore()
    return CloudPlatform(build_topology(spec), store, rng=np.random.default_rng(0))


def request(**overrides) -> VMRequest:
    defaults = dict(
        subscription_id=1,
        deployment_id=1,
        service="svc",
        region="a",
        sku=VMSku("D4", 4, 16),
        pattern="stable",
    )
    defaults.update(overrides)
    return VMRequest(**defaults)


def test_topology_registered_in_store(platform):
    store = platform.store
    assert len(store.regions) == 2
    assert len(store.clusters) == 2
    assert len(store.nodes) == 8


def test_create_vm_records_everything(platform):
    vm_id = platform.create_vm(request(), 100.0)
    vm = platform.store.vm(vm_id)
    assert vm.created_at == 100.0
    assert vm.ended_at == float("inf")
    assert vm.cores == 4
    assert vm.node_id in platform.store.nodes
    events = platform.store.events(kind=EventKind.CREATE)
    assert len(events) == 1 and events[0].time == 100.0
    assert platform.allocated_vm_count == 1


def test_backdated_creation_suppresses_event(platform):
    vm_id = platform.create_vm(request(), 0.0, backdate_to=-5000.0)
    assert platform.store.vm(vm_id).created_at == -5000.0
    assert platform.store.events(kind=EventKind.CREATE) == []


def test_terminate_vm(platform):
    vm_id = platform.create_vm(request(), 0.0)
    platform.terminate_vm(vm_id, 500.0)
    vm = platform.store.vm(vm_id)
    assert vm.ended_at == 500.0
    assert platform.allocated_vm_count == 0
    events = platform.store.events(kind=EventKind.TERMINATE)
    assert len(events) == 1
    assert events[0].region == vm.region == "a"


def test_timed_terminator_ends_a_vm_once(platform):
    """A second scheduled end of the same VM raises instead of being skipped."""
    simulator = Simulator()
    vm_id = platform.create_vm(request(), 0.0)
    simulator.schedule(100.0, _timed_terminator(platform, simulator, vm_id))
    simulator.schedule(200.0, _timed_terminator(platform, simulator, vm_id))
    with pytest.raises(KeyError):
        simulator.run()
    assert simulator.now == 200.0
    assert platform.store.vm(vm_id).ended_at == 100.0
    assert len(platform.store.events(kind=EventKind.TERMINATE)) == 1


def test_ended_vms_leave_no_bookkeeping(platform):
    """Per-VM state shrinks with the live VMs, not with every VM ever created."""
    vm_ids = [platform.create_vm(request(deployment_id=d), 0.0) for d in (1, 1, 2)]
    platform.terminate_vm(vm_ids[0], 10.0)
    platform.terminate_vm(vm_ids[1], 20.0)
    assert set(platform._vm_deployment) == {vm_ids[2]}
    platform.terminate_vm(vm_ids[2], 30.0)
    assert not platform._vm_deployment
    assert not platform.allocator._deployment_rack_count


def test_allocation_failure_recorded_not_raised(platform):
    # Region 'a' has 4 nodes x 16 cores; a 16-core request fills one node.
    for _ in range(4):
        assert platform.create_vm(request(sku=VMSku("big", 16, 64)), 0.0) is not None
    failed = platform.create_vm(request(sku=VMSku("big", 16, 64)), 1.0)
    assert failed is None
    failures = platform.store.events(kind=EventKind.ALLOCATION_FAILURE)
    assert len(failures) == 1
    assert failures[0].vm_id == -1


def test_vm_ids_monotonic_with_offset():
    spec = TopologySpec(
        cloud=Cloud.PUBLIC,
        regions=(RegionSpec("a", 0),),
        clusters_per_region=1,
        racks_per_cluster=1,
        nodes_per_rack=1,
        node_sku=NodeSku("t", 16, 64),
    )
    platform = CloudPlatform(
        build_topology(spec), TraceStore(), vm_id_offset=1000
    )
    first = platform.create_vm(request(), 0.0)
    second = platform.create_vm(request(), 0.0)
    assert first == 1000 and second == 1001
