"""Unit and property tests for the allocation service."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.allocator import AllocationFailure, AllocationService, PlacementPolicy
from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.sku import NodeSku
from repro.telemetry.schema import Cloud
from repro.workloads.generator import GeneratorConfig, TraceGenerator
from repro.workloads.profiles import private_profile


def make_service(
    *,
    policy=PlacementPolicy.SPREAD,
    racks=4,
    nodes=3,
    clusters=2,
    regions=("a", "b"),
    node_cores=16.0,
) -> AllocationService:
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=tuple(RegionSpec(r, 0) for r in regions),
        clusters_per_region=clusters,
        racks_per_cluster=racks,
        nodes_per_rack=nodes,
        node_sku=NodeSku("t", node_cores, node_cores * 4),
    )
    return AllocationService(build_topology(spec), policy=policy, rng=np.random.default_rng(0))


def test_basic_allocation_and_release():
    service = make_service()
    node = service.allocate(1, 4, 16, region="a", deployment_id=1, subscription_id=1)
    assert node.used_cores == 4
    assert service.node_of(1) is node
    released = service.release(1, deployment_id=1)
    assert released is node
    assert node.used_cores == 0
    assert service.node_of(1) is None


def test_unknown_region_fails():
    service = make_service()
    with pytest.raises(AllocationFailure):
        service.allocate(1, 4, 16, region="nope", deployment_id=1, subscription_id=1)
    assert service.stats.failures == 1


def test_capacity_exhaustion_raises_and_counts():
    service = make_service(racks=1, nodes=1, clusters=1, regions=("a",), node_cores=8)
    service.allocate(1, 8, 32, region="a", deployment_id=1, subscription_id=1)
    with pytest.raises(AllocationFailure):
        service.allocate(2, 1, 4, region="a", deployment_id=1, subscription_id=1)
    assert service.stats.failure_rate == pytest.approx(0.5)
    assert service.stats.failures_by_region["a"] == 1


def test_fault_domain_spreading():
    """SPREAD places a deployment's first VMs on distinct racks."""
    service = make_service(racks=4, nodes=3, clusters=1, regions=("a",))
    for vm_id in range(4):
        service.allocate(vm_id, 2, 8, region="a", deployment_id=7, subscription_id=1)
    assert service.deployment_rack_spread(7) == 4


def test_best_fit_packs_instead_of_spreading():
    service = make_service(policy=PlacementPolicy.BEST_FIT, racks=4, nodes=3, clusters=1, regions=("a",))
    for vm_id in range(4):
        service.allocate(vm_id, 2, 8, region="a", deployment_id=7, subscription_id=1)
    assert service.deployment_rack_spread(7) == 1


def _mean_rack_spread_of_large_deployments(policy: PlacementPolicy) -> float:
    """Mean racks per deployment of 3+ VMs on a tight 1x3x3 private fleet."""
    profile = replace(
        private_profile(), clusters_per_region=1, racks_per_cluster=3, nodes_per_rack=3
    )
    config = GeneratorConfig(
        seed=17, scale=0.2, synthesize_utilization=False, placement_policy=policy
    )
    store = TraceGenerator(profile, config).generate()
    racks: dict[int, set[int]] = defaultdict(set)
    sizes: Counter[int] = Counter()
    for vm in store.vms():
        racks[vm.deployment_id].add(vm.rack_id)
        sizes[vm.deployment_id] += 1
    large = [d for d, n in sizes.items() if n >= 3]
    assert large
    return sum(len(racks[d]) for d in large) / len(large)


def test_spread_beats_best_fit_rack_spread_under_pressure():
    """Insight 1: SPREAD buys fault tolerance that BEST_FIT gives up."""
    spread = _mean_rack_spread_of_large_deployments(PlacementPolicy.SPREAD)
    best_fit = _mean_rack_spread_of_large_deployments(PlacementPolicy.BEST_FIT)
    assert spread > best_fit


def test_random_policy_allocates():
    service = make_service(policy=PlacementPolicy.RANDOM, regions=("a",))
    node = service.allocate(1, 2, 8, region="a", deployment_id=1, subscription_id=1)
    assert node is not None


def test_subscription_cluster_affinity():
    service = make_service(clusters=3, regions=("a",))
    nodes = [
        service.allocate(i, 2, 8, region="a", deployment_id=i, subscription_id=42)
        for i in range(6)
    ]
    assert len({n.cluster_id for n in nodes}) == 1


def test_affinity_overflows_to_other_clusters():
    service = make_service(clusters=2, racks=1, nodes=1, regions=("a",), node_cores=8)
    # Fill the affinity cluster, then overflow.
    a = service.allocate(1, 8, 32, region="a", deployment_id=1, subscription_id=1)
    b = service.allocate(2, 8, 32, region="a", deployment_id=1, subscription_id=1)
    assert a.cluster_id != b.cluster_id


def test_subscriptions_per_cluster_accounting():
    service = make_service(clusters=2, regions=("a",))
    service.allocate(1, 2, 8, region="a", deployment_id=1, subscription_id=1)
    service.allocate(2, 2, 8, region="a", deployment_id=2, subscription_id=2)
    counts = service.subscriptions_per_cluster()
    assert sum(counts.values()) == 2


def test_release_decrements_rack_count():
    service = make_service(racks=2, nodes=2, clusters=1, regions=("a",))
    service.allocate(1, 2, 8, region="a", deployment_id=5, subscription_id=1)
    assert service.deployment_rack_spread(5) == 1
    service.release(1, deployment_id=5)
    assert service.deployment_rack_spread(5) == 0


@given(
    st.lists(
        st.tuples(st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.integers(0, 3)),
        min_size=1,
        max_size=80,
    ),
    st.sampled_from(list(PlacementPolicy)),
)
@settings(max_examples=40, deadline=None)
def test_capacity_never_exceeded(requests, policy):
    """Property: no node is ever overcommitted, whatever the policy."""
    service = make_service(policy=policy, racks=2, nodes=2, clusters=1, regions=("a",), node_cores=16)
    for vm_id, (cores, dep) in enumerate(requests):
        try:
            service.allocate(
                vm_id, cores, cores * 4, region="a",
                deployment_id=dep, subscription_id=dep,
            )
        except AllocationFailure:
            pass
    for node in service.topology.nodes.values():
        assert node.used_cores <= node.capacity_cores + 1e-9
        assert node.used_memory_gb <= node.capacity_memory_gb + 1e-9
        booked = sum(c for c, _m in node.hosted.values())
        assert booked == pytest.approx(node.used_cores)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
@settings(max_examples=30, deadline=None)
def test_allocate_release_is_clean(deployments):
    """Property: allocating then releasing everything restores all capacity."""
    service = make_service(regions=("a",))
    placed = []
    for vm_id, dep in enumerate(deployments):
        try:
            service.allocate(vm_id, 2, 8, region="a", deployment_id=dep, subscription_id=dep)
            placed.append((vm_id, dep))
        except AllocationFailure:
            pass
    for vm_id, dep in placed:
        service.release(vm_id, deployment_id=dep)
    for node in service.topology.nodes.values():
        assert node.used_cores == 0
        assert node.used_memory_gb == 0
        assert not node.hosted
