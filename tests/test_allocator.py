"""Unit and property tests for the allocation service.

The allocator keeps cluster utilization as running sums and picks a node
in one pass over the racks.  :class:`ReferenceAllocationService` is the
full-scan placement it must agree with: every node of the cluster is
tested for fit, the SPREAD / BEST_FIT choice is two ``min`` passes over
that list, and clusters are ranked on a fresh :func:`_fresh_utilization`.
The differential tests drive both with the same requests, and the
end-to-end test patches the reference into the generator.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.allocator import (
    CORE_QUANTUM,
    AllocationFailure,
    AllocationService,
    PlacementPolicy,
)
from repro.cloud.entities import Cluster, Node, RegionSpec, TopologySpec, build_topology
from repro.cloud.sku import NodeSku, public_sku_catalog
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.workloads.generator import GeneratorConfig, TraceGenerator, generate_trace_pair
from repro.workloads.profiles import private_profile


def _fresh_utilization(cluster: Cluster) -> float:
    """Allocated-core fraction summed over the cluster's nodes right now."""
    capacity = cluster.capacity_cores
    return cluster.used_cores / capacity if capacity else 0.0


def _reference_clusters_by_headroom(self, region: str) -> list[Cluster]:
    clusters = self.topology.regions[region].clusters if region in self.topology.regions else []
    return sorted(clusters, key=_fresh_utilization)


def _reference_choose_node(
    self, cluster: Cluster, cores: float, memory_gb: float, deployment_id: int
) -> Node | None:
    feasible = [node for node in cluster.nodes if node.can_host(cores, memory_gb)]
    if not feasible:
        return None
    if self.policy is PlacementPolicy.RANDOM:
        return feasible[int(self._rng.integers(len(feasible)))]
    if self.policy is PlacementPolicy.BEST_FIT:
        return min(feasible, key=lambda n: (n.free_cores - cores, n.node_id))

    def rack_load(node: Node) -> int:
        return self._deployment_rack_count.get((deployment_id, node.rack_id), 0)

    min_load = min(rack_load(node) for node in feasible)
    candidates = [node for node in feasible if rack_load(node) == min_load]
    return min(candidates, key=lambda n: (n.free_cores - cores, n.node_id))


class ReferenceAllocationService(AllocationService):
    """The full-scan oracle: same bookkeeping, placement by rescanning."""

    _clusters_by_headroom = _reference_clusters_by_headroom
    _choose_node = _reference_choose_node


def make_service(
    *,
    policy=PlacementPolicy.SPREAD,
    racks=4,
    nodes=3,
    clusters=2,
    regions=("a", "b"),
    node_cores=16.0,
    service_class=AllocationService,
) -> AllocationService:
    spec = TopologySpec(
        cloud=Cloud.PRIVATE,
        regions=tuple(RegionSpec(r, 0) for r in regions),
        clusters_per_region=clusters,
        racks_per_cluster=racks,
        nodes_per_rack=nodes,
        node_sku=NodeSku("t", node_cores, node_cores * 4),
    )
    return service_class(build_topology(spec), policy=policy, rng=np.random.default_rng(0))


def test_basic_allocation_and_release():
    service = make_service()
    node = service.allocate(1, 4, 16, region="a", deployment_id=1, subscription_id=1)
    assert node.used_cores == 4
    assert node.hosted == {1: (4, 16)}
    released = service.release(1, deployment_id=1)
    assert released is node
    assert node.used_cores == 0
    assert not node.hosted


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
    assert (service.stats.attempts, service.stats.failures) == (2, 1)
    assert service.stats.failures_by_region["a"] == 1


def test_fault_domain_spreading():
    """SPREAD places a deployment's first VMs on distinct racks."""
    service = make_service(racks=4, nodes=3, clusters=1, regions=("a",))
    nodes = [
        service.allocate(vm_id, 2, 8, region="a", deployment_id=7, subscription_id=1)
        for vm_id in range(4)
    ]
    assert len({node.rack_id for node in nodes}) == 4


def test_best_fit_packs_instead_of_spreading():
    service = make_service(policy=PlacementPolicy.BEST_FIT, racks=4, nodes=3, clusters=1, regions=("a",))
    nodes = [
        service.allocate(vm_id, 2, 8, region="a", deployment_id=7, subscription_id=1)
        for vm_id in range(4)
    ]
    assert len({node.rack_id for node in nodes}) == 1


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
    assert sorted(sub for sub, _region in service._affinity) == [1, 2]


def test_release_decrements_rack_count():
    service = make_service(racks=2, nodes=2, clusters=1, regions=("a",))
    node = service.allocate(1, 2, 8, region="a", deployment_id=5, subscription_id=1)
    assert service._deployment_rack_count == {(5, node.rack_id): 1}
    service.release(1, deployment_id=5)
    assert not service._deployment_rack_count


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


def test_release_drops_empty_rack_counts():
    """Bookkeeping shrinks with the live VMs, not with every VM ever placed."""
    service = make_service(racks=3, nodes=2, clusters=1, regions=("a",))
    for vm_id in range(6):
        service.allocate(vm_id, 2, 8, region="a", deployment_id=vm_id % 2, subscription_id=1)
    for vm_id in range(6):
        service.release(vm_id, deployment_id=vm_id % 2)
    assert not service._deployment_rack_count


@pytest.mark.parametrize("cores", [0.1, 1 / 3, 2.0**-11])
def test_core_sizes_off_the_quantum_are_rejected(cores):
    """Running cluster sums stay exact only for whole multiples of CORE_QUANTUM."""
    service = make_service()
    with pytest.raises(ValueError, match="whole multiple"):
        service.allocate(1, cores, 1.0, region="a", deployment_id=1, subscription_id=1)
    assert service.stats.attempts == 0
    assert all(node.used_cores == 0 for node in service.topology.nodes.values())


#: (clusters, racks, nodes per rack, node cores): the profiles' 6x5 racks,
#: a tight single cluster, and a small multi-cluster fleet whose affinity
#: clusters fill up and push placements onto the headroom fallback.
_TOPOLOGIES = ((2, 6, 5, 96.0), (1, 2, 2, 16.0), (3, 2, 3, 32.0), (2, 3, 1, 8.0))
#: (cores, memory_gb): the public catalog's sizes, fractional-core sizes
#: that are whole multiples of ``CORE_QUANTUM``, and a memory-heavy size
#: that fills a node's memory (4 GB per core) long before its cores.
_SIZES = tuple((sku.cores, sku.memory_gb) for sku in public_sku_catalog().skus) + (
    (0.25, 0.75),
    (1.5, 3.0),
    (CORE_QUANTUM, 0.5),
    (2.0, 24.0),
)

_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(0, len(_SIZES) - 1),  # VM size
            st.integers(0, 3),  # deployment
            st.integers(0, 5),  # subscription
            st.sampled_from(["a", "b"]),  # region
        ),
        st.tuples(st.just("release"), st.integers(0, 10_000)),
    ),
    min_size=10,
    max_size=200,
)


@given(_operations, st.sampled_from(_TOPOLOGIES))
@settings(max_examples=60, deadline=None)
def test_placement_matches_full_scan_reference(operations, topology):
    """Every placement and failure equals the full-scan oracle's, under every policy."""
    clusters, racks, nodes, node_cores = topology
    for policy in PlacementPolicy:
        services = [
            make_service(
                policy=policy, clusters=clusters, racks=racks, nodes=nodes,
                node_cores=node_cores, service_class=service_class,
            )
            for service_class in (AllocationService, ReferenceAllocationService)
        ]
        live: list[tuple[int, int]] = []
        for vm_id, op in enumerate(operations):
            if op[0] == "release":
                if live:
                    released, dep = live.pop(op[1] % len(live))
                    freed = [s.release(released, deployment_id=dep).node_id for s in services]
                    assert freed[0] == freed[1]
                continue
            _, size_index, dep, sub, region = op
            cores, memory_gb = _SIZES[size_index]
            outcomes = []
            for service in services:
                try:
                    node = service.allocate(
                        vm_id, cores, memory_gb, region=region,
                        deployment_id=dep, subscription_id=sub,
                    )
                    outcomes.append(node.node_id)
                except AllocationFailure as failure:
                    outcomes.append(("failure", failure.region, failure.cores))
            assert outcomes[0] == outcomes[1], (policy, vm_id, op)
            if isinstance(outcomes[0], int):
                live.append((vm_id, dep))
            fast = services[0]
            for cluster in fast.topology.clusters.values():
                assert fast._utilization(cluster) == _fresh_utilization(cluster)
        assert services[0]._deployment_rack_count == services[1]._deployment_rack_count
        assert services[0]._rng.random() == services[1]._rng.random()


def _trace_digest(store: TraceStore) -> str:
    """sha256 over a trace's VM table, utilization bytes and events."""
    h = hashlib.sha256()
    for vm in sorted(store.vms(), key=lambda vm: vm.vm_id):
        h.update(repr(dataclasses.astuple(vm)).encode())
        series = store.utilization(vm.vm_id)
        if series is not None:
            h.update(np.ascontiguousarray(series).tobytes())
    for event in store.events():
        h.update(repr((event.time, event.kind.value, event.vm_id, event.region)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("policy", [PlacementPolicy.SPREAD, PlacementPolicy.BEST_FIT])
@pytest.mark.parametrize("seed", [1, 7])
def test_generated_trace_matches_full_scan_reference(monkeypatch, seed, policy):
    """Placement rewrites must not move a byte of the generated trace."""
    config = GeneratorConfig(seed=seed, scale=0.03, placement_policy=policy)
    fast = _trace_digest(generate_trace_pair(config))
    monkeypatch.setattr(AllocationService, "_clusters_by_headroom", _reference_clusters_by_headroom)
    monkeypatch.setattr(AllocationService, "_choose_node", _reference_choose_node)
    assert _trace_digest(generate_trace_pair(config)) == fast
