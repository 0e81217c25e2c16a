"""Unit tests for the fleet entities and topology builder."""

from __future__ import annotations

import pytest

from repro.cloud.entities import (
    Node,
    RegionSpec,
    TopologySpec,
    build_topology,
)
from repro.cloud.sku import NodeSku
from repro.telemetry.schema import Cloud


@pytest.fixture()
def node():
    return Node(
        node_id=1, cluster_id=1, rack_id=1, region="r", cloud=Cloud.PRIVATE,
        capacity_cores=16.0, capacity_memory_gb=64.0,
    )


class TestNode:
    def test_host_and_release(self, node):
        node.host(1, 4.0, 16.0)
        assert node.free_cores == 12.0
        assert node.free_memory_gb == 48.0
        node.release(1)
        assert node.free_cores == 16.0
        assert not node.hosted

    def test_cannot_overcommit(self, node):
        node.host(1, 16.0, 16.0)
        assert not node.can_host(0.1, 1.0)
        with pytest.raises(ValueError):
            node.host(2, 1.0, 1.0)

    def test_memory_constraint_independent(self, node):
        assert not node.can_host(1.0, 65.0)

    def test_duplicate_host_rejected(self, node):
        node.host(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            node.host(1, 1.0, 1.0)

    def test_release_unknown_vm_raises(self, node):
        with pytest.raises(KeyError):
            node.release(99)

    def test_to_info(self, node):
        info = node.to_info()
        assert info.node_id == 1
        assert info.capacity_cores == 16.0


def small_spec(**overrides) -> TopologySpec:
    defaults = dict(
        cloud=Cloud.PRIVATE,
        regions=(RegionSpec("a", -5), RegionSpec("b", -8)),
        clusters_per_region=2,
        racks_per_cluster=3,
        nodes_per_rack=4,
        node_sku=NodeSku("test", 32, 128),
    )
    defaults.update(overrides)
    return TopologySpec(**defaults)


class TestBuildTopology:
    def test_counts(self):
        topology = build_topology(small_spec())
        assert len(topology.regions) == 2
        assert len(topology.clusters) == 4
        assert len(topology.nodes) == 4 * 3 * 4
        assert sum(c.capacity_cores for c in topology.clusters.values()) == 48 * 32

    def test_ids_unique_across_offset(self):
        a = build_topology(small_spec())
        b = build_topology(small_spec(), id_offset=1_000_000)
        assert not (set(a.nodes) & set(b.nodes))
        assert not (set(a.clusters) & set(b.clusters))

    def test_capacity_factor_scales_clusters(self):
        spec = small_spec(
            regions=(RegionSpec("big", 0, capacity_factor=2.0), RegionSpec("small", 0)),
        )
        topology = build_topology(spec)
        assert len(topology.regions["big"].clusters) == 4
        assert len(topology.regions["small"].clusters) == 2

    def test_cluster_structure(self):
        topology = build_topology(small_spec())
        cluster = topology.regions["a"].clusters[0]
        assert len(cluster.racks) == 3
        assert len(cluster.nodes) == 12
        assert cluster.capacity_cores == 12 * 32
        assert cluster.used_cores == 0.0
        # All nodes of a rack share the rack id and cluster id.
        rack = cluster.racks[0]
        assert {n.rack_id for n in rack.nodes} == {rack.rack_id}
        assert {n.cluster_id for n in rack.nodes} == {cluster.cluster_id}

    def test_cluster_utilization_tracks_usage(self):
        topology = build_topology(small_spec())
        cluster = topology.regions["a"].clusters[0]
        node = cluster.nodes[0]
        node.host(1, 32.0, 64.0)
        assert cluster.used_cores == 32.0

    def test_region_infos(self):
        topology = build_topology(small_spec())
        info = topology.regions["a"].to_info()
        assert info.tz_offset_hours == -5
