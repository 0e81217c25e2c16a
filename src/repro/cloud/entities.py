"""Mutable simulation entities of the physical fleet.

The hierarchy mirrors Section II of the paper:

    region (geo-location) > datacenter > cluster > rack > node

Datacenters are folded into regions (the paper's analyses never descend to
the datacenter level); racks serve as fault domains for the allocator's
spreading rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.sku import DEFAULT_NODE_SKU, NodeSku
from repro.telemetry.schema import Cloud, ClusterInfo, NodeInfo, RegionInfo

#: Float slack in the fit test, so a VM that exactly fills a node fits.
#: ``AllocationService._choose_node`` writes ``Node.can_host`` out with it.
FIT_TOLERANCE = 1e-9


@dataclass
class Node:
    """One physical server with core/memory capacity and hosted VMs."""

    node_id: int
    cluster_id: int
    rack_id: int
    region: str
    cloud: Cloud
    capacity_cores: float
    capacity_memory_gb: float
    used_cores: float = 0.0
    used_memory_gb: float = 0.0
    #: vm_id -> (cores, memory_gb) of currently hosted VMs.
    hosted: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def free_cores(self) -> float:
        """Unallocated cores."""
        return self.capacity_cores - self.used_cores

    @property
    def free_memory_gb(self) -> float:
        """Unallocated memory."""
        return self.capacity_memory_gb - self.used_memory_gb

    def can_host(self, cores: float, memory_gb: float) -> bool:
        """Whether a VM of the given size fits (with float tolerance)."""
        return (
            cores <= self.free_cores + FIT_TOLERANCE
            and memory_gb <= self.free_memory_gb + FIT_TOLERANCE
        )

    def host(self, vm_id: int, cores: float, memory_gb: float) -> None:
        """Place a VM on this node."""
        if vm_id in self.hosted:
            raise ValueError(f"vm {vm_id} already hosted on node {self.node_id}")
        if not self.can_host(cores, memory_gb):
            raise ValueError(
                f"vm {vm_id} ({cores}c/{memory_gb}g) does not fit on node "
                f"{self.node_id} (free {self.free_cores}c/{self.free_memory_gb}g)"
            )
        self.hosted[vm_id] = (cores, memory_gb)
        self.used_cores += cores
        self.used_memory_gb += memory_gb

    def release(self, vm_id: int) -> None:
        """Remove a VM from this node."""
        cores, memory_gb = self.hosted.pop(vm_id)
        self.used_cores = max(0.0, self.used_cores - cores)
        self.used_memory_gb = max(0.0, self.used_memory_gb - memory_gb)

    def to_info(self) -> NodeInfo:
        """Static snapshot for the trace store."""
        return NodeInfo(
            node_id=self.node_id,
            cluster_id=self.cluster_id,
            rack_id=self.rack_id,
            region=self.region,
            cloud=self.cloud,
            capacity_cores=self.capacity_cores,
            capacity_memory_gb=self.capacity_memory_gb,
        )


@dataclass
class Rack:
    """A rack: the allocator's fault domain."""

    rack_id: int
    cluster_id: int
    nodes: list[Node] = field(default_factory=list)


@dataclass
class Cluster:
    """A cluster of identical-SKU nodes inside one region."""

    cluster_id: int
    region: str
    cloud: Cloud
    node_sku: NodeSku
    racks: list[Rack] = field(default_factory=list)

    @property
    def nodes(self) -> list[Node]:
        """All nodes across racks."""
        return [node for rack in self.racks for node in rack.nodes]

    @property
    def capacity_cores(self) -> float:
        """Total core capacity."""
        return sum(node.capacity_cores for node in self.nodes)

    @property
    def used_cores(self) -> float:
        """Currently allocated cores."""
        return sum(node.used_cores for node in self.nodes)

    def to_info(self) -> ClusterInfo:
        """Static snapshot for the trace store."""
        return ClusterInfo(
            cluster_id=self.cluster_id,
            region=self.region,
            cloud=self.cloud,
            n_nodes=len(self.nodes),
            node_capacity_cores=self.node_sku.cores,
            node_capacity_memory_gb=self.node_sku.memory_gb,
        )


@dataclass
class Region:
    """A geo-location hosting clusters of one cloud."""

    name: str
    tz_offset_hours: float
    country: str = ""
    renewable_score: float = 0.5
    clusters: list[Cluster] = field(default_factory=list)

    def to_info(self) -> RegionInfo:
        """Static snapshot for the trace store."""
        return RegionInfo(
            name=self.name,
            tz_offset_hours=self.tz_offset_hours,
            country=self.country,
            renewable_score=self.renewable_score,
        )


@dataclass(frozen=True)
class RegionSpec:
    """Configuration for one region of a topology."""

    name: str
    tz_offset_hours: float
    country: str = ""
    renewable_score: float = 0.5
    #: Relative capacity provisioned in this region (scales cluster count);
    #: real fleets provision more capacity where demand concentrates.
    capacity_factor: float = 1.0


#: A default world loosely shaped like the paper's dataset: the US regions
#: "spread over 9 time zones" (Section IV-B) plus the two Canadian regions of
#: the case study and a couple of non-American regions.
DEFAULT_REGIONS = (
    RegionSpec("us-east", -5, "US", 0.35, capacity_factor=2.0),
    RegionSpec("us-east2", -5, "US", 0.40, capacity_factor=1.5),
    RegionSpec("us-central", -6, "US", 0.55, capacity_factor=1.5),
    RegionSpec("us-southcentral", -6, "US", 0.45, capacity_factor=1.5),
    RegionSpec("us-mountain", -7, "US", 0.60, capacity_factor=1.0),
    RegionSpec("us-arizona", -7, "US", 0.65, capacity_factor=1.0),
    RegionSpec("us-west", -8, "US", 0.70, capacity_factor=2.0),
    RegionSpec("us-west2", -8, "US", 0.72, capacity_factor=1.5),
    RegionSpec("us-alaska", -9, "US", 0.50, capacity_factor=1.0),
    RegionSpec("us-hawaii", -10, "US", 0.30, capacity_factor=1.0),
    RegionSpec("canada-a", -5, "CA", 0.80, capacity_factor=1.0),
    RegionSpec("canada-b", -8, "CA", 0.85, capacity_factor=1.0),
    RegionSpec("europe-west", +1, "EU", 0.75, capacity_factor=1.5),
    RegionSpec("asia-east", +8, "APAC", 0.25, capacity_factor=1.0),
)


@dataclass(frozen=True)
class TopologySpec:
    """Sizing of a simulated fleet for one cloud."""

    cloud: Cloud
    regions: tuple[RegionSpec, ...] = DEFAULT_REGIONS
    clusters_per_region: int = 2
    racks_per_cluster: int = 5
    nodes_per_rack: int = 4
    node_sku: NodeSku = DEFAULT_NODE_SKU


class Topology:
    """The fleet of one cloud: regions, clusters, racks, nodes."""

    def __init__(self, cloud: Cloud) -> None:
        self.cloud = cloud
        self.regions: dict[str, Region] = {}
        self.nodes: dict[int, Node] = {}
        self.clusters: dict[int, Cluster] = {}

    def add_region(self, region: Region) -> None:
        """Register a region and index its clusters and nodes."""
        self.regions[region.name] = region
        for cluster in region.clusters:
            self.clusters[cluster.cluster_id] = cluster
            for node in cluster.nodes:
                self.nodes[node.node_id] = node


def build_topology(
    spec: TopologySpec,
    *,
    id_offset: int = 0,
) -> Topology:
    """Construct a :class:`Topology` from a :class:`TopologySpec`.

    ``id_offset`` keeps node/cluster ids disjoint when private and public
    fleets coexist in one merged trace.
    """
    topology = Topology(spec.cloud)
    next_cluster = id_offset
    next_rack = id_offset
    next_node = id_offset
    for region_spec in spec.regions:
        region = Region(
            name=region_spec.name,
            tz_offset_hours=region_spec.tz_offset_hours,
            country=region_spec.country,
            renewable_score=region_spec.renewable_score,
        )
        n_clusters = max(1, round(spec.clusters_per_region * region_spec.capacity_factor))
        for _ in range(n_clusters):
            cluster = Cluster(
                cluster_id=next_cluster,
                region=region.name,
                cloud=spec.cloud,
                node_sku=spec.node_sku,
            )
            next_cluster += 1
            for _ in range(spec.racks_per_cluster):
                rack = Rack(rack_id=next_rack, cluster_id=cluster.cluster_id)
                next_rack += 1
                for _ in range(spec.nodes_per_rack):
                    rack.nodes.append(
                        Node(
                            node_id=next_node,
                            cluster_id=cluster.cluster_id,
                            rack_id=rack.rack_id,
                            region=region.name,
                            cloud=spec.cloud,
                            capacity_cores=spec.node_sku.cores,
                            capacity_memory_gb=spec.node_sku.memory_gb,
                        )
                    )
                    next_node += 1
                cluster.racks.append(rack)
            region.clusters.append(cluster)
        topology.add_region(region)
    return topology
