"""The allocation service: VM-to-node placement.

Modelled on the role Protean plays in Azure ([10] in the paper): given a VM
request bound to a region, pick a cluster and a node.  Two rules matter for
the phenomena the paper studies:

* **subscription-cluster affinity** -- a subscription's VMs in a region
  gravitate to one cluster.  Combined with the private cloud's much larger
  deployments, this is what makes a public cluster host ~20x more
  subscriptions than a private one (Fig. 1b);
* **fault-domain spreading** -- VMs of one deployment are spread over racks,
  so that a rack loss does not take out a whole service.  Insight 1's
  implication (harder placement in homogeneous private clusters) falls out
  of this rule and is measured by the allocator ablation benchmark.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.entities import FIT_TOLERANCE, Cluster, Node, Topology


#: VM core sizes must be whole multiples of this binary fraction.  Sums and
#: differences of such sizes are exact in float64 (below 2**43 cores), so
#: the allocator's running per-cluster core sums never round away from a
#: fresh re-sum of the nodes.  Every SKU size is a whole core count.
CORE_QUANTUM = 2.0**-10


class PlacementPolicy(str, enum.Enum):
    """Node-selection strategy within the chosen cluster."""

    #: Spread a deployment's VMs across racks (fault domains), then best-fit.
    SPREAD = "spread"
    #: Pure best-fit packing, ignoring fault domains (ablation baseline).
    BEST_FIT = "best_fit"
    #: Uniformly random feasible node (ablation baseline).
    RANDOM = "random"


class AllocationFailure(Exception):
    """No node in the requested region can host the VM."""

    def __init__(self, region: str, cores: float, memory_gb: float) -> None:
        super().__init__(
            f"no capacity for {cores}c/{memory_gb}g in region {region}"
        )
        self.region = region
        self.cores = cores
        self.memory_gb = memory_gb


@dataclass
class AllocationStats:
    """Counters the service maintains for analyses and benchmarks."""

    attempts: int = 0
    failures: int = 0
    failures_by_region: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    @property
    def failure_rate(self) -> float:
        """Fraction of placement attempts that failed."""
        return self.failures / self.attempts if self.attempts else 0.0


class AllocationService:
    """Places VMs onto nodes of a single cloud's topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        policy: PlacementPolicy = PlacementPolicy.SPREAD,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self._rng = rng or np.random.default_rng(0)
        self.stats = AllocationStats()
        self._vm_node: dict[int, Node] = {}
        #: (subscription_id, region) -> preferred cluster id.
        self._affinity: dict[tuple[int, str], int] = {}
        #: (deployment_id, rack_id) -> number of that deployment's VMs there;
        #: a pair whose count falls to zero is dropped.
        self._deployment_rack_count: dict[tuple[int, int], int] = {}
        #: cluster_id -> allocated cores, kept in step by ``allocate`` and
        #: ``release`` so ranking clusters never re-sums their nodes.  The
        #: running sums equal a fresh ``Cluster.used_cores`` exactly, because
        #: ``allocate`` admits only whole multiples of ``CORE_QUANTUM``.
        self._cluster_used: dict[int, float] = {
            cid: cluster.used_cores for cid, cluster in topology.clusters.items()
        }
        self._cluster_capacity: dict[int, float] = {
            cid: cluster.capacity_cores for cid, cluster in topology.clusters.items()
        }

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def allocate(
        self,
        vm_id: int,
        cores: float,
        memory_gb: float,
        *,
        region: str,
        deployment_id: int,
        subscription_id: int,
    ) -> Node:
        """Place a VM; returns the chosen node or raises AllocationFailure."""
        if not (cores / CORE_QUANTUM).is_integer():
            raise ValueError(f"{cores} cores is not a whole multiple of {CORE_QUANTUM}")
        self.stats.attempts += 1
        cluster = self._choose_cluster(
            region, cores, memory_gb, subscription_id=subscription_id
        )
        node = None
        if cluster is not None:
            node = self._choose_node(cluster, cores, memory_gb, deployment_id)
        if node is None:
            # Affinity cluster full: fall back to any cluster in the region.
            for candidate in self._clusters_by_headroom(region):
                node = self._choose_node(candidate, cores, memory_gb, deployment_id)
                if node is not None:
                    break
        if node is None:
            self.stats.failures += 1
            self.stats.failures_by_region[region] += 1
            raise AllocationFailure(region, cores, memory_gb)

        node.host(vm_id, cores, memory_gb)
        self._vm_node[vm_id] = node
        self._cluster_used[node.cluster_id] += cores
        key = (deployment_id, node.rack_id)
        self._deployment_rack_count[key] = self._deployment_rack_count.get(key, 0) + 1
        return node

    def release(self, vm_id: int, *, deployment_id: int | None = None) -> Node:
        """Free the resources of a VM; returns the node it ran on."""
        node = self._vm_node.pop(vm_id)
        cores, _memory_gb = node.hosted[vm_id]
        node.release(vm_id)
        self._cluster_used[node.cluster_id] -= cores
        if deployment_id is not None:
            key = (deployment_id, node.rack_id)
            count = self._deployment_rack_count.pop(key, 0)
            if count > 1:
                self._deployment_rack_count[key] = count - 1
        return node

    def node_of(self, vm_id: int) -> Node | None:
        """The node currently hosting ``vm_id`` (``None`` if not placed)."""
        return self._vm_node.get(vm_id)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _choose_cluster(
        self,
        region: str,
        cores: float,
        memory_gb: float,
        *,
        subscription_id: int,
    ) -> Cluster | None:
        key = (subscription_id, region)
        if key in self._affinity:
            return self.topology.clusters.get(self._affinity[key])
        clusters = self._clusters_by_headroom(region)
        if not clusters:
            return None
        # New subscription in this region: bind it to the emptiest cluster so
        # load stays balanced while the affinity invariant holds.
        chosen = clusters[0]
        self._affinity[key] = chosen.cluster_id
        return chosen

    def _clusters_by_headroom(self, region: str) -> list[Cluster]:
        clusters = self.topology.regions[region].clusters if region in self.topology.regions else []
        return sorted(clusters, key=self._utilization)

    def _utilization(self, cluster: Cluster) -> float:
        """``cluster.utilization`` from the running core sums."""
        capacity = self._cluster_capacity[cluster.cluster_id]
        return self._cluster_used[cluster.cluster_id] / capacity if capacity else 0.0

    def _choose_node(
        self,
        cluster: Cluster,
        cores: float,
        memory_gb: float,
        deployment_id: int,
    ) -> Node | None:
        if self.policy is PlacementPolicy.RANDOM:
            feasible = [node for node in cluster.nodes if node.can_host(cores, memory_gb)]
            if not feasible:
                return None
            return feasible[int(self._rng.integers(len(feasible)))]
        # SPREAD: least-loaded rack w.r.t. this deployment, then best-fit;
        # BEST_FIT: every rack counts as unloaded.  One pass keeps the
        # feasible node that is least in (rack load, leftover cores, node id).
        spread = self.policy is PlacementPolicy.SPREAD
        rack_count = self._deployment_rack_count
        best: Node | None = None
        best_key: tuple[int, float, int] | None = None
        for rack in cluster.racks:
            load = rack_count.get((deployment_id, rack.rack_id), 0) if spread else 0
            if best_key is not None and load > best_key[0]:
                continue
            for node in rack.nodes:
                # ``Node.can_host`` written out: the call per node costs ~9%
                # of ``perfbench generate`` latency.
                free_cores = node.capacity_cores - node.used_cores
                if (
                    cores <= free_cores + FIT_TOLERANCE
                    and memory_gb <= node.capacity_memory_gb - node.used_memory_gb + FIT_TOLERANCE
                ):
                    key = (load, free_cores - cores, node.node_id)
                    if best_key is None or key < best_key:
                        best, best_key = node, key
        return best

    # ------------------------------------------------------------------
    # introspection used by tests and the ablation benchmark
    # ------------------------------------------------------------------
    def deployment_rack_spread(self, deployment_id: int) -> int:
        """Number of distinct racks a deployment currently occupies."""
        return sum(1 for dep, _rack in self._deployment_rack_count if dep == deployment_id)

    def subscriptions_per_cluster(self) -> dict[int, int]:
        """How many subscriptions have affinity to each cluster."""
        counts: dict[int, int] = defaultdict(int)
        for (_sub, _region), cluster_id in self._affinity.items():
            counts[cluster_id] += 1
        return dict(counts)
