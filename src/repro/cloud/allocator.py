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
  of this rule; ``tests/test_allocator.py`` measures the rack spread it buys
  against a best-fit chooser that ignores fault domains.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice

from repro.cloud.entities import FIT_TOLERANCE, Cluster, Node, Topology


#: VM core sizes must be whole multiples of this binary fraction.  Sums and
#: differences of such sizes are exact in float64 (below 2**43 cores), so
#: the allocator's running per-cluster core sums never round away from a
#: fresh re-sum of the nodes, and a node's leftover ``free - cores`` is
#: exact.  Every SKU size, VM and node alike, is a whole core count.
CORE_QUANTUM = 2.0**-10


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


class AllocationService:
    """Places VMs onto nodes of a single cloud's topology."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
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
        #: ``allocate`` admits only whole multiples of ``CORE_QUANTUM``.  They
        #: pay off where regions hold many clusters (``CloudProfile.scaled``
        #: adds clusters above scale 1): at scale 16, ranking on re-sums took
        #: a third of simulation time.
        self._cluster_used: dict[int, float] = {
            cid: cluster.used_cores for cid, cluster in topology.clusters.items()
        }
        self._cluster_capacity: dict[int, float] = {
            cid: cluster.capacity_cores for cid, cluster in topology.clusters.items()
        }
        #: node_id -> its current ``(free_cores, node_id)`` key, and
        #: cluster_id -> its nodes' keys in ascending order: the free-core
        #: index ``_choose_node`` walks.  Plain tuples, because a ``key=``
        #: callable on bisect or insort costs more than the index saves.
        self._node_key: dict[int, tuple[float, int]] = {}
        self._free_index: dict[int, list[tuple[float, int]]] = {}
        for cid, cluster in topology.clusters.items():
            keys = [(node.capacity_cores - node.used_cores, node.node_id) for node in cluster.nodes]
            self._node_key.update((key[1], key) for key in keys)
            self._free_index[cid] = sorted(keys)

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
        self._rekey(node)
        key = (deployment_id, node.rack_id)
        self._deployment_rack_count[key] = self._deployment_rack_count.get(key, 0) + 1
        return node

    def release(self, vm_id: int, *, deployment_id: int | None = None) -> Node:
        """Free the resources of a VM; returns the node it ran on."""
        node = self._vm_node.pop(vm_id)
        cores, _memory_gb = node.hosted[vm_id]
        node.release(vm_id)
        self._cluster_used[node.cluster_id] -= cores
        self._rekey(node)
        if deployment_id is not None:
            key = (deployment_id, node.rack_id)
            count = self._deployment_rack_count.pop(key, 0)
            if count > 1:
                self._deployment_rack_count[key] = count - 1
        return node

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

    def _rekey(self, node: Node) -> None:
        """Move ``node`` to its new free-core position in its cluster's index."""
        keys = self._free_index[node.cluster_id]
        del keys[bisect_left(keys, self._node_key[node.node_id])]
        key = (node.capacity_cores - node.used_cores, node.node_id)
        insort(keys, key)
        self._node_key[node.node_id] = key

    def _choose_node(
        self,
        cluster: Cluster,
        cores: float,
        memory_gb: float,
        deployment_id: int,
    ) -> Node | None:
        """The feasible node least in (rack load, leftover cores, node id).

        The rack load is this deployment's VM count in the node's rack:
        spreading over fault domains first, then best fit.  The walk starts
        in the free-core index a quantum below ``cores`` (every node before
        that point is more than a quantum short) and applies the fit test of
        ``Node.can_host`` to each key it visits.  ``allocate`` admits only
        whole multiples of ``CORE_QUANTUM``, so ``free - cores`` is exact and
        ascending ``(free, node_id)`` is ascending ``(free - cores,
        node_id)``: within one load level, the first feasible key is the
        best fit.  A feasible node in a rack without this deployment's VMs
        is therefore the answer at once; otherwise the walk goes on until
        it meets the least load over the cluster's racks, or runs out.
        """
        rack_count = self._deployment_rack_count
        nodes = self.topology.nodes
        keys = self._free_index[cluster.cluster_id]
        best: Node | None = None
        best_load = 0
        floor = 0
        for free_cores, node_id in islice(keys, bisect_left(keys, (cores - CORE_QUANTUM,)), None):
            node = nodes[node_id]
            # ``Node.can_host`` written out, with the same tolerance.
            if not (
                cores <= free_cores + FIT_TOLERANCE
                and memory_gb <= node.capacity_memory_gb - node.used_memory_gb + FIT_TOLERANCE
            ):
                continue
            load = rack_count.get((deployment_id, node.rack_id), 0)
            if best is None:
                if load == 0:
                    return node
                # Only now is the least load over the racks worth computing.
                floor = min(
                    rack_count.get((deployment_id, rack.rack_id), 0) for rack in cluster.racks
                )
            elif load >= best_load:
                continue
            if load == floor:
                return node
            best, best_load = node, load
        return best
