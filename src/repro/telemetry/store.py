"""The in-memory trace store.

A :class:`TraceStore` is the single artifact that flows from the simulator
into every analysis.  It holds three logical tables:

* ``vms`` -- one :class:`~repro.telemetry.schema.VMRecord` per VM;
* ``events`` -- lifecycle events, time-ordered;
* ``utilization`` -- per-VM 5-minute average CPU utilization arrays in
  ``[0, 1]``;

plus static topology (regions, clusters, nodes, subscriptions).  Analyses are
pure functions over a store, mirroring how the paper's analyses are pure
functions of Azure telemetry.

Utilization is held in *blocks*: float32 matrices of shape ``(n_vms,
n_samples)`` plus a ``vm_id -> (block, row)`` index.  Batch producers (the
generator's vectorized synthesis, the Azure readings adapter) register one
preallocated matrix per call via :meth:`TraceStore.add_utilization_block`,
while :meth:`TraceStore.add_utilization` keeps the one-VM-at-a-time API by
wrapping the series in a single-row block.  All reads
(:meth:`~TraceStore.utilization`, :meth:`~TraceStore.utilization_matrix`,
:meth:`~TraceStore.iter_utilization`, :meth:`~TraceStore.merge`) go through
the index, so callers never see the physical layout.

A block may be resident (an ``np.ndarray``) or lazy (a
:class:`~repro.telemetry.shards.ShardRef` memory-mapping a v2 trace shard
on first touch); every internal access resolves through
:meth:`TraceStore._block`, so the two kinds are indistinguishable to
callers.  Reads hand out **read-only** views -- mutating a returned series
raises instead of silently corrupting every other reader of the shared
block.  Re-attaching a series orphans its old row; the store accounts for
orphaned rows and dead bytes (see :meth:`~TraceStore.summary`) and
:meth:`~TraceStore.compact` rewrites the affected blocks to reclaim them.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.obs import Counter
from repro.timebase import SAMPLE_PERIOD, SECONDS_PER_WEEK
from repro.telemetry.shards import ShardRef
from repro.telemetry.schema import (
    Cloud,
    ClusterInfo,
    EventKind,
    EventRecord,
    NodeInfo,
    RegionInfo,
    SubscriptionInfo,
    VMRecord,
)


@dataclass(frozen=True)
class TraceMetadata:
    """Global properties of an observation window."""

    duration: float = SECONDS_PER_WEEK
    sample_period: float = SAMPLE_PERIOD
    label: str = ""

    @property
    def n_samples(self) -> int:
        """Number of utilization samples spanning the window."""
        return int(self.duration // self.sample_period)


_BLOCKS_ADDED = Counter("store.utilization_blocks")
_BLOCK_BYTES = Counter("store.utilization_bytes")


def _event_order(event: EventRecord) -> tuple[float, str, int]:
    """Total event ordering: time, then kind, then vm id.

    ``time`` alone is ambiguous -- a CREATE and a TERMINATE can share a
    timestamp (batch rollouts do this constantly) -- and an ambiguous order
    would make :meth:`TraceStore.events` output depend on insertion order.
    The ``(time, kind, vm_id)`` key makes the sort a deterministic function
    of the event *set*.
    """
    return (event.time, event.kind.value, event.vm_id)


def check_vm_end(vm: VMRecord, ended_at: float) -> None:
    """Refuse an end time before the VM's creation (:meth:`TraceStore.finalize_vm`)."""
    if ended_at < vm.created_at:
        raise ValueError(
            f"vm {vm.vm_id}: ended_at {ended_at} precedes created_at {vm.created_at}"
        )


class TraceStore:
    """Mutable container for one trace; append during simulation, then query.

    The store deliberately keeps VM records immutable: a "terminated" VM is
    recorded by *replacing* its record (see :meth:`finalize_vm`), so analyses
    never observe a half-updated row.
    """

    def __init__(self, metadata: TraceMetadata | None = None) -> None:
        self.metadata = metadata or TraceMetadata()
        self._vms: dict[int, VMRecord] = {}
        self._events: list[EventRecord] = []
        self._events_sorted = True
        #: Physical telemetry storage: float32 matrices of shape
        #: (n_vms, n_samples) -- resident arrays or lazy ``ShardRef``s --
        #: addressed through ``_util_index``.
        self._util_blocks: list[np.ndarray | ShardRef] = []
        self._util_index: dict[int, tuple[int, int]] = {}
        #: Rows orphaned by re-attachment; their bytes stay allocated in
        #: the owning block until :meth:`compact` rewrites it.
        self._orphan_rows = 0
        self.regions: dict[str, RegionInfo] = {}
        self.clusters: dict[int, ClusterInfo] = {}
        self.nodes: dict[int, NodeInfo] = {}
        self.subscriptions: dict[int, SubscriptionInfo] = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_region(self, region: RegionInfo) -> None:
        """Register a region (idempotent by name)."""
        self.regions[region.name] = region

    def add_cluster(self, cluster: ClusterInfo) -> None:
        """Register a cluster."""
        self.clusters[cluster.cluster_id] = cluster

    def add_node(self, node: NodeInfo) -> None:
        """Register a node."""
        self.nodes[node.node_id] = node

    def add_subscription(self, subscription: SubscriptionInfo) -> None:
        """Register a subscription."""
        self.subscriptions[subscription.subscription_id] = subscription

    def add_vm(self, vm: VMRecord) -> None:
        """Add a VM row; the id must be unused."""
        if vm.vm_id in self._vms:
            raise ValueError(f"duplicate vm_id {vm.vm_id}")
        self._vms[vm.vm_id] = vm

    def finalize_vm(self, vm_id: int, ended_at: float) -> None:
        """Replace a VM row with a terminated copy."""
        old = self._vms[vm_id]
        check_vm_end(old, ended_at)
        self._vms[vm_id] = dataclasses.replace(old, ended_at=float(ended_at))

    def reassign_vm_placement(
        self,
        vm_id: int,
        *,
        node_id: int,
        rack_id: int,
        cluster_id: int,
        region: str | None = None,
    ) -> None:
        """Update a VM's placement after a live (possibly cross-region) migration."""
        old = self._vms[vm_id]
        updates: dict[str, object] = {
            "node_id": int(node_id),
            "rack_id": int(rack_id),
            "cluster_id": int(cluster_id),
        }
        if region is not None:
            updates["region"] = region
        self._vms[vm_id] = dataclasses.replace(old, **updates)

    def add_event(self, event: EventRecord) -> None:
        """Append a lifecycle event."""
        if self._events and _event_order(event) < _event_order(self._events[-1]):
            self._events_sorted = False
        self._events.append(event)

    def add_utilization(self, vm_id: int, series: np.ndarray) -> None:
        """Attach a 5-minute CPU utilization series (values in ``[0, 1]``).

        Re-attaching replaces the VM's previous series.
        """
        series = np.asarray(series, dtype=np.float32).ravel()
        self.add_utilization_block([vm_id], series.reshape(1, -1))

    def add_utilization_block(
        self, vm_ids: Sequence[int], block: np.ndarray
    ) -> None:
        """Attach utilization for many VMs at once from a ``(n, T)`` matrix.

        Row ``i`` of ``block`` becomes the series of ``vm_ids[i]``.  The
        matrix is kept as a single float32 block (copied only if the input
        is not already float32 and C-contiguous); per-VM reads return views
        into it.  Ids already carrying a series are re-pointed at their new
        row (the old row is simply orphaned).
        """
        block = self.check_utilization_block(vm_ids, block)
        for vm_id in vm_ids:
            if vm_id not in self._vms:
                raise KeyError(f"unknown vm_id {vm_id}")
        self._adopt_block(vm_ids, block)

    def check_utilization_block(
        self, vm_ids: Sequence[int], block: np.ndarray
    ) -> np.ndarray:
        """Validate a block for :meth:`add_utilization_block`, storing nothing.

        Every check but VM membership, so a caller can vet a series before
        it adds the VM.  Returns the block as C-contiguous float32.
        """
        block = np.ascontiguousarray(block, dtype=np.float32)
        if block.ndim != 2:
            raise ValueError(f"utilization block must be 2-D, got {block.ndim}-D")
        if block.shape[0] != len(vm_ids):
            raise ValueError(
                f"block has {block.shape[0]} rows for {len(vm_ids)} vm ids"
            )
        if len(set(vm_ids)) != len(vm_ids):
            raise ValueError("duplicate vm ids in utilization block")
        if block.shape[1] != self.metadata.n_samples:
            raise ValueError(
                f"utilization series for vms {list(vm_ids)[:3]}... has "
                f"{block.shape[1]} samples, expected {self.metadata.n_samples}"
            )
        if block.size and (float(block.min()) < 0.0 or float(block.max()) > 1.0):
            raise ValueError("utilization values must lie in [0, 1]")
        return block

    def add_utilization_shard(self, vm_ids: Sequence[int], shard: ShardRef) -> None:
        """Attach an on-disk shard as one lazy storage block.

        Row ``i`` of the shard becomes the series of ``vm_ids[i]``, exactly
        like :meth:`add_utilization_block`, but the shard's bytes are *not*
        read -- they are memory-mapped on first access.  Value-range
        validation is the shard writer's responsibility (the v2 loader
        relies on checksums instead of a full scan, which would defeat lazy
        loading).
        """
        if shard.n_rows != len(vm_ids):
            raise ValueError(
                f"shard has {shard.n_rows} rows for {len(vm_ids)} vm ids"
            )
        if shard.n_cols != self.metadata.n_samples:
            raise ValueError(
                f"shard {shard.path.name} has {shard.n_cols} samples, "
                f"expected {self.metadata.n_samples}"
            )
        if len(set(vm_ids)) != len(vm_ids):
            raise ValueError("duplicate vm ids in utilization shard")
        for vm_id in vm_ids:
            if vm_id not in self._vms:
                raise KeyError(f"unknown vm_id {vm_id}")
        self._adopt_block(vm_ids, shard)

    def _adopt_block(
        self, vm_ids: Sequence[int], block: "np.ndarray | ShardRef"
    ) -> None:
        """Register a validated block and re-point (orphaning) old rows."""
        for vm_id in vm_ids:
            if vm_id in self._util_index:
                self._orphan_rows += 1
        block_idx = len(self._util_blocks)
        self._util_blocks.append(block)
        for row, vm_id in enumerate(vm_ids):
            self._util_index[vm_id] = (block_idx, row)
        _BLOCKS_ADDED.inc()
        _BLOCK_BYTES.inc(block.nbytes)

    # ------------------------------------------------------------------
    # physical block access
    # ------------------------------------------------------------------
    def _block(self, block_idx: int) -> np.ndarray:
        """Resolve block ``block_idx`` to an array (mmapping lazy shards)."""
        block = self._util_blocks[block_idx]
        if isinstance(block, ShardRef):
            return block.open()
        return block

    def _block_rows(self, block_idx: int) -> int:
        """Row count of a block without materializing lazy shards."""
        return self._util_blocks[block_idx].shape[0]

    @property
    def utilization_bytes(self) -> int:
        """Total bytes held by utilization blocks, dead rows included."""
        return sum(block.nbytes for block in self._util_blocks)

    @property
    def utilization_live_bytes(self) -> int:
        """Bytes of rows still reachable through the index."""
        return self.utilization_bytes - self.utilization_orphaned_bytes

    @property
    def utilization_orphaned_rows(self) -> int:
        """Rows orphaned by re-attachment and not yet compacted."""
        return self._orphan_rows

    @property
    def utilization_orphaned_bytes(self) -> int:
        """Bytes pinned by orphaned rows (reclaimable via :meth:`compact`)."""
        return self._orphan_rows * self.metadata.n_samples * 4

    def compact(self) -> int:
        """Rewrite blocks containing orphaned rows; returns rows reclaimed.

        Blocks with no dead rows are kept as-is (lazy shards stay lazy);
        blocks with dead rows are rewritten to hold only their live rows,
        and fully dead blocks are dropped.  The index is renumbered in
        place, preserving each VM's attachment order.
        """
        if self._orphan_rows == 0:
            return 0
        live_by_block: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for vm_id, (block_idx, row) in self._util_index.items():
            live_by_block[block_idx].append((row, vm_id))
        new_blocks: list[np.ndarray | ShardRef] = []
        relocation: dict[int, tuple[int, dict[int, int]]] = {}
        for block_idx in range(len(self._util_blocks)):
            live = live_by_block.get(block_idx)
            if not live:
                continue  # fully dead: drop the block
            new_idx = len(new_blocks)
            if len(live) == self._block_rows(block_idx):
                new_blocks.append(self._util_blocks[block_idx])
                relocation[block_idx] = (new_idx, {})
            else:
                live.sort()
                rows = np.fromiter(
                    (row for row, _ in live), dtype=np.intp, count=len(live)
                )
                new_blocks.append(np.ascontiguousarray(self._block(block_idx)[rows]))
                relocation[block_idx] = (
                    new_idx,
                    {row: i for i, (row, _) in enumerate(live)},
                )
        reclaimed = self._orphan_rows
        self._util_blocks = new_blocks
        for vm_id, (block_idx, row) in self._util_index.items():
            new_idx, row_map = relocation[block_idx]
            self._util_index[vm_id] = (new_idx, row_map.get(row, row))
        self._orphan_rows = 0
        return reclaimed

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def vms(
        self,
        *,
        cloud: Cloud | None = None,
        region: str | None = None,
        completed_only: bool = False,
    ) -> list[VMRecord]:
        """Return VM rows, optionally filtered."""
        rows: Iterable[VMRecord] = self._vms.values()
        if cloud is not None:
            rows = (vm for vm in rows if vm.cloud == cloud)
        if region is not None:
            rows = (vm for vm in rows if vm.region == region)
        if completed_only:
            rows = (vm for vm in rows if vm.completed)
        return list(rows)

    def vm(self, vm_id: int) -> VMRecord:
        """Return one VM row by id."""
        return self._vms[vm_id]

    def __contains__(self, vm_id: int) -> bool:
        return vm_id in self._vms

    def __len__(self) -> int:
        return len(self._vms)

    @property
    def n_events(self) -> int:
        """Number of lifecycle events, in O(1) (no sort, no block scan)."""
        return len(self._events)

    def events(
        self,
        *,
        kind: EventKind | None = None,
        cloud: Cloud | None = None,
        region: str | None = None,
    ) -> list[EventRecord]:
        """Return events in ``(time, kind, vm_id)`` order, optionally filtered.

        Ties on ``time`` are broken by event kind (alphabetical) and then vm
        id, so the order is reproducible no matter how events were appended.
        """
        if not self._events_sorted:
            self._events.sort(key=_event_order)
            self._events_sorted = True
        rows: Iterable[EventRecord] = self._events
        if kind is not None:
            rows = (e for e in rows if e.kind == kind)
        if cloud is not None:
            rows = (e for e in rows if e.cloud == cloud)
        if region is not None:
            rows = (e for e in rows if e.region == region)
        return list(rows)

    def event_times(
        self,
        kind: EventKind,
        *,
        cloud: Cloud | None = None,
        region: str | None = None,
    ) -> np.ndarray:
        """Timestamps of matching events as a float array."""
        return np.array(
            [e.time for e in self.events(kind=kind, cloud=cloud, region=region)],
            dtype=np.float64,
        )

    def utilization(self, vm_id: int) -> np.ndarray | None:
        """The 5-minute utilization series of a VM, or ``None`` if absent.

        The returned array is a **read-only** view into the VM's storage
        block (blocks are shared by every reader, and may be memory-mapped
        trace shards); writing to it raises.  Copy before mutating.
        """
        loc = self._util_index.get(vm_id)
        if loc is None:
            return None
        block_idx, row = loc
        view = self._block(block_idx)[row]
        view.flags.writeable = False
        return view

    def has_utilization(self, vm_id: int) -> bool:
        """Whether a utilization series is attached to this VM."""
        return vm_id in self._util_index

    def utilization_matrix(
        self,
        vm_ids: Iterable[int],
        *,
        start: int | None = None,
        stop: int | None = None,
    ) -> np.ndarray:
        """Stack utilization series of ``vm_ids`` into a fresh (n, W) matrix.

        ``start``/``stop`` select a sample-column window, so streaming
        kernels can pull one time window across shards without gathering
        full-length rows.  The result is always a newly allocated matrix
        (never a view), gathered block-by-block: VMs sharing a storage
        block are pulled with a single fancy-index gather regardless of how
        many blocks the request spans, which is what keeps this fast over
        sharded (2048-row-block) stores.
        """
        window = slice(start, stop)
        width = len(range(*window.indices(self.metadata.n_samples)))
        locs = []
        for vm_id in vm_ids:
            loc = self._util_index.get(vm_id)
            if loc is None:
                raise KeyError(f"vm {vm_id} has no utilization series")
            locs.append(loc)
        if not locs:
            return np.empty((0, width), dtype=np.float32)
        first_block = locs[0][0]
        if all(block_idx == first_block for block_idx, _ in locs):
            rows = np.fromiter(
                (row for _, row in locs), dtype=np.intp, count=len(locs)
            )
            return self._block(first_block)[rows, window]
        out = np.empty((len(locs), width), dtype=np.float32)
        by_block: dict[int, list[int]] = defaultdict(list)
        for position, (block_idx, _) in enumerate(locs):
            by_block[block_idx].append(position)
        for block_idx, positions in by_block.items():
            rows = np.fromiter(
                (locs[p][1] for p in positions), dtype=np.intp, count=len(positions)
            )
            out[positions] = self._block(block_idx)[rows, window]
        return out

    def utilization_mean(
        self,
        vm_ids: Sequence[int],
        *,
        start: int | None = None,
        stop: int | None = None,
        chunk_rows: int = 1024,
    ) -> np.ndarray:
        """Column-wise mean utilization over ``vm_ids`` as float64.

        Accumulates in fixed ``chunk_rows`` batches of
        :meth:`utilization_matrix` gathers, so memory stays bounded by one
        chunk and -- because the chunk boundaries depend only on the id
        list, never on the physical block layout -- the result is
        bit-identical whether the store is resident or shard-backed.
        """
        vm_ids = list(vm_ids)
        window = slice(start, stop)
        width = len(range(*window.indices(self.metadata.n_samples)))
        if not vm_ids:
            return np.zeros(width, dtype=np.float64)
        acc = np.zeros(width, dtype=np.float64)
        for lo in range(0, len(vm_ids), chunk_rows):
            chunk = self.utilization_matrix(
                vm_ids[lo : lo + chunk_rows], start=start, stop=stop
            )
            acc += chunk.sum(axis=0, dtype=np.float64)
        acc /= len(vm_ids)
        return acc

    def vm_ids_with_utilization(self, *, cloud: Cloud | None = None) -> list[int]:
        """Ids of VMs that have a utilization series attached."""
        if cloud is None:
            return sorted(self._util_index)
        return sorted(
            vm_id
            for vm_id in self._util_index
            if self._vms[vm_id].cloud == cloud
        )

    def vms_by_node(self, *, cloud: Cloud | None = None) -> dict[int, list[VMRecord]]:
        """Group VM rows by hosting node."""
        groups: dict[int, list[VMRecord]] = defaultdict(list)
        for vm in self.vms(cloud=cloud):
            groups[vm.node_id].append(vm)
        return dict(groups)

    def vms_by_subscription(
        self, *, cloud: Cloud | None = None
    ) -> dict[int, list[VMRecord]]:
        """Group VM rows by subscription."""
        groups: dict[int, list[VMRecord]] = defaultdict(list)
        for vm in self.vms(cloud=cloud):
            groups[vm.subscription_id].append(vm)
        return dict(groups)

    def region_names(self, *, cloud: Cloud | None = None) -> list[str]:
        """Names of regions with at least one VM of the given cloud."""
        if cloud is None:
            return sorted(self.regions)
        return sorted({vm.region for vm in self.vms(cloud=cloud)})

    def iter_utilization(self) -> Iterator[tuple[int, np.ndarray]]:
        """Iterate ``(vm_id, series)`` pairs in attachment order.

        Series are read-only views into shared storage blocks, exactly as
        :meth:`utilization` returns them.
        """
        for vm_id, (block_idx, row) in self._util_index.items():
            view = self._block(block_idx)[row]
            view.flags.writeable = False
            yield vm_id, view

    # ------------------------------------------------------------------
    # merging (private + public traces are generated independently)
    # ------------------------------------------------------------------
    def merge(self, other: "TraceStore") -> None:
        """Absorb ``other`` into this store.

        Any id collision -- VM, cluster, node or subscription ids, or a
        region name registered with *different* attributes -- raises
        ``ValueError`` before anything is absorbed, so a failed merge leaves
        this store untouched.  (Identical region rows are tolerated because
        independently generated clouds legitimately share the same
        geography; see :meth:`add_region`.)  Utilization blocks are adopted
        by reference, not copied.
        """
        if other.metadata.n_samples != self.metadata.n_samples:
            raise ValueError("cannot merge stores with different sampling grids")
        collisions = {
            "vm": self._vms.keys() & other._vms.keys(),
            "cluster": self.clusters.keys() & other.clusters.keys(),
            "node": self.nodes.keys() & other.nodes.keys(),
            "subscription": self.subscriptions.keys() & other.subscriptions.keys(),
        }
        for label, dup in collisions.items():
            if dup:
                raise ValueError(
                    f"merge: {len(dup)} colliding {label} id(s), e.g. {min(dup)}"
                )
        for name in self.regions.keys() & other.regions.keys():
            if self.regions[name] != other.regions[name]:
                raise ValueError(
                    f"merge: region {name!r} is registered with different "
                    "attributes in the two stores"
                )
        # Utilization ids are a subset of VM ids, so they cannot collide
        # once the VM id sets are disjoint.
        self._vms.update(other._vms)
        if other._events:
            self._events.extend(other._events)
            self._events_sorted = False
        block_offset = len(self._util_blocks)
        self._util_blocks.extend(other._util_blocks)
        for vm_id, (block_idx, row) in other._util_index.items():
            self._util_index[vm_id] = (block_idx + block_offset, row)
        self._orphan_rows += other._orphan_rows
        self.regions.update(other.regions)
        self.clusters.update(other.clusters)
        self.nodes.update(other.nodes)
        self.subscriptions.update(other.subscriptions)

    def summary(self) -> dict[str, int]:
        """Cheap size summary for logging and reports.

        Byte figures come from block metadata only -- lazy shards are not
        touched -- and ``utilization_orphaned_rows``/``_bytes`` expose the
        storage pinned by re-attached series until :meth:`compact` runs.
        """
        return {
            "vms": len(self._vms),
            "events": len(self._events),
            "utilization_series": len(self._util_index),
            "utilization_bytes": self.utilization_bytes,
            "utilization_live_bytes": self.utilization_live_bytes,
            "utilization_orphaned_rows": self.utilization_orphaned_rows,
            "utilization_orphaned_bytes": self.utilization_orphaned_bytes,
            "regions": len(self.regions),
            "clusters": len(self.clusters),
            "nodes": len(self.nodes),
            "subscriptions": len(self.subscriptions),
        }
