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
:class:`~repro.telemetry.shards.ShardRef` memory-mapping a saved trace's shard
on first touch); every internal access resolves through
:meth:`TraceStore._block`, so the two kinds are indistinguishable to
callers.  Reads hand out **read-only** plain ``np.ndarray`` views (of the
resident block, or of the shard's mapping -- never an ``np.memmap``) --
mutating a returned series raises instead of silently corrupting every
other reader of the shared block.  A VM's series is attached once: every
row of every block is reachable, so no dead bytes can accumulate.

Filtered queries (:meth:`~TraceStore.vms`, :meth:`~TraceStore.events`,
:meth:`~TraceStore.vm_ids_with_utilization` and the ``vms_by_*``
groupings) read a lazily built index: the first query on a set of fields
groups the whole table by those fields in one pass, and later queries on
the same fields -- any values -- are dict lookups.  Every mutation
(``add_vm``, ``finalize_vm``, ``add_event``, attaching utilization,
``merge``) only bumps a version counter; the next query drops the stale
index.  Queries return the rows in table order, as a fresh list on every
call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

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

    # The per-VM observation rules below are the one statement of "which
    # part of a VM's life the window saw"; every analysis uses them.

    def alive_span(self, vm: VMRecord) -> tuple[float, float]:
        """``(start, end)`` seconds of ``vm``'s life clipped to the window."""
        return max(vm.created_at, 0.0), min(vm.ended_at, self.duration)

    def alive_seconds(self, vm: VMRecord) -> float:
        """Seconds of ``vm``'s life inside the window."""
        start, end = self.alive_span(vm)
        return end - start

    def sample_window(self, vm: VMRecord) -> tuple[int, int]:
        """``[lo, hi)`` indices of the samples taken while ``vm`` was alive.

        Only whole samples count: a VM created mid-sample starts at the
        next one, and ``lo >= hi`` (an empty slice) for a VM that lived
        less than one sample.
        """
        start, end = self.alive_span(vm)
        return (
            int(np.ceil(start / self.sample_period)),
            int(np.floor(end / self.sample_period)),
        )

    def completed_in_window(self, vm: VMRecord) -> bool:
        """Whether ``vm`` both started and ended inside the window.

        The lifetime population of Fig. 3(a): "we only include the VMs
        started and ended in the week".
        """
        return vm.completed and vm.created_at >= 0 and vm.ended_at <= self.duration


_T = TypeVar("_T")

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


def _group(rows: Iterable[_T], fields: tuple[str, ...]) -> dict[Hashable, list[_T]]:
    """``rows`` grouped by their ``fields`` values (a tuple for several), in order."""
    key = attrgetter(*fields)
    groups: dict[Hashable, list[_T]] = defaultdict(list)
    for row in rows:
        groups[key(row)].append(row)
    return dict(groups)


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
        self.regions: dict[str, RegionInfo] = {}
        self.clusters: dict[int, ClusterInfo] = {}
        self.nodes: dict[int, NodeInfo] = {}
        self.subscriptions: dict[int, SubscriptionInfo] = {}
        #: Query index (see :meth:`_indexed`), valid while ``_index_version``
        #: equals ``_version``; every mutation bumps ``_version``.
        self._index: dict[Hashable, Any] = {}
        self._version = 0
        self._index_version = 0

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

    def add_vm(self, vm: VMRecord, utilization: np.ndarray | None = None) -> None:
        """Add a VM row, and its series when given; the id must be unused.

        Every check, the series' included, runs before either is stored.
        """
        if vm.vm_id in self._vms:
            raise ValueError(f"duplicate vm_id {vm.vm_id}")
        if utilization is not None:
            block = self._checked_block(
                [vm.vm_id], np.asarray(utilization).reshape(1, -1)
            )
        self._vms[vm.vm_id] = vm
        self._version += 1
        if utilization is not None:
            self._adopt_block([vm.vm_id], block)

    def finalize_vm(self, vm_id: int, ended_at: float) -> VMRecord:
        """Replace a VM row with a terminated copy and return that copy."""
        old = self._vms[vm_id]
        check_vm_end(old, ended_at)
        closed = old.with_end(float(ended_at))
        self._vms[vm_id] = closed
        self._version += 1
        return closed

    def add_event(self, event: EventRecord) -> None:
        """Append a lifecycle event."""
        if self._events and _event_order(event) < _event_order(self._events[-1]):
            self._events_sorted = False
        self._events.append(event)
        self._version += 1

    def add_events(self, events: Sequence[EventRecord], *, ordered: bool) -> None:
        """Append events; ``ordered`` vouches they are in :func:`_event_order`.

        Only the seam with the events already stored is keyed here.
        """
        if events and self._events and _event_order(events[0]) < _event_order(self._events[-1]):
            ordered = False
        self._events.extend(events)
        self._events_sorted = self._events_sorted and ordered
        self._version += 1

    def add_utilization(self, vm_id: int, series: np.ndarray) -> None:
        """Attach a 5-minute CPU utilization series (values in ``[0, 1]``)."""
        series = np.asarray(series, dtype=np.float32).ravel()
        self.add_utilization_block([vm_id], series.reshape(1, -1))

    def add_utilization_block(
        self, vm_ids: Sequence[int], block: np.ndarray
    ) -> None:
        """Attach utilization for many VMs at once from a ``(n, T)`` matrix.

        Row ``i`` of ``block`` becomes the series of ``vm_ids[i]``.  The
        matrix is kept as a single float32 block (copied only if the input
        is not already float32 and C-contiguous); per-VM reads return views
        into it.  An id that already carries a series is refused, as
        :meth:`add_vm` refuses a duplicate id.
        """
        block = self._checked_block(vm_ids, block)
        for vm_id in vm_ids:
            if vm_id not in self._vms:
                raise KeyError(f"unknown vm_id {vm_id}")
        self._adopt_block(vm_ids, block)

    def _checked_block(
        self, vm_ids: Sequence[int], block: np.ndarray
    ) -> np.ndarray:
        """Validate a block for :meth:`add_utilization_block`, storing nothing.

        Every check but VM membership, so :meth:`add_vm` can vet a series
        before it adds the VM.  Returns the block as C-contiguous float32.
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
        validation is the shard writer's responsibility (the trace loader
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
        """Register a validated block; no id may already carry a series."""
        for vm_id in vm_ids:
            if vm_id in self._util_index:
                raise ValueError(f"vm {vm_id} already has a utilization series")
        block_idx = len(self._util_blocks)
        self._util_blocks.append(block)
        for row, vm_id in enumerate(vm_ids):
            self._util_index[vm_id] = (block_idx, row)
        self._version += 1
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

    @property
    def utilization_bytes(self) -> int:
        """Total bytes held by utilization blocks."""
        return sum(block.nbytes for block in self._util_blocks)

    # ------------------------------------------------------------------
    # query index
    # ------------------------------------------------------------------
    def _indexed(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """Index entry ``key``, built by ``build()`` once per store version."""
        if self._index_version != self._version:
            self._index = {}
            self._index_version = self._version
        if key not in self._index:
            self._index[key] = build()
        return self._index[key]

    def _select(self, table: str, **filters: object) -> list:
        """Rows of ``table`` whose fields equal every non-``None`` filter.

        One pass groups the whole table by the filtered fields, so every
        later query on the same fields is a lookup.  Rows keep table order
        and the list is the caller's to keep.
        """
        fields = tuple(name for name, value in filters.items() if value is not None)
        rows = self._vms.values() if table == "vms" else self._sorted_events()
        if not fields:
            return list(rows)
        groups = self._indexed((table, fields), lambda: _group(rows, fields))
        values = tuple(filters[name] for name in fields)
        return list(groups.get(values if len(fields) > 1 else values[0], ()))

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
        """Return VM rows in insertion order, optionally filtered."""
        return self._select(
            "vms", cloud=cloud, region=region, completed=True if completed_only else None
        )

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
        return self._select("events", kind=kind, cloud=cloud, region=region)

    def _sorted_events(self) -> list[EventRecord]:
        if not self._events_sorted:
            self._events.sort(key=_event_order)
            self._events_sorted = True
        return self._events

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
        ids = self._indexed(
            ("util_ids", cloud),
            lambda: sorted(
                vm_id
                for vm_id in self._util_index
                if cloud is None or self._vms[vm_id].cloud == cloud
            ),
        )
        return list(ids)

    def vms_by_node(self, *, cloud: Cloud | None = None) -> dict[int, list[VMRecord]]:
        """Group VM rows by hosting node."""
        return self._grouped_vms("node_id", cloud)

    def vms_by_subscription(
        self, *, cloud: Cloud | None = None
    ) -> dict[int, list[VMRecord]]:
        """Group VM rows by subscription."""
        return self._grouped_vms("subscription_id", cloud)

    def _grouped_vms(
        self, field: str, cloud: Cloud | None
    ) -> dict[int, list[VMRecord]]:
        groups = self._indexed(
            ("by", field, cloud), lambda: _group(self.vms(cloud=cloud), (field,))
        )
        return {key: list(rows) for key, rows in groups.items()}

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
        self.regions.update(other.regions)
        self.clusters.update(other.clusters)
        self.nodes.update(other.nodes)
        self.subscriptions.update(other.subscriptions)
        self._version += 1

    def summary(self) -> dict[str, int]:
        """Cheap size summary for logging and reports.

        Byte figures come from block metadata only -- lazy shards are not
        touched.
        """
        return {
            "vms": len(self._vms),
            "events": len(self._events),
            "utilization_series": len(self._util_index),
            "utilization_bytes": self.utilization_bytes,
            "regions": len(self.regions),
            "clusters": len(self.clusters),
            "nodes": len(self.nodes),
            "subscriptions": len(self.subscriptions),
        }
