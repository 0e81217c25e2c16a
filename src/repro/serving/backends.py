"""Pluggable storage backends for the online knowledge-base service.

The service is storage-agnostic: it talks to a :class:`StorageBackend`, which
owns a :class:`~repro.telemetry.store.TraceStore` and applies
:class:`IngestRecord` deltas to it.  :class:`MemoryBackend` is the in-process
implementation shipped today — a plain TraceStore plus a bounded ring buffer
of recent ingest activity.  An external column store plugs into the same seam
later by implementing the four abstract methods; the service and the
equivalence tests never look past them.

``apply_record`` is module-level on purpose: the replay truncation helper
(:func:`repro.serving.replay.truncated_store`) applies the *same* function to
a fresh store, which is what makes "online snapshot == batch rebuild of the
truncated trace" a tautology rather than a hope.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from repro.telemetry.schema import Cloud, EventKind, EventRecord, VMRecord
from repro.telemetry.store import TraceMetadata, TraceStore, check_vm_end


@dataclass(frozen=True)
class IngestRecord:
    """One unit of ingest: an event plus any payload riding along with it.

    Shapes, by event kind:

    - ``CREATE`` — ``vm`` holds the *censored* VMRecord (``ended_at`` is
      ``+inf``; the VM's end is not known at creation time) and
      ``utilization`` holds its full 5-minute series when the VM reports
      telemetry.
    - first ``TERMINATE``/``EVICT`` for a VM — ``vm_end`` carries the VM's
      actual end time so the backend can finalize the record.
    - any other event (``MIGRATE``, ``ALLOCATION_FAILURE``, repeat
      terminations) — event only.
    - backfill (``event is None``) — ``vm``/``utilization`` only, used by the
      replayer for VMs that predate the trace window and therefore have no
      CREATE event to ride on.
    """

    event: EventRecord | None
    vm: VMRecord | None = None
    utilization: np.ndarray | None = None
    vm_end: float | None = None

    def __post_init__(self) -> None:
        if self.event is None and self.vm is None:
            raise ValueError("IngestRecord needs an event, a vm, or both")

    def to_wire(self) -> dict:
        """JSON-safe dict for the TCP ``ingest`` op (inf encodes as None)."""
        payload: dict = {}
        if self.event is not None:
            payload["event"] = {
                "time": self.event.time,
                "kind": self.event.kind.value,
                "vm_id": self.event.vm_id,
                "cloud": self.event.cloud.value,
                "region": self.event.region,
                "detail": self.event.detail,
            }
        if self.vm is not None:
            vm = self.vm
            payload["vm"] = {
                "vm_id": vm.vm_id,
                "subscription_id": vm.subscription_id,
                "deployment_id": vm.deployment_id,
                "service": vm.service,
                "cloud": vm.cloud.value,
                "region": vm.region,
                "cluster_id": vm.cluster_id,
                "rack_id": vm.rack_id,
                "node_id": vm.node_id,
                "cores": vm.cores,
                "memory_gb": vm.memory_gb,
                "created_at": vm.created_at,
                "ended_at": None if math.isinf(vm.ended_at) else vm.ended_at,
                "pattern": vm.pattern,
                "offering": vm.offering,
            }
        if self.utilization is not None:
            payload["utilization"] = [float(v) for v in self.utilization]
        if self.vm_end is not None:
            payload["vm_end"] = self.vm_end
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "IngestRecord":
        event = None
        if "event" in payload:
            raw = payload["event"]
            event = EventRecord(
                time=float(raw["time"]),
                kind=EventKind(raw["kind"]),
                vm_id=int(raw["vm_id"]),
                cloud=Cloud(raw["cloud"]),
                region=str(raw["region"]),
                detail=str(raw.get("detail", "")),
            )
        vm = None
        if "vm" in payload:
            raw = payload["vm"]
            ended = raw.get("ended_at")
            vm = VMRecord(
                vm_id=int(raw["vm_id"]),
                subscription_id=int(raw["subscription_id"]),
                deployment_id=int(raw["deployment_id"]),
                service=str(raw["service"]),
                cloud=Cloud(raw["cloud"]),
                region=str(raw["region"]),
                cluster_id=int(raw["cluster_id"]),
                rack_id=int(raw["rack_id"]),
                node_id=int(raw["node_id"]),
                cores=float(raw["cores"]),
                memory_gb=float(raw["memory_gb"]),
                created_at=float(raw["created_at"]),
                ended_at=math.inf if ended is None else float(ended),
                pattern=str(raw.get("pattern", "")),
                offering=str(raw.get("offering", "iaas")),
            )
        utilization = None
        if payload.get("utilization") is not None:
            utilization = np.asarray(payload["utilization"], dtype=np.float32)
        vm_end = payload.get("vm_end")
        return cls(
            event=event,
            vm=vm,
            utilization=utilization,
            vm_end=None if vm_end is None else float(vm_end),
        )


def apply_record(store: TraceStore, record: IngestRecord) -> None:
    """Apply one ingest record to ``store``.

    Shared by :meth:`MemoryBackend.apply` and
    :func:`repro.serving.replay.truncated_store` so the online and batch
    paths mutate state identically.  Raises (``ValueError``/``KeyError`` from
    the store) on malformed records; callers decide whether to count or
    propagate.  The store's own checks all run before the first mutation,
    so a rejected record leaves the store exactly as it was.
    """
    vm, event = record.vm, record.event
    if vm is not None and event is not None:
        # A CREATE delivers the censored record; the closing event (if it
        # ever arrives) finalizes the true end time.
        vm = replace(vm, ended_at=math.inf)
    block = None
    if vm is not None and record.utilization is not None:
        block = store.check_utilization_block(
            [vm.vm_id], np.asarray(record.utilization).reshape(1, -1)
        )
    closing = None
    if event is not None and record.vm_end is not None:
        if vm is not None and vm.vm_id == event.vm_id:
            closing = vm
        elif event.vm_id in store:
            closing = store.vm(event.vm_id)
        if closing is not None:
            check_vm_end(closing, record.vm_end)

    if vm is not None:
        store.add_vm(vm)  # the first mutation; refuses a duplicate id itself
        if block is not None:
            store.add_utilization_block([vm.vm_id], block)
    if event is not None:
        store.add_event(event)
        if closing is not None:
            store.finalize_vm(event.vm_id, record.vm_end)


def copy_topology(source: TraceStore, dest: TraceStore) -> None:
    """Copy static topology (regions/clusters/nodes/subscriptions).

    Registration order follows the source store's, so a truncated rebuild
    and the service's backend hold identical topology tables.
    """
    for region in source.regions.values():
        dest.add_region(region)
    for cluster in source.clusters.values():
        dest.add_cluster(cluster)
    for node in source.nodes.values():
        dest.add_node(node)
    for subscription in source.subscriptions.values():
        dest.add_subscription(subscription)


class StorageBackend:
    """Seam between the service and whatever holds the telemetry.

    Contract:

    - ``store()`` returns a TraceStore-compatible view the analysis kernels
      read (``vm``/``utilization``/``events``/``subscriptions``/``regions``);
      for out-of-process backends this is a local materialization.
    - ``apply(record)`` durably applies one :class:`IngestRecord`; it must be
      equivalent to :func:`apply_record` on the returned store.
    - ``recent(limit)`` returns summaries of the most recently applied
      records, newest last (best-effort; bounded).
    - ``describe()`` returns a JSON-safe dict for the ``stats`` query.
    """

    name = "abstract"

    def store(self) -> TraceStore:
        raise NotImplementedError

    def apply(self, record: IngestRecord) -> None:
        raise NotImplementedError

    def recent(self, limit: int | None = None) -> list[dict]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


class MemoryBackend(StorageBackend):
    """In-memory backend: a TraceStore plus a ring buffer of recent ingest."""

    name = "memory"

    def __init__(
        self, metadata: TraceMetadata | None = None, *, ring_capacity: int = 1024
    ):
        if ring_capacity <= 0:
            raise ValueError("ring_capacity must be positive")
        self._store = TraceStore(metadata=metadata)
        self._ring: deque[dict] = deque(maxlen=ring_capacity)
        self._applied = 0

    def store(self) -> TraceStore:
        return self._store

    def apply(self, record: IngestRecord) -> None:
        apply_record(self._store, record)
        self._applied += 1
        entry: dict = {"seq": self._applied}
        if record.event is not None:
            entry["time"] = record.event.time
            entry["kind"] = record.event.kind.value
            entry["vm_id"] = record.event.vm_id
        elif record.vm is not None:
            entry["kind"] = "backfill"
            entry["vm_id"] = record.vm.vm_id
        if record.utilization is not None:
            entry["samples"] = int(record.utilization.size)
        self._ring.append(entry)

    def recent(self, limit: int | None = None) -> list[dict]:
        entries = list(self._ring)
        if limit is not None and limit >= 0:
            entries = entries[-limit:] if limit else []
        return entries

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "applied": self._applied,
            "ring_capacity": self._ring.maxlen,
            "ring_size": len(self._ring),
            "vms": len(self._store),
            "events": self._store.n_events,
        }
