"""Ingest records and how they apply to a trace store.

The online service keeps a :class:`~repro.telemetry.store.TraceStore` and
applies :class:`IngestRecord` deltas to it with :func:`apply_record`.

``apply_record`` is module-level on purpose: the replay truncation helper
(:func:`repro.serving.replay.truncated_store`) applies the *same* function to
a fresh store, which is what makes "online snapshot == batch rebuild of the
truncated trace" a tautology rather than a hope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.telemetry.schema import Cloud, EventKind, EventRecord, VMRecord
from repro.telemetry.store import TraceStore, check_vm_end

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

    Shared by :meth:`~repro.serving.service.KnowledgeBaseService.apply_records`
    and :func:`repro.serving.replay.truncated_store` so the online and batch
    paths mutate state identically.  Raises (``ValueError``/``KeyError`` from
    the store) on malformed records; callers decide whether to count or
    propagate.  The store's own checks all run before the first mutation,
    so a rejected record leaves the store exactly as it was.
    """
    vm, event = record.vm, record.event
    if vm is not None and event is not None:
        # A CREATE delivers the censored record; the closing event (if it
        # ever arrives) finalizes the true end time.
        vm = vm.with_end(math.inf)
    closing = None
    if event is not None and record.vm_end is not None:
        if vm is not None and vm.vm_id == event.vm_id:
            closing = vm
        elif event.vm_id in store:
            closing = store.vm(event.vm_id)
        if closing is not None:
            check_vm_end(closing, record.vm_end)

    if vm is not None:
        # The first mutation; it checks the id and the series before
        # storing either.
        store.add_vm(vm, record.utilization)
    if event is not None:
        store.add_event(event)
        if closing is not None:
            store.finalize_vm(event.vm_id, record.vm_end)


def copy_topology(source: TraceStore, dest: TraceStore) -> None:
    """Copy static topology (regions/clusters/nodes/subscriptions).

    Registration order follows the source store's, so a truncated rebuild
    and the service's store hold identical topology tables.
    """
    for region in source.regions.values():
        dest.add_region(region)
    for cluster in source.clusters.values():
        dest.add_cluster(cluster)
    for node in source.nodes.values():
        dest.add_node(node)
    for subscription in source.subscriptions.values():
        dest.add_subscription(subscription)
