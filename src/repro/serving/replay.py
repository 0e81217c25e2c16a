"""Replay a finished trace as a timed arrival process.

A :class:`~repro.telemetry.store.TraceStore` is a *result*; the service
consumes an *arrival stream*.  :func:`iter_ingest_records` flattens a store
into the canonical stream:

1. **Backfill** -- VMs with no CREATE event (they predate the observation
   window) are emitted first, sorted by vm id, as pure-VM records;
2. **Events** in the store's deterministic ``(time, kind, vm_id)`` order:
   a CREATE carries its VM's censored record plus its full utilization
   series; the *first* TERMINATE/EVICT per VM carries ``vm_end`` so the
   service can finalize the record; everything else travels bare.

:func:`truncated_store` applies a prefix of that same stream to a fresh
store with the same :func:`~repro.serving.backends.apply_record` the
in-memory backend uses -- so "the batch knowledge base over the truncated
trace" is *defined* by the stream, and the online-vs-batch equivalence
tests compare two executions of identical record-building code over
identical state.

:func:`replay_trace` paces the stream onto a running service: batches are
cut on record count or elapsed trace time, and the gap between consecutive
batches is slept at ``1/speedup`` scale (``speedup <= 0`` replays as fast
as the queue accepts, which is what the CI smoke run and the bench use).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from repro.obs import Counter
from repro.serving.backends import IngestRecord, apply_record, copy_topology
from repro.telemetry.schema import EventKind
from repro.telemetry.store import TraceStore

_BATCHES = Counter("replay.batches")
_RECORDS = Counter("replay.records")

_CLOSING_KINDS = (EventKind.TERMINATE, EventKind.EVICT)
#: Most records in one :func:`batch_stream` batch.
BATCH_RECORDS = 256


def iter_ingest_records(store: TraceStore) -> Iterator[IngestRecord]:
    """The canonical ingest stream of a finished trace (see module docs)."""
    events = store.events()
    created: set[int] = set()
    first_closing: dict[int, int] = {}
    for idx, event in enumerate(events):
        if event.kind is EventKind.CREATE:
            created.add(event.vm_id)
        elif event.kind in _CLOSING_KINDS and event.vm_id not in first_closing:
            first_closing[event.vm_id] = idx

    all_vm_ids = {vm.vm_id for vm in store.vms()}
    for vm_id in sorted(all_vm_ids - created):
        # Pre-window VMs have no CREATE event to ride on; emit them first,
        # censored (their closing event, if inside the window, finalizes).
        yield IngestRecord(
            event=None,
            vm=store.vm(vm_id),
            utilization=store.utilization(vm_id),
        )

    for idx, event in enumerate(events):
        if event.kind is EventKind.CREATE and event.vm_id in store:
            yield IngestRecord(
                event=event,
                vm=store.vm(event.vm_id),
                utilization=store.utilization(event.vm_id),
            )
        elif (
            event.kind in _CLOSING_KINDS
            and first_closing.get(event.vm_id) == idx
            and event.vm_id in store
        ):
            yield IngestRecord(event=event, vm_end=store.vm(event.vm_id).ended_at)
        else:
            yield IngestRecord(event=event)


def truncated_store(store: TraceStore, n_records: int) -> TraceStore:
    """A fresh store holding exactly the first ``n_records`` of the stream.

    Topology is copied whole (it is static), then the prefix is applied
    with the backend's own :func:`~repro.serving.backends.apply_record`.
    This is the ground truth the equivalence suite rebuilds batch knowledge
    from.
    """
    out = TraceStore(metadata=store.metadata)
    copy_topology(store, out)
    for record in islice(iter_ingest_records(store), n_records):
        apply_record(out, record)
    return out


@dataclass(frozen=True)
class ReplayStats:
    """What one replay pushed through the service."""

    records: int
    batches: int
    #: Trace time of the last replayed event (0 for a pure-backfill replay).
    last_event_time: float
    #: Wall seconds spent sleeping to honor the arrival pacing.
    slept_s: float


def batch_stream(records: "list[IngestRecord]") -> "list[list[IngestRecord]]":
    """Cut the stream into batches of ``BATCH_RECORDS`` or one hour of trace time.

    Backfill records (no event) land in the leading batches.  A batch never
    spans more than one hour of trace time, so pacing stays faithful even
    through sparse stretches.
    """
    batches: list[list[IngestRecord]] = []
    current: list[IngestRecord] = []
    bucket_start: float | None = None
    for record in records:
        time = record.event.time if record.event is not None else None
        if current and (
            len(current) >= BATCH_RECORDS
            or (
                time is not None
                and bucket_start is not None
                and time - bucket_start > 3600.0
            )
        ):
            batches.append(current)
            current = []
            bucket_start = None
        current.append(record)
        if time is not None and bucket_start is None:
            bucket_start = time
    if current:
        batches.append(current)
    return batches


async def replay_trace(
    store: TraceStore,
    service,
    *,
    speedup: float = 0.0,
) -> ReplayStats:
    """Push a trace's ingest stream into ``service`` at ``1/speedup`` pace.

    ``service`` is a started :class:`~repro.serving.service.KnowledgeBaseService`
    (or anything with ``async ingest(records)``), fed :func:`batch_stream`'s
    batches.  ``speedup <= 0`` skips pacing entirely; otherwise the
    trace-time gap between consecutive batches is slept divided by
    ``speedup``.
    """
    records = list(iter_ingest_records(store))
    batches = batch_stream(records)
    slept = 0.0
    clock = 0.0
    for batch in batches:
        times = [r.event.time for r in batch if r.event is not None]
        if times and speedup > 0:
            delay = (times[0] - clock) / speedup
            if delay > 0:
                await asyncio.sleep(delay)
                slept += delay
        if times:
            clock = max(clock, times[-1])
        await service.ingest(batch)
        _BATCHES.inc()
        _RECORDS.inc(len(batch))
    return ReplayStats(
        records=len(records),
        batches=len(batches),
        last_event_time=clock,
        slept_s=slept,
    )
