"""The online workload-knowledge-base service (Section V, kept warm).

:class:`KnowledgeBaseService` is a single-event-loop asyncio server around a
:class:`~repro.serving.backends.MemoryBackend`:

* **Ingest** arrives in :class:`~repro.serving.backends.IngestRecord`
  batches through a *bounded* queue (producers feel backpressure when the
  consumer lags) and is applied by one consumer task.  Applying a batch is
  fully synchronous -- no ``await`` between the first and last mutation --
  so queries scheduled on the same loop can never observe a half-applied
  batch (the "no torn reads" property the concurrency tests pin down).
* **Refresh** is lazy and incremental: ingest only marks subscriptions
  dirty; the next query that needs knowledge records rebuilds *only* the
  dirty ones via the shared batch builder
  (:func:`~repro.core.knowledge_base.build_subscription_records` and
  :func:`~repro.core.correlation.subscription_region_report`).  Because a
  subscription's record is a pure function of its current content, the
  refreshed state is byte-identical to a full batch rebuild -- the
  equivalence suite asserts this at every prefix.
* **Queries** are served over a newline-delimited JSON TCP protocol
  (one request object per line, one response object per line; see
  ``docs/SERVING.md``) by an :class:`asyncio.Protocol` that dispatches each
  line inline as it arrives and answers in request order.  Malformed input
  gets a typed ``bad_request`` error and bumps the ``serving.bad_request``
  counter instead of killing the connection.

``REPRO_FAULT=serve:stall`` arms the slow-consumer fault: the ingest
consumer sleeps before each batch, so a fast producer fills the bounded
queue and blocks -- the asyncio analogue of the worker-pool ``hang`` fault
(an actual hour-long hang would just wedge the test suite).
"""

from __future__ import annotations

import asyncio
import inspect
import json
import math
from collections import deque

from repro.core.correlation import subscription_region_report
from repro.core.knowledge_base import (
    CLASSIFIER_CONFIG,
    POLICY_SPOT_ADOPTION,
    REGION_AGNOSTIC_THRESHOLD,
    WorkloadKnowledgeBase,
    build_subscription_records,
)
from repro.core.patterns import classify_windows
from repro.experiments.faultinject import FaultKind, plan_from_env
from repro.management.prediction import AllocationFailurePredictor, RegionHourCounts
from repro.obs import Counter, span
from repro.serving.backends import (
    IngestRecord,
    MemoryBackend,
    copy_topology,
)
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore

#: Per-line stream limit: an ingest batch of a few hundred VMs with full
#: week-long series serializes to several MB of JSON on one line.
STREAM_LIMIT = 1 << 26

_REQUESTS = Counter("serving.requests")
_BAD_REQUEST = Counter("serving.bad_request")
_ERRORS = Counter("serving.errors")
_CONNECTIONS = Counter("serving.connections")
_DISCONNECTS = Counter("serving.disconnects")
_INGESTED = Counter("serving.ingested_records")
_APPLY_ERRORS = Counter("serving.apply_errors")
_REFRESHED_SUBS = Counter("serving.refreshed_subscriptions")
_BACKPRESSURE = Counter("serving.backpressure_waits")
_STALLS = Counter("serving.stall_injected")

# Reading a member off its Enum class takes ~0.2 us, several times the
# identity check it feeds; the apply path runs these checks per record.
_CREATE = EventKind.CREATE
_CLOSING_KINDS = (EventKind.TERMINATE, EventKind.EVICT)


class ServiceError(Exception):
    """A typed, client-visible failure (``kind`` travels on the wire)."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _clean(value: float) -> float | None:
    """NaN/inf become None so responses stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _stall_seconds(delay: float) -> float:
    """Injected per-batch consumer delay when ``serve:stall`` is armed."""
    for spec in plan_from_env():
        if spec.target == "serve" and spec.kind is FaultKind.HANG:
            return delay
    return 0.0


class KnowledgeBaseService:
    """Long-running knowledge base: incremental ingest, concurrent queries.

    The service owns a :class:`WorkloadKnowledgeBase` that it keeps
    consistent with the backend store via dirty-subscription refresh.  All
    state mutation happens on the event loop thread in synchronous code,
    which is the whole concurrency story: batches apply atomically with
    respect to queries.
    """

    def __init__(
        self,
        *,
        backend: MemoryBackend | None = None,
        queue_maxsize: int = 64,
        stall_delay: float = 0.05,
    ) -> None:
        self._backend = backend or MemoryBackend()
        self._stall_delay = stall_delay
        self._last_apply_error: str | None = None
        self._kb = WorkloadKnowledgeBase()
        #: Per-subscription bookkeeping mirroring what the batch path scans:
        #: VM ids in arrival order, CREATE (time, vm_id) pairs, and
        #: telemetry-bearing VM ids per region.  The shared builders sort,
        #: so arrival order never leaks into a record.
        self._sub_vm_ids: dict[int, list[int]] = {}
        self._creations: dict[int, list[tuple[float, int]]] = {}
        self._region_ids: dict[int, dict[str, list[int]]] = {}
        self._dirty: set[int] = set()
        #: Pattern label per VM over its current window, filled by
        #: ``pattern_for_vm`` and by refresh; dropped when the window closes.
        self._pattern_cache: dict[int, str] = {}
        #: ``region_agnostic_candidates`` answers per ``cloud`` argument,
        #: valid until a refresh rebuilds a record.
        self._candidates: dict[str | None, list[dict]] = {}
        self._events_version = 0
        #: The failure predictor's features, kept exact at apply time.
        self._region_hours = RegionHourCounts.from_store(self._backend.store())
        self._predictors: dict[Cloud, tuple[int, AllocationFailurePredictor]] = {}
        self._queue: asyncio.Queue[list[IngestRecord]] = asyncio.Queue(
            maxsize=queue_maxsize
        )
        self._server: asyncio.base_events.Server | None = None
        self._ingest_task: asyncio.Task | None = None
        #: Open client connections; stop() closes them.
        self._connections: set[_ServerConnection] = set()
        #: Serializes start()/stop(): both mutate several related fields
        #: (_server, _ingest_task, host, port) across awaits, and two
        #: overlapping lifecycle transitions must never interleave --
        #: e.g. concurrent start() calls would both pass the
        #: already-started check before either assigns _server.
        self._lifecycle_lock = asyncio.Lock()
        self.host: str | None = None
        self.port: int | None = None
        self._handlers = {
            "ping": self._op_ping,
            "stats": self._op_stats,
            "recent": self._op_recent,
            "snapshot": self._op_snapshot,
            "pattern_for_vm": self._op_pattern_for_vm,
            "region_agnostic_candidates": self._op_region_agnostic_candidates,
            "allocation_failure_risk": self._op_allocation_failure_risk,
            "spot_eligibility": self._op_spot_eligibility,
            "recommend_policies": self._op_recommend_policies,
            "ingest": self._op_ingest,
        }

    # ------------------------------------------------------------------
    # construction / topology
    # ------------------------------------------------------------------
    @classmethod
    def for_trace(cls, store: TraceStore, **kwargs) -> "KnowledgeBaseService":
        """Service primed with a trace's topology (but none of its telemetry)."""
        backend = kwargs.pop("backend", None) or MemoryBackend(
            metadata=store.metadata
        )
        service = cls(backend=backend, **kwargs)
        service.register_topology(store)
        return service

    def register_topology(self, source: TraceStore) -> None:
        """Copy static topology (regions/clusters/nodes/subscriptions)."""
        with span(
            "serving.register",
            regions=len(source.regions),
            subscriptions=len(source.subscriptions),
        ):
            copy_topology(source, self._backend.store())

    @property
    def backend(self) -> MemoryBackend:
        return self._backend

    # ------------------------------------------------------------------
    # ingest (consumer side is the only writer)
    # ------------------------------------------------------------------
    async def ingest(self, records: "list[IngestRecord]") -> int:
        """Enqueue one batch; blocks (backpressure) when the queue is full."""
        batch = list(records)
        if not batch:
            return 0
        if self._ingest_task is None:
            raise RuntimeError("service not started; use apply_records()")
        try:
            self._queue.put_nowait(batch)
        except asyncio.QueueFull:
            _BACKPRESSURE.inc()
            await self._queue.put(batch)
        return len(batch)

    async def drain(self) -> None:
        """Wait until every enqueued batch has been applied."""
        await self._queue.join()

    def apply_records(self, records: "list[IngestRecord]") -> int:
        """Apply a batch synchronously; returns how many records applied.

        This is the consumer task's work function, exposed publicly so the
        equivalence tests (and embedded users) can drive the service
        without an event loop.  A record the store rejects is counted in
        ``serving.apply_errors`` and skipped; the rest of the batch still
        applies.
        """
        applied = 0
        for record in records:
            try:
                self._apply_one(record)
            except (KeyError, ValueError) as exc:
                _APPLY_ERRORS.inc()
                self._last_apply_error = f"{type(exc).__name__}: {exc}"
            else:
                applied += 1
        _INGESTED.inc(applied)
        return applied

    def _apply_one(self, record: IngestRecord) -> None:
        store = self._backend.store()
        event = record.event
        # The row whose end this record moves, as counted before it moves.
        moved = None
        if event is not None and record.vm_end is not None and event.vm_id in store:
            moved = store.vm(event.vm_id)
        self._backend.apply(record)
        self._events_version += 1
        if record.vm is not None:
            vm = record.vm
            sub = store.subscriptions.get(vm.subscription_id)
            self._sub_vm_ids.setdefault(vm.subscription_id, []).append(vm.vm_id)
            if (
                record.utilization is not None
                and sub is not None
                and vm.cloud == sub.cloud
            ):
                # Mirrors subscription_region_vm_ids: telemetry-bearing VMs
                # of the subscription's own cloud, grouped by region.
                self._region_ids.setdefault(vm.subscription_id, {}).setdefault(
                    vm.region, []
                ).append(vm.vm_id)
            self._dirty.add(vm.subscription_id)
            self._pattern_cache.pop(vm.vm_id, None)
            self._region_hours.add_vm(store.vm(vm.vm_id))  # the row as stored
        if event is None:
            return
        self._region_hours.add_event(event)
        if event.vm_id not in store:
            return
        row = store.vm(event.vm_id)
        if moved is not None:
            self._region_hours.add_vm(moved, -1)
            self._region_hours.add_vm(row)
        if event.kind is _CREATE:
            self._creations.setdefault(row.subscription_id, []).append((event.time, event.vm_id))
            self._dirty.add(row.subscription_id)
        if record.vm_end is not None or event.kind in _CLOSING_KINDS:
            self._dirty.add(row.subscription_id)
            # The VM's observation window closed; its cached pattern
            # was computed over the open-ended window.
            self._pattern_cache.pop(event.vm_id, None)

    # ------------------------------------------------------------------
    # refresh (dirty subscriptions -> knowledge records)
    # ------------------------------------------------------------------
    def refresh(self) -> int:
        """Rebuild records for dirty subscriptions; returns how many."""
        if not self._dirty:
            return 0
        store = self._backend.store()
        allowed = set(store.regions)
        with span("serving.refresh", subscriptions=len(self._dirty)):
            entries = []
            for sub_id in sorted(self._dirty):
                sub = store.subscriptions.get(sub_id)
                if sub is None:
                    continue  # batch path ignores VMs of unknown subscriptions
                vms = [store.vm(i) for i in self._sub_vm_ids.get(sub_id, ())]
                if not vms:
                    continue
                report = subscription_region_report(
                    store,
                    sub_id,
                    sub.service,
                    self._region_ids.get(sub_id, {}),
                    threshold=REGION_AGNOSTIC_THRESHOLD,
                    allowed_regions=allowed,
                )
                entries.append(
                    (
                        sub,
                        vms,
                        self._creations.get(sub_id, ()),
                        None if report is None else report.region_agnostic,
                    )
                )
            for record in build_subscription_records(store, entries, self._pattern_cache):
                self._kb.put(record)
            refreshed = len(entries)
            if refreshed:
                self._candidates.clear()
            self._dirty.clear()
        _REFRESHED_SUBS.inc(refreshed)
        return refreshed

    def snapshot_json(self) -> str:
        """Current knowledge, serialized exactly like the batch KB.

        Byte-identical to ``WorkloadKnowledgeBase.from_trace(truncated
        trace).to_json()`` -- records are rebuilt by the same code and
        serialized in sorted subscription order, so two snapshots of the
        same state are also identical (deterministic ordering).
        """
        self.refresh()
        return self._kb.to_json()

    @property
    def knowledge_base(self) -> WorkloadKnowledgeBase:
        """The live KB (refreshing first); embedded consumers share it."""
        self.refresh()
        return self._kb

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pattern_for_vm(self, vm_id: int) -> dict:
        """Classify one VM's utilization pattern over its observed window."""
        store = self._backend.store()
        if vm_id not in store:
            raise ServiceError("not_found", f"unknown vm {vm_id}")
        label = self._pattern_cache.get(vm_id)
        if label is None:
            series = store.utilization(vm_id)
            if series is None:
                raise ServiceError("not_found", f"vm {vm_id} has no telemetry")
            lo, hi = store.metadata.sample_window(store.vm(vm_id))
            window = series[lo:hi]
            if not window.size:
                raise ServiceError(
                    "unavailable", f"vm {vm_id} has an empty observation window"
                )
            label = classify_windows(
                [window],
                CLASSIFIER_CONFIG,
                sample_period=store.metadata.sample_period,
            )[0]
            self._pattern_cache[vm_id] = label
        return {"vm_id": int(vm_id), "pattern": label}

    def region_agnostic_candidates(self, cloud: "Cloud | str | None" = None) -> list[dict]:
        """Subscriptions whose load follows one global clock (Fig. 7c).

        The list depends only on the knowledge records, so it is built once
        per ``cloud`` and kept until a refresh rebuilds a record; callers
        share it and must not modify it.
        """
        self.refresh()
        key = None if cloud is None else str(cloud)
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = self._candidates[key] = [
                {
                    "subscription_id": r.subscription_id,
                    "cloud": r.cloud,
                    "service": r.service,
                    "regions": list(r.regions),
                    "n_vms": r.n_vms,
                }
                for r in self._kb.region_agnostic_candidates(cloud=cloud)
            ]
        return candidates

    def allocation_failure_risk(
        self, cloud: "Cloud | str", load_fraction: float, recent_creations: float
    ) -> dict:
        """Failure probability for a (load, burst) state of one cloud.

        The predictor refits lazily whenever new events arrived since the
        last fit, so the risk always reflects the ingested history.  A refit
        reads the region-hour counts kept at apply time, not the store.
        """
        cloud = Cloud(cloud)
        cached = self._predictors.get(cloud)
        if cached is None or cached[0] != self._events_version:
            try:
                predictor = AllocationFailurePredictor().fit(
                    self._backend.store(), cloud, counts=self._region_hours
                )
            except ValueError as exc:
                raise ServiceError("unavailable", str(exc)) from exc
            self._predictors[cloud] = (self._events_version, predictor)
        else:
            predictor = cached[1]
        risk = predictor.predict_risk(float(load_fraction), float(recent_creations))
        return {
            "cloud": cloud.value,
            "load_fraction": float(load_fraction),
            "recent_creations": float(recent_creations),
            "risk": risk,
        }

    def spot_eligibility(self, subscription_id: int) -> dict:
        """Whether a subscription's workload profile fits spot adoption."""
        self.refresh()
        subscription_id = int(subscription_id)
        if subscription_id not in self._kb:
            raise ServiceError(
                "not_found", f"no knowledge for subscription {subscription_id}"
            )
        record = self._kb.get(subscription_id)
        policies = self._kb.recommend_policies(subscription_id)
        return {
            "subscription_id": subscription_id,
            "cloud": record.cloud,
            "eligible": POLICY_SPOT_ADOPTION in policies,
            "short_lived_fraction": _clean(record.short_lived_fraction),
            "lifetime_p50": _clean(record.lifetime_p50),
            "n_vms": record.n_vms,
            "policies": policies,
        }

    def stats(self) -> dict:
        """Operational state of the service (cheap; no refresh)."""
        store = self._backend.store()
        return {
            "vms": len(store),
            "events": store.n_events,
            "subscriptions_known": len(store.subscriptions),
            "records": len(self._kb),
            "dirty_subscriptions": len(self._dirty),
            "queue_depth": self._queue.qsize(),
            "events_version": self._events_version,
            "backend": self._backend.describe(),
        }

    # ------------------------------------------------------------------
    # protocol handlers (thin wrappers validating wire args)
    # ------------------------------------------------------------------
    def _op_ping(self, args: dict) -> dict:
        return {"pong": True}

    def _op_stats(self, args: dict) -> dict:
        return self.stats()

    def _op_recent(self, args: dict) -> dict:
        limit = args.get("limit")
        if limit is not None and not isinstance(limit, int):
            raise ServiceError("bad_request", "limit must be an integer")
        return {"entries": self._backend.recent(limit)}

    def _op_snapshot(self, args: dict) -> dict:
        return {"records": json.loads(self.snapshot_json())}

    def _op_pattern_for_vm(self, args: dict) -> dict:
        vm_id = args.get("vm_id")
        if not isinstance(vm_id, int):
            raise ServiceError("bad_request", "vm_id must be an integer")
        return self.pattern_for_vm(vm_id)

    def _op_region_agnostic_candidates(self, args: dict) -> dict:
        cloud = args.get("cloud")
        if cloud is not None:
            try:
                cloud = Cloud(cloud)
            except ValueError as exc:
                raise ServiceError("bad_request", str(exc)) from exc
        return {"candidates": self.region_agnostic_candidates(cloud)}

    def _op_allocation_failure_risk(self, args: dict) -> dict:
        try:
            cloud = Cloud(args["cloud"])
            load = float(args["load_fraction"])
            creations = float(args["recent_creations"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                "bad_request",
                "allocation_failure_risk needs cloud, load_fraction, "
                f"recent_creations ({exc})",
            ) from exc
        return self.allocation_failure_risk(cloud, load, creations)

    def _op_spot_eligibility(self, args: dict) -> dict:
        sub_id = args.get("subscription_id")
        if not isinstance(sub_id, int):
            raise ServiceError("bad_request", "subscription_id must be an integer")
        return self.spot_eligibility(sub_id)

    def _op_recommend_policies(self, args: dict) -> dict:
        sub_id = args.get("subscription_id")
        if not isinstance(sub_id, int):
            raise ServiceError("bad_request", "subscription_id must be an integer")
        self.refresh()
        if sub_id not in self._kb:
            raise ServiceError("not_found", f"no knowledge for subscription {sub_id}")
        return {"subscription_id": sub_id, "policies": self._kb.recommend_policies(sub_id)}

    async def _op_ingest(self, args: dict) -> dict:
        raw = args.get("records")
        if not isinstance(raw, list):
            raise ServiceError("bad_request", "records must be a list")
        try:
            records = [IngestRecord.from_wire(item) for item in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                "bad_request", f"malformed ingest record: {exc}"
            ) from exc
        accepted = await self.ingest(records)
        return {"accepted": accepted}

    # ------------------------------------------------------------------
    # asyncio server machinery
    # ------------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start the ingest consumer and the TCP server; returns (host, port).

        ``port=0`` (the default, and the only mode the tests use) lets the
        kernel pick a free port; the chosen one is reported back.
        """
        async with self._lifecycle_lock:
            if self._server is not None:
                raise RuntimeError("service already started")
            self._ingest_task = asyncio.create_task(self._ingest_loop())
            self._server = await asyncio.get_running_loop().create_server(
                lambda: _ServerConnection(self), host, port
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            return self.host, self.port

    async def stop(self) -> None:
        """Close every connection, drain pending ingest, then shut down.

        Connections are closed first because ``Server.wait_closed()``
        waits for all of them on Python 3.12+, so one idle client would
        otherwise keep ``stop()`` from returning.  A dispatch suspended on
        a full ingest queue still finishes (its batch is enqueued and
        applied below); only its response is dropped.
        """
        async with self._lifecycle_lock:
            if self._server is not None:
                self._server.close()
                connections = list(self._connections)
                for connection in connections:
                    connection.close()
                for connection in connections:
                    await connection.wait_closed()
                await self._server.wait_closed()
                self._server = None
            if self._ingest_task is not None:
                await self._queue.join()
                self._ingest_task.cancel()
                try:
                    await self._ingest_task
                except asyncio.CancelledError:
                    pass
                self._ingest_task = None

    async def _ingest_loop(self) -> None:
        while True:
            batch = await self._queue.get()
            try:
                stall = _stall_seconds(self._stall_delay)
                if stall > 0:
                    _STALLS.inc()
                    await asyncio.sleep(stall)
                self.apply_records(batch)
            finally:
                self._queue.task_done()

    async def _dispatch_line(self, line: bytes) -> bytes:
        _REQUESTS.inc()
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            _BAD_REQUEST.inc()
            return _error_response(None, "bad_request", f"invalid JSON: {exc}")
        if not isinstance(request, dict):
            _BAD_REQUEST.inc()
            return _error_response(None, "bad_request", "request must be an object")
        req_id = request.get("id")
        op = request.get("op")
        handler = self._handlers.get(op)
        if handler is None:
            _BAD_REQUEST.inc()
            return _error_response(req_id, "bad_request", f"unknown op {op!r}")
        args = request.get("args", {})
        if not isinstance(args, dict):
            _BAD_REQUEST.inc()
            return _error_response(req_id, "bad_request", "args must be an object")
        try:
            result = handler(args)
            if inspect.isawaitable(result):
                result = await result
        except ServiceError as exc:
            if exc.kind == "bad_request":
                _BAD_REQUEST.inc()
            else:
                _ERRORS.inc()
            return _error_response(req_id, exc.kind, str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            _BAD_REQUEST.inc()
            return _error_response(
                req_id, "bad_request", f"{type(exc).__name__}: {exc}"
            )
        return json.dumps({"ok": True, "id": req_id, "result": result}).encode()


def _error_response(req_id, kind: str, message: str) -> bytes:
    return json.dumps(
        {"ok": False, "id": req_id, "error": {"kind": kind, "message": message}}
    ).encode()


class _LineBuffer:
    """Splits a byte stream into newline-terminated lines of bounded length.

    ``feed`` returns the complete lines (without their newline).  A line,
    complete or still open, longer than ``STREAM_LIMIT`` -- the bound
    ``StreamReader.readline`` enforces -- sets ``overrun``: the lines
    before it are still returned, and it and everything after are dropped.
    Only the new bytes are searched, so a multi-MB line arriving in chunks
    costs linear time.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.overrun = False

    def feed(self, data: bytes) -> list[bytearray]:
        if self.overrun:
            return []
        buffer = self._buffer
        scan = len(buffer)
        buffer += data
        lines = []
        start = 0
        while (end := buffer.find(b"\n", scan)) >= 0:
            if end - start > STREAM_LIMIT:
                self.overrun = True
                break
            lines.append(buffer[start:end])
            start = scan = end + 1
        del buffer[:start]
        if self.overrun or len(buffer) > STREAM_LIMIT:
            self.overrun = True
            buffer.clear()
        return lines

    def rest(self) -> bytearray:
        """The unterminated tail, emptied (what ``readline`` returns at EOF)."""
        rest, self._buffer = self._buffer, bytearray()
        return rest


class _ServerConnection(asyncio.Protocol):
    """One client connection of the service (see ``docs/SERVING.md``).

    Each complete line is dispatched inline from ``data_received``: nearly
    every op finishes without suspending, so its coroutine completes in
    one ``send`` and the response is written before the callback returns.
    A dispatch that does suspend (``ingest`` on a full queue) continues in
    a task, the lines behind it wait in order, and reading pauses until it
    finishes.  Reading also pauses while the transport's write buffer is
    over its high-water mark, so a client that does not read its responses
    stops being served.  EOF or an over-long line ends the input: the
    lines before it are answered, then the connection closes.
    """

    def __init__(self, service: KnowledgeBaseService) -> None:
        self._service = service
        self._transport: asyncio.Transport | None = None
        self._input = _LineBuffer()
        self._lines: deque[bytes] = deque()
        self._task: asyncio.Task | None = None
        self._writing_paused = False
        self._input_done = False
        self._closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._service._connections.add(self)
        _CONNECTIONS.inc()

    def data_received(self, data: bytes) -> None:
        self._lines.extend(self._input.feed(data))
        if self._input.overrun:
            self._input_done = True
            self._transport.pause_reading()
        self._run()

    def eof_received(self) -> bool:
        rest = self._input.rest()
        if rest:
            self._lines.append(rest)
        self._input_done = True
        self._run()
        return True  # half-open until the queued lines are answered

    def pause_writing(self) -> None:
        self._writing_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._resume_reading()
        self._run()

    def connection_lost(self, exc: Exception | None) -> None:
        if exc is not None:
            _DISCONNECTS.inc()
        self._lines.clear()
        self._service._connections.discard(self)
        self._closed.set_result(None)

    def close(self) -> None:
        self._transport.close()

    async def wait_closed(self) -> None:
        """Until the connection is gone and no dispatch of it is running."""
        await self._closed
        if self._task is not None:
            await self._task

    def _resume_reading(self) -> None:
        if self._task is None and not self._writing_paused and not self._input_done:
            self._transport.resume_reading()

    def _run(self) -> None:
        """Dispatch queued lines, in order, until one suspends."""
        transport, lines = self._transport, self._lines
        while lines and self._task is None and not self._writing_paused:
            if transport.is_closing():
                return
            coro = self._service._dispatch_line(lines.popleft())
            try:
                pending = coro.send(None)
            except StopIteration as done:
                transport.write(done.value + b"\n")
            else:
                transport.pause_reading()
                self._task = asyncio.get_running_loop().create_task(
                    self._finish(coro, pending)
                )
        if self._input_done and not lines and self._task is None:
            transport.close()

    async def _finish(self, coro, pending) -> None:
        """Complete a suspended dispatch, answer it, then go on with the queue."""
        try:
            while True:
                # Wait for what the dispatch waits on, then step it on, as
                # a task would; a bare ``yield`` asks for one loop turn.
                if pending is None:
                    await asyncio.sleep(0)
                else:
                    await asyncio.wait((pending,))
                try:
                    pending = coro.send(None)
                except StopIteration as done:
                    response = done.value
                    break
        except BaseException:
            self._transport.close()
            raise
        finally:
            self._task = None
        if self._transport.is_closing():
            _DISCONNECTS.inc()  # the client left before its answer
            return
        self._transport.write(response + b"\n")
        self._resume_reading()
        self._run()


class _ClientConnection(asyncio.Protocol):
    """Client side of one connection: responses resolve requests in order."""

    def __init__(self) -> None:
        self._transport: asyncio.Transport | None = None
        self._input = _LineBuffer()
        self._waiters: deque[asyncio.Future] = deque()
        self._loop = asyncio.get_running_loop()
        self._closed = self._loop.create_future()
        self._drained: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        waiters = self._waiters
        for line in self._input.feed(data):
            if not waiters:
                break  # an answer nobody asked for
            waiter = waiters.popleft()
            if not waiter.done():  # a cancelled request still takes its answer
                waiter.set_result(line)
        if self._input.overrun:
            self._fail(ValueError(f"response line longer than {STREAM_LIMIT} bytes"))
            self._transport.close()

    def pause_writing(self) -> None:
        self._drained = self._loop.create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None and not drained.done():
            drained.set_result(None)

    def connection_lost(self, exc: Exception | None) -> None:
        self._fail(ConnectionError("server closed the connection"))
        self.resume_writing()
        self._closed.set_result(None)

    def _fail(self, exc: Exception) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(exc)

    async def round_trip(self, line: bytes) -> bytearray:
        """Send one request line; returns its response line."""
        if self._transport.is_closing():
            raise ConnectionError("server closed the connection")
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        self._transport.write(line)
        if self._drained is not None:
            await self._drained
        return await waiter

    async def close(self) -> None:
        self._transport.close()
        await self._closed


class ServiceClient:
    """Minimal asyncio client for the newline-JSON protocol.

    Requests may be pipelined: concurrent ``request`` calls on one client
    are written in call order and answered in that order.
    """

    def __init__(self, connection: _ClientConnection) -> None:
        self._connection = connection

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        _transport, connection = await asyncio.get_running_loop().create_connection(
            _ClientConnection, host, port
        )
        return cls(connection)

    async def request(self, op: str, args: dict | None = None, **extra) -> dict:
        """One round trip; returns the raw response envelope."""
        payload: dict = {"op": op, **extra}
        if args is not None:
            payload["args"] = args
        line = await self._connection.round_trip(json.dumps(payload).encode() + b"\n")
        return json.loads(line)

    async def call(self, op: str, args: dict | None = None) -> dict:
        """One round trip; unwraps ``result`` or raises :class:`ServiceError`."""
        response = await self.request(op, args)
        if not response.get("ok"):
            error = response.get("error", {})
            raise ServiceError(
                error.get("kind", "error"), error.get("message", "request failed")
            )
        return response["result"]

    async def close(self) -> None:
        await self._connection.close()
