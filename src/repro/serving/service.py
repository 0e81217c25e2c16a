"""The online workload-knowledge-base service (Section V, kept warm).

:class:`KnowledgeBaseService` is a single-event-loop asyncio server around a
:class:`~repro.serving.backends.StorageBackend`:

* **Ingest** arrives in :class:`~repro.serving.backends.IngestRecord`
  batches through a *bounded* queue (producers feel backpressure when the
  consumer lags) and is applied by one consumer task.  Applying a batch is
  fully synchronous -- no ``await`` between the first and last mutation --
  so queries scheduled on the same loop can never observe a half-applied
  batch (the "no torn reads" property the concurrency tests pin down).
* **Refresh** is lazy and incremental: ingest only marks subscriptions
  dirty; the next query that needs knowledge records rebuilds *only* the
  dirty ones via the shared batch builder
  (:func:`~repro.core.knowledge_base.build_subscription_record` and
  :func:`~repro.core.correlation.subscription_region_report`).  Because a
  subscription's record is a pure function of its current content, the
  refreshed state is byte-identical to a full batch rebuild -- the
  equivalence suite asserts this at every prefix.
* **Queries** are served over a newline-delimited JSON TCP protocol
  (one request object per line, one response object per line; see
  ``docs/SERVING.md``).  Malformed input gets a typed ``bad_request`` error
  and bumps the ``serving.bad_request`` counter instead of killing the
  connection.

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

import numpy as np

from repro.core.correlation import subscription_region_report
from repro.core.knowledge_base import (
    POLICY_SPOT_ADOPTION,
    REGION_AGNOSTIC_THRESHOLD,
    WorkloadKnowledgeBase,
    build_subscription_record,
    classify_windows,
)
from repro.experiments.faultinject import FaultKind, plan_from_env
from repro.management.prediction import AllocationFailurePredictor
from repro.obs import Counter, span
from repro.serving.backends import (
    IngestRecord,
    MemoryBackend,
    StorageBackend,
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
        backend: StorageBackend | None = None,
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
        self._pattern_cache: dict[int, str] = {}
        self._events_version = 0
        self._predictors: dict[Cloud, tuple[int, AllocationFailurePredictor]] = {}
        self._queue: asyncio.Queue[list[IngestRecord]] = asyncio.Queue(
            maxsize=queue_maxsize
        )
        self._server: asyncio.base_events.Server | None = None
        self._ingest_task: asyncio.Task | None = None
        #: Live client handlers and their writers; stop() closes them.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
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
    def backend(self) -> StorageBackend:
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
        self._backend.apply(record)
        self._events_version += 1
        store = self._backend.store()
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
        event = record.event
        if event is None:
            return
        if event.kind is EventKind.CREATE and event.vm_id in store:
            sub_id = store.vm(event.vm_id).subscription_id
            self._creations.setdefault(sub_id, []).append((event.time, event.vm_id))
            self._dirty.add(sub_id)
        elif event.kind in (EventKind.TERMINATE, EventKind.EVICT):
            if event.vm_id in store:
                self._dirty.add(store.vm(event.vm_id).subscription_id)
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
        refreshed = 0
        with span("serving.refresh", subscriptions=len(self._dirty)):
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
                self._kb.put(
                    build_subscription_record(
                        store,
                        sub,
                        vms,
                        creations=self._creations.get(sub_id, ()),
                        region_agnostic=(
                            None if report is None else report.region_agnostic
                        ),
                    )
                )
                refreshed += 1
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
            vm = store.vm(vm_id)
            sample_period = store.metadata.sample_period
            start = max(vm.created_at, 0.0)
            end = min(vm.ended_at, store.metadata.duration)
            lo = int(np.ceil(start / sample_period))
            hi = int(np.floor(end / sample_period))
            window = np.asarray(series[lo:hi], dtype=np.float64).ravel()
            if not window.size:
                raise ServiceError(
                    "unavailable", f"vm {vm_id} has an empty observation window"
                )
            label = classify_windows([window], sample_period=sample_period)[0]
            self._pattern_cache[vm_id] = label
        return {"vm_id": int(vm_id), "pattern": label}

    def region_agnostic_candidates(self, cloud: "Cloud | str | None" = None) -> list[dict]:
        """Subscriptions whose load follows one global clock (Fig. 7c)."""
        self.refresh()
        return [
            {
                "subscription_id": r.subscription_id,
                "cloud": r.cloud,
                "service": r.service,
                "regions": list(r.regions),
                "n_vms": r.n_vms,
            }
            for r in self._kb.region_agnostic_candidates(cloud=cloud)
        ]

    def allocation_failure_risk(
        self, cloud: "Cloud | str", load_fraction: float, recent_creations: float
    ) -> dict:
        """Failure probability for a (load, burst) state of one cloud.

        The predictor refits lazily whenever new events arrived since the
        last fit, so the risk always reflects the ingested history.
        """
        cloud = Cloud(cloud)
        cached = self._predictors.get(cloud)
        if cached is None or cached[0] != self._events_version:
            try:
                predictor = AllocationFailurePredictor().fit(
                    self._backend.store(), cloud
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
            self._server = await asyncio.start_server(
                self._accept, host, port, limit=STREAM_LIMIT
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
            return self.host, self.port

    async def stop(self) -> None:
        """Close every connection, drain pending ingest, then shut down.

        Connections are closed first because ``Server.wait_closed()``
        waits for all of them on Python 3.12+, so one idle client would
        otherwise keep ``stop()`` from returning.
        """
        async with self._lifecycle_lock:
            if self._server is not None:
                self._server.close()
                for writer in self._connections.values():
                    writer.close()
                # A closed transport feeds EOF, so each handler exits.
                await asyncio.gather(*self._connections)
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

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """``start_server`` callback: run the handler as a tracked task."""
        task = asyncio.get_running_loop().create_task(
            self._handle_client(reader, writer)
        )
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _CONNECTIONS.inc()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._dispatch_line(line)
                writer.write(response + b"\n")
                await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            _DISCONNECTS.inc()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                _DISCONNECTS.inc()

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


class ServiceClient:
    """Minimal asyncio client for the newline-JSON protocol."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=STREAM_LIMIT
        )
        return cls(reader, writer)

    async def request(self, op: str, args: dict | None = None, **extra) -> dict:
        """One round trip; returns the raw response envelope."""
        payload: dict = {"op": op, **extra}
        if args is not None:
            payload["args"] = args
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
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
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
