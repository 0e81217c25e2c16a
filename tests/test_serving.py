"""Concurrency, protocol, and fault-injection tests for ``repro serve``.

Hermeticity rules for this file: every service binds port 0 (the kernel
picks a free port and ``start()`` reports it back), all asyncio entry
points run under ``asyncio.wait_for`` so a wedged service fails the test
instead of hanging the suite, and nothing touches the filesystem outside
``tmp_path``.  There is no pytest-asyncio in the toolchain, so each test
drives its own loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from repro.bench import QUERY_MIX
from repro.obs import MetricsScope
from repro.serving import (
    KnowledgeBaseService,
    ServiceClient,
    ServiceError,
    iter_ingest_records,
    replay_trace,
)
from repro.serving.replay import batch_stream
from repro.telemetry.store import TraceStore

pytestmark = pytest.mark.serving

#: Generous per-test ceiling: loopback round trips are sub-ms, so hitting
#: this means the service deadlocked, not that the machine is slow.
TIMEOUT_S = 120.0


def run(coro):
    """Run one test coroutine with a hard timeout on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT_S))


#: The protocol table every op must have a row in.
SERVING_DOC = Path(__file__).resolve().parent.parent / "docs" / "SERVING.md"

#: ``| `op` | ...`` rows of the docs/SERVING.md protocol table.
_DOC_OP_RE = re.compile(r"^\|\s*`([A-Za-z0-9_]+)`\s*\|", re.MULTILINE)


def _sorted_sub_ids(snapshot: dict) -> list[int]:
    return [record["subscription_id"] for record in snapshot["records"]]


@pytest.fixture(scope="module")
def ingest_records(small_trace):
    return list(iter_ingest_records(small_trace))


class TestConcurrentQueries:
    def test_clients_query_during_ingest(self, small_trace):
        """N clients hammer the service while the full trace replays.

        Every response must be a well-formed envelope, and every snapshot
        observed mid-ingest must be internally consistent (sorted,
        deterministic ordering) -- the no-torn-reads guarantee.
        """
        vm_ids = small_trace.vm_ids_with_utilization()[:40]

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            assert port != 0  # the kernel's choice is reported back

            replay = asyncio.create_task(
                replay_trace(small_trace, service, speedup=0.0)
            )

            async def client_loop(idx: int) -> int:
                client = await ServiceClient.connect(host, port)
                checked = 0
                try:
                    while True:
                        pong = await client.call("ping")
                        assert pong == {"pong": True}
                        stats = await client.call("stats")
                        assert stats["vms"] >= 0
                        snap = await client.call("snapshot")
                        subs = _sorted_sub_ids(snap)
                        assert subs == sorted(subs), "snapshot order torn"
                        response = await client.request(
                            "pattern_for_vm",
                            {"vm_id": int(vm_ids[idx % len(vm_ids)])},
                        )
                        # Early in the replay the VM may not exist yet;
                        # that is a typed miss, never a protocol error.
                        if not response["ok"]:
                            assert response["error"]["kind"] == "not_found"
                        checked += 1
                        if replay.done():
                            break
                finally:
                    await client.close()
                return checked

            totals = await asyncio.gather(*(client_loop(i) for i in range(5)))
            await replay
            await service.drain()
            final = service.snapshot_json()
            await service.stop()
            return totals, final

        totals, final = run(scenario())
        assert all(n > 0 for n in totals)
        # Deterministic final state regardless of query interleaving.
        from repro.core.knowledge_base import WorkloadKnowledgeBase

        assert final == WorkloadKnowledgeBase.from_trace(small_trace).to_json()

    def test_snapshot_stable_between_ingests(self, small_trace):
        """With no ingest in flight, repeated snapshots are byte-identical."""
        records = list(iter_ingest_records(small_trace))

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            await service.ingest(records[: len(records) // 3])
            await service.drain()
            client = await ServiceClient.connect(host, port)
            first = await client.call("snapshot")
            second = await client.call("snapshot")
            await client.close()
            await service.stop()
            return first, second

        first, second = run(scenario())
        assert json.dumps(first) == json.dumps(second)


class TestBatchAtomicity:
    def test_stats_sees_only_batch_boundaries(self, small_trace, ingest_records):
        """A query never observes half a batch: during paced ingest every
        ``events_version`` a client reads is a prefix sum of batch sizes.

        Ingest is paced because ``asyncio.Queue.get`` does not suspend on a
        non-empty queue, so an unpaced backlog drains in one go and the
        clients would only ever see the final version.
        """
        batches = batch_stream(ingest_records[:3000], batch_records=64)
        boundaries = {0, *itertools.accumulate(len(b) for b in batches)}

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            done = asyncio.Event()

            async def produce():
                for batch in batches:
                    await service.ingest(batch)
                    await asyncio.sleep(0.002)
                await service.drain()
                done.set()

            async def observe() -> list[int]:
                client = await ServiceClient.connect(host, port)
                seen = []
                while not done.is_set():
                    seen.append((await client.call("stats"))["events_version"])
                await client.close()
                return seen

            producer = asyncio.create_task(produce())
            observed = await asyncio.gather(*(observe() for _ in range(3)))
            await producer
            await service.stop()
            return [version for seen in observed for version in seen]

        versions = run(scenario())
        torn = sorted(set(versions) - boundaries)
        assert torn == [], f"stats saw a half-applied batch: {torn[:5]}"
        assert len(set(versions)) >= 10, "queries never interleaved with ingest"


class TestLifecycle:
    def test_stop_leaves_no_service_task_alive(self, small_trace):
        """``stop()`` returns with an idle client still connected, and no
        task the service created (consumer, connection handlers) outlives
        it; the client sees the connection closed."""

        async def scenario():
            before = asyncio.all_tasks()
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            assert await client.call("ping") == {"pong": True}
            await asyncio.wait_for(service.stop(), 10.0)
            leaked = asyncio.all_tasks() - before
            assert leaked == set(), leaked
            assert await client._reader.read() == b"", "connection left open"
            await client.close()

        run(scenario())

    def test_concurrent_starts_yield_one_server(self, small_trace):
        async def scenario():
            before = asyncio.all_tasks()
            service = KnowledgeBaseService.for_trace(small_trace)
            results = await asyncio.gather(
                service.start(), service.start(), return_exceptions=True
            )
            client = await ServiceClient.connect(service.host, service.port)
            pong = await client.call("ping")
            await client.close()
            await service.stop()
            return results, pong, asyncio.all_tasks() - before

        results, pong, leaked = run(scenario())
        errors = [r for r in results if isinstance(r, BaseException)]
        assert [type(e) for e in errors] == [RuntimeError]
        assert pong == {"pong": True}
        assert leaked == set()


class TestProtocolTable:
    def test_handlers_methods_docs_and_clients_agree(self):
        """An op exists only when dispatch dict, method, docs and clients agree.

        Each ``_handlers`` key has a row in the docs/SERVING.md table and
        vice versa; each key dispatches to its own bound ``_op_<key>``
        and no ``_op_*`` method sits outside the dict; every op the
        bench query mix, the bench's ``stats`` probe and remote ingest
        send is served.
        """
        service = KnowledgeBaseService()
        served = set(service._handlers)
        documented = set(_DOC_OP_RE.findall(SERVING_DOC.read_text(encoding="utf-8")))
        assert served - documented == set(), "dispatched but no docs/SERVING.md row"
        assert documented - served == set(), "documented but not dispatched"

        for op, handler in service._handlers.items():
            assert handler == getattr(service, f"_op_{op}"), f"{op} -> {handler}"
        methods = {
            name[len("_op_"):]
            for name in vars(KnowledgeBaseService)
            if name.startswith("_op_")
        }
        assert methods - served == set(), "dead _op_* method: nothing dispatches it"

        sent = {op for op, _ in QUERY_MIX} | {"stats", "ingest"}
        assert sent - served == set(), "clients send an op the service does not serve"


class TestEveryOpOverWire:
    @pytest.mark.parametrize("op", sorted(KnowledgeBaseService()._handlers))
    def test_valid_call_succeeds(self, small_trace, ingest_records, op):
        """Every op answers a valid call over TCP in this process, so the
        blocking-call guard (tests/conftest.py) sees each handler run on
        the event loop."""
        prefix, spare = ingest_records[:3000], ingest_records[3000]
        vm = next(
            r.vm for r in prefix if r.event is not None and r.utilization is not None
        )
        args = {
            "ping": {},
            "stats": {},
            "recent": {"limit": 5},
            "snapshot": {},
            "pattern_for_vm": {"vm_id": vm.vm_id},
            "region_agnostic_candidates": {"cloud": vm.cloud.value},
            "allocation_failure_risk": {
                "cloud": vm.cloud.value,
                "load_fraction": 0.8,
                "recent_creations": 4.0,
            },
            "spot_eligibility": {"subscription_id": vm.subscription_id},
            "recommend_policies": {"subscription_id": vm.subscription_id},
            "ingest": {"records": [spare.to_wire()]},
        }[op]

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            service.apply_records(prefix)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            response = await client.request(op, args)
            await client.close()
            await service.stop()
            return response

        response = run(scenario())
        assert response["ok"], response


class TestIngestValidation:
    @pytest.mark.parametrize("fault", ["short_series", "end_before_create"])
    def test_rejected_record_changes_nothing(self, small_trace, ingest_records, fault):
        """A record the store refuses is refused whole: the store, ``stats``
        and ``recent`` are unchanged, and the corrected record applies."""
        if fault == "short_series":
            idx, good = next(
                (i, r) for i, r in enumerate(ingest_records)
                if r.event is not None and r.utilization is not None
            )
            bad = dataclasses.replace(good, utilization=good.utilization[:3])
        else:
            idx, good = next(
                (i, r) for i, r in enumerate(ingest_records) if r.vm_end is not None
            )
            bad = dataclasses.replace(good, vm_end=-1e9)
        service = KnowledgeBaseService.for_trace(small_trace)
        service.apply_records(ingest_records[:idx])
        before = (service.stats(), service.backend.recent())

        with MetricsScope() as scope:
            assert service.apply_records([bad]) == 0
        assert scope.delta["counters"]["serving.apply_errors"] == 1
        assert (service.stats(), service.backend.recent()) == before
        assert service.apply_records([good]) == 1


class TestStats:
    def test_stats_does_not_scan_utilization_blocks(self, small_trace, monkeypatch):
        """``stats`` is cheap: its cost must not grow with the store, so it
        may not sum the per-VM utilization blocks."""
        service = KnowledgeBaseService.for_trace(small_trace)
        service.apply_records(list(iter_ingest_records(small_trace)))
        expected = service.stats()
        assert expected["events"] == expected["backend"]["events"] > 0

        def scan(store):
            raise AssertionError("stats summed the utilization blocks")

        monkeypatch.setattr(TraceStore, "utilization_bytes", property(scan))
        assert service.stats() == expected


class TestProtocolErrors:
    def test_malformed_requests_get_typed_errors(self, small_trace):
        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            responses = {}

            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            responses["garbage"] = json.loads(await client._reader.readline())

            client._writer.write(b"[1, 2, 3]\n")
            await client._writer.drain()
            responses["non_object"] = json.loads(await client._reader.readline())

            responses["unknown_op"] = await client.request("frobnicate")
            responses["bad_args"] = await client.request(
                "pattern_for_vm", {"vm_id": "not-an-int"}
            )
            responses["missing_args"] = await client.request(
                "allocation_failure_risk", {}
            )
            responses["bad_args_type"] = json.loads(
                await _raw_round_trip(
                    client, {"op": "ping", "args": [1, 2]}
                )
            )
            await client.close()
            await service.stop()
            return responses

        with MetricsScope() as scope:
            responses = run(scenario())
        for name, response in responses.items():
            assert response["ok"] is False, name
            assert response["error"]["kind"] == "bad_request", name
            assert response["error"]["message"], name
        assert scope.delta["counters"]["serving.bad_request"] >= len(responses)

    def test_not_found_is_not_bad_request(self, small_trace):
        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            response = await client.request("pattern_for_vm", {"vm_id": 10**9})
            with pytest.raises(ServiceError) as excinfo:
                await client.call("spot_eligibility", {"subscription_id": 10**9})
            await client.close()
            await service.stop()
            return response, excinfo.value.kind

        response, kind = run(scenario())
        assert response["error"]["kind"] == "not_found"
        assert kind == "not_found"

    def test_request_ids_echoed(self, small_trace):
        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            ok = await client.request("ping", id="req-42")
            bad = await client.request("frobnicate", id=17)
            await client.close()
            await service.stop()
            return ok, bad

        ok, bad = run(scenario())
        assert ok["id"] == "req-42"
        assert bad["id"] == 17

    def test_client_disconnect_mid_stream(self, small_trace):
        """A client that vanishes with requests in flight must not take the
        service down: later clients still get answers."""

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()

            reader, writer = await asyncio.open_connection(host, port)
            # Fire several pipelined requests and slam the socket shut
            # without reading a single response.
            for _ in range(20):
                writer.write(b'{"op": "snapshot"}\n')
            writer.close()

            survivor = await ServiceClient.connect(host, port)
            pong = await survivor.call("ping")
            stats = await survivor.call("stats")
            await survivor.close()
            await service.stop()
            return pong, stats

        pong, stats = run(scenario())
        assert pong == {"pong": True}
        assert stats["queue_depth"] == 0


async def _raw_round_trip(client: ServiceClient, payload: dict) -> bytes:
    client._writer.write(json.dumps(payload).encode() + b"\n")
    await client._writer.drain()
    return await client._reader.readline()


class TestIngestOverWire:
    def test_wire_ingest_reaches_snapshot(self, small_trace):
        records = list(iter_ingest_records(small_trace))
        n = len(records) // 4

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            accepted = 0
            chunk = 512
            prefix = records[:n]
            for lo in range(0, n, chunk):
                wire = [r.to_wire() for r in prefix[lo : lo + chunk]]
                result = await client.call("ingest", {"records": wire})
                accepted += result["accepted"]
            await service.drain()
            snapshot = await client.call("snapshot")
            await client.close()
            await service.stop()
            return accepted, snapshot

        accepted, snapshot = run(scenario())
        assert accepted == n
        # Same prefix applied in-process must serialize identically.
        service = KnowledgeBaseService.for_trace(small_trace)
        service.apply_records(records[:n])
        assert json.dumps(snapshot["records"]) == json.dumps(
            json.loads(service.snapshot_json())
        )

    def test_malformed_ingest_record_rejected(self, small_trace):
        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            host, port = await service.start()
            client = await ServiceClient.connect(host, port)
            response = await client.request(
                "ingest", {"records": [{"vm": {"vm_id": "nope"}}]}
            )
            await client.close()
            await service.stop()
            return response

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["kind"] == "bad_request"


class TestFaultInjection:
    def test_stall_fault_exercises_backpressure(self, small_trace, monkeypatch):
        """``REPRO_FAULT=serve:stall`` slows the consumer; a tiny queue then
        forces producers onto the blocking path.  The slow consumer must
        surface in the counters, and -- fault or no fault -- every record
        must still land."""
        monkeypatch.setenv("REPRO_FAULT", "serve:stall:1000")
        records = list(iter_ingest_records(small_trace))[:600]

        async def scenario():
            service = KnowledgeBaseService.for_trace(
                small_trace, queue_maxsize=2, stall_delay=0.005
            )
            await service.start()
            for lo in range(0, len(records), 50):
                await service.ingest(records[lo : lo + 50])
            await service.drain()
            stats = service.stats()
            await service.stop()
            return stats

        with MetricsScope() as scope:
            stats = run(scenario())
        counters = scope.delta["counters"]
        assert counters["serving.stall_injected"] > 0
        assert counters["serving.backpressure_waits"] > 0
        assert counters["serving.ingested_records"] == len(records)
        assert stats["queue_depth"] == 0

    def test_no_fault_no_stall(self, small_trace, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        records = list(iter_ingest_records(small_trace))[:100]

        async def scenario():
            service = KnowledgeBaseService.for_trace(small_trace)
            await service.start()
            await service.ingest(records)
            await service.drain()
            await service.stop()

        with MetricsScope() as scope:
            run(scenario())
        assert "serving.stall_injected" not in scope.delta["counters"]
