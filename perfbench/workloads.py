"""The benchmark's workloads: generate, analyze and serve.

Each workload has the same life cycle, driven by ``run.py``:

1. ``prepare()`` makes the inputs from the seed (not timed);
2. ``setup()`` builds the program state the measured operations need
   (timed, repeated, with ``teardown()`` in between);
3. ``measure(seconds)`` runs operations until the time is up and returns an
   :class:`Outcome`;
4. ``check(outcome)`` verifies the program's outputs.

Measured times are scaled to reference machine speed (``speed.py``) by
timing the reference kernel between operations, or between half-second
slices of requests.

Inputs vary in size with the seed (the generator draws subscription sizes
from heavy tails), so every workload spreads its measurement over many
distinct inputs or a pool of them; a single trace would make the figures
depend on which seed the run drew.  Why each workload exists is in
``README.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core.knowledge_base import WorkloadKnowledgeBase
from repro.experiments.parallel import REGISTRY
from repro.serving import KnowledgeBaseService, iter_ingest_records
from repro.serving.replay import batch_stream
from repro.serving.service import ServiceClient
from repro.telemetry import load_trace, save_trace
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.workloads import GeneratorConfig, generate_trace_pair

import speed

#: Scale of each trace the ``generate`` workload synthesizes (~1k VMs, so a
#: run covers about a hundred distinct traces).
GENERATE_SCALE = 0.03

#: Scale and number of the traces the ``analyze`` workload characterizes.
#: 0.12 is the smallest scale at which nearly every seed yields data for
#: every figure; the pool averages out trace-to-trace size differences.
ANALYZE_SCALE = 0.12
ANALYZE_POOL = 6

#: Tasks whose time dominates a registry pass; the traced run reports each
#: on its own and the rest as one figure.
HEAVY_TASKS = ("fig5", "fig6", "fig7a", "im1-oversubscription", "im2-spot")

#: Scale of each service's trace in the ``serve`` workload.
SERVE_SCALE = 0.12
#: Independent services in the ``serve`` workload, each with its own trace
#: and one closed-loop client (it sends its next request only after the
#: previous reply arrived).  Response sizes follow each trace's
#: composition; four traces average that out.
SERVE_SERVICES = 4
#: Requests in each client's seeded plan; the plan repeats if the run is
#: long enough to exhaust it.
PLAN_LENGTH = 4000
#: Share of the ingest stream applied during set-up; the rest trickles in
#: while clients query.
INGEST_BACKLOG = 0.6
#: Live ingest batches (one trace hour each) handed to each service per
#: second.  The producer is an open loop: telemetry arrives on the clock,
#: not when the service is ready for it.  The rate keeps refresh and refit
#: work to a few percent of the run, so the trace-to-trace spread of their
#: cost does not swamp the query path.
INGEST_BATCHES_PER_S = 0.25
#: Requests run in slices of this many seconds, with the reference kernel
#: timed between slices.
SLICE_S = 0.5

#: The query mix: (op, weight).
QUERY_MIX = (
    ("pattern_for_vm", 0.45),
    ("spot_eligibility", 0.20),
    ("allocation_failure_risk", 0.15),
    ("region_agnostic_candidates", 0.10),
    ("stats", 0.10),
)


def sub_seed(seed: int, stream: str, index: int) -> int:
    """A 32-bit seed for the ``index``-th input of ``stream`` in run ``seed``."""
    digest = hashlib.sha256(f"{seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _log_failure(context: str) -> None:
    print(f"perfbench: {context}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def store_digest(store: TraceStore) -> str:
    """sha256 over a trace's VM table, events and utilization bytes."""
    h = hashlib.sha256()
    for vm in sorted(store.vms(), key=lambda vm: vm.vm_id):
        h.update(repr(dataclasses.astuple(vm)).encode())
        series = store.utilization(vm.vm_id)
        if series is not None:
            h.update(np.ascontiguousarray(series).tobytes())
    for event in store.events():
        h.update(repr((event.time, event.kind.value, event.vm_id, event.region)).encode())
    return h.hexdigest()


def _jsonable(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return repr(value)


def result_digest(result) -> str:
    """sha256 over an experiment result's checks and series."""
    payload = {
        "checks": [check.to_dict() for check in result.checks],
        "series": result.series,
    }
    blob = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What one measurement produced; times are at reference speed."""

    #: Latency of every completed operation, in seconds.
    latencies_s: list[float]
    #: Work units completed (VMs generated or analyzed, requests answered).
    items: int
    #: Seconds the work took: summed operation time for the batch
    #: workloads, the run's duration for the concurrent ``serve``.
    busy_s: float
    attempted: int
    failed: int


class Workload:
    """Life cycle shared by every workload (see the module docstring)."""

    def __init__(self, *, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Seconds spent in calls the benchmark makes into a layer, by name;
        #: the traced run turns them into per-layer metrics.
        self.layer_s: dict[str, float] = {}

    def _time_layer(self, name: str, seconds: float) -> None:
        self.layer_s[name] = self.layer_s.get(name, 0.0) + seconds

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built (safe to call when nothing was)."""

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> bool:
        raise NotImplementedError


class Generate(Workload):
    """Synthesize a fresh trace pair, from its own sub-seed, per operation."""

    def _config(self, index: int) -> GeneratorConfig:
        return GeneratorConfig(
            seed=sub_seed(self.seed, "generate", index), scale=GENERATE_SCALE
        )

    def prepare(self) -> None:
        self._first_digest: str | None = None
        self._first_valid = False

    def setup(self) -> None:
        # The first generation in a process pays lazy imports and caches;
        # the warm-up draws from its own stream so no measured input repeats.
        warmup = GeneratorConfig(seed=sub_seed(self.seed, "warmup", 0), scale=GENERATE_SCALE)
        generate_trace_pair(warmup)

    def measure(self, seconds: float) -> Outcome:
        latencies: list[float] = []
        vms = 0
        failed = 0
        deadline = time.perf_counter() + seconds
        index = 0
        before = speed.sample()
        while time.perf_counter() < deadline:
            config = self._config(index)
            index += 1
            t0 = time.perf_counter()
            try:
                store = generate_trace_pair(config)
            except Exception:  # a failed operation is counted, not fatal
                _log_failure(f"generation failed for seed {config.seed}")
                failed += 1
                continue
            elapsed = time.perf_counter() - t0
            after = speed.sample()
            latencies.append(elapsed * speed.scale(before, after))
            before = after
            vms += len(store)
            if self._first_digest is None:
                self._first_digest = store_digest(store)
                self._first_valid = _trace_is_valid(store)
        return Outcome(latencies, vms, sum(latencies), index, failed)

    def check(self, outcome: Outcome) -> bool:
        """The first trace is well formed, and regenerating it is bit-identical."""
        if self._first_digest is None or not self._first_valid:
            return False
        return store_digest(generate_trace_pair(self._config(0))) == self._first_digest


def _trace_is_valid(store: TraceStore) -> bool:
    """Structural invariants every synthesized trace must hold."""
    if len(store) == 0:
        return False
    times = [event.time for event in store.events()]
    if times != sorted(times):
        return False
    for vm in store.vms():
        if vm.ended_at < vm.created_at:
            return False
        series = store.utilization(vm.vm_id)
        if series is not None and not (
            np.all(np.isfinite(series)) and series.min() >= 0.0 and series.max() <= 1.0
        ):
            return False
    return True


class Analyze(Workload):
    """Run the characterization registry over a pool of traces saved to disk."""

    def prepare(self) -> None:
        self._tasks = [task for task in REGISTRY if task.uses_shared_trace]
        self._paths: list[Path] = []
        self._expected: list[list[str]] = []
        self._pool_vms = 0
        attempt = 0
        while len(self._paths) < ANALYZE_POOL:
            if attempt >= 4 * ANALYZE_POOL:
                raise SystemExit("perfbench: too few analyzable traces for this seed")
            config = GeneratorConfig(
                seed=sub_seed(self.seed, "analyze", attempt), scale=ANALYZE_SCALE
            )
            attempt += 1
            store = generate_trace_pair(config)
            try:
                digests = self._registry_pass(store)
            except ValueError:
                # Some figures need data a small trace may lack (e.g. private
                # VMs in one region); such a trace is not an input.
                continue
            path = save_trace(store, self.workdir / f"trace-{len(self._paths)}")
            self._paths.append(path)
            self._expected.append(digests)
            self._pool_vms += len(store)
        self._stores: list[TraceStore] = []
        self._mismatches = 0

    def _registry_pass(self, store: TraceStore) -> list[str]:
        digests = []
        for task in self._tasks:
            t0 = time.perf_counter()
            result = task.runner(store)
            self._time_layer(f"task.{task.task_id}", time.perf_counter() - t0)
            digests.append(result_digest(result))
        return digests

    def setup(self) -> None:
        t0 = time.perf_counter()
        self._stores = [load_trace(path) for path in self._paths]
        self.layer_s["load"] = time.perf_counter() - t0

    def teardown(self) -> None:
        self._stores = []

    def measure(self, seconds: float) -> Outcome:
        """One operation is a registry pass over every trace of the pool."""
        self.layer_s = {"load": self.layer_s["load"]}  # drop the screening passes
        latencies: list[float] = []
        failed = 0
        attempted = 0
        deadline = time.perf_counter() + seconds
        before = speed.sample()
        while time.perf_counter() < deadline:
            attempted += 1
            pass_s = 0.0
            digests = []
            try:
                for store in self._stores:
                    t0 = time.perf_counter()
                    digests.append(self._registry_pass(store))
                    elapsed = time.perf_counter() - t0
                    after = speed.sample()
                    pass_s += elapsed * speed.scale(before, after)
                    before = after
            except Exception:  # a failed operation is counted, not fatal
                _log_failure("registry pass failed")
                failed += 1
                continue
            latencies.append(pass_s)
            if digests != self._expected:
                self._mismatches += 1
        return Outcome(
            latencies, self._pool_vms * len(latencies), sum(latencies), attempted, failed
        )

    def check(self, outcome: Outcome) -> bool:
        """Every pass over the loaded traces matched the in-memory first pass."""
        return bool(outcome.latencies_s) and self._mismatches == 0


def _window_is_nonempty(store: TraceStore, vm) -> bool:
    """Whether ``pattern_for_vm`` has samples to classify for ``vm``."""
    sample_period = store.metadata.sample_period
    lo = math.ceil(max(vm.created_at, 0.0) / sample_period)
    hi = math.floor(min(vm.ended_at, store.metadata.duration) / sample_period)
    return min(hi, store.metadata.n_samples) > lo


@dataclasses.dataclass
class _Shard:
    """One service of the ``serve`` workload: its trace, streams and client."""

    store: TraceStore
    backlog: list
    live: list
    plan: list
    service: KnowledgeBaseService | None = None
    client: ServiceClient | None = None
    position: int = 0
    live_sent: int = 0


class Serve(Workload):
    """Closed-loop clients query services while telemetry trickles in."""

    def prepare(self) -> None:
        self._shards = [self._prepare_shard(index) for index in range(SERVE_SERVICES)]
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Unscaled request latencies, for the traced run's per-layer times.
        self.raw_latencies_s: list[float] = []
        self.ingest_lag_s: list[float] = []
        self.op_counts: dict[str, int] = {}

    def _prepare_shard(self, index: int) -> _Shard:
        config = GeneratorConfig(seed=sub_seed(self.seed, "serve", index), scale=SERVE_SCALE)
        store = generate_trace_pair(config)
        records = list(iter_ingest_records(store))
        n_backlog = int(len(records) * INGEST_BACKLOG)
        # Query only what the backlog already holds, so no request can
        # legitimately miss.  Windows are judged on each VM's final end
        # time: a window only shrinks when its VM terminates.
        known_vms = {record.vm.vm_id for record in records[:n_backlog] if record.vm}
        vm_ids = sorted(
            vm_id
            for vm_id in known_vms
            if store.has_utilization(vm_id) and _window_is_nonempty(store, store.vm(vm_id))
        )
        sub_ids = sorted(
            {store.vm(vm_id).subscription_id for vm_id in known_vms} & set(store.subscriptions)
        )
        plan_rng = np.random.default_rng(sub_seed(self.seed, "plan", index))
        return _Shard(
            store=store,
            backlog=batch_stream(records[:n_backlog]),
            live=batch_stream(records[n_backlog:]),
            plan=_request_plan(plan_rng, vm_ids, sub_ids),
        )

    def setup(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._loop.run_until_complete(self._start())

    async def _start(self) -> None:
        for shard in self._shards:
            service = KnowledgeBaseService.for_trace(shard.store)
            shard.service = service
            host, port = await service.start()
            for batch in shard.backlog:
                await service.ingest(batch)
            await service.drain()
            # Build knowledge records and fit both predictors now, so the
            # first measured queries do not pay for the backlog.
            service.refresh()
            for cloud in Cloud:
                service.allocation_failure_risk(cloud, 0.5, 1.0)
            shard.client = await ServiceClient.connect(host, port)

    def teardown(self) -> None:
        if self._loop is None:
            return
        self._loop.run_until_complete(self._stop())
        self._loop.close()
        self._loop = None

    async def _stop(self) -> None:
        for shard in self._shards:
            if shard.client is not None:
                await shard.client.close()
                shard.client = None
            if shard.service is not None:
                await shard.service.stop()
                shard.service = None

    def measure(self, seconds: float) -> Outcome:
        return self._loop.run_until_complete(self._drive(seconds))

    async def _drive(self, seconds: float) -> Outcome:
        latencies: list[float] = []
        failures = 0
        busy_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        producers = asyncio.gather(
            *(self._produce(shard, start, deadline) for shard in self._shards)
        )
        before = speed.sample()
        while time.perf_counter() < deadline:
            slice_start = time.perf_counter()
            slice_end = min(slice_start + SLICE_S, deadline)
            slice_latencies: list[float] = []
            slice_failures = await asyncio.gather(
                *(
                    self._client_slice(shard, slice_end, slice_latencies)
                    for shard in self._shards
                )
            )
            elapsed = time.perf_counter() - slice_start
            after = speed.sample()
            factor = speed.scale(before, after)
            before = after
            latencies.extend(latency * factor for latency in slice_latencies)
            self.raw_latencies_s.extend(slice_latencies)
            busy_s += elapsed * factor
            failures += sum(slice_failures)
        await producers
        attempted = sum(self.op_counts.values())
        return Outcome(latencies, len(latencies) - failures, busy_s, attempted, failures)

    async def _client_slice(self, shard: _Shard, slice_end: float, latencies: list[float]) -> int:
        """Run the shard's client plan until ``slice_end``; returns its failures."""
        failures = 0
        while time.perf_counter() < slice_end:
            op, args = shard.plan[shard.position % len(shard.plan)]
            shard.position += 1
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            t0 = time.perf_counter()
            response = await shard.client.request(op, args)
            latencies.append(time.perf_counter() - t0)
            if not response.get("ok"):
                print(f"perfbench: {op} {args} -> {response.get('error')}", file=sys.stderr)
                failures += 1
        return failures

    async def _produce(self, shard: _Shard, start: float, deadline: float) -> None:
        """Hand live batches to one service at a fixed rate until the deadline."""
        for index, batch in enumerate(shard.live):
            due = start + index / INGEST_BATCHES_PER_S
            if due >= deadline:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await shard.service.ingest(batch)
            shard.live_sent += 1
            self.ingest_lag_s.append(time.perf_counter() - due)

    def check(self, outcome: Outcome) -> bool:
        """With each whole stream applied, served knowledge equals a batch rebuild."""
        self._loop.run_until_complete(self._finish_ingest())
        return all(
            shard.service.snapshot_json()
            == WorkloadKnowledgeBase.from_trace(shard.store).to_json()
            for shard in self._shards
        )

    async def _finish_ingest(self) -> None:
        for shard in self._shards:
            for batch in shard.live[shard.live_sent :]:
                await shard.service.ingest(batch)
            await shard.service.drain()


def _request_plan(rng: np.random.Generator, vm_ids: list, sub_ids: list) -> list:
    """A seeded plan of ``PLAN_LENGTH`` (op, args) requests."""
    names = [name for name, _ in QUERY_MIX]
    weights = np.array([weight for _, weight in QUERY_MIX])
    plan = []
    for pick in rng.choice(len(names), size=PLAN_LENGTH, p=weights / weights.sum()):
        op = names[pick]
        if op == "pattern_for_vm":
            args = {"vm_id": int(rng.choice(vm_ids))}
        elif op == "spot_eligibility":
            args = {"subscription_id": int(rng.choice(sub_ids))}
        elif op == "allocation_failure_risk":
            args = {
                "cloud": "private" if rng.random() < 0.5 else "public",
                "load_fraction": float(np.round(rng.random(), 3)),
                "recent_creations": float(rng.integers(0, 50)),
            }
        else:
            args = {}
        plan.append((op, args))
    return plan


WORKLOADS: dict[str, type[Workload]] = {
    "generate": Generate,
    "analyze": Analyze,
    "serve": Serve,
}
