"""Per-layer probes for traced runs (``--trace 1``).

A traced run wraps the program's layer entry points in timers and reads the
spans the program already records (``repro.obs``), then reports where each
operation's time went.  Untraced runs install nothing, so the end-to-end
metrics measure the program untouched; the difference between the two runs
is the probes' overhead.

Every metric is reported for every workload.  A layer a workload never
enters reads 0 (``serving.*`` in ``generate``, for instance).
"""

from __future__ import annotations

import functools
import statistics
import time

from repro.management.prediction import AllocationFailurePredictor
from repro.obs import export_spans, mark
from repro.serving import service as service_module
from repro.serving.service import KnowledgeBaseService
from repro.telemetry.store import TraceStore

import workloads

#: TraceStore methods through which analysis code reads a trace.
STORE_READS = (
    "utilization",
    "utilization_matrix",
    "utilization_mean",
    "vms",
    "vms_by_subscription",
    "vms_by_node",
    "events",
    "event_times",
)


class Probe:
    """Calls into one layer and the seconds they took (outermost calls only)."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


class ProbeSet:
    """The probes of one traced run; ``uninstall`` restores the program."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.store_reads = Probe()
        self.dispatch = Probe()
        self.refit = Probe()
        self.classify = Probe()
        self.apply = Probe()
        self._restore: list[tuple[object, str, object]] = []
        self._span_mark = mark()

    def wrap(self, owner: object, attr: str, probe: Probe) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if probe.depth:
                return original(*args, **kwargs)
            probe.depth += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                probe.seconds += time.perf_counter() - t0
                probe.calls += 1
                probe.depth -= 1

        self._restore.append((owner, attr, original))
        setattr(owner, attr, timed)

    def wrap_async(self, owner: object, attr: str, probe: Probe) -> None:
        original = owner.__dict__[attr]

        @functools.wraps(original)
        async def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                probe.seconds += time.perf_counter() - t0
                probe.calls += 1

        self._restore.append((owner, attr, original))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, outcome: workloads.Outcome) -> dict:
        workload = self.workload
        ops = max(1, len(outcome.latencies_s))
        span_s: dict[str, float] = {}
        span_n: dict[str, int] = {}
        for row in export_spans(self._span_mark):
            span_s[row["name"]] = span_s.get(row["name"], 0.0) + row["wall_s"]
            span_n[row["name"]] = span_n.get(row["name"], 0) + 1

        def per_op_ms(seconds: float) -> float:
            return seconds * 1000.0 / ops

        is_generate = isinstance(workload, workloads.Generate)
        is_analyze = isinstance(workload, workloads.Analyze)
        is_serving = isinstance(workload, workloads.Serve)
        task_s = {
            key.removeprefix("task."): value
            for key, value in workload.layer_s.items()
            if key.startswith("task.")
        }
        values = {
            "workloads.simulate_ms": (per_op_ms(span_s.get("generate.simulate", 0.0)), "ms"),
            "workloads.synthesize_ms": (per_op_ms(span_s.get("generate.synthesize", 0.0)), "ms"),
            "workloads.vms_per_op": (
                outcome.items / ops if is_generate or is_analyze else 0,
                "count",
            ),
            "telemetry.load_ms": (
                workload.layer_s.get("load", 0.0) * 1000.0 / workloads.ANALYZE_POOL
                if is_analyze
                else 0.0,
                "ms",
            ),
            "telemetry.read_ms": (per_op_ms(self.store_reads.seconds), "ms"),
            "telemetry.reads": (self.store_reads.calls / ops, "count"),
            "experiments.compute_ms": (
                per_op_ms(sum(task_s.values()) - self.store_reads.seconds) if is_analyze else 0.0,
                "ms",
            ),
        }
        for task_id in workloads.HEAVY_TASKS:
            values[f"experiments.{task_id}_ms"] = (per_op_ms(task_s.get(task_id, 0.0)), "ms")
        values["experiments.other_ms"] = (
            per_op_ms(
                sum(s for task_id, s in task_s.items() if task_id not in workloads.HEAVY_TASKS)
            ),
            "ms",
        )

        pattern_requests = workload.op_counts.get("pattern_for_vm", 0) if is_serving else 0
        lags = workload.ingest_lag_s if is_serving else []
        latencies = sorted(workload.raw_latencies_s) if is_serving else []
        values.update(
            {
                "serving.server_ms": (per_op_ms(self.dispatch.seconds), "ms"),
                "serving.wait_ms": (
                    per_op_ms(sum(latencies) - self.dispatch.seconds) if is_serving else 0.0,
                    "ms",
                ),
                "serving.refresh_ms": (per_op_ms(span_s.get("serving.refresh", 0.0)), "ms"),
                "serving.refreshes": (span_n.get("serving.refresh", 0), "count"),
                "serving.refit_ms": (per_op_ms(self.refit.seconds), "ms"),
                "serving.refits": (self.refit.calls, "count"),
                "serving.classify_ms": (per_op_ms(self.classify.seconds), "ms"),
                "serving.pattern_hit_ratio": (
                    1.0 - self.classify.calls / pattern_requests if pattern_requests else 0.0,
                    "ratio",
                ),
                "serving.p99_ms": (
                    latencies[int(0.99 * (len(latencies) - 1))] * 1000.0 if latencies else 0.0,
                    "ms",
                ),
                "serving.apply_ms": (
                    self.apply.seconds * 1000.0 / self.apply.calls if self.apply.calls else 0.0,
                    "ms",
                ),
                "serving.ingest_lag_ms": (
                    statistics.median(lags) * 1000.0 if lags else 0.0,
                    "ms",
                ),
            }
        )
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def install(workload: workloads.Workload) -> ProbeSet:
    """Wrap the layer entry points the workloads reach."""
    probes = ProbeSet(workload)
    for attr in STORE_READS:
        probes.wrap(TraceStore, attr, probes.store_reads)
    probes.wrap_async(KnowledgeBaseService, "_dispatch_line", probes.dispatch)
    probes.wrap(KnowledgeBaseService, "apply_records", probes.apply)
    probes.wrap(AllocationFailurePredictor, "fit", probes.refit)
    probes.wrap(service_module, "classify_windows", probes.classify)
    return probes
