"""One benchmark harness behind ``bench-perf``, ``bench-scale`` and ``bench-serve``.

Every bench measures in **spawned** subprocesses (:func:`run_phase`), writes
a schema-versioned ``BENCH_<bench>.json`` artifact (:func:`write_artifact`),
and is judged by the same two functions:

* :func:`problems` -- why a run is bad in itself: a task that did not
  finish ok, a query error, a batched kernel whose output drifted from its
  scalar reference, a phase over its memory budget.  A bad run fails its
  gate and is never written as a baseline.
* :func:`compare` -- a candidate against a committed baseline, driven by
  the per-bench :data:`GATES` table of identity keys, row list and metric
  tolerances.

The three benches:

* ``perf`` runs the experiment registry at a fixed ``(seed, scale)``:
  one warm-up pass fills the trace cache, then ``repeats`` measured passes
  record each task's ``task.run`` span.  That span excludes the trace
  fetch, so cache hits cannot masquerade as analysis regressions.  The
  artifact also embeds microbenchmarks of the batched
  :func:`~repro.analysis.stats.pairwise_pearson` and
  :func:`~repro.core.patterns.classify_block` kernels against their scalar
  reference paths, each with an ``outputs_identical`` check (a bitwise
  matrix, equal labels).
* ``scale`` generates a trace (spilled to shards) and analyzes it with the
  full registry, each phase in its own child so that
  ``getrusage(RUSAGE_SELF).ru_maxrss`` is a clean per-phase high-water
  mark: a forked child would inherit the parent's peak, and one process
  for both phases would let the generator's peak mask the analyzers'.
  The mmap'd shard pages a phase touches count toward that peak until the
  shard cache evicts them, so the budget bounds telemetry residency too.
* ``serve`` starts a :class:`~repro.serving.service.KnowledgeBaseService`,
  replays the trace into it as fast as ingest accepts, and races N
  concurrent TCP clients running a seeded query mix against the replay.
  A ``not_found`` reply is a miss, not an error: the mix asks for VMs and
  subscriptions that may not have arrived yet, as a live knowledge base
  would be asked.

**Calibration.**  Absolute wall-times do not transfer between machines, so
the perf and serve children also time a fixed numpy workload
(:func:`calibration_seconds`).  :func:`compare` scales the baseline by the
ratio of the two calibrations: on a machine F times slower, expected times
grow by F and expected throughput shrinks by F, so only *relative*
regressions trip a gate.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from operator import eq
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.obs import span

__all__ = [
    "DEFAULT_SCALE",
    "GATES",
    "QUERY_MIX",
    "SCHEMA_VERSION",
    "Gate",
    "Metric",
    "calibration_seconds",
    "compare",
    "load_artifact",
    "problems",
    "render",
    "run_bench_perf",
    "run_bench_scale",
    "run_bench_serve",
    "run_phase",
    "write_artifact",
]

#: Bumped whenever an artifact layout changes; comparisons across versions
#: are refused rather than guessed at.  ``tests/test_versions.py`` pins it
#: to every committed ``BENCH_*.json``.
SCHEMA_VERSION = 1

#: Default workload scale per bench.  perf and serve share 0.12 so they
#: share one cached trace; scale 50 yields >1M telemetry series.
DEFAULT_SCALE = {"perf": 0.12, "scale": 50.0, "serve": 0.12}

#: Task statuses that count as finished (see ``experiments.parallel``).
OK_STATUSES = ("ok", "retried")

#: bench-serve replays as fast as the ingest queue accepts, so the service
#: is measured under maximum ingest pressure.
SERVE_SPEEDUP = 0.0
#: Ingest queue depth before replay blocks.
SERVE_QUEUE_MAXSIZE = 64

#: The query mix: (op, weight).  Each client samples it with its own
#: seeded RNG, so the request plans are deterministic.
QUERY_MIX = (
    ("pattern_for_vm", 0.45),
    ("spot_eligibility", 0.20),
    ("allocation_failure_risk", 0.15),
    ("region_agnostic_candidates", 0.10),
    ("stats", 0.10),
)


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One gated artifact field.

    ``field`` (dotted for nested fields) may worsen by at most
    ``tolerance``, a fraction of the calibrated expectation.  When both
    the candidate and the expectation sit under ``floor``, the difference
    is timer noise and the row is reported but not gated.
    """

    field: str
    better: str  # "lower" or "higher"
    tolerance: float
    floor: float = 0.0


@dataclass(frozen=True)
class Gate:
    """How :func:`compare` and :func:`problems` read one bench's artifact.

    ``keys`` must match between candidate and baseline; ``rows`` is the
    dotted path to the row list, each row named by its ``row_id`` field;
    ``row_metrics`` are checked per row and ``totals`` once per artifact.
    ``summary`` lists the top-level fields :func:`render` prints.
    """

    keys: tuple[str, ...]
    rows: str
    row_id: str
    row_metrics: tuple[Metric, ...] = ()
    totals: tuple[Metric, ...] = ()
    summary: tuple[str, ...] = ()


#: The tolerance policy of every bench (``docs/PERFORMANCE.md``,
#: ``docs/SERVING.md``).  The per-task bar is looser than the total's:
#: single tasks jitter, nineteen summed medians do not.  The total shares
#: the per-task noise floor, so a task-subset run of a few ms is not gated.  Loopback TCP
#: jitters far more than in-process kernels, hence serve's wide bars.
GATES = {
    "perf": Gate(
        keys=("schema_version", "seed", "scale"),
        rows="tasks",
        row_id="id",
        row_metrics=(Metric("median_s", "lower", 0.20, floor=0.05),),
        totals=(Metric("total_s", "lower", 0.10, floor=0.05),),
        summary=("total_s", "calibration_s"),
    ),
    "scale": Gate(
        keys=("schema_version", "seed", "scale"),
        rows="phases.analyze.tasks",
        row_id="id",
        summary=(
            "phases.generate.utilization_series",
            "phases.generate.wall_s",
            "phases.generate.peak_rss_kb",
            "phases.analyze.wall_s",
            "phases.analyze.peak_rss_kb",
            "peak_rss_gb",
            "budget_gb",
        ),
    ),
    "serve": Gate(
        keys=(
            "schema_version", "seed", "scale", "clients",
            "requests_per_client", "speedup",
        ),
        rows="queries",
        row_id="op",
        row_metrics=(Metric("p99_ms", "lower", 1.00, floor=2.0),),
        totals=(Metric("total.qps", "higher", 0.40),),
        summary=("total.requests", "total.qps", "total.p99_ms", "calibration_s"),
    ),
}


def _get(payload: dict, path: str):
    for part in path.split("."):
        payload = payload[part]
    return payload


def problems(payload: dict) -> list[str]:
    """Why a measured run fails on its own, before any baseline is consulted."""
    gate = GATES[payload["bench"]]
    found = [
        f"{row[gate.row_id]}: status {row['status']!r}"
        for row in _get(payload, gate.rows)
        if row.get("status", "ok") not in OK_STATUSES
    ]
    errors = payload.get("total", {}).get("errors", 0)
    if errors:
        found.append(f"candidate reported {errors} query error(s)")
    drifted = [k["name"] for k in payload.get("kernels", ()) if not k["outputs_identical"]]
    if drifted:
        found.append(f"kernel output drift in: {', '.join(drifted)}")
    if payload.get("within_budget") is False:
        found.append(
            f"peak RSS {payload['peak_rss_gb']} GiB exceeds the "
            f"{payload['budget_gb']} GiB budget"
        )
    return found


def _judge(
    metric: Metric, label: str, cand: dict, base: dict, factor: float
) -> tuple[dict, str | None]:
    """One comparison-table row, and its failure message if it regressed."""
    candidate, baseline = _get(cand, metric.field), _get(base, metric.field)
    if metric.better == "lower":
        expected = baseline * factor
        regression = candidate / expected - 1.0 if expected > 0 else 0.0
    else:
        expected = baseline / factor
        regression = 1.0 - candidate / expected if expected > 0 else 0.0
    gated = not (candidate < metric.floor and expected < metric.floor)
    row = {
        "id": label,
        "field": metric.field,
        "baseline": baseline,
        "expected": round(expected, 6),
        "candidate": candidate,
        "regression": round(regression, 4),
        "gated": gated,
    }
    if not gated or regression <= metric.tolerance:
        return row, None
    name = f"{label} {metric.field}" if label else metric.field
    return row, (
        f"{name}: {regression:+.1%} worse vs tolerance "
        f"{metric.tolerance:+.1%} ({candidate:.3f} vs expected {expected:.3f})"
    )


def compare(candidate: dict, baseline: dict) -> dict:
    """Judge a candidate artifact against the baseline under its bench's gate.

    Returns ``{"ok", "failures", "machine_factor", "rows"}``; the CLI
    renders it and maps ``ok`` to the exit code.
    """

    def verdict(failures: list[str], factor=None, rows=()) -> dict:
        return {
            "ok": not failures,
            "failures": failures,
            "machine_factor": factor,
            "rows": list(rows),
        }

    gate = GATES[baseline["bench"]]
    mismatched = [
        f"{key} mismatch: candidate {candidate.get(key)!r} vs "
        f"baseline {baseline.get(key)!r}"
        for key in ("bench", *gate.keys)
        if candidate.get(key) != baseline.get(key)
    ]
    if mismatched:
        return verdict(mismatched)

    cand_rows, base_rows = _get(candidate, gate.rows), _get(baseline, gate.rows)
    cand_ids = [row[gate.row_id] for row in cand_rows]
    base_ids = [row[gate.row_id] for row in base_rows]
    if cand_ids != base_ids:
        return verdict(
            [f"row list mismatch in {gate.rows}: candidate {cand_ids} vs baseline {base_ids}"]
        )

    factor = 1.0
    if gate.row_metrics or gate.totals:
        base_cal = baseline.get("calibration_s") or 0.0
        cand_cal = candidate.get("calibration_s") or 0.0
        if base_cal <= 0 or cand_cal <= 0:
            return verdict(["missing or non-positive calibration_s; cannot normalize"])
        factor = cand_cal / base_cal

    judged = [
        _judge(metric, cand[gate.row_id], cand, base, factor)
        for cand, base in zip(cand_rows, base_rows, strict=True)
        for metric in gate.row_metrics
    ] + [_judge(metric, "", candidate, baseline, factor) for metric in gate.totals]
    failures = problems(candidate) + [failure for _row, failure in judged if failure]
    return verdict(failures, round(factor, 4), [row for row, _failure in judged])


def _fmt(value) -> str:
    return f"{value:.7g}" if isinstance(value, float) else str(value)


def render(payload: dict, result: dict | None = None) -> str:
    """Human-readable run summary, plus the comparison when ``result`` is given."""
    gate = GATES[payload["bench"]]
    lines = [f"bench-{payload['bench']}: seed {payload['seed']} scale {payload['scale']}"]
    if gate.row_metrics:
        for row in _get(payload, gate.rows):
            values = " ".join(f"{m.field}={_fmt(row[m.field])}" for m in gate.row_metrics)
            lines.append(f"  {row[gate.row_id]:<28} {values}")
    lines.append("  " + " ".join(f"{f}={_fmt(_get(payload, f))}" for f in gate.summary))
    for kernel in payload.get("kernels", ()):
        lines.append(
            f"  kernel {kernel['name']:<21} {kernel['scalar_s']:.3f}s -> "
            f"{kernel['batched_s']:.3f}s ({kernel['speedup']:.1f}x)"
        )
    if result is None:
        lines += [f"FAIL: {failure}" for failure in problems(payload)]
        return "\n".join(lines)
    if result["rows"]:
        lines.append(
            f"{'':<28} {'field':<10} {'baseline':>10} {'expected':>10} "
            f"{'candidate':>10} {'worse':>8}"
        )
        for row in result["rows"]:
            marker = "" if row["gated"] else "  (noise floor, not gated)"
            lines.append(
                f"{row['id'] or 'TOTAL':<28} {row['field']:<10} {row['baseline']:>10.3f} "
                f"{row['expected']:>10.3f} {row['candidate']:>10.3f} "
                f"{row['regression']:>+8.1%}{marker}"
            )
        lines.append(f"machine calibration factor: {result['machine_factor']:.2f}x")
    lines += [f"FAIL: {failure}" for failure in result["failures"]]
    lines.append(f"{payload['bench']} gate: " + ("ok" if result["ok"] else "REGRESSED"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------


def write_artifact(payload: dict, out: str | Path) -> Path:
    """Write a bench artifact as stable, diff-friendly JSON."""
    out = Path(out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def load_artifact(path: str | Path, bench: str) -> dict:
    """Load a ``BENCH_<bench>.json`` artifact, refusing any other bench's."""
    payload = json.loads(Path(path).read_text())
    if payload.get("bench") != bench:
        raise ValueError(f"{path} is not a bench-{bench} artifact")
    return payload


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# phases: each runs in its own spawned child
# ----------------------------------------------------------------------


def _child(conn, target, args: tuple) -> None:
    conn.send(target(*args))
    conn.close()


def run_phase(target, *args) -> dict:
    """Run ``target(*args)`` in a spawned subprocess and return its report.

    ``target`` is a module-level callable returning one picklable dict.  A
    spawned child gives each phase a clean interpreter, so per-phase
    ``ru_maxrss`` and wall-times are not polluted by earlier phases'
    allocator or cache state.
    """
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(send, target, args), daemon=False)
    proc.start()
    send.close()
    try:
        report = recv.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"bench phase {target.__name__!r} died with exit code "
            f"{proc.exitcode} before reporting"
        ) from None
    proc.join()
    recv.close()
    return report


def _peak_rss_kb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return float(peak if sys.platform != "darwin" else peak / 1024)


def calibration_seconds() -> float:
    """Wall-time of a fixed numpy workload, for cross-machine normalization.

    The workload mirrors the registry's hot paths (batched rFFTs,
    reductions, BLAS dots) so its scaling across machines tracks the
    tasks'.  The result is the **best of five** passes: scheduler noise is
    strictly additive, so the minimum estimates steady-state throughput
    far more stably than one pass, and a noisy calibration would shift
    *every* expectation in :func:`compare`.
    """
    rng = np.random.default_rng(0)
    block = rng.standard_normal((256, 4096))
    best = float("inf")
    for _ in range(5):
        with span("bench.calibrate") as timing:
            acc = 0.0
            for _ in range(3):
                spectra = np.abs(np.fft.rfft(block, axis=1)) ** 2
                acc += float(spectra.sum())
                centered = block - block.mean(axis=1, keepdims=True)
                for row in centered:
                    acc += float(np.dot(row, row))
            if not np.isfinite(acc):  # pragma: no cover - keeps the loop live
                raise AssertionError("calibration workload overflowed")
        best = min(best, timing.wall_s)
    return best


def _phase_generate(seed: int, scale: float, cache_dir: str, workers: int) -> dict:
    """Synthesize (spilling to shards) and cache the trace."""
    from repro.experiments.cache import fetch_trace
    from repro.workloads.generator import GeneratorConfig

    config = GeneratorConfig(seed=seed, scale=scale)
    with span("bench.generate", scale=scale) as timing:
        store, info = fetch_trace(config, cache_dir=cache_dir, workers=workers, spill=True)
    summary = store.summary()
    return {
        "phase": "generate",
        "wall_s": round(timing.wall_s, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "span_rss_delta_kb": timing.peak_rss_delta_kb,
        "vms": summary["vms"],
        "utilization_series": summary["utilization_series"],
        "utilization_bytes": summary["utilization_bytes"],
        "cache_hit": info.hit,
        "trace_path": info.path,
    }


def _phase_analyze(
    seed: int, scale: float, cache_dir: str, task_ids: list[str] | None
) -> dict:
    """One pass of the experiment registry over the cached trace."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.parallel import execute

    config = ExperimentConfig(seed=seed, scale=scale)
    with span("bench.analyze", scale=scale) as timing:
        outcomes = execute(config, jobs=1, cache_dir=cache_dir, task_ids=task_ids)
    return {
        "phase": "analyze",
        "wall_s": timing.wall_s,
        "peak_rss_kb": _peak_rss_kb(),
        "span_rss_delta_kb": timing.peak_rss_delta_kb,
        "tasks": [
            {"id": outcome.task_id, "status": outcome.status, "wall_s": outcome.wall_time_s}
            for outcome in outcomes
        ],
    }


def _phase_measure(
    seed: int, scale: float, cache_dir: str, task_ids: list[str] | None
) -> dict:
    """A registry pass plus the calibration, timed in the same process."""
    report = _phase_analyze(seed, scale, cache_dir, task_ids)
    report["calibration_s"] = calibration_seconds()
    return report


def _kernel_row(name: str, block: np.ndarray, scalar, batched, same) -> dict:
    """Time ``scalar()`` against ``batched(block)``; ``same`` judges their outputs."""
    with span("bench.kernel", kernel=f"{name}.scalar") as scalar_t:
        expected = scalar()
    with span("bench.kernel", kernel=f"{name}.block") as block_t:
        got = batched(block)
    return {
        "name": name,
        "rows": len(block),
        "scalar_s": scalar_t.wall_s,
        "batched_s": block_t.wall_s,
        "speedup": scalar_t.wall_s / block_t.wall_s,
        "outputs_identical": bool(same(expected, got)),
    }


def _phase_kernels() -> dict:
    """Microbench each batched kernel against its scalar reference path.

    The fixtures are seeded and week-shaped (2016 samples = 7 days at 5
    minutes).  Each kernel reports both wall-times *and* whether the
    outputs are identical -- a bitwise-equal correlation matrix, equal
    pattern labels -- the evidence that the speedup did not buy a
    different answer.
    """
    from repro.analysis.stats import pairwise_pearson, pearson_correlation
    from repro.core.patterns import classify_block, classify_series

    rng = np.random.default_rng(0)
    n = 2016
    t = np.arange(n, dtype=np.float64)
    daily = np.sin(2 * np.pi * t / 288.0)
    corr_block = 0.3 + 0.2 * daily[None, :] + 0.05 * rng.standard_normal((96, n))
    corr_block[4:8] = 0.7
    m = corr_block.shape[0]

    def scalar_pearson() -> np.ndarray:
        r = np.full((m, m), np.nan)
        for i in range(m):
            for j in range(i, m):
                r[i, j] = r[j, i] = pearson_correlation(corr_block[i], corr_block[j])
        return r

    noise = rng.standard_normal((4, 24, n))  # diurnal, hourly-peak, stable, irregular
    week = np.concatenate(
        [
            0.4 + 0.2 * daily + 0.05 * noise[0],
            0.4 + 0.2 * np.sin(2 * np.pi * t / 12.0) + 0.05 * noise[1],
            0.3 + 0.002 * noise[2],
            0.4 + 0.1 * noise[3],
        ]
    )
    same_matrix = partial(np.array_equal, equal_nan=True)
    kernels = [
        _kernel_row("pairwise_pearson", corr_block, scalar_pearson, pairwise_pearson, same_matrix),
        _kernel_row(
            "classify_block", week, lambda: list(map(classify_series, week)), classify_block, eq
        ),
    ]
    return {"phase": "kernels", "kernels": kernels}


def _build_ops(rng: np.random.Generator, n: int, vm_ids, sub_ids) -> list:
    """A deterministic request plan of ``n`` (op, args) pairs."""
    ops = []
    names = [name for name, _ in QUERY_MIX]
    weights = np.array([w for _, w in QUERY_MIX])
    weights = weights / weights.sum()
    for pick in rng.choice(len(names), size=n, p=weights):
        op = names[pick]
        if op == "pattern_for_vm":
            args = {"vm_id": int(rng.choice(vm_ids))}
        elif op == "spot_eligibility":
            args = {"subscription_id": int(rng.choice(sub_ids))}
        elif op == "allocation_failure_risk":
            args = {
                "cloud": "private" if rng.random() < 0.5 else "public",
                "load_fraction": float(np.round(rng.random(), 3)),
                "recent_creations": float(int(rng.integers(0, 50))),
            }
        else:
            args = {}
        ops.append((op, args))
    return ops


async def _client_worker(host: str, port: int, ops: list, samples: dict) -> None:
    """Run one connection's request plan, recording per-op latencies."""
    from repro.serving.service import ServiceClient

    client = await ServiceClient.connect(host, port)
    try:
        for op, args in ops:
            t0 = time.perf_counter()
            response = await client.request(op, args)
            t1 = time.perf_counter()
            bucket = samples.setdefault(
                op, {"latencies": [], "ok": 0, "not_found": 0, "errors": 0}
            )
            bucket["latencies"].append((t1 - t0) * 1000.0)
            if response.get("ok"):
                bucket["ok"] += 1
            elif response.get("error", {}).get("kind") == "not_found":
                bucket["not_found"] += 1
            else:
                bucket["errors"] += 1
    finally:
        await client.close()


async def _drive(store, *, clients: int, requests_per_client: int, seed: int) -> dict:
    """Start the service, replay the trace, and race clients against ingest."""
    from repro.serving.replay import replay_trace
    from repro.serving.service import KnowledgeBaseService, ServiceClient

    service = KnowledgeBaseService.for_trace(store, queue_maxsize=SERVE_QUEUE_MAXSIZE)
    host, port = await service.start()

    vm_ids = store.vm_ids_with_utilization()
    sub_ids = sorted(store.subscriptions)
    plans = [
        _build_ops(
            np.random.default_rng(seed * 1000 + idx), requests_per_client, vm_ids, sub_ids
        )
        for idx in range(clients)
    ]

    replay_t0 = time.perf_counter()
    replay_task = asyncio.create_task(replay_trace(store, service, speedup=SERVE_SPEEDUP))
    samples: dict = {}
    query_t0 = time.perf_counter()
    await asyncio.gather(*(_client_worker(host, port, plan, samples) for plan in plans))
    query_wall = time.perf_counter() - query_t0
    replay_stats = await replay_task
    replay_wall = time.perf_counter() - replay_t0
    await service.drain()

    # One post-drain pass: the replayed state must serve a coherent
    # snapshot (the equivalence suite pins exact bytes; the bench asserts
    # liveness end to end).
    probe = await ServiceClient.connect(host, port)
    stats = await probe.call("stats")
    await probe.close()
    await service.stop()

    return {
        "samples": samples,
        "query_wall_s": query_wall,
        "replay": {
            "records": replay_stats.records,
            "batches": replay_stats.batches,
            "wall_s": round(replay_wall, 6),
        },
        "service": {
            "vms": stats["vms"],
            "events": stats["events"],
            "records": stats["records"],
        },
    }


def _phase_serve(
    seed: int, scale: float, cache_dir: str, clients: int, requests_per_client: int
) -> dict:
    """One full serving pass plus the calibration workload."""
    from repro.experiments.cache import get_trace
    from repro.workloads.generator import GeneratorConfig

    store = get_trace(GeneratorConfig(seed=seed, scale=scale), cache_dir=cache_dir)
    outcome = asyncio.run(
        _drive(store, clients=clients, requests_per_client=requests_per_client, seed=seed)
    )
    outcome["phase"] = "serve"
    outcome["calibration_s"] = calibration_seconds()
    return outcome


# ----------------------------------------------------------------------
# benches
# ----------------------------------------------------------------------


def run_bench_perf(
    *,
    seed: int = 7,
    scale: float = DEFAULT_SCALE["perf"],
    repeats: int = 3,
    cache_dir: str | Path,
    task_ids: Sequence[str] | None = None,
) -> dict:
    """Run the per-task wall-time bench and return the artifact payload.

    Per-task medians are taken across the measured passes; a task's status
    is the worst it reported.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    args = (seed, scale, str(cache_dir), list(task_ids) if task_ids else None)
    run_phase(_phase_measure, *args)  # warm-up: fills the trace cache
    runs = [run_phase(_phase_measure, *args) for _ in range(repeats)]
    kernels = run_phase(_phase_kernels)["kernels"]

    first_ids = [t["id"] for t in runs[0]["tasks"]]
    for run in runs[1:]:
        got = [t["id"] for t in run["tasks"]]
        if got != first_ids:
            raise RuntimeError(f"task list changed between repeats: {got} != {first_ids}")
    tasks = []
    for idx, task_id in enumerate(first_ids):
        samples = [run["tasks"][idx]["wall_s"] for run in runs]
        bad = sorted({run["tasks"][idx]["status"] for run in runs} - set(OK_STATUSES))
        tasks.append(
            {
                "id": task_id,
                "status": bad[0] if bad else "ok",
                "median_s": round(statistics.median(samples), 6),
                "samples_s": [round(s, 6) for s in samples],
            }
        )
    for kernel in kernels:
        kernel["scalar_s"] = round(kernel["scalar_s"], 6)
        kernel["batched_s"] = round(kernel["batched_s"], 6)
        kernel["speedup"] = round(kernel["speedup"], 2)
    return {
        "bench": "perf",
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "machine": _machine(),
        # Min across repeats for the same reason as the best-of-5 inside
        # each run: the floor is the stable machine-speed estimate.
        "calibration_s": round(min(run["calibration_s"] for run in runs), 6),
        "tasks": tasks,
        "total_s": round(sum(t["median_s"] for t in tasks), 6),
        "kernels": kernels,
    }


def run_bench_scale(
    *,
    seed: int = 7,
    scale: float = DEFAULT_SCALE["scale"],
    cache_dir: str | Path,
    budget_gb: float = 4.0,
    workers: int = 1,
    task_ids: Sequence[str] | None = None,
) -> dict:
    """Run the generate + analyze phases and return the artifact payload."""
    cache_dir = str(cache_dir)
    generate = run_phase(_phase_generate, seed, scale, cache_dir, workers)
    analyze = run_phase(
        _phase_analyze, seed, scale, cache_dir, list(task_ids) if task_ids else None
    )
    analyze["wall_s"] = round(analyze["wall_s"], 2)
    for task in analyze["tasks"]:
        task["wall_s"] = round(task["wall_s"], 2)
    budget_kb = budget_gb * 1024 * 1024
    peak_kb = max(generate["peak_rss_kb"], analyze["peak_rss_kb"])
    degraded = [t["id"] for t in analyze["tasks"] if t["status"] not in OK_STATUSES]
    within_budget = peak_kb <= budget_kb
    return {
        "bench": "scale",
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "budget_gb": budget_gb,
        "machine": _machine(),
        "phases": {"generate": generate, "analyze": analyze},
        "peak_rss_gb": round(peak_kb / (1024 * 1024), 3),
        "within_budget": within_budget,
        "degraded_tasks": degraded,
        "passed": within_budget and not degraded,
    }


def _percentiles(latencies: list) -> dict:
    arr = np.asarray(latencies, dtype=np.float64)
    return {
        "mean_ms": round(float(arr.mean()), 3),
        "p50_ms": round(float(np.percentile(arr, 50)), 3),
        "p95_ms": round(float(np.percentile(arr, 95)), 3),
        "p99_ms": round(float(np.percentile(arr, 99)), 3),
    }


def run_bench_serve(
    *,
    seed: int = 7,
    scale: float = DEFAULT_SCALE["serve"],
    clients: int = 4,
    requests_per_client: int = 400,
    cache_dir: str | Path,
) -> dict:
    """Run the serving bench and return the artifact payload.

    A warm-up child fills the trace cache, so the measured pass never
    times generation.
    """
    args = (seed, scale, str(cache_dir), clients, requests_per_client)
    run_phase(_phase_serve, *args)  # warm-up: cache + imports
    outcome = run_phase(_phase_serve, *args)

    queries = []
    total_latencies: list = []
    for op in sorted(outcome["samples"]):
        bucket = outcome["samples"][op]
        row = {
            "op": op,
            "count": len(bucket["latencies"]),
            "ok": bucket["ok"],
            "not_found": bucket["not_found"],
            "errors": bucket["errors"],
        }
        row.update(_percentiles(bucket["latencies"]))
        queries.append(row)
        total_latencies.extend(bucket["latencies"])

    wall = outcome["query_wall_s"]
    total = {
        "requests": len(total_latencies),
        "errors": sum(row["errors"] for row in queries),
        "wall_s": round(wall, 6),
        "qps": round(len(total_latencies) / wall if wall > 0 else 0.0, 2),
    }
    total.update(_percentiles(total_latencies))
    return {
        "bench": "serve",
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "scale": scale,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "speedup": SERVE_SPEEDUP,
        "machine": _machine(),
        "calibration_s": round(outcome["calibration_s"], 6),
        "replay": outcome["replay"],
        "service": outcome["service"],
        "queries": queries,
        "total": total,
    }
