"""Run the full evaluation, emit the run manifest, regenerate EXPERIMENTS.md.

:func:`run_pipeline` is the cached, parallel entry point: it fetches the
shared trace through the content-addressed disk cache (recording hit/miss
for the manifest), fans the registered tasks out across ``jobs`` worker
processes, and assembles a machine-readable ``manifest.json`` describing
every experiment — id, paper artifact, pass/fail, wall time, trace-cache
provenance, config hash — which CI consumes to gate merges.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import MetricsScope, drain_spans, mark, span
from repro.experiments import cache, faultinject, parallel
from repro.experiments.base import ExperimentResult
from repro.experiments.cache import TraceCacheInfo
from repro.experiments.config import ExperimentConfig, RetryPolicy, prime_trace
from repro.experiments.parallel import DEGRADED_STATUSES, TASK_STATUSES, TaskOutcome
from repro.workloads.generator import GENERATOR_VERSION

#: Maps experiment ids to the paper artifact they reproduce.
PAPER_ARTIFACTS = {task.task_id: task.paper_artifact for task in parallel.REGISTRY}

#: Version of the ``manifest.json`` layout; bump on breaking field changes.
#: v2 added the ``metrics`` section (counters/histograms + spans).
#: v3 added fault tolerance: per-row ``status``/``attempts``/``error``,
#: the top-level ``degraded`` flag, ``policy``, ``faults``, and
#: ``totals.degraded``.  v4 added the per-row result ``digest``.  v5
#: embeds metrics v2.
MANIFEST_SCHEMA_VERSION = 5

#: Version of the standalone metrics snapshot layout (``--metrics`` file,
#: also embedded as the manifest's ``metrics`` section).  v2 dropped the
#: ``gauges`` key: no metric was ever a gauge.
METRICS_SCHEMA_VERSION = 2

#: CLI exit codes: every shape check passed and every task completed.
EXIT_OK = 0
#: At least one *completed* experiment failed its shape checks.
EXIT_CHECK_FAILURES = 1
#: Every completed experiment passed, but some task failed/timed out/was
#: skipped -- the run is usable yet incomplete.
EXIT_DEGRADED = 3

_MANIFEST_TOP_KEYS = (
    "schema_version",
    "config",
    "config_hash",
    "generator_version",
    "jobs",
    "policy",
    "faults",
    "cache",
    "trace",
    "degraded",
    "totals",
    "metrics",
    "experiments",
)

_METRICS_KEYS = ("schema_version", "counters", "histograms", "spans", "tasks")
_MANIFEST_ROW_KEYS = (
    "id",
    "paper_artifact",
    "status",
    "attempts",
    "passed",
    "checks_passed",
    "checks_total",
    "wall_time_s",
    "trace_cache",
    "config_hash",
    "digest",
)


@dataclass
class RunReport:
    """Everything one pipeline run produced."""

    config: ExperimentConfig
    outcomes: list[TaskOutcome]
    trace_info: TraceCacheInfo
    manifest: dict = field(default_factory=dict)

    @property
    def results(self) -> list[ExperimentResult]:
        """Results of every *completed* experiment, in registry order.

        Tasks that failed, timed out, or were skipped have no result; their
        record lives in the manifest rows (``status``/``attempts``/``error``).
        """
        return [outcome.result for outcome in self.outcomes if outcome.result is not None]

    @property
    def metrics(self) -> dict:
        """The run's metrics snapshot (the manifest's ``metrics`` section)."""
        return self.manifest.get("metrics", {})


def run_pipeline(
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    policy: RetryPolicy | None = None,
) -> RunReport:
    """Execute every registered experiment and build the run manifest.

    The whole run executes under a metrics scope and a span bookmark, so
    the manifest's ``metrics`` section describes *this* run only -- repeat
    runs in one process do not bleed into each other.  A manifest is built
    for every run that gets as far as task execution -- degraded runs
    included -- so partial results always leave a machine-readable record.
    """
    config = config or ExperimentConfig()
    policy = policy or RetryPolicy()
    # Every structured timing below this goes through spans; this clock only
    # feeds the manifest's whole-run wall-time total.
    t0 = time.perf_counter()
    span_mark = mark()
    with MetricsScope() as scope:
        with span("pipeline.trace_fetch"):
            store, trace_info = cache.fetch_trace(
                config.generator_config(), cache_dir=cache_dir, use_cache=use_cache
            )
        prime_trace(config, store)
        outcomes = parallel.execute(
            config, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, policy=policy
        )
    metrics = build_metrics_snapshot(
        outcomes, registry_delta=scope.delta, spans=drain_spans(since=span_mark)
    )
    manifest = build_manifest(
        outcomes,
        config,
        jobs=jobs,
        trace_info=trace_info,
        cache_dir=cache_dir,
        use_cache=use_cache,
        elapsed_s=time.perf_counter() - t0,
        metrics=metrics,
        policy=policy,
    )
    return RunReport(
        config=config, outcomes=outcomes, trace_info=trace_info, manifest=manifest
    )


def build_metrics_snapshot(
    outcomes: list[TaskOutcome],
    *,
    registry_delta: dict | None = None,
    spans: list[dict] | None = None,
) -> dict:
    """Assemble the run's observability snapshot.

    ``registry_delta`` is the pipeline-scoped counters/histograms
    delta (worker deltas already merged in registry order by
    :func:`repro.experiments.parallel.execute`); ``spans`` are the
    parent-process spans (trace fetch, cache load/save, synthesis).  Each
    task contributes its own span slice and metrics delta.  Per-task
    ``wall_time_s`` here is rounded exactly like the manifest's experiment
    rows, so the two always agree.
    """
    registry_delta = registry_delta or {}
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": registry_delta.get("counters", {}),
        "histograms": registry_delta.get("histograms", {}),
        "spans": spans or [],
        "tasks": {
            outcome.task_id: {
                "wall_time_s": round(outcome.wall_time_s, 3),
                "trace_fetch_s": round(outcome.trace_fetch_s, 3),
                "spans": outcome.spans,
                "metrics": outcome.metrics,
            }
            for outcome in outcomes
        },
    }


def build_manifest(
    outcomes: list[TaskOutcome],
    config: ExperimentConfig,
    *,
    jobs: int,
    trace_info: TraceCacheInfo,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    elapsed_s: float = 0.0,
    metrics: dict | None = None,
    policy: RetryPolicy | None = None,
) -> dict:
    """The machine-readable record of one pipeline run (schema v5).

    Every task lands in a row whether or not it completed: a task that
    failed, timed out, or was skipped carries its ``status``, consumed
    ``attempts``, and accumulated ``error`` with ``passed: false``, no
    checks and a ``null`` ``digest``.  The top-level ``degraded`` flag
    (and ``totals.degraded`` count) summarize whether any task is missing
    from the results.
    """
    policy = policy or RetryPolicy()
    experiments = []
    for outcome in outcomes:
        task = parallel.TASKS[outcome.task_id]
        result = outcome.result
        shared = task.uses_shared_trace
        row = {
            "id": outcome.task_id,
            "paper_artifact": task.paper_artifact,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "passed": result.passed if result is not None else False,
            "checks_passed": (
                sum(check.passed for check in result.checks) if result is not None else 0
            ),
            "checks_total": len(result.checks) if result is not None else 0,
            "wall_time_s": round(outcome.wall_time_s, 3),
            "trace_cache": ("hit" if trace_info.hit else "miss") if shared else "n/a",
            "config_hash": trace_info.key,
            "digest": result.digest() if result is not None else None,
            "checks": [check.to_dict() for check in result.checks] if result else [],
        }
        if outcome.error is not None:
            row["error"] = outcome.error
        experiments.append(row)
    passed = sum(1 for outcome in outcomes if outcome.result and outcome.result.passed)
    degraded = sum(1 for outcome in outcomes if outcome.status in DEGRADED_STATUSES)
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "config": {"seed": config.seed, "scale": config.scale},
        "config_hash": trace_info.key,
        "generator_version": GENERATOR_VERSION,
        "jobs": jobs,
        "policy": policy.to_dict(),
        "faults": faultinject.describe_plan(),
        "cache": {
            "dir": str(cache.resolve_cache_dir(cache_dir)),
            "enabled": bool(use_cache),
        },
        "trace": trace_info.to_dict(),
        "degraded": degraded > 0,
        "totals": {
            "experiments": len(outcomes),
            "passed": passed,
            "failed": len(outcomes) - passed,
            "degraded": degraded,
            "wall_time_s": round(elapsed_s, 3),
        },
        "metrics": metrics if metrics is not None else build_metrics_snapshot(outcomes),
        "experiments": experiments,
    }


def exit_code_for_manifest(manifest: dict) -> int:
    """Map a run manifest onto the CLI exit code contract.

    :data:`EXIT_CHECK_FAILURES` (1) when any *completed* experiment failed
    its shape checks -- wrong results outrank missing ones.  Otherwise
    :data:`EXIT_DEGRADED` (3) when the run is degraded (some task never
    produced a result), else :data:`EXIT_OK` (0).
    """
    rows = manifest.get("experiments", [])
    check_failures = any(
        row.get("status") in ("ok", "retried") and not row.get("passed")
        for row in rows
    )
    if check_failures:
        return EXIT_CHECK_FAILURES
    if manifest.get("degraded"):
        return EXIT_DEGRADED
    return EXIT_OK


def validate_manifest(manifest: dict) -> dict:
    """Check the manifest layout; returns it unchanged or raises ValueError."""
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest must be an object, got {type(manifest).__name__}")
    missing = [key for key in _MANIFEST_TOP_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"manifest missing key(s): {', '.join(missing)}")
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema_version {manifest['schema_version']!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    rows = manifest["experiments"]
    if not isinstance(rows, list):
        raise ValueError("manifest 'experiments' must be a list")
    for row in rows:
        row_missing = [key for key in _MANIFEST_ROW_KEYS if key not in row]
        if row_missing:
            raise ValueError(
                f"experiment row {row.get('id', '?')!r} missing key(s): "
                f"{', '.join(row_missing)}"
            )
        if row["trace_cache"] not in ("hit", "miss", "n/a"):
            raise ValueError(
                f"experiment row {row['id']!r} has invalid trace_cache "
                f"{row['trace_cache']!r}"
            )
        if row["status"] not in TASK_STATUSES:
            raise ValueError(
                f"experiment row {row['id']!r} has invalid status {row['status']!r}"
            )
        if not isinstance(row["attempts"], int) or row["attempts"] < 0:
            raise ValueError(
                f"experiment row {row['id']!r} has invalid attempts "
                f"{row['attempts']!r}"
            )
        if row["status"] in ("ok", "retried") and row["attempts"] < 1:
            raise ValueError(
                f"experiment row {row['id']!r} completed with zero attempts"
            )
        if row["passed"] and row["status"] in DEGRADED_STATUSES:
            raise ValueError(
                f"experiment row {row['id']!r} cannot pass with status "
                f"{row['status']!r}"
            )
    totals = manifest["totals"]
    if totals["passed"] + totals["failed"] != totals["experiments"]:
        raise ValueError("manifest totals are inconsistent")
    if totals["experiments"] != len(rows):
        raise ValueError("manifest totals disagree with the experiment rows")
    degraded_rows = sum(1 for row in rows if row["status"] in DEGRADED_STATUSES)
    if totals.get("degraded") != degraded_rows:
        raise ValueError("manifest totals.degraded disagrees with the row statuses")
    if bool(manifest["degraded"]) != (degraded_rows > 0):
        raise ValueError("manifest 'degraded' flag disagrees with the row statuses")
    metrics = manifest["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("manifest 'metrics' must be an object")
    metrics_missing = [key for key in _METRICS_KEYS if key not in metrics]
    if metrics_missing:
        raise ValueError(
            f"manifest metrics missing key(s): {', '.join(metrics_missing)}"
        )
    if metrics["schema_version"] != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported metrics schema_version {metrics['schema_version']!r} "
            f"(expected {METRICS_SCHEMA_VERSION})"
        )
    task_metrics = metrics["tasks"]
    for row in rows:
        entry = task_metrics.get(row["id"])
        if entry is None:
            raise ValueError(f"manifest metrics missing task entry {row['id']!r}")
        if entry["wall_time_s"] != row["wall_time_s"]:
            raise ValueError(
                f"metrics wall time for {row['id']!r} disagrees with its "
                "experiment row"
            )
    return manifest


def write_manifest(manifest: dict, path: str | Path) -> Path:
    """Write (validated) ``manifest`` as JSON; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(validate_manifest(manifest), indent=2) + "\n")
    return out


def render_report(results: list[ExperimentResult]) -> str:
    """Console rendering of a full run."""
    lines = []
    passed = sum(1 for r in results if r.passed)
    lines.append(f"Reproduced {passed}/{len(results)} paper artifacts with all shape checks passing")
    lines.append("")
    for result in results:
        lines.append(result.render())
        lines.append("")
    return "\n".join(lines)


def write_experiments_md(
    results: list[ExperimentResult],
    path: str | Path = "EXPERIMENTS.md",
    *,
    config: ExperimentConfig | None = None,
) -> Path:
    """Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact."""
    config = config or ExperimentConfig()
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Auto-generated by `python -m repro experiments --write-md` "
        f"(seed={config.seed}, scale={config.scale}).",
        "",
        "The substrate is a synthetic trace generator calibrated to the "
        "paper's published statistics (the real Azure telemetry is "
        "proprietary), so the comparison targets the *shape* of each "
        "result: who is higher, by roughly what factor, and where the "
        "crossovers fall.  Absolute values in the paper are normalized "
        "anyway (Section II, footnote 1).",
        "",
        "The 'shortest lifetime bin' of Fig. 3(a) is fixed at <= 1 hour in "
        "this reproduction (the paper normalizes its lifetime axis).",
        "",
        "| Experiment | Paper artifact | Checks | Status |",
        "|---|---|---|---|",
    ]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        artifact = PAPER_ARTIFACTS.get(result.experiment_id, "-")
        lines.append(
            f"| {result.experiment_id} | {artifact} | "
            f"{sum(c.passed for c in result.checks)}/{len(result.checks)} | {status} |"
        )
    lines.append("")
    lines.append("## Details")
    lines.append("")
    for result in results:
        lines.append(f"### {result.experiment_id} — {result.title}")
        lines.append("")
        artifact = PAPER_ARTIFACTS.get(result.experiment_id)
        if artifact:
            lines.append(f"Reproduces **{artifact}**.")
            lines.append("")
        lines.append("| Check | Paper | Measured | Status |")
        lines.append("|---|---|---|---|")
        for check in result.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(
                f"| {check.name} | {check.paper} | {check.measured} | {status} |"
            )
        if result.notes:
            lines.append("")
            lines.append(f"*Note: {result.notes}*")
        lines.append("")
    out = Path(path)
    out.write_text("\n".join(lines))
    return out
