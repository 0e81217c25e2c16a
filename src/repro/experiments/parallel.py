"""Declarative experiment registry and a fault-tolerant task scheduler.

Every paper artifact is a named :class:`ExperimentTask` with an explicit
trace dependency, so the pipeline knows what each task needs instead of
hard-coding one serial call sequence.  :func:`execute` runs a task
selection through one scheduler loop with two kinds of attempt:

* **inline** -- ``run_task`` in the calling process, its exceptions
  caught per attempt.  Chosen when ``jobs=1`` and neither a per-task
  timeout nor an armed hang/kill fault needs a process boundary, so a
  serial run (and ``bench-scale``'s per-phase peak RSS) stays in-process;
* **worker** -- **every attempt in its own process**, otherwise.

Both kinds share the retry, exponential-backoff, fail-fast and failure
bookkeeping.  Per-attempt processes are what make the pipeline fault
tolerant: a worker that raises, hangs past the
:class:`~repro.experiments.config.RetryPolicy` deadline, or dies to a
SIGKILL takes down only its own attempt, and once its attempts are
exhausted the task is recorded ``failed``/``timeout`` while the rest of
the registry completes -- unlike a shared ``ProcessPoolExecutor``, where
one killed worker poisons every pending future with
``BrokenProcessPool``.  Outcomes are always reassembled in registry
order, so the output is deterministic at any job count.

Worker processes get the shared trace for free: on fork start methods they
inherit the parent's warmed in-memory memo, and on spawn they fall back to
the content-addressed on-disk cache (:mod:`repro.experiments.cache`), so
no job count ever re-synthesizes a trace another process already built.
With a saved (format v3) trace this hand-off is zero-copy for telemetry either
way: the store's utilization blocks are
:class:`~repro.telemetry.shards.ShardRef` entries, *paths* into the cached
trace directory, so each worker memory-maps the shards it touches instead
of receiving a copy of the matrices.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.obs import Counter, MetricsScope, drain_spans, mark, span
from repro.obs.metrics import REGISTRY as _METRICS_REGISTRY
from repro.experiments import (
    case_study,
    faultinject,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    implications,
    validity,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.config import ExperimentConfig, RetryPolicy, get_trace

#: Statuses a task outcome (and its manifest row) may carry.
TASK_STATUSES = ("ok", "retried", "failed", "timeout", "skipped")

#: Statuses that mark a run degraded (the task produced no result).
DEGRADED_STATUSES = ("failed", "timeout", "skipped")

_RETRY_ATTEMPTS = Counter("retry.attempts")
_TASKS_FAILED = Counter("task.failed")
_TASKS_TIMEOUT = Counter("task.timeout")
_TASKS_SKIPPED = Counter("task.skipped")


@dataclass(frozen=True)
class ExperimentTask:
    """One named unit of the evaluation pipeline.

    ``runner`` takes the shared :class:`~repro.telemetry.store.TraceStore`
    when ``uses_shared_trace`` is true, and ``(config, cache_dir, use_cache)``
    otherwise (tasks that build their own scenario or trace sweep).
    """

    task_id: str
    paper_artifact: str
    runner: Callable[..., ExperimentResult]
    uses_shared_trace: bool = True


def _run_case_study(
    config: ExperimentConfig, cache_dir: str | Path | None, use_cache: bool
) -> ExperimentResult:
    """The Canada pilot builds its own two-region scenario (no generator)."""
    return case_study.run(seed=config.seed + 4)


def _run_validity(
    config: ExperimentConfig, cache_dir: str | Path | None, use_cache: bool
) -> ExperimentResult:
    """The holiday ablation generates its own trace sweep (disk-cached)."""
    return validity.run(
        seed=config.seed,
        scale=min(config.scale, 0.15),
        cache_dir=cache_dir,
        use_cache=use_cache,
    )


#: Every paper artifact, in canonical order.
REGISTRY: tuple[ExperimentTask, ...] = (
    ExperimentTask("fig1a", "Figure 1(a)", fig1.run_fig1a),
    ExperimentTask("fig1b", "Figure 1(b)", fig1.run_fig1b),
    ExperimentTask("fig2", "Figure 2", fig2.run),
    ExperimentTask("fig3a", "Figure 3(a)", fig3.run_fig3a),
    ExperimentTask("fig3b", "Figure 3(b)", fig3.run_fig3b),
    ExperimentTask("fig3c", "Figure 3(c)", fig3.run_fig3c),
    ExperimentTask(
        "fig3c-removals", "Section III-B (VM removal behaviour)", fig3.run_fig3c_removals
    ),
    ExperimentTask("fig3d", "Figure 3(d)", fig3.run_fig3d),
    ExperimentTask("fig4a", "Figure 4(a)", fig4.run_fig4a),
    ExperimentTask("fig4b", "Figure 4(b)", fig4.run_fig4b),
    ExperimentTask("fig5", "Figure 5", fig5.run),
    ExperimentTask("fig6", "Figure 6", fig6.run),
    ExperimentTask("fig7a", "Figure 7(a)", fig7.run_fig7a),
    ExperimentTask("fig7b", "Figure 7(b)", fig7.run_fig7b),
    ExperimentTask("fig7c", "Figure 7(c)", fig7.run_fig7c),
    ExperimentTask(
        "im1-oversubscription",
        "Section III-B implication (over-subscription)",
        implications.run_oversubscription,
    ),
    ExperimentTask(
        "im2-spot", "Section III-B implication (spot VMs)", implications.run_spot
    ),
    ExperimentTask(
        "case-study", "Section IV-B Canada pilot", _run_case_study, uses_shared_trace=False
    ),
    ExperimentTask(
        "validity-holiday",
        "Section VII threats to validity",
        _run_validity,
        uses_shared_trace=False,
    ),
)

#: Registry lookup by task id.
TASKS: dict[str, ExperimentTask] = {task.task_id: task for task in REGISTRY}

#: Registry order, used to resolve fault targets deterministically.
_REGISTRY_IDS: tuple[str, ...] = tuple(task.task_id for task in REGISTRY)


@dataclass
class TaskOutcome:
    """One executed task: its result plus the telemetry the manifest records."""

    task_id: str
    #: The experiment result, or ``None`` when the task did not complete
    #: (``status`` is then ``failed``/``timeout``/``skipped``).
    result: ExperimentResult | None
    #: Seconds spent inside the experiment itself (for non-``ok`` outcomes:
    #: total wall time across every attempt, including backoff).
    wall_time_s: float
    #: Seconds spent fetching the shared trace (0 for self-sufficient tasks;
    #: ~0 once the in-process memo is warm).
    trace_fetch_s: float = 0.0
    #: Flat span list recorded while this task ran (drained from the
    #: executing process's collector, so fork-inherited spans never leak in).
    spans: list[dict] = field(default_factory=list)
    #: Registry delta (counters/histograms) scoped to this task.
    metrics: dict = field(default_factory=dict)
    #: One of :data:`TASK_STATUSES`.
    status: str = "ok"
    #: Attempts consumed (0 for ``skipped`` tasks).
    attempts: int = 1
    #: Accumulated attempt errors for non-``ok``/``retried`` outcomes.
    error: str | None = None


def run_task(
    task_id: str,
    config: ExperimentConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    attempt: int = 1,
) -> TaskOutcome:
    """Execute one registered task (also the entry point for worker processes).

    The task body runs under a ``task.run`` span and a :class:`MetricsScope`;
    the resulting span slice and metrics delta travel back to the parent in
    the outcome, where :func:`execute` merges deltas in registry order.
    Armed :mod:`~repro.experiments.faultinject` faults fire here, before
    any real work, so every attempt is deterministic.
    """
    config = config or ExperimentConfig()
    task = TASKS[task_id]
    faultinject.maybe_fire(task_id, attempt, _REGISTRY_IDS)
    fetch_s = 0.0
    span_mark = mark()
    with MetricsScope() as scope:
        if task.uses_shared_trace:
            with span("task.trace_fetch", task=task_id) as fetch_span:
                store = get_trace(config, cache_dir=cache_dir, use_cache=use_cache)
            fetch_s = fetch_span.wall_s
            with span("task.run", task=task_id) as task_span:
                result = task.runner(store)
        else:
            with span("task.run", task=task_id) as task_span:
                result = task.runner(config, cache_dir, use_cache)
    return TaskOutcome(
        task_id=task_id,
        result=result,
        wall_time_s=task_span.wall_s,
        trace_fetch_s=fetch_s,
        spans=drain_spans(since=span_mark),
        metrics=scope.delta,
        attempts=attempt,
    )


def _select_tasks(task_ids: Sequence[str] | None) -> list[ExperimentTask]:
    if task_ids is None:
        return list(REGISTRY)
    unknown = sorted(set(task_ids) - set(TASKS))
    if unknown:
        raise KeyError(f"unknown experiment task(s): {', '.join(unknown)}")
    return [task for task in REGISTRY if task.task_id in set(task_ids)]


def _plan_requires_isolation() -> bool:
    """Whether the armed fault plan needs per-process workers to contain.

    A ``raise`` fault is an ordinary exception an inline attempt can
    catch, but a hang can only be stopped -- and a SIGKILL only survived --
    from outside the worker process.
    """
    return any(
        spec.kind in (faultinject.FaultKind.HANG, faultinject.FaultKind.KILL)
        for spec in faultinject.plan_from_env()
    )


def execute(
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    task_ids: Sequence[str] | None = None,
    policy: RetryPolicy | None = None,
) -> list[TaskOutcome]:
    """Run the selected tasks and return outcomes in registry order.

    Every attempt goes through one scheduler loop (:func:`_schedule`),
    which retries failed attempts per ``policy`` and records the outcome.
    Attempts run *inline*, in this process, when ``jobs=1`` and neither a
    per-task timeout nor an armed hang/kill fault needs a process boundary
    to stop them; otherwise every attempt gets its own worker process, so
    a crashed, hung, or killed worker marks only its task while the rest
    of the registry completes.  Outcomes are reassembled by registry
    position, so results are identical regardless of completion order or
    worker count.
    """
    config = config or ExperimentConfig()
    policy = policy or RetryPolicy()
    selected = _select_tasks(task_ids)
    inline = (
        jobs <= 1
        and policy.task_timeout_s is None
        and not _plan_requires_isolation()
    )
    if not inline and any(task.uses_shared_trace for task in selected):
        # Warm once in the parent: forked workers inherit the store,
        # spawned workers hit the disk cache this call just populated.
        get_trace(config, cache_dir=cache_dir, use_cache=use_cache)
    outcomes = _schedule(
        selected, config, policy,
        jobs=max(1, jobs), inline=inline, cache_dir=cache_dir, use_cache=use_cache,
    )
    if not inline:
        # Fold worker metric deltas into this process's registry *in
        # registry order*, not completion order, so the merged totals are
        # identical to an inline run of the same task set, whose increments
        # already landed here while it ran.
        for outcome in outcomes:
            if outcome.metrics:
                _METRICS_REGISTRY.merge(outcome.metrics)
    return outcomes


def _worker_entry(
    conn,
    task_id: str,
    config: ExperimentConfig,
    cache_dir: str | Path | None,
    use_cache: bool,
    attempt: int,
) -> None:
    """Worker-process body: run one attempt, ship the outcome (or error) back.

    An ordinary exception is reported as a message rather than a dead
    process, so the scheduler can retry without paying another fork for
    the diagnosis.  Hangs and SIGKILLs never reach the ``send`` -- the
    scheduler detects those from the outside.
    """
    try:
        outcome = run_task(
            task_id, config, cache_dir=cache_dir, use_cache=use_cache, attempt=attempt
        )
        conn.send(("ok", outcome))
    # Worker-side last resort: the error crosses the pipe and the scheduler
    # counts it on task.failed / retry.attempts.
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _Worker:
    """Scheduler-side handle on one in-flight worker attempt."""

    proc: multiprocessing.process.BaseProcess
    conn: object
    deadline: float | None

    def close(self) -> None:
        self.proc.join()
        self.conn.close()


@dataclass
class _TaskState:
    """Scheduler-side bookkeeping for one selected task."""

    task: ExperimentTask
    attempts: int = 0
    first_started: float | None = None
    errors: list[str] = field(default_factory=list)


def _schedule(
    selected: list[ExperimentTask],
    config: ExperimentConfig,
    policy: RetryPolicy,
    *,
    jobs: int,
    inline: bool,
    cache_dir: str | Path | None,
    use_cache: bool,
) -> list[TaskOutcome]:
    """The one retry loop: start attempts, collect their ends, retry or record.

    At most ``jobs`` attempts run at once.  An inline attempt runs to its
    end inside :func:`start`; a worker attempt is a process whose pipe and
    sentinel the loop waits on, killed at its deadline.  A failed attempt
    is retried after exponential backoff, its slot going to the next ready
    task meanwhile.  A task that exhausts its attempts is recorded
    ``failed``/``timeout`` and, under ``fail_fast``, every task not yet
    started is skipped.
    """
    ctx = multiprocessing.get_context()
    outcomes: list[TaskOutcome | None] = [None] * len(selected)
    states = [_TaskState(task) for task in selected]
    #: (eligible_at, index) of attempts waiting for a slot.
    ready: list[tuple[float, int]] = [(0.0, i) for i in range(len(selected))]
    running: dict[int, _Worker] = {}

    def start(index: int) -> None:
        state = states[index]
        state.attempts += 1
        now = time.monotonic()
        if state.first_started is None:
            state.first_started = now
        if inline:
            try:
                outcome = run_task(
                    state.task.task_id, config,
                    cache_dir=cache_dir, use_cache=use_cache, attempt=state.attempts,
                )
            # Contained like a worker's error: recorded on the task and
            # counted on task.failed / retry.attempts.
            except Exception as exc:
                handle_failed_attempt(index, f"{type(exc).__name__}: {exc}")
            else:
                finalize_success(index, outcome)
            return
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_entry,
            args=(send, state.task.task_id, config, cache_dir, use_cache, state.attempts),
            daemon=True,
        )
        # No parent-side span here: inline and worker runs must produce
        # identical span structure so metrics stay comparable across --jobs.
        proc.start()
        send.close()  # the parent reads; closing its write end makes EOF visible
        deadline = (
            now + policy.task_timeout_s if policy.task_timeout_s is not None else None
        )
        running[index] = _Worker(proc=proc, conn=recv, deadline=deadline)

    def reap(index: int, worker: _Worker) -> None:
        # Read liveness *before* the pipe: a worker can send its outcome and
        # exit between the two reads, and only this order still sees the
        # outcome instead of mistaking the exit for a crash.
        exited = not worker.proc.is_alive()
        if worker.conn.poll(0):
            try:
                kind, payload = worker.conn.recv()
            except (EOFError, OSError):
                kind, payload = "error", None
        elif exited:
            kind, payload = "error", None
        elif worker.deadline is not None and time.monotonic() >= worker.deadline:
            worker.proc.kill()
            kind, payload = "timeout", f"timed out after {policy.task_timeout_s}s"
        else:
            return
        del running[index]
        worker.close()
        if kind == "ok":
            finalize_success(index, payload)
            return
        handle_failed_attempt(
            index,
            payload or f"worker exited with code {worker.proc.exitcode} "
            "before returning a result",
            timed_out=kind == "timeout",
        )

    def finalize_success(index: int, outcome: TaskOutcome) -> None:
        outcome.attempts = states[index].attempts
        if outcome.attempts > 1:
            outcome.status = "retried"
        outcomes[index] = outcome

    def handle_failed_attempt(index: int, message: str, *, timed_out: bool = False) -> None:
        state = states[index]
        state.errors.append(f"attempt {state.attempts}: {message}")
        if state.attempts < policy.max_attempts:
            _RETRY_ATTEMPTS.inc()
            eligible = time.monotonic() + policy.backoff_for(state.attempts)
            ready.append((eligible, index))
        else:
            finalize_failure(index, "timeout" if timed_out else "failed")

    def finalize_failure(index: int, status: str) -> None:
        state = states[index]
        if status == "timeout":
            _TASKS_TIMEOUT.inc()
        else:
            _TASKS_FAILED.inc()
        elapsed = time.monotonic() - state.first_started
        outcomes[index] = TaskOutcome(
            task_id=state.task.task_id,
            result=None,
            wall_time_s=elapsed,
            status=status,
            attempts=state.attempts,
            error="; ".join(state.errors),
        )
        if policy.fail_fast:
            skip_pending(because=state.task.task_id)

    def skip_pending(because: str) -> None:
        while ready:
            _eligible, index = ready.pop()
            state = states[index]
            _TASKS_SKIPPED.inc()
            note = f"skipped after {because} exhausted its attempts (fail-fast)"
            outcomes[index] = TaskOutcome(
                task_id=state.task.task_id,
                result=None,
                wall_time_s=0.0,
                status="skipped",
                attempts=state.attempts,
                error="; ".join(state.errors + [note]),
            )

    while ready or running:
        # Fill free slots with eligible attempts, lowest index first so
        # cold starts follow registry order deterministically.  The clock
        # is re-read per start because an inline attempt runs to its end
        # in start(), during which a retry's backoff may expire.
        while len(running) < jobs:
            now = time.monotonic()
            eligible = [entry for entry in ready if entry[0] <= now]
            if not eligible:
                break
            entry = min(eligible, key=lambda item: item[1])
            ready.remove(entry)
            start(entry[1])
        for index, worker in list(running.items()):
            reap(index, worker)
        # Sleep until a worker reports or dies, the next deadline passes,
        # or -- when a slot is free -- the next backoff expires.
        wakeups = [w.deadline for w in running.values() if w.deadline is not None]
        if len(running) < jobs:
            wakeups += [eligible_at for eligible_at, _index in ready]
        timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
        if ready or running:
            wait(
                [w.conn for w in running.values()]
                + [w.proc.sentinel for w in running.values()],
                timeout,
            )
    return [outcome for outcome in outcomes if outcome is not None]
