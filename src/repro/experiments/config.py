"""Shared configuration and trace memoization for the experiment harness.

Generating a trace pair is the expensive step, so experiments share one
trace per ``(seed, scale)``: an in-process memo serves repeat calls within
one run, backed by the content-addressed on-disk cache in
:mod:`repro.experiments.cache` so a warm second *process* (or a spawned
``--jobs`` worker) skips synthesis too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments import cache
from repro.telemetry.store import TraceStore
from repro.workloads.generator import GeneratorConfig


#: Base backoff before the first retry; doubles per failed attempt.
BACKOFF_S = 0.1
#: Upper bound on any single backoff sleep.
BACKOFF_MAX_S = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a task attempt that fails, hangs, or dies.

    Attempt ``n`` (1-based) that fails is retried after
    ``BACKOFF_S * 2**(n-1)`` seconds (capped at ``BACKOFF_MAX_S``) until
    ``retries`` extra attempts are exhausted; the task then lands in the
    manifest as ``failed`` (or ``timeout`` when the last attempt hit the
    per-task deadline) while the rest of the registry completes.  The
    policy shapes how a run degrades, never what it computes, so it is
    not part of the trace-cache key.
    """

    #: Extra attempts after the first (0 = fail immediately).
    retries: int = 0
    #: Per-attempt wall-clock deadline; ``None`` disables timeouts.  A
    #: deadline (or an armed hang/kill fault) forces process isolation
    #: even at ``jobs=1`` so a hung task can actually be killed.
    task_timeout_s: float | None = None
    #: When True, a task that exhausts its attempts marks every not-yet-
    #: started task ``skipped`` instead of running it.
    fail_fast: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be > 0, got {self.task_timeout_s}")

    @property
    def max_attempts(self) -> int:
        """Total attempts a task may consume."""
        return self.retries + 1

    def backoff_for(self, failed_attempt: int) -> float:
        """Sleep before retrying after 1-based attempt ``failed_attempt`` failed."""
        return min(BACKOFF_MAX_S, BACKOFF_S * 2 ** (failed_attempt - 1))

    def to_dict(self) -> dict:
        """JSON-ready rendering for the run manifest."""
        return {
            "retries": self.retries,
            "task_timeout_s": self.task_timeout_s,
            "backoff_s": BACKOFF_S,
            "fail_fast": self.fail_fast,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment run."""

    seed: int = 7
    #: Workload scale; 0.3 keeps a laptop run under a minute while leaving
    #: enough statistics for every figure.
    scale: float = 0.3

    def generator_config(self) -> GeneratorConfig:
        """The generator settings implied by this experiment config."""
        return GeneratorConfig(seed=self.seed, scale=self.scale)

    def config_hash(self) -> str:
        """The trace-cache key for this config (see :func:`cache.config_hash`)."""
        return cache.config_hash(self.generator_config())


_TRACE_CACHE: dict[tuple[int, float], TraceStore] = {}


def get_trace(
    config: ExperimentConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> TraceStore:
    """Return the (memoized) merged private+public trace for ``config``."""
    config = config or ExperimentConfig()
    key = (config.seed, config.scale)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = cache.get_trace(
            config.generator_config(), cache_dir=cache_dir, use_cache=use_cache
        )
    return _TRACE_CACHE[key]


def prime_trace(config: ExperimentConfig, store: TraceStore) -> None:
    """Install ``store`` as the in-memory trace for ``config``.

    The pipeline runner fetches through the disk cache itself (to learn
    hit/miss for the manifest) and primes the memo so worker tasks reuse
    the same object instead of re-reading it.
    """
    _TRACE_CACHE[(config.seed, config.scale)] = store


def clear_trace_cache() -> None:
    """Drop memoized traces (used by tests to bound memory)."""
    _TRACE_CACHE.clear()
