"""Deterministic fault injection for the experiment pipeline.

Long-running characterization pipelines have to treat worker crashes,
hangs, and corrupted cache entries as predictable signals rather than
run-ending surprises (the paper's own platform does exactly that for
allocation failures, DSN 2023 SectionV).  Proving the pipeline degrades
gracefully requires *injecting* those failures on demand, so this module
is the single seam tests and CI use to do it.

Faults are armed through the ``REPRO_FAULT`` environment variable::

    REPRO_FAULT=<target>:<kind>[:<count>][,<target>:<kind>[:<count>]...]

* ``target`` -- an experiment task id (``fig5``), a task-id *prefix*
  (``fig3`` resolves to the first matching registry task, ``fig3a``), or
  the literal ``cache`` for cache-corruption faults.
* ``kind`` -- ``raise`` (alias ``crash``): raise :class:`FaultInjected`
  inside the task body; ``hang`` (alias ``stall``): block until the
  supervisor's timeout kills the worker; ``kill`` (alias ``sigkill``):
  SIGKILL the worker process mid-task; ``corrupt``: truncate a file of
  the on-disk cached trace just before it is loaded.
* ``count`` -- how many attempts the fault fires on.  Task faults
  default to *every* attempt (so a task with retries still ends up
  ``failed``); ``fig5:raise:1`` fires only on the first attempt, letting
  the retry succeed.  ``corrupt`` defaults to firing once per process.

Because the environment travels to every worker process and the attempt
number is passed explicitly by the supervisor, injection is fully
deterministic: the same plan produces the same degraded manifest at any
``--jobs`` count.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from repro.obs import Counter

#: Environment variable holding the fault plan.
ENV_FAULT = "REPRO_FAULT"

#: Target keyword for cache-corruption faults (they have no task id).
CACHE_TARGET = "cache"

_FAULTS_FIRED = Counter("fault.injected")


class FaultInjected(RuntimeError):
    """The error raised by an injected ``raise`` fault."""


class FaultKind(Enum):
    """What an armed fault does when it fires."""

    RAISE = "raise"
    HANG = "hang"
    KILL = "kill"
    CORRUPT = "corrupt"


_KIND_ALIASES = {
    "raise": FaultKind.RAISE,
    "crash": FaultKind.RAISE,
    "hang": FaultKind.HANG,
    "stall": FaultKind.HANG,
    "kill": FaultKind.KILL,
    "sigkill": FaultKind.KILL,
    "corrupt": FaultKind.CORRUPT,
}


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it fires, what it does, how many times."""

    target: str
    kind: FaultKind
    #: Attempts the fault fires on (``None`` = every attempt).
    count: int | None = None

    def fires_on(self, attempt: int) -> bool:
        """Whether the fault triggers on 1-based attempt number ``attempt``."""
        return self.count is None or attempt <= self.count

    def render(self) -> str:
        """The spec in ``REPRO_FAULT`` syntax (for manifests and logs)."""
        base = f"{self.target}:{self.kind.value}"
        return base if self.count is None else f"{base}:{self.count}"


def parse_faults(text: str | None) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULT`` value; raises ValueError on malformed specs."""
    if not text or not text.strip():
        return ()
    specs = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"malformed fault spec {chunk!r} (expected target:kind[:count])"
            )
        target, kind_text = parts[0].strip(), parts[1].strip().lower()
        kind = _KIND_ALIASES.get(kind_text)
        if kind is None:
            raise ValueError(
                f"unknown fault kind {kind_text!r} in {chunk!r} "
                f"(one of: {', '.join(sorted(_KIND_ALIASES))})"
            )
        count: int | None = 1 if kind is FaultKind.CORRUPT else None
        if len(parts) == 3:
            count = int(parts[2])
            if count < 1:
                raise ValueError(f"fault count must be >= 1 in {chunk!r}")
        specs.append(FaultSpec(target=target, kind=kind, count=count))
    return tuple(specs)


def plan_from_env() -> tuple[FaultSpec, ...]:
    """The fault plan armed via ``$REPRO_FAULT`` (empty tuple when unset)."""
    return parse_faults(os.environ.get(ENV_FAULT))


def resolve_target(target: str, known_ids: Sequence[str]) -> str | None:
    """Map a spec target onto one concrete task id.

    An exact id match wins; otherwise the first ``known_ids`` entry (in
    registry order) the target is a prefix of.  ``None`` when nothing
    matches -- the spec is inert, so a typo'd target degrades to a no-op
    rather than crashing the run.
    """
    if target in known_ids:
        return target
    for task_id in known_ids:
        if task_id.startswith(target):
            return task_id
    return None


def maybe_fire(task_id: str, attempt: int, known_ids: Sequence[str]) -> None:
    """Fire any armed task fault matching ``task_id`` on this attempt.

    Called at the top of every task attempt (in the worker process when
    isolated, inline otherwise).  ``raise`` faults raise
    :class:`FaultInjected`; ``hang`` faults block until the supervising
    parent kills the worker; ``kill`` faults SIGKILL the current process.
    """
    for spec in plan_from_env():
        if spec.kind is FaultKind.CORRUPT:
            continue
        if resolve_target(spec.target, known_ids) != task_id:
            continue
        if not spec.fires_on(attempt):
            continue
        _FAULTS_FIRED.inc()
        if spec.kind is FaultKind.RAISE:
            raise FaultInjected(
                f"injected fault {spec.render()} (task {task_id}, attempt {attempt})"
            )
        if spec.kind is FaultKind.HANG:
            _hang()
        if spec.kind is FaultKind.KILL:
            os.kill(os.getpid(), signal.SIGKILL)


def _hang() -> None:
    """Block until the supervisor's timeout kills this process.

    Capped at one hour as a backstop so an accidentally armed hang in an
    un-supervised run cannot wedge a machine forever.
    """
    deadline = time.monotonic() + 3600.0
    while time.monotonic() < deadline:
        time.sleep(0.05)
    raise FaultInjected("injected hang exceeded the 1h backstop")


#: Per-process consumption count for corrupt faults (keyed by spec).
_CORRUPT_FIRED: dict[FaultSpec, int] = {}


def maybe_corrupt_cache(trace_dir: str | Path) -> bool:
    """Corrupt the cached trace at ``trace_dir`` if a corrupt fault is armed.

    Returns True when a file was corrupted.  Consumption is tracked per
    process; with the default ``fork`` start method, workers inherit the
    parent's consumed state, so a plan that fired during the parent's
    trace warm-up does not re-fire in every worker.
    """
    for spec in plan_from_env():
        if spec.kind is not FaultKind.CORRUPT:
            continue
        if spec.target != CACHE_TARGET:
            continue
        fired = _CORRUPT_FIRED.get(spec, 0)
        if spec.count is not None and fired >= spec.count:
            continue
        _CORRUPT_FIRED[spec] = fired + 1
        _FAULTS_FIRED.inc()
        corrupt_trace_dir(trace_dir)
        return True
    return False


def corrupt_trace_dir(trace_dir: str | Path, filename: str = "vms/vm_id.npy") -> Path:
    """Deterministically truncate one file of a saved trace directory.

    The file is cut to half its size, which both breaks its checksum and
    leaves an unparseable tail (a short ``.npy`` column, torn JSON) --
    exactly the shape a torn write or partial download produces.
    """
    target = Path(trace_dir) / filename
    data = target.read_bytes()
    target.write_bytes(data[: max(1, len(data) // 2)])
    return target


def reset_consumed() -> None:
    """Forget per-process corrupt-fault consumption (used by tests)."""
    _CORRUPT_FIRED.clear()


def describe_plan(specs: Iterable[FaultSpec] | None = None) -> list[str]:
    """The armed plan as ``REPRO_FAULT``-syntax strings (for the manifest)."""
    plan = plan_from_env() if specs is None else tuple(specs)
    return [spec.render() for spec in plan]
