"""A minimal deterministic discrete-event simulation engine.

The engine is deliberately tiny: a priority queue of ``(time, seq, action)``
entries with a monotonically increasing sequence number so that events
scheduled for the same instant fire in scheduling order.  Determinism matters
because every experiment in the reproduction must be exactly repeatable from
``(profile, seed)``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

Action = Callable[[], None]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine."""


class Simulator:
    """Event-driven simulator with a floating-point clock (seconds)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Action]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, time: float, action: Action) -> None:
        """Schedule ``action`` to run at absolute ``time``.

        Scheduling into the past is an error: it would silently reorder
        history and break determinism.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}: clock already at {self._now}"
            )
        heapq.heappush(self._queue, (float(time), next(self._sequence), action))

    def schedule_periodic(
        self,
        start: float,
        interval: float,
        action: Callable[[float], None],
        *,
        until: float,
    ) -> None:
        """Run ``action(now)`` every ``interval`` seconds in ``[start, until)``."""
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")

        def fire() -> None:
            action(self._now)
            next_time = self._now + interval
            if next_time < until:
                self.schedule(next_time, fire)

        if start < until:
            self.schedule(start, fire)

    def run(self, until: float | None = None) -> None:
        """Execute events in time order, optionally stopping at ``until``.

        The clock is advanced to ``until`` at the end even if the queue
        drained earlier, so ``now`` reads ``until`` afterwards.
        """
        while self._queue:
            time, _seq, action = self._queue[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self._now = time
            action()
        if until is not None and until > self._now:
            self._now = float(until)
