"""Process-global metrics registry: counters and histograms.

Handles are cheap named views onto one registry::

    from repro.obs import Counter

    _HITS = Counter("cache.hit")      # registers the series
    _HITS.inc()                       # hot-path increment

Each metric name gets exactly one handle per registry: constructing a
second ``Counter``/``Histogram`` for a name already taken
raises ``ValueError``, as does a name outside the lowercase dotted
``group.name`` convention (:data:`NAME_RE`, shared with spans).
Handles are module-level constants, so importing the module that reuses
or misspells a name fails at once -- two modules feeding one series
would make merge deltas ambiguous.

The registry is deliberately *per process*.  The pipeline's worker
processes (one per task attempt, see ``repro.experiments.parallel``) each
accumulate into their own copy --
under the default ``fork`` start method that copy starts pre-seeded with
the parent's totals, so raw values cannot simply be shipped back.  The
supported pattern is **scoped deltas**:

* a worker wraps its task in :class:`MetricsScope`, which snapshots the
  registry on entry and computes the delta on exit (fork-safe: inherited
  totals cancel out);
* the parent merges every task's delta via :meth:`MetricsRegistry.merge`
  *in registry order* (the deterministic task order of
  ``repro.experiments.parallel.REGISTRY``), so the merged totals are a
  pure function of the task set -- identical at any job count.

Counter and histogram merges are additive, and the fixed merge order keeps
even their floating-point sums bit-identical.  Snapshots render with sorted
keys so serialized output is stable too.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Mapping

#: Metric and span names: lowercase dotted ``group.name`` pairs.
NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def check_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` follows :data:`NAME_RE`."""
    if not NAME_RE.match(name):
        raise ValueError(
            f"metric/span name {name!r} does not follow the lowercase dotted "
            "'group.name' convention"
        )

#: Default histogram bucket upper bounds (an implicit +inf overflow bucket
#: is always appended).  Tuned for seconds-scale durations and small counts.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, 60.0)


class MetricsRegistry:
    """One process's metric state; usually accessed via :data:`REGISTRY`."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}
        #: Names claimed by a handle.  Kept apart from the series values,
        #: so :meth:`reset` and :meth:`merge` leave the claims alone.
        self._handles: set[str] = set()

    # ------------------------------------------------------------------
    # primitive operations (handles delegate here)
    # ------------------------------------------------------------------
    def register_handle(self, name: str) -> None:
        """Claim ``name`` for one handle.

        Raises ``ValueError`` on a second claim or on a name outside the
        ``group.name`` convention.
        """
        check_name(name)
        if name in self._handles:
            raise ValueError(
                f"metric {name!r} already has a handle in this registry; "
                "register each metric once, in one module"
            )
        self._handles.add(name)

    def ensure_counter(self, name: str) -> None:
        """Register a counter series at 0 (idempotent)."""
        self._counters.setdefault(name, 0.0)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (creating it if needed)."""
        self._counters[name] = self._counters.get(name, 0.0) + float(amount)

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def ensure_histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> dict:
        """Register a histogram with the given bucket upper bounds."""
        hist = self._histograms.get(name)
        if hist is None:
            clean = tuple(sorted(float(b) for b in bounds))
            hist = {
                "bounds": clean,
                "counts": [0] * (len(clean) + 1),
                "count": 0,
                "sum": 0.0,
            }
            self._histograms[name] = hist
        return hist

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        """Record one sample: bucket ``i`` holds values ``<= bounds[i]``."""
        hist = self.ensure_histogram(name, bounds)
        value = float(value)
        hist["counts"][bisect_left(hist["bounds"], value)] += 1
        hist["count"] += 1
        hist["sum"] += value

    # ------------------------------------------------------------------
    # snapshot / diff / merge / reset
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready deep copy of the current state, keys sorted."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: {
                    "bounds": list(h["bounds"]),
                    "counts": list(h["counts"]),
                    "count": h["count"],
                    "sum": h["sum"],
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, delta: Mapping) -> None:
        """Absorb a snapshot/delta from another process (or scope).

        Counters and histograms add.  Call in a fixed order (registry task
        order) so floating-point sums round the same way on every run.
        """
        for name, value in delta.get("counters", {}).items():
            self.inc(name, value)
        for name, other in delta.get("histograms", {}).items():
            hist = self.ensure_histogram(name, tuple(other["bounds"]))
            if tuple(other["bounds"]) != hist["bounds"]:
                raise ValueError(
                    f"histogram {name!r}: cannot merge mismatched buckets "
                    f"{tuple(other['bounds'])} into {hist['bounds']}"
                )
            for i, count in enumerate(other["counts"]):
                hist["counts"][i] += count
            hist["count"] += other["count"]
            hist["sum"] += other["sum"]

    def reset(self) -> None:
        """Zero every registered series and forget unregistered ones."""
        self._counters.clear()
        self._histograms.clear()


def diff_snapshots(before: Mapping, after: Mapping) -> dict:
    """The metric activity between two snapshots of the *same* registry.

    Returns a snapshot-shaped delta containing only series that changed:
    counter differences and histogram bucket/count/sum
    differences.  Under ``fork`` this cancels out whatever state a worker
    inherited from its parent.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        change = value - before.get("counters", {}).get(name, 0.0)
        if change != 0.0:
            counters[name] = change
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(name)
        if prior is None:
            if hist["count"]:
                histograms[name] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "sum": hist["sum"],
                }
            continue
        if hist["count"] != prior["count"]:
            histograms[name] = {
                "bounds": list(hist["bounds"]),
                "counts": [
                    c - p for c, p in zip(hist["counts"], prior["counts"], strict=True)
                ],
                "count": hist["count"] - prior["count"],
                "sum": hist["sum"] - prior["sum"],
            }
    return {"counters": counters, "histograms": histograms}


#: The process-global registry every handle binds to by default.
REGISTRY = MetricsRegistry()


class Counter:
    """Monotonic counter handle, e.g. ``Counter("cache.hit")``."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: MetricsRegistry | None = None) -> None:
        self.name = name
        self._registry = registry if registry is not None else REGISTRY
        self._registry.register_handle(name)
        self._registry.ensure_counter(name)

    def inc(self, amount: float = 1.0) -> None:
        """Increment by ``amount`` (default 1)."""
        self._registry.inc(self.name, amount)

    @property
    def value(self) -> float:
        """Current value."""
        return self._registry.counter_value(self.name)


class Histogram:
    """Bucketed distribution handle with additive (mergeable) state."""

    __slots__ = ("name", "bounds", "_registry")

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self._registry = registry if registry is not None else REGISTRY
        self._registry.register_handle(name)
        self._registry.ensure_histogram(name, self.bounds)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._registry.observe(self.name, value, self.bounds)


class MetricsScope:
    """Capture the registry delta across a ``with`` block.

    ``scope.delta`` is a snapshot-shaped dict of everything recorded inside
    the block, regardless of what the registry held beforehand -- the
    fork-safe unit that pipeline workers ship back to the parent.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry if registry is not None else REGISTRY
        self.delta: dict = {"counters": {}, "histograms": {}}

    def __enter__(self) -> "MetricsScope":
        self._before = self._registry.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.delta = diff_snapshots(self._before, self._registry.snapshot())
