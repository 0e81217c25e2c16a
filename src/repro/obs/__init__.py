"""Dependency-free observability layer: tracing, metrics, profiling.

The characterization pipeline is itself a system worth characterizing --
the paper's "workload knowledge base" vision (Section V) presumes the
platform can introspect its own tooling.  This package provides the three
primitives the pipeline uses to do that:

* :mod:`repro.obs.tracing` -- nested wall-time (and peak-RSS) **spans**
  via the ``with span("generate.synthesize", vms=n):`` context manager,
  exportable as a flat JSON list;
* :mod:`repro.obs.metrics` -- a process-global **metrics registry** with
  ``Counter("cache.hit")``-style handles plus a snapshot/diff/merge API
  that stays deterministic under ``ProcessPoolExecutor`` fan-out (child
  deltas are merged into the parent in registry order);
* :mod:`repro.obs.profiling` -- an opt-in ``cProfile`` wrapper behind the
  CLI's ``--profile`` flag.

Everything here is pure standard library, safe to import from any layer,
and cheap enough to leave permanently enabled in the hot paths.

See ``docs/OBSERVABILITY.md`` for naming conventions and schemas.
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    REGISTRY,
    diff_snapshots,
)
from repro.obs.profiling import maybe_profile
from repro.obs.tracing import (
    SpanRecord,
    drain_spans,
    export_spans,
    mark,
    reset_spans,
    span,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "REGISTRY",
    "SpanRecord",
    "diff_snapshots",
    "drain_spans",
    "export_spans",
    "mark",
    "maybe_profile",
    "reset_spans",
    "span",
]
