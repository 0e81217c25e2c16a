"""Nested tracing spans with wall-time and peak-RSS deltas.

A *span* measures one named stretch of work::

    from repro.obs import span

    with span("generate.synthesize", vms=n_vms) as record:
        ...
    record.wall_s  # seconds spent inside the block

Spans nest: each record knows its ``parent`` (the span open when it
started) and its ``depth``, so the flat completed-span list exported by
:func:`export_spans` reconstructs the call tree without any nesting in the
serialized form.  The collector is process-global and single-threaded by
design -- the pipeline parallelizes with *processes*, and each worker owns
an independent collector (inherited lists are truncated away by
:func:`drain_spans` using a :func:`mark` taken at task start).

``peak_rss_delta_kb`` is the growth of the process's peak resident set
(``getrusage(RUSAGE_SELF).ru_maxrss``) across the span.  Because
``ru_maxrss`` is a high-water mark, the delta is only non-zero for spans
that pushed the process to a *new* memory peak; it is ``None`` on
platforms without the :mod:`resource` module.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.metrics import check_name

try:  # pragma: no cover - resource exists on every POSIX platform
    import resource

    def peak_rss_kb() -> float | None:
        """Peak resident set size of this process, in kilobytes."""
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes, macOS reports bytes.
        return peak / 1024.0 if sys.platform == "darwin" else float(peak)

except ImportError:  # pragma: no cover - Windows

    def peak_rss_kb() -> float | None:
        return None


@dataclass
class SpanRecord:
    """One (possibly still open) span in the process-global collector."""

    index: int
    parent: int | None
    depth: int
    name: str
    attrs: dict
    wall_s: float = 0.0
    peak_rss_delta_kb: float | None = None
    #: False while the ``with`` block is still executing.
    closed: bool = field(default=False, repr=False)

    def to_dict(self) -> dict:
        """JSON-ready rendering (flat; tree structure via parent/depth)."""
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "wall_s": round(self.wall_s, 6),
            "peak_rss_delta_kb": self.peak_rss_delta_kb,
            "attrs": dict(self.attrs),
        }


#: Completed and in-flight spans, in start order.
_SPANS: list[SpanRecord] = []
#: Indexes of currently open spans (innermost last).
_STACK: list[int] = []
#: Span names already checked against the ``group.name`` convention.
_CHECKED_NAMES: set[str] = set()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[SpanRecord]:
    """Open a named span around a block; attributes are free-form JSON scalars.

    ``name`` must follow the metrics' lowercase dotted ``group.name``
    convention (``ValueError`` otherwise).
    """
    if name not in _CHECKED_NAMES:
        check_name(name)
        _CHECKED_NAMES.add(name)
    record = SpanRecord(
        index=len(_SPANS),
        parent=_STACK[-1] if _STACK else None,
        depth=len(_STACK),
        name=name,
        attrs=attrs,
    )
    _SPANS.append(record)
    _STACK.append(record.index)
    rss0 = peak_rss_kb()
    t0 = time.perf_counter()
    try:
        yield record
    finally:
        record.wall_s = time.perf_counter() - t0
        rss1 = peak_rss_kb()
        if rss0 is not None and rss1 is not None:
            record.peak_rss_delta_kb = max(0.0, rss1 - rss0)
        record.closed = True
        _STACK.pop()


def mark() -> int:
    """Bookmark the collector; pass to :func:`export_spans`/:func:`drain_spans`."""
    return len(_SPANS)


def export_spans(since: int = 0) -> list[dict]:
    """Render spans started at or after ``since`` as a self-contained list.

    Indexes are re-based so the first exported span has ``index`` 0; a
    parent that falls before ``since`` is reported as ``None`` (the
    exported slice is then a forest rather than a single tree).
    """
    out = []
    for record in _SPANS[since:]:
        row = record.to_dict()
        row["index"] -= since
        if row["parent"] is not None:
            row["parent"] = row["parent"] - since if row["parent"] >= since else None
        out.append(row)
    return out


def drain_spans(since: int = 0) -> list[dict]:
    """Like :func:`export_spans`, but also removes the exported spans.

    Callers must only drain spans that have closed (no span started at or
    after ``since`` may still be open); task runners drain their own slice
    so worker processes never re-export spans inherited across ``fork``.
    """
    if any(not record.closed for record in _SPANS[since:]):
        raise RuntimeError("cannot drain spans while one of them is still open")
    out = export_spans(since)
    del _SPANS[since:]
    return out


def reset_spans() -> None:
    """Drop every span (open ones included); intended for tests."""
    _SPANS.clear()
    _STACK.clear()
