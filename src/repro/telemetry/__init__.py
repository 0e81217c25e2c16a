"""Telemetry substrate: the trace schema and store every analysis consumes.

The paper's dataset (Section II) consists of (a) detailed VM inventory
information (subscription, VM size, placement, ...) and (b) average resource
utilization reported every 5 minutes.  :class:`repro.telemetry.store.TraceStore`
is our equivalent artifact: three logical tables (``vms``, ``events``,
``utilization``) plus topology metadata, with typed records defined in
:mod:`repro.telemetry.schema`.
"""

from repro.telemetry.schema import Cloud, EventKind, EventRecord, VMRecord
from repro.telemetry.store import TraceMetadata, TraceStore
from repro.telemetry.counters import node_utilization
from repro.telemetry.io import TraceCorruptionError, load_trace, save_trace

__all__ = [
    "Cloud",
    "EventKind",
    "EventRecord",
    "TraceCorruptionError",
    "TraceMetadata",
    "TraceStore",
    "VMRecord",
    "load_trace",
    "node_utilization",
    "save_trace",
]
