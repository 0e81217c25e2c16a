"""Online workload-knowledge-base serving layer (Section V, served live).

The batch :class:`~repro.core.knowledge_base.WorkloadKnowledgeBase` distills
a finished :class:`~repro.telemetry.store.TraceStore`; this package keeps the
same knowledge warm *online*: a long-running asyncio service
(:class:`~repro.serving.service.KnowledgeBaseService`) ingests telemetry
incrementally through a bounded queue, maintains per-subscription and
per-region characterizations via dirty-set refresh, and answers concurrent
queries over a newline-JSON TCP protocol.  Storage lives in
:mod:`repro.serving.backends`, arrival traffic comes from a timed trace
replayer (:mod:`repro.serving.replay`), and sustained QPS / tail latency is
benchmarked and CI-gated by ``bench-serve`` in :mod:`repro.bench`.

The load-bearing invariant, enforced by ``tests/test_serving_equivalence.py``:
at every flush point, :meth:`~repro.serving.service.KnowledgeBaseService.snapshot_json`
is byte-identical to a batch rebuild from a trace truncated at the same
ingest prefix.  Online and batch paths share one record builder
(:func:`~repro.core.knowledge_base.build_subscription_records`), so they
cannot drift.

See ``docs/SERVING.md`` for the protocol, the backend, and the bench
schema/tolerance policy.
"""

from repro.serving.backends import (
    IngestRecord,
    MemoryBackend,
    apply_record,
    copy_topology,
)
from repro.serving.replay import (
    ReplayStats,
    iter_ingest_records,
    replay_trace,
    truncated_store,
)
from repro.serving.service import (
    KnowledgeBaseService,
    ServiceClient,
    ServiceError,
)

__all__ = [
    "IngestRecord",
    "KnowledgeBaseService",
    "MemoryBackend",
    "ReplayStats",
    "ServiceClient",
    "ServiceError",
    "apply_record",
    "copy_topology",
    "iter_ingest_records",
    "replay_trace",
    "truncated_store",
]
