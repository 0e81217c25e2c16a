"""Content-addressed on-disk cache for generated trace pairs.

Generating the synthetic private+public trace is by far the most expensive
step of the evaluation pipeline, and it is a pure function of
:class:`~repro.workloads.generator.GeneratorConfig`.  This module keys each
generated pair on a stable hash of the config plus
:data:`~repro.workloads.generator.GENERATOR_VERSION` and stores it in the
existing :mod:`repro.telemetry.io` directory format, so a warm second run
(another process, a ``--jobs`` worker, a CI job with a restored cache)
skips synthesis entirely and pays only the deserialization cost.

Layout::

    <cache-dir>/traces/<config-hash>/   # one save_trace() directory per key

:func:`get_trace` puts a per-process memo in front of it, so the tasks of
one run share one store.

The cache root resolves, in order, to the explicit ``cache_dir`` argument,
the ``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro``.
Writes are atomic (temp directory + rename) so concurrent writers of the
same key are safe.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

from repro.obs import Counter, span
from repro.experiments import faultinject
from repro.telemetry.io import (
    TraceCorruptionError,
    load_trace,
    save_trace_atomic,
)
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_WEEK
from repro.workloads.generator import GENERATOR_VERSION, GeneratorConfig, generate_trace_pair

#: Environment variable overriding the default cache root.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_HITS = Counter("cache.hit")
_MISSES = Counter("cache.miss")
_WRITES = Counter("cache.write")
_CORRUPT_EVICTED = Counter("cache.corrupt_evicted")


def resolve_cache_dir(cache_dir: str | Path | None = None) -> Path:
    """The cache root: explicit argument > ``$REPRO_CACHE_DIR`` > ``~/.cache/repro``."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


#: Former :class:`GeneratorConfig` fields, at the one value every trace
#: used.  They stay in the key so that no cache key moved when they went.
RETIRED_KEY_FIELDS: dict[str, object] = {
    "duration": SECONDS_PER_WEEK,
    "synthesize_utilization": True,
    "placement_policy": "spread",
}


#: Above this ``GeneratorConfig.scale``, :func:`fetch_trace` synthesizes
#: telemetry straight into on-disk v3 shards instead of resident matrices.
#: At scale 8 the utilization matrices alone are ~1.3 GB; spilling keeps
#: peak RSS bounded by the shard chunk size while producing bit-identical
#: values (so the cache key is unaffected).
SPILL_SCALE_THRESHOLD = 8.0


def _should_spill(config: GeneratorConfig, spill: "bool | None") -> bool:
    """Resolve the spill decision: explicit flag wins, else scale threshold."""
    if spill is not None:
        return spill
    return config.scale > SPILL_SCALE_THRESHOLD


def config_hash(config: GeneratorConfig) -> str:
    """A stable content hash of ``config`` plus the generator version.

    Every dataclass field of ``config`` enters the key, so a new field
    changes it by construction, next to :data:`RETIRED_KEY_FIELDS`.
    """
    payload: dict[str, object] = {"generator_version": GENERATOR_VERSION, **RETIRED_KEY_FIELDS}
    for field in dataclasses.fields(config):
        payload[field.name] = getattr(config, field.name)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:20]


def trace_cache_path(
    config: GeneratorConfig, cache_dir: str | Path | None = None
) -> Path:
    """Where the trace pair for ``config`` lives (whether or not it exists yet)."""
    return resolve_cache_dir(cache_dir) / "traces" / config_hash(config)


@dataclass(frozen=True)
class TraceCacheInfo:
    """Provenance of one trace fetch, recorded in the run manifest."""

    key: str
    path: str
    #: True when the trace was served from the on-disk cache (synthesis skipped).
    hit: bool
    #: ``"disk"`` for a cache hit, ``"generated"`` for a fresh synthesis.
    source: str
    #: True when a corrupt cached entry was evicted before this fetch
    #: (the trace was then re-synthesized).
    evicted_corrupt: bool = False

    def to_dict(self) -> dict:
        """JSON-ready rendering for the manifest."""
        return {
            "key": self.key,
            "path": self.path,
            "hit": self.hit,
            "source": self.source,
            "evicted_corrupt": self.evicted_corrupt,
        }


def fetch_trace(
    config: GeneratorConfig,
    *,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    spill: "bool | None" = None,
) -> tuple[TraceStore, TraceCacheInfo]:
    """Return the trace pair for ``config`` and where it came from.

    A cached entry is integrity-checked once, by :func:`load_trace`;
    truncated, torn or checksum-mismatched entries are evicted (counted on
    ``cache.corrupt_evicted``) and the trace falls back to re-synthesis,
    so a torn write or disk fault degrades a run to a cache miss instead
    of aborting it.  On a miss the pair is generated and, unless
    ``use_cache`` is false, stored atomically for the next run.

    ``spill`` controls shard-spilled synthesis on a miss: ``True``/``False``
    force it, ``None`` (default) turns it on above
    :data:`SPILL_SCALE_THRESHOLD`.  Spill scratch lives under the cache
    root (same filesystem, so the save hard-links shards instead of
    rewriting them) and is deleted once the saved trace owns the shards;
    with ``use_cache=False`` it is kept alive until the store is garbage
    collected.  Spilling never changes the trace bytes or the cache key.
    """
    key = config_hash(config)
    path = trace_cache_path(config, cache_dir)
    evicted_corrupt = False
    if use_cache and path.exists():
        # Test/CI seam: an armed REPRO_FAULT=cache:corrupt truncates the
        # entry here, exercising the eviction path below deterministically.
        faultinject.maybe_corrupt_cache(path)
        try:
            # load_trace verifies the entry (once) before parsing it.
            with span("cache.load", key=key):
                store = load_trace(path)
        except TraceCorruptionError as exc:
            evicted_corrupt = True
            _CORRUPT_EVICTED.inc()
            with span("cache.corrupt_evicted", key=key, error=str(exc)[:300]):
                shutil.rmtree(path, ignore_errors=True)
        else:
            _HITS.inc()
            return store, TraceCacheInfo(key, str(path), hit=True, source="disk")
    _MISSES.inc()
    spill_dir: Path | None = None
    if _should_spill(config, spill):
        scratch_root = resolve_cache_dir(cache_dir) / "tmp"
        scratch_root.mkdir(parents=True, exist_ok=True)
        spill_dir = Path(tempfile.mkdtemp(prefix=f"spill-{key}-", dir=scratch_root))
    with span("cache.synthesize", key=key, spilled=spill_dir is not None):
        store = generate_trace_pair(
            config, spill_dir=str(spill_dir) if spill_dir is not None else None
        )
    if use_cache:
        with span("cache.save", key=key):
            save_trace_atomic(store, path)
        _WRITES.inc()
        if spill_dir is not None:
            # The save hard-linked (or copied) every live shard into the
            # trace directory and re-pointed the store's refs there, so
            # the scratch tree is dead weight now.
            shutil.rmtree(spill_dir, ignore_errors=True)
    elif spill_dir is not None:
        # No saved copy owns the shards; keep the scratch tree until the
        # store (the only thing referencing it) is collected.
        weakref.finalize(store, shutil.rmtree, str(spill_dir), ignore_errors=True)
    return store, TraceCacheInfo(
        key, str(path), hit=False, source="generated", evicted_corrupt=evicted_corrupt
    )


#: Per-process memo in front of the disk cache: one store per config.
_TRACES: dict[GeneratorConfig, TraceStore] = {}


def get_trace(
    config: GeneratorConfig,
    *,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> TraceStore:
    """The shared trace for ``config``, fetched at most once per process.

    Experiments share one trace per config: this memo serves repeat calls
    within one run, and :func:`fetch_trace`'s disk cache lets a warm second
    process (or a spawned ``--jobs`` worker) skip synthesis too.
    """
    store = _TRACES.get(config)
    if store is None:
        store = _TRACES[config] = fetch_trace(
            config, cache_dir=cache_dir, use_cache=use_cache
        )[0]
    return store


def prime_trace(config: GeneratorConfig, store: TraceStore) -> None:
    """Install ``store`` as the memoized trace for ``config``.

    The pipeline runner calls :func:`fetch_trace` itself (to learn hit/miss
    for the manifest) and primes the memo so its tasks reuse that object.
    """
    _TRACES[config] = store


def clear_trace_cache() -> None:
    """Drop memoized traces (used by tests to bound memory)."""
    _TRACES.clear()
