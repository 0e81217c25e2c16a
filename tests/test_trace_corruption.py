"""Regression tests: corrupted on-disk traces raise typed errors and heal.

A truncated or torn cache entry used to surface as whatever the parser
tripped over first (``KeyError``, ``EOFError`` ...).  The contract now is
a single typed :class:`TraceCorruptionError` from
``verify_trace_dir``/``load_trace``, and ``fetch_trace`` treating it as a
miss: evict, re-synthesize, re-save.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import cache
from repro.experiments.config import clear_trace_cache
from repro.experiments.faultinject import corrupt_trace_dir
from repro.obs import metrics
from repro.telemetry.io import (
    CHECKSUM_FILE,
    DICTIONARY_FILE,
    TABLES,
    TRACE_FILES,
    TRACE_FORMAT_VERSION,
    TraceCorruptionError,
    is_trace_dir,
    load_trace,
    save_trace,
    verify_trace_dir,
)
from repro.telemetry.schema import Cloud, EventKind, EventRecord
from repro.telemetry.store import TraceStore
from repro.workloads.generator import GeneratorConfig
from tests.test_store import make_vm

SMALL = GeneratorConfig(seed=3, scale=0.05)

#: Everything a fresh (format v3) save writes, sidecar excluded.  Both
#: fixture traces are small enough to pack into a single shard.
ALL_FILES = TRACE_FILES + ("utilization/index.json", "utilization/00000.npy")

#: The files a cache entry is corrupted through: both JSON documents, one
#: column of every table and the telemetry shard and its index.  (Each case
#: synthesizes a trace twice, so the full file set is left to the fast
#: ``TestTypedCorruptionErrors``.)
RECOVERY_FILES = (
    "metadata.json",
    DICTIONARY_FILE,
    *(f"{table}/{dataclasses.fields(record)[0].name}.npy" for table, record in TABLES.items()),
    "utilization/index.json",
    "utilization/00000.npy",
)


def rewrite_file(directory, name, data: bytes) -> None:
    """Replace one file of a saved trace and re-record it in the sidecar.

    The checksum then matches, so only the loader's own checks can reject
    the new payload.
    """
    path = directory / name
    path.write_bytes(data)
    sidecar = directory / CHECKSUM_FILE
    recorded = json.loads(sidecar.read_text())
    recorded["files"][name] = {
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }
    sidecar.write_text(json.dumps(recorded))


def rewrite_format(directory, fmt) -> None:
    """Stamp ``metadata.json`` with another ``format`` (``None`` drops the key)."""
    meta = json.loads((directory / "metadata.json").read_text())
    meta.pop("format")
    if fmt is not None:
        meta["format"] = fmt
    rewrite_file(directory, "metadata.json", json.dumps(meta).encode())


def npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)  # allow_pickle defaults on: object arrays save
    return buffer.getvalue()


@pytest.fixture(autouse=True)
def _isolated_memo():
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture()
def trace_dir(tmp_path):
    """A freshly saved small trace (VMs, events, telemetry, sidecar)."""
    store = TraceStore()
    store.add_vm(make_vm(1, created_at=0.0, ended_at=3600.0))
    store.add_vm(make_vm(2, cloud=Cloud.PUBLIC, created_at=10.0))
    store.add_event(
        EventRecord(3600.0, EventKind.TERMINATE, 1, Cloud.PRIVATE, "us-east")
    )
    store.add_utilization(
        1, np.linspace(0.1, 0.9, store.metadata.n_samples).astype(np.float32)
    )
    directory = tmp_path / "trace"
    save_trace(store, directory)
    return directory


class TestTypedCorruptionErrors:
    @pytest.mark.parametrize("filename", ALL_FILES)
    def test_truncating_any_file_raises_typed_error(self, trace_dir, filename):
        corrupt_trace_dir(trace_dir, filename)
        with pytest.raises(TraceCorruptionError, match=filename):
            verify_trace_dir(trace_dir)
        with pytest.raises(TraceCorruptionError):
            load_trace(trace_dir)
        # The presence-only probe still says "looks like a trace".
        assert is_trace_dir(trace_dir)

    @pytest.mark.parametrize("filename", TRACE_FILES)
    def test_missing_file_is_not_a_trace_dir(self, trace_dir, filename):
        (trace_dir / filename).unlink()
        assert not is_trace_dir(trace_dir)
        with pytest.raises(TraceCorruptionError, match="missing"):
            load_trace(trace_dir)

    def test_empty_json_document_is_corrupt(self, trace_dir):
        (trace_dir / "metadata.json").write_bytes(b"")
        with pytest.raises(TraceCorruptionError, match="empty"):
            verify_trace_dir(trace_dir)

    def test_unreadable_sidecar_is_corrupt(self, trace_dir):
        (trace_dir / CHECKSUM_FILE).write_text("{not json")
        with pytest.raises(TraceCorruptionError, match=CHECKSUM_FILE):
            verify_trace_dir(trace_dir)

    @pytest.mark.parametrize(
        "also_missing", [(), ("utilization/index.json",)], ids=["sidecar", "sidecar+index"]
    )
    def test_missing_sidecar_is_corrupt(self, trace_dir, also_missing):
        """Every format-3 save writes the sidecar last, so only a torn save lacks it.

        Without the sidecar nothing records that ``index.json`` existed: a
        torn save missing both would otherwise load its VMs with no telemetry.
        """
        for name in (CHECKSUM_FILE, *also_missing):
            (trace_dir / name).unlink()
        with pytest.raises(TraceCorruptionError, match=f"missing {CHECKSUM_FILE}"):
            verify_trace_dir(trace_dir)
        with pytest.raises(TraceCorruptionError, match=f"missing {CHECKSUM_FILE}"):
            load_trace(trace_dir)

    @pytest.mark.parametrize("fmt", [1, 2, None, TRACE_FORMAT_VERSION + 1])
    def test_other_format_is_corrupt(self, trace_dir, fmt):
        """Formats 1 (``utilization.npz``) and 2 (JSONL rows) are not read."""
        rewrite_format(trace_dir, fmt)
        verify_trace_dir(trace_dir)
        with pytest.raises(TraceCorruptionError, match=f"has format {fmt!r}"):
            load_trace(trace_dir)

    @pytest.mark.parametrize(
        ("name", "payload"),
        [
            ("vms/created_at.npy", lambda data: data[:-4]),
            ("vms/cores.npy", lambda _: npy_bytes(np.array([4.0, 4.0, 4.0]))),
            ("vms/region.npy", lambda _: npy_bytes(np.array([0, 99], dtype=np.int32))),
            ("vms/region.npy", lambda _: npy_bytes(np.array([-1, 0], dtype=np.int32))),
            ("vms/vm_id.npy", lambda _: npy_bytes(np.array([1, 2], dtype=np.float32))),
            ("vms/vm_id.npy", lambda _: npy_bytes(np.array([[1], [2]]))),
            ("vms/service.npy", lambda _: npy_bytes(np.array(["svc", "svc"], dtype=object))),
            (DICTIONARY_FILE, lambda _: b'[["pickle", "svc"]]'),
            (DICTIONARY_FILE, lambda _: b'{"str": "svc"}'),
        ],
        ids=[
            "truncated-column",
            "uneven-lengths",
            "code-past-dictionary",
            "negative-code",
            "wrong-dtype",
            "two-d-column",
            "object-dtype",
            "unknown-type-tag",
            "dictionary-not-a-list",
        ],
    )
    def test_rotten_column_is_corrupt(self, trace_dir, monkeypatch, name, payload):
        """A checksum-valid column the codec cannot read raises the typed error.

        Never an ``IndexError`` from a dictionary lookup, a silently
        shortened table, or a pickle load of an object array.
        """

        def no_pickle(*args, **kwargs):
            raise AssertionError("load_trace must never unpickle")

        monkeypatch.setattr(pickle, "load", no_pickle)
        monkeypatch.setattr(pickle, "loads", no_pickle)
        rewrite_file(trace_dir, name, payload((trace_dir / name).read_bytes()))
        verify_trace_dir(trace_dir)
        with pytest.raises(TraceCorruptionError):
            load_trace(trace_dir)

    def test_sidecar_records_all_payload_files(self, trace_dir):
        recorded = json.loads((trace_dir / CHECKSUM_FILE).read_text())
        assert recorded["algorithm"] == "sha256"
        assert set(recorded["files"]) == set(ALL_FILES)
        for entry in recorded["files"].values():
            assert set(entry) == {"sha256", "bytes"}


class TestFetchTraceRecovery:
    @pytest.mark.parametrize("filename", RECOVERY_FILES)
    def test_recovers_from_any_corrupted_file(self, tmp_path, filename):
        store, cold = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        corrupt_trace_dir(cold.path, filename)
        before = metrics.REGISTRY.counter_value("cache.corrupt_evicted")

        recovered, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert info.evicted_corrupt
        assert not info.hit
        assert info.source == "generated"
        assert metrics.REGISTRY.counter_value("cache.corrupt_evicted") == before + 1
        assert recovered.summary() == store.summary()

    def test_format_1_entry_is_evicted_and_resynthesized(self, tmp_path):
        store, cold = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        rewrite_format(Path(cold.path), 1)

        recovered, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert info.evicted_corrupt and not info.hit
        assert recovered.summary() == store.summary()
        assert load_trace(cold.path).vm_ids_with_utilization() == (
            store.vm_ids_with_utilization()
        )

    def test_format_2_entry_is_evicted_and_resynthesized(self, tmp_path):
        """An older cache's JSONL entry lacks the column files: evicted, not a crash."""
        store, cold = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        path = Path(cold.path)
        for table in TABLES:
            shutil.rmtree(path / table)
        (path / DICTIONARY_FILE).unlink()
        for name in ("topology.json", "vms.jsonl", "events.jsonl"):
            (path / name).write_text("{}\n")
        rewrite_format(path, 2)

        recovered, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert info.evicted_corrupt and not info.hit
        assert recovered.summary() == store.summary()
        verify_trace_dir(path)
        assert not (path / "vms.jsonl").exists()

    def test_recovery_rewrites_a_valid_entry(self, tmp_path):
        _, cold = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        corrupt_trace_dir(cold.path)
        cache.fetch_trace(SMALL, cache_dir=tmp_path)  # evicts + re-saves
        verify_trace_dir(cold.path)
        _, warm = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert warm.hit and not warm.evicted_corrupt

    def test_clean_entries_never_report_eviction(self, tmp_path):
        cache.fetch_trace(SMALL, cache_dir=tmp_path)
        before = metrics.REGISTRY.counter_value("cache.corrupt_evicted")
        _, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert info.hit and not info.evicted_corrupt
        assert metrics.REGISTRY.counter_value("cache.corrupt_evicted") == before
