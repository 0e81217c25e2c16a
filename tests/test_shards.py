"""Unit tests for the sharded utilization backend (repro.telemetry.shards)."""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry import shards
from repro.telemetry.shards import (
    DEFAULT_SHARD_ROWS,
    ShardMmapCache,
    ShardRef,
    ShardSpiller,
    mmap_cache,
    write_shard,
)


def _rows(n, t, *, seed=0):
    return np.random.default_rng(seed).random((n, t)).astype(np.float32)


class TestShardRef:
    def test_open_returns_readonly_view_of_mapping(self, tmp_path):
        data = _rows(5, 7)
        ref = write_shard(tmp_path / "s.npy", data)
        arr = ref.open()
        assert arr.shape == (5, 7)
        np.testing.assert_array_equal(arr, data)
        # A plain ndarray, so row reads and ufuncs skip np.memmap's hooks ...
        assert type(arr) is np.ndarray and type(arr[2]) is np.ndarray
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
        # ... that views the shard's mapping instead of a copy of it.
        assert isinstance(arr.base, np.memmap)
        assert Path(arr.base.filename) == ref.path.resolve()
        assert np.shares_memory(arr, arr.base)

    def test_shape_mismatch_rejected(self, tmp_path):
        ref = write_shard(tmp_path / "s.npy", _rows(5, 7))
        with pytest.raises(ValueError, match="expected float32"):
            ShardRef(ref.path, 4, 7).open()

    def test_dtype_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((2, 3), dtype=np.float64))
        with pytest.raises(ValueError, match="expected float32"):
            ShardRef(path, 2, 3).open()

    def test_pickles_by_path_not_bytes(self, tmp_path):
        data = _rows(64, 64)
        ref = write_shard(tmp_path / "s.npy", data)
        payload = pickle.dumps(ref)
        # The payload carries the path, never the matrix.
        assert len(payload) < data.nbytes
        clone = pickle.loads(payload)
        assert clone.path == ref.path
        np.testing.assert_array_equal(np.asarray(clone.open()), data)

    def test_nbytes(self, tmp_path):
        ref = ShardRef(tmp_path / "x.npy", 3, 5)
        assert ref.nbytes == 3 * 5 * 4


class TestShardMmapCache:
    def test_lru_eviction_bounds_open_mmaps(self, tmp_path):
        cache = ShardMmapCache(capacity=2)
        refs = [write_shard(tmp_path / f"{i}.npy", _rows(2, 3, seed=i)) for i in range(4)]
        for ref in refs:
            cache.get(ref.path, (2, 3))
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_get_is_cached(self, tmp_path):
        cache = ShardMmapCache(capacity=2)
        ref = write_shard(tmp_path / "a.npy", _rows(2, 3))
        assert cache.get(ref.path, (2, 3)) is cache.get(ref.path, (2, 3))

    def test_evicted_shard_reopens_with_same_bytes(self, tmp_path):
        cache = ShardMmapCache(capacity=1)
        data = _rows(3, 4)
        ref = write_shard(tmp_path / "a.npy", data)
        other = write_shard(tmp_path / "b.npy", _rows(3, 4, seed=1))
        cache.get(ref.path, (3, 4))
        cache.get(other.path, (3, 4))  # evicts a.npy
        np.testing.assert_array_equal(np.asarray(cache.get(ref.path, (3, 4))), data)

    def test_eviction_releases_the_evicted_mapping_pages(self, tmp_path, monkeypatch):
        released = []
        release = shards._release_pages

        def recording_release(mapping):
            released.append(mapping)
            release(mapping)

        monkeypatch.setattr(shards, "_release_pages", recording_release)
        cache = ShardMmapCache(capacity=1)
        first = write_shard(tmp_path / "a.npy", _rows(3, 4))
        second = write_shard(tmp_path / "b.npy", _rows(3, 4, seed=1))
        view = cache.get(first.path, (3, 4))
        cache.get(second.path, (3, 4))  # evicts a.npy
        assert len(released) == 1
        mapping = released[0]
        assert isinstance(mapping, np.memmap) and mapping is view.base
        # The mmap object that _release_pages advises MADV_DONTNEED on.
        assert getattr(mapping, "_mmap", None) is not None
        assert Path(mapping.filename) == first.path.resolve()
        cache.release(second.path)
        assert [Path(m.filename) for m in released[1:]] == [second.path.resolve()]

    def test_process_cache_accessor(self):
        assert isinstance(mmap_cache(), ShardMmapCache)


class TestShardSpiller:
    def test_round_trip_matches_dense(self, tmp_path):
        dense = _rows(10, 4)
        spiller = ShardSpiller(tmp_path, 10, 4, shard_rows=4)
        for a, b in spiller.chunk_ranges(0, 10, 3):
            spiller.rows(a, b)[:] = dense[a:b]
            spiller.release_range(a, b)
        refs = spiller.finalize()
        assert [r.n_rows for r in refs] == [4, 4, 2]
        gathered = np.vstack([np.asarray(r.open()) for r in refs])
        np.testing.assert_array_equal(gathered, dense)

    def test_release_range_does_not_truncate(self, tmp_path):
        """Releasing a finished range must never zero already-written rows."""
        dense = _rows(6, 3)
        spiller = ShardSpiller(tmp_path, 6, 3, shard_rows=2)
        spiller.rows(0, 2)[:] = dense[0:2]
        spiller.release_range(0, 2)
        # Writing a later range (and releasing an overlapping one again)
        # must leave the first shard's bytes intact.
        spiller.rows(2, 4)[:] = dense[2:4]
        spiller.release_range(0, 4)
        spiller.rows(4, 6)[:] = dense[4:6]
        refs = spiller.finalize()
        gathered = np.vstack([np.asarray(r.open()) for r in refs])
        np.testing.assert_array_equal(gathered, dense)

    def test_chunk_ranges_never_cross_shards(self, tmp_path):
        spiller = ShardSpiller(tmp_path, 10, 2, shard_rows=4)
        ranges = spiller.chunk_ranges(1, 10, 100)
        assert ranges == [(1, 4), (4, 8), (8, 10)]
        for a, b in ranges:
            assert a // 4 == (b - 1) // 4  # same shard

    def test_rows_rejects_cross_shard_span(self, tmp_path):
        spiller = ShardSpiller(tmp_path, 8, 2, shard_rows=4)
        with pytest.raises(ValueError):
            spiller.rows(2, 6)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            ShardSpiller(tmp_path, 0, 4)

    def test_default_shard_rows_sane(self):
        assert DEFAULT_SHARD_ROWS >= 1
