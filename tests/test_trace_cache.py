"""Tests for the content-addressed trace cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import cache
from repro.experiments.config import ExperimentConfig, clear_trace_cache, get_trace
from repro.telemetry import io as telemetry_io
from repro.telemetry.io import is_trace_dir, load_trace, save_trace_atomic
from repro.workloads.generator import GeneratorConfig

SMALL = GeneratorConfig(seed=3, scale=0.05)


@pytest.fixture(autouse=True)
def _isolated_memo():
    """Keep the in-process memo from leaking between cache tests."""
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestConfigHash:
    def test_deterministic(self):
        assert cache.config_hash(SMALL) == cache.config_hash(GeneratorConfig(seed=3, scale=0.05))

    def test_sensitive_to_seed_and_scale(self):
        base = cache.config_hash(SMALL)
        assert cache.config_hash(GeneratorConfig(seed=4, scale=0.05)) != base
        assert cache.config_hash(GeneratorConfig(seed=3, scale=0.06)) != base

    def test_sensitive_to_every_field(self):
        base = cache.config_hash(SMALL)
        assert cache.config_hash(GeneratorConfig(seed=3, scale=0.05, holiday_week=True)) != base
        assert (
            cache.config_hash(GeneratorConfig(seed=3, scale=0.05, synthesize_utilization=False))
            != base
        )

    def test_sensitive_to_generator_version(self, monkeypatch):
        base = cache.config_hash(SMALL)
        monkeypatch.setattr(cache, "GENERATOR_VERSION", "test-bump")
        assert cache.config_hash(SMALL) != base

    def test_experiment_config_hash_matches(self):
        config = ExperimentConfig(seed=3, scale=0.05)
        assert config.config_hash() == cache.config_hash(config.generator_config())


class TestFetchTrace:
    def test_cold_then_warm(self, tmp_path):
        store, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert not info.hit
        assert info.source == "generated"
        assert is_trace_dir(info.path)

        warm, warm_info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert warm_info.hit
        assert warm_info.source == "disk"
        assert warm_info.key == info.key
        assert len(warm) == len(store)
        assert warm.summary() == store.summary()

    def test_hit_verifies_once(self, tmp_path, monkeypatch):
        """A hit hashes each checksummed payload once (load_trace verifies)."""
        _, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        hashed = []
        file_sha256 = telemetry_io._file_sha256

        def counting_sha256(path):
            hashed.append(path)
            return file_sha256(path)

        monkeypatch.setattr(telemetry_io, "_file_sha256", counting_sha256)
        _, warm_info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert warm_info.hit
        assert hashed and len(hashed) == len(set(hashed))

    def test_round_trip_preserves_utilization(self, tmp_path):
        store, _ = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        warm, _ = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        vm_id = store.vm_ids_with_utilization()[0]
        np.testing.assert_array_equal(warm.utilization(vm_id), store.utilization(vm_id))

    def test_different_configs_do_not_collide(self, tmp_path):
        _, a = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        _, b = cache.fetch_trace(GeneratorConfig(seed=4, scale=0.05), cache_dir=tmp_path)
        assert a.key != b.key
        assert a.path != b.path

    def test_no_cache_bypasses_disk(self, tmp_path):
        cache.fetch_trace(SMALL, cache_dir=tmp_path)
        _, info = cache.fetch_trace(SMALL, cache_dir=tmp_path, use_cache=False)
        assert not info.hit
        assert info.source == "generated"

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "env-root"))
        assert cache.resolve_cache_dir() == tmp_path / "env-root"
        _, info = cache.fetch_trace(SMALL)
        assert str(tmp_path / "env-root") in info.path

    def test_explicit_dir_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "env-root"))
        assert cache.resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"

    def test_no_temp_leftovers(self, tmp_path):
        cache.fetch_trace(SMALL, cache_dir=tmp_path)
        leftovers = [p for p in (tmp_path / "traces").iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_clear_cache(self, tmp_path):
        cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert cache.clear_cache(tmp_path) == 1
        assert cache.clear_cache(tmp_path) == 0
        _, info = cache.fetch_trace(SMALL, cache_dir=tmp_path)
        assert not info.hit


class TestSaveTraceAtomic:
    def test_concurrent_writer_race_keeps_winner(self, tmp_path):
        store, _ = cache.fetch_trace(SMALL, cache_dir=tmp_path, use_cache=False)
        target = tmp_path / "trace"
        save_trace_atomic(store, target)
        # A losing second writer must leave the winner's copy intact.
        save_trace_atomic(store, target)
        assert is_trace_dir(target)
        assert len(load_trace(target)) == len(store)

    def test_failed_save_leaves_no_tmp_residue(self, tmp_path, monkeypatch):
        store, _ = cache.fetch_trace(SMALL, cache_dir=tmp_path, use_cache=False)

        def explode(*args, **kwargs):
            raise OSError("disk full")

        # Patch the internal writer: save_trace_atomic routes through
        # _save_trace so shard refs are only re-pointed after the rename.
        monkeypatch.setattr("repro.telemetry.io._save_trace", explode)
        target = tmp_path / "doomed" / "trace"
        with pytest.raises(OSError, match="disk full"):
            save_trace_atomic(store, target)
        # The staging directory is cleaned up even though the save failed.
        assert not target.exists()
        assert [p for p in target.parent.iterdir() if ".tmp" in p.name] == []

    def test_cleanup_failure_is_counted_not_raised(self, tmp_path, monkeypatch):
        from repro.obs import metrics
        from repro.telemetry import io as telemetry_io

        store, _ = cache.fetch_trace(SMALL, cache_dir=tmp_path, use_cache=False)

        def broken_rmtree(path, **kwargs):
            raise OSError("cleanup denied")

        monkeypatch.setattr(telemetry_io.shutil, "rmtree", broken_rmtree)
        before = metrics.REGISTRY.counter_value("io.tmp_cleanup_failed")
        target = tmp_path / "leaky" / "trace"
        save_trace_atomic(store, target)  # the save itself must still succeed
        assert is_trace_dir(target)
        assert metrics.REGISTRY.counter_value("io.tmp_cleanup_failed") == before + 1


class TestExperimentConfigMemo:
    def test_memoized_within_process(self, tmp_path):
        config = ExperimentConfig(seed=3, scale=0.05)
        first = get_trace(config, cache_dir=tmp_path)
        assert get_trace(config, cache_dir=tmp_path) is first

    def test_clear_trace_cache_forces_refetch(self, tmp_path):
        config = ExperimentConfig(seed=3, scale=0.05)
        first = get_trace(config, cache_dir=tmp_path)
        clear_trace_cache()
        second = get_trace(config, cache_dir=tmp_path)
        assert second is not first
        assert second.summary() == first.summary()
