"""Cross-backend identity: analyses over mmap'd shards == resident matrices.

The format-v2 acceptance bar is that every analysis reads through the
``TraceStore`` API identically whether the telemetry lives in resident
float32 blocks or in lazily memory-mapped shard files.  These tests run
the paper's hot analyses both ways on the same generated trace and demand
bitwise equality -- not tolerance-based closeness -- since the sharded
backend changes only *where* the bytes live, never their values or the
order they are reduced in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import correlation as corr
from repro.core import utilization as util
from repro.experiments.parallel import REGISTRY
from repro.telemetry.io import load_trace, save_trace
from repro.telemetry.schema import Cloud
from repro.telemetry.shards import ShardRef


@pytest.fixture(scope="module")
def resident_and_sharded(small_trace, tmp_path_factory):
    """The same trace twice: in-memory blocks vs lazily mmap'd v2 shards."""
    directory = tmp_path_factory.mktemp("v2") / "trace"
    save_trace(small_trace, directory)
    sharded = load_trace(directory)
    assert any(isinstance(b, ShardRef) for b in sharded._util_blocks)
    return small_trace, sharded


def test_raw_series_bitwise_equal(resident_and_sharded):
    resident, sharded = resident_and_sharded
    assert resident.vm_ids_with_utilization() == sharded.vm_ids_with_utilization()
    for vm_id in resident.vm_ids_with_utilization()[:50]:
        np.testing.assert_array_equal(
            resident.utilization(vm_id), sharded.utilization(vm_id)
        )


def test_utilization_mean_bitwise_equal(resident_and_sharded):
    resident, sharded = resident_and_sharded
    ids = resident.vm_ids_with_utilization(cloud=Cloud.PRIVATE)
    np.testing.assert_array_equal(
        resident.utilization_mean(ids), sharded.utilization_mean(ids)
    )


def test_weekly_percentiles_bitwise_equal(resident_and_sharded):
    resident, sharded = resident_and_sharded
    for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
        a = util.weekly_percentiles(resident, cloud, max_vms=300)
        b = util.weekly_percentiles(sharded, cloud, max_vms=300)
        assert a.n_series == b.n_series
        np.testing.assert_array_equal(a.bands, b.bands)


def test_node_level_correlation_bitwise_equal(resident_and_sharded, monkeypatch):
    resident, sharded = resident_and_sharded
    monkeypatch.setattr(corr, "MAX_NODES", 40)
    a = corr.node_level_correlation(resident, Cloud.PRIVATE)
    b = corr.node_level_correlation(sharded, Cloud.PRIVATE)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.n_constant_pairs == b.n_constant_pairs


def test_region_level_correlation_bitwise_equal(resident_and_sharded):
    resident, sharded = resident_and_sharded
    a = corr.region_level_correlation(resident, Cloud.PUBLIC)
    b = corr.region_level_correlation(sharded, Cloud.PUBLIC)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.n_constant_pairs == b.n_constant_pairs


def _digest_or_error(task, store) -> str:
    try:
        return task.runner(store).digest()
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize(
    "task", [task for task in REGISTRY if task.uses_shared_trace], ids=lambda t: t.task_id
)
def test_registry_task_digest_equal(resident_and_sharded, task):
    """Every shared-trace task answers the same over resident and loaded telemetry."""
    resident, sharded = resident_and_sharded
    assert _digest_or_error(task, sharded) == _digest_or_error(task, resident)


def test_loaded_rows_are_read_only_plain_arrays(resident_and_sharded):
    _, sharded = resident_and_sharded
    vm_id = sharded.vm_ids_with_utilization()[0]
    row = sharded.utilization(vm_id)
    assert type(row) is np.ndarray
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.5
