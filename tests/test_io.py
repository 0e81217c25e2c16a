"""Round-trip tests for trace serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.telemetry.io import load_trace, save_trace
from repro.telemetry.schema import (
    Cloud,
    ClusterInfo,
    EventKind,
    EventRecord,
    NodeInfo,
    RegionInfo,
    SubscriptionInfo,
)
from repro.telemetry.store import TraceStore
from tests.test_store import make_vm


@pytest.fixture()
def populated_store():
    store = TraceStore()
    store.add_region(RegionInfo(name="us-east", tz_offset_hours=-5, country="US"))
    store.add_cluster(
        ClusterInfo(cluster_id=1, region="us-east", cloud=Cloud.PRIVATE,
                    n_nodes=2, node_capacity_cores=96, node_capacity_memory_gb=768)
    )
    store.add_node(
        NodeInfo(node_id=3, cluster_id=1, rack_id=2, region="us-east",
                 cloud=Cloud.PRIVATE, capacity_cores=96, capacity_memory_gb=768)
    )
    store.add_subscription(
        SubscriptionInfo(subscription_id=10, cloud=Cloud.PRIVATE, service="svc",
                         party="first", regions=("us-east",))
    )
    store.add_vm(make_vm(1, created_at=-50.0))  # censored
    store.add_vm(make_vm(2, created_at=0.0, ended_at=3600.0, cloud=Cloud.PUBLIC))
    store.add_event(EventRecord(3600.0, EventKind.TERMINATE, 2, Cloud.PUBLIC, "us-east"))
    store.add_utilization(
        1, np.linspace(0, 1, store.metadata.n_samples).astype(np.float32)
    )
    return store


def test_round_trip(populated_store, tmp_path):
    save_trace(populated_store, tmp_path / "trace")
    loaded = load_trace(tmp_path / "trace")

    assert len(loaded) == len(populated_store)
    vm1 = loaded.vm(1)
    assert vm1.ended_at == float("inf")
    assert vm1.created_at == -50.0
    assert vm1.cloud is Cloud.PRIVATE
    vm2 = loaded.vm(2)
    assert vm2.completed
    assert vm2.cloud is Cloud.PUBLIC

    events = loaded.events()
    assert len(events) == 1
    assert events[0].kind is EventKind.TERMINATE

    assert loaded.regions["us-east"].tz_offset_hours == -5
    assert loaded.clusters[1].n_nodes == 2
    assert loaded.nodes[3].rack_id == 2
    assert loaded.subscriptions[10].regions == ("us-east",)

    np.testing.assert_array_almost_equal(
        loaded.utilization(1), populated_store.utilization(1)
    )
    assert loaded.metadata.duration == populated_store.metadata.duration


def test_round_trip_preserves_summary(populated_store, tmp_path):
    save_trace(populated_store, tmp_path / "t")
    loaded = load_trace(tmp_path / "t")
    assert loaded.summary() == populated_store.summary()


def test_save_creates_directory(populated_store, tmp_path):
    target = tmp_path / "deep" / "nested" / "dir"
    save_trace(populated_store, target)
    assert (target / "vms" / "vm_id.npy").exists()
    # A sharded utilization directory.
    assert (target / "utilization" / "index.json").exists()
    assert list((target / "utilization").glob("*.npy"))


def test_empty_store_round_trip(tmp_path):
    store = TraceStore()
    save_trace(store, tmp_path / "empty")
    loaded = load_trace(tmp_path / "empty")
    assert len(loaded) == 0
    assert loaded.events() == []


def test_generated_trace_round_trip(small_trace, tmp_path):
    """The real generator output survives a full round trip."""
    save_trace(small_trace, tmp_path / "gen")
    loaded = load_trace(tmp_path / "gen")
    assert len(loaded) == len(small_trace)
    assert loaded.summary() == small_trace.summary()
    # Spot-check one VM with telemetry.
    vm_id = small_trace.vm_ids_with_utilization()[0]
    np.testing.assert_array_equal(
        loaded.utilization(vm_id), small_trace.utilization(vm_id)
    )


# ----------------------------------------------------------------------
# property-based round trips (hypothesis optional, stdlib fallback)
# ----------------------------------------------------------------------
from tests.proputil import HAVE_HYPOTHESIS, given, seeded_rngs, settings, st  # noqa: E402


def _assert_vm_round_trip(store: TraceStore, directory) -> None:
    """The property both generators exercise: save/load is the identity."""
    save_trace(store, directory)
    loaded = load_trace(directory)
    assert len(loaded) == len(store)
    for vm in store.vms():
        other = loaded.vm(vm.vm_id)
        assert other == vm


if HAVE_HYPOTHESIS:
    finite_time = st.floats(min_value=-1e6, max_value=604800.0, allow_nan=False)

    @st.composite
    def vm_rows(draw, vm_id):
        created = draw(finite_time)
        censored = draw(st.booleans())
        if censored:
            ended = float("inf")
        else:
            ended = created + draw(st.floats(min_value=1.0, max_value=1e6))
        return make_vm(
            vm_id,
            cloud=draw(st.sampled_from([Cloud.PRIVATE, Cloud.PUBLIC])),
            region=draw(st.sampled_from(["us-east", "eu-west"])),
            cores=float(draw(st.sampled_from([1, 2, 4, 8, 64]))),
            created_at=created,
            ended_at=ended,
            pattern=draw(st.sampled_from(["", "diurnal", "stable"])),
            offering=draw(st.sampled_from(["iaas", "paas", "saas"])),
        )

    @given(st.data(), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip_vm_rows(tmp_path_factory, data, n_vms):
        store = TraceStore()
        for vm_id in range(n_vms):
            store.add_vm(data.draw(vm_rows(vm_id)))
        _assert_vm_round_trip(store, tmp_path_factory.mktemp("prop_trace"))

else:

    def _random_vm(rng, vm_id):
        created = rng.uniform(-1e6, 604800.0)
        if rng.random() < 0.5:
            ended = float("inf")
        else:
            ended = created + rng.uniform(1.0, 1e6)
        return make_vm(
            vm_id,
            cloud=rng.choice([Cloud.PRIVATE, Cloud.PUBLIC]),
            region=rng.choice(["us-east", "eu-west"]),
            cores=float(rng.choice([1, 2, 4, 8, 64])),
            created_at=created,
            ended_at=ended,
            pattern=rng.choice(["", "diurnal", "stable"]),
            offering=rng.choice(["iaas", "paas", "saas"]),
        )

    @pytest.mark.parametrize("case", range(len(seeded_rngs(25))))
    def test_property_round_trip_vm_rows(tmp_path_factory, case):
        rng = seeded_rngs(25)[case]
        store = TraceStore()
        for vm_id in range(rng.randint(1, 12)):
            store.add_vm(_random_vm(rng, vm_id))
        _assert_vm_round_trip(store, tmp_path_factory.mktemp("prop_trace"))


# ----------------------------------------------------------------------
# sharded utilization
# ----------------------------------------------------------------------
from repro.telemetry.io import save_trace_atomic, verify_trace_dir  # noqa: E402
from repro.telemetry.shards import ShardRef, mmap_cache  # noqa: E402
from repro.telemetry.store import TraceStore as _TraceStore  # noqa: E402


def test_v2_load_is_lazy(populated_store, tmp_path):
    """Loading a trace attaches shards by path without reading them."""
    save_trace(populated_store, tmp_path / "v2")
    mmap_cache().clear()
    loaded = load_trace(tmp_path / "v2")
    assert loaded._util_blocks
    assert all(isinstance(b, ShardRef) for b in loaded._util_blocks)
    # Nothing mapped yet: the load itself read only the index.
    assert len(mmap_cache()) == 0
    np.testing.assert_array_equal(
        loaded.utilization(1), populated_store.utilization(1)
    )
    assert len(mmap_cache()) > 0


def test_v2_values_bit_identical_to_v1(small_trace, tmp_path):
    """The sharded layout round-trips every series bit for bit."""
    save_trace(small_trace, tmp_path / "v2")
    loaded = load_trace(tmp_path / "v2")
    assert loaded.vm_ids_with_utilization() == small_trace.vm_ids_with_utilization()
    for vm_id in small_trace.vm_ids_with_utilization():
        np.testing.assert_array_equal(
            loaded.utilization(vm_id), small_trace.utilization(vm_id)
        )


def test_v2_shallow_verify_catches_size_change(populated_store, tmp_path):
    from repro.telemetry.io import TraceCorruptionError

    target = tmp_path / "t"
    save_trace(populated_store, target)
    shard = next((target / "utilization").glob("*.npy"))
    shard.write_bytes(shard.read_bytes()[:-8])  # truncate
    with pytest.raises(TraceCorruptionError):
        verify_trace_dir(target)


def test_v2_deep_verify_catches_bit_flip(populated_store, tmp_path):
    """Same-size corruption passes the shallow check but fails deep=True."""
    from repro.telemetry.io import TraceCorruptionError

    target = tmp_path / "t"
    save_trace(populated_store, target)
    shard = next((target / "utilization").glob("*.npy"))
    payload = bytearray(shard.read_bytes())
    payload[-1] ^= 0xFF
    shard.write_bytes(bytes(payload))
    verify_trace_dir(target)  # shallow: size unchanged, passes
    with pytest.raises(TraceCorruptionError):
        verify_trace_dir(target, deep=True)


def test_v2_save_adopts_spilled_shards_by_hardlink(tmp_path):
    """Saving a store whose blocks are already shards links, not rewrites."""
    import os

    from repro.telemetry.shards import write_shard
    from tests.test_store import make_vm as _mk

    store = _TraceStore()
    n = store.metadata.n_samples
    for vm_id in (1, 2):
        store.add_vm(_mk(vm_id))
    spill = tmp_path / "spill"
    spill.mkdir()
    ref = write_shard(
        spill / "x.npy", np.full((2, n), 0.5, dtype=np.float32)
    )
    store.add_utilization_shard([1, 2], ref)
    target = tmp_path / "trace"
    save_trace(store, target)
    adopted = next((target / "utilization").glob("*-x.npy"))
    assert os.stat(adopted).st_ino == os.stat(spill / "x.npy").st_ino
    # The store's ref now points into the saved trace, so the spill
    # directory can be deleted without breaking reads.
    assert store._util_blocks[0].path == adopted
    import shutil

    shutil.rmtree(spill)
    assert float(store.utilization(1)[0]) == np.float32(0.5)


def test_v2_atomic_save_round_trip(populated_store, tmp_path):
    target = tmp_path / "atomic"
    save_trace_atomic(populated_store, target)
    loaded = load_trace(target)
    assert loaded.summary() == populated_store.summary()
    np.testing.assert_array_equal(
        loaded.utilization(1), populated_store.utilization(1)
    )


# ----------------------------------------------------------------------
# exact row identity through the column codec
# ----------------------------------------------------------------------
import dataclasses  # noqa: E402

from repro.telemetry.io import CHECKSUM_FILE, TABLES  # noqa: E402


def _table_reprs(store: TraceStore) -> dict[str, list[str]]:
    """Every table's rows as ``repr(astuple(row))`` (values and types), in table order."""
    rows = {
        "regions": store.regions.values(),
        "clusters": store.clusters.values(),
        "nodes": store.nodes.values(),
        "subscriptions": store.subscriptions.values(),
        "vms": store.vms(),
        "events": store.events(),
    }
    assert set(rows) == set(TABLES)
    return {table: [repr(dataclasses.astuple(row)) for row in rows[table]] for table in rows}


def _assert_rows_identical(store: TraceStore, directory) -> TraceStore:
    save_trace(store, directory)
    loaded = load_trace(directory)
    assert _table_reprs(loaded) == _table_reprs(store)
    return loaded


def _awkward_store() -> TraceStore:
    """Every value shape the codec must keep exactly."""
    store = TraceStore()
    store.add_region(RegionInfo(name="são-paulo", tz_offset_hours=-3, country="BR"))
    store.add_region(RegionInfo(name="us-east", tz_offset_hours=-5.5, renewable_score=1))
    store.add_cluster(ClusterInfo(1, "são-paulo", Cloud.PUBLIC, 2, 96, 768.0))
    store.add_node(NodeInfo(3, 1, 2, "são-paulo", Cloud.PUBLIC, 96.0, 768))
    store.add_subscription(SubscriptionInfo(10, Cloud.PUBLIC, "サービス", regions=()))
    store.add_subscription(
        SubscriptionInfo(11, Cloud.PRIVATE, "svc", "first", ("us-east", "são-paulo"))
    )
    # int and float sizes share one column; "" patterns; -inf..inf times.
    store.add_vm(make_vm(1, region="são-paulo", service="サービス", cores=2, memory_gb=8,
                         created_at=-50.0, pattern=""))
    store.add_vm(make_vm(2, cores=2.0, memory_gb=3.5, ended_at=3600.0))
    store.add_vm(make_vm(3, cores=0.5, memory_gb=8, created_at=-1, ended_at=7200))
    store.add_event(EventRecord(0.0, EventKind.CREATE, 2, Cloud.PRIVATE, "us-east"))
    store.add_event(
        EventRecord(10.0, EventKind.ALLOCATION_FAILURE, -1, Cloud.PUBLIC, "são-paulo",
                    detail="no capacity ⚠")
    )
    store.add_event(EventRecord(5, EventKind.TERMINATE, 3, Cloud.PRIVATE, "us-east"))
    return store


def test_small_trace_rows_identical(small_trace, tmp_path):
    _assert_rows_identical(small_trace, tmp_path / "t")


def test_awkward_values_keep_value_and_type(tmp_path):
    loaded = _assert_rows_identical(_awkward_store(), tmp_path / "t")
    assert [type(vm.cores) for vm in loaded.vms()] == [int, float, float]
    assert loaded.vm(1).ended_at == float("inf")
    assert loaded.subscriptions[10].regions == ()
    assert loaded.events()[0].detail == ""
    assert loaded.events(kind=EventKind.ALLOCATION_FAILURE)[0].vm_id == -1


@pytest.mark.parametrize("drop", ["vms", "events", "topology"])
def test_partial_stores_round_trip(tmp_path, drop):
    store = _awkward_store()
    if drop == "vms":
        store._vms.clear()
    elif drop == "events":
        store._events.clear()
    else:
        for table in (store.regions, store.clusters, store.nodes, store.subscriptions):
            table.clear()
    _assert_rows_identical(store, tmp_path / "t")


def test_numpy_floats_load_as_python_floats(tmp_path):
    store = TraceStore()
    store.add_vm(make_vm(1, cores=np.float64(2.0), created_at=np.float64(-1.5)))
    store.add_vm(make_vm(2, cores=4, memory_gb=np.float64(3.5)))
    save_trace(store, tmp_path / "t")
    loaded = load_trace(tmp_path / "t")
    assert repr(dataclasses.astuple(loaded.vm(1))[9:13]) == "(2.0, 16.0, -1.5, inf)"
    assert repr(dataclasses.astuple(loaded.vm(2))[9:11]) == "(4, 3.5)"


def test_loaded_event_order_check(tmp_path):
    """The loader's one-pass order check compares kinds by value, not by code."""
    from tests.test_trace_corruption import npy_bytes, rewrite_file

    store = TraceStore()
    for time, kind, vm_id in [
        (0.0, EventKind.TERMINATE, 1),  # TERMINATE takes the smaller code
        (1.0, EventKind.CREATE, 2),
        (1.0, EventKind.TERMINATE, 3),
        (1.0, EventKind.TERMINATE, 4),
    ]:
        store.add_event(EventRecord(time, kind, vm_id, Cloud.PRIVATE, "us-east"))
    directory = tmp_path / "t"
    save_trace(store, directory)
    assert load_trace(directory)._events_sorted
    # Out of order on the last key only.
    rewrite_file(directory, "events/vm_id.npy", npy_bytes(np.array([1, 2, 4, 3])))
    loaded = load_trace(directory)
    assert not loaded._events_sorted
    assert [e.vm_id for e in loaded.events()] == [1, 2, 3, 4]


def test_add_events_keys_the_seam(populated_store):
    """Bulk events that start before the last stored one unset the order flag."""
    populated_store.add_events(
        [EventRecord(4000.0, EventKind.CREATE, 9, Cloud.PRIVATE, "us-east")], ordered=True
    )
    assert populated_store._events_sorted
    populated_store.add_events(
        [EventRecord(1.0, EventKind.CREATE, 8, Cloud.PRIVATE, "us-east")], ordered=True
    )
    assert not populated_store._events_sorted
    assert [e.time for e in populated_store.events()] == [1.0, 3600.0, 4000.0]


def test_saving_twice_is_byte_identical(small_trace, tmp_path):
    save_trace(small_trace, tmp_path / "a")
    save_trace(small_trace, tmp_path / "b")
    first = (tmp_path / "a" / CHECKSUM_FILE).read_bytes()
    assert first == (tmp_path / "b" / CHECKSUM_FILE).read_bytes()


def test_save_refuses_a_non_empty_directory(populated_store, tmp_path):
    target = tmp_path / "old"
    target.mkdir()
    (target / "vms.jsonl").write_text("{}\n")  # left by a format-2 trace
    with pytest.raises(FileExistsError, match="not empty"):
        save_trace(populated_store, target)
    assert [path.name for path in target.iterdir()] == ["vms.jsonl"]  # nothing written


def test_sidecar_lists_exactly_the_saved_files(populated_store, tmp_path):
    target = tmp_path / "fresh"
    target.mkdir()  # an existing empty directory is fine
    save_trace(populated_store, target)
    listed = set(json.loads((target / CHECKSUM_FILE).read_text())["files"])
    on_disk = {path.relative_to(target).as_posix() for path in target.rglob("*")}
    assert listed == {name for name in on_disk if (target / name).is_file()} - {CHECKSUM_FILE}
