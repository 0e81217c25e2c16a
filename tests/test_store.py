"""Unit tests for the trace store and schema."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.telemetry.schema import (
    Cloud,
    ClusterInfo,
    EventKind,
    EventRecord,
    NodeInfo,
    RegionInfo,
    SubscriptionInfo,
    VMRecord,
)
from repro.telemetry.shards import write_shard
from repro.telemetry import store as store_module
from repro.telemetry.store import TraceMetadata, TraceStore


def make_vm(vm_id=1, *, cloud=Cloud.PRIVATE, region="us-east", **overrides) -> VMRecord:
    defaults = dict(
        vm_id=vm_id,
        subscription_id=10,
        deployment_id=20,
        service="svc",
        cloud=cloud,
        region=region,
        cluster_id=0,
        rack_id=0,
        node_id=0,
        cores=4.0,
        memory_gb=16.0,
        created_at=0.0,
        ended_at=float("inf"),
        pattern="stable",
    )
    defaults.update(overrides)
    return VMRecord(**defaults)


class TestVMRecord:
    def test_lifetime(self):
        vm = make_vm(created_at=100.0, ended_at=400.0)
        assert vm.lifetime == 300.0
        assert vm.completed

    def test_censored(self):
        vm = make_vm()
        assert not vm.completed
        assert vm.lifetime == float("inf")

    @pytest.mark.parametrize(
        "created_at, ended_at, new_end",
        [
            (0.0, float("inf"), 500.0),  # closing a censored row
            (-3600.0, 7200.0, float("inf")),  # censoring a pre-window row
            (-0.5, float("inf"), float("inf")),
            (10.0, 20.0, 20.0),
        ],
    )
    def test_with_end_equals_replace(self, created_at, ended_at, new_end):
        vm = make_vm(
            7, cloud=Cloud.PUBLIC, created_at=created_at, ended_at=ended_at,
            pattern="diurnal", offering="paas",
        )
        built, replaced = vm.with_end(new_end), dataclasses.replace(vm, ended_at=new_end)
        assert type(built) is VMRecord
        for field in dataclasses.fields(VMRecord):
            a, b = getattr(built, field.name), getattr(replaced, field.name)
            assert (a, type(a)) == (b, type(b)), field.name
        assert built == replaced


class TestTraceStore:
    def test_add_and_get_vm(self):
        store = TraceStore()
        store.add_vm(make_vm(1))
        assert 1 in store
        assert len(store) == 1
        assert store.vm(1).cores == 4.0

    def test_duplicate_vm_rejected(self):
        store = TraceStore()
        store.add_vm(make_vm(1))
        with pytest.raises(ValueError):
            store.add_vm(make_vm(1))

    def test_add_vm_with_series(self):
        store = TraceStore()
        n = store.metadata.n_samples
        series = np.linspace(0.0, 1.0, n).astype(np.float32)
        store.add_vm(make_vm(1), series)
        np.testing.assert_array_equal(store.utilization(1), series)
        for bad in (series[:3], series + 1.0):
            with pytest.raises(ValueError):
                store.add_vm(make_vm(2), bad)
            assert 2 not in store and not store.has_utilization(2)

    def test_finalize_vm(self):
        store = TraceStore()
        store.add_vm(make_vm(1, created_at=50.0))
        closed = store.finalize_vm(1, 500.0)
        assert closed is store.vm(1)
        assert store.vm(1).ended_at == 500.0
        assert store.vm(1).completed

    def test_finalize_before_creation_rejected(self):
        store = TraceStore()
        store.add_vm(make_vm(1, created_at=100.0))
        with pytest.raises(ValueError):
            store.finalize_vm(1, 50.0)

    def test_vm_filters(self):
        store = TraceStore()
        store.add_vm(make_vm(1, cloud=Cloud.PRIVATE, region="a"))
        store.add_vm(make_vm(2, cloud=Cloud.PUBLIC, region="a"))
        store.add_vm(make_vm(3, cloud=Cloud.PUBLIC, region="b", ended_at=10.0))
        assert len(store.vms(cloud=Cloud.PUBLIC)) == 2
        assert len(store.vms(region="a")) == 2

    def test_events_sorted_lazily(self):
        store = TraceStore()
        store.add_vm(make_vm(1))
        store.add_event(EventRecord(10.0, EventKind.CREATE, 1, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(5.0, EventKind.CREATE, 1, Cloud.PRIVATE, "a"))
        times = [e.time for e in store.events()]
        assert times == [5.0, 10.0]

    def test_event_filters(self):
        store = TraceStore()
        store.add_event(EventRecord(1.0, EventKind.CREATE, 1, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(2.0, EventKind.TERMINATE, 1, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(3.0, EventKind.CREATE, 2, Cloud.PUBLIC, "b"))
        assert len(store.events(kind=EventKind.CREATE)) == 2
        assert len(store.events(cloud=Cloud.PUBLIC)) == 1
        assert list(store.event_times(EventKind.CREATE, region="a")) == [1.0]

    def test_utilization_validation(self):
        store = TraceStore(TraceMetadata())
        store.add_vm(make_vm(1))
        n = store.metadata.n_samples
        with pytest.raises(KeyError):
            store.add_utilization(99, np.zeros(n))
        with pytest.raises(ValueError):
            store.add_utilization(1, np.zeros(n - 1))
        with pytest.raises(ValueError):
            store.add_utilization(1, np.full(n, 2.0))
        store.add_utilization(1, np.full(n, 0.5, dtype=np.float32))
        assert store.has_utilization(1)
        assert store.utilization(1).dtype == np.float32

    def test_utilization_matrix(self):
        store = TraceStore()
        n = store.metadata.n_samples
        for vm_id in (1, 2):
            store.add_vm(make_vm(vm_id))
            store.add_utilization(vm_id, np.full(n, 0.1 * vm_id))
        matrix = store.utilization_matrix([1, 2])
        assert matrix.shape == (2, n)
        with pytest.raises(KeyError):
            store.utilization_matrix([3])

    def test_vm_ids_with_utilization_filtered_by_cloud(self):
        store = TraceStore()
        n = store.metadata.n_samples
        store.add_vm(make_vm(1, cloud=Cloud.PRIVATE))
        store.add_vm(make_vm(2, cloud=Cloud.PUBLIC))
        store.add_utilization(1, np.zeros(n))
        store.add_utilization(2, np.zeros(n))
        assert store.vm_ids_with_utilization(cloud=Cloud.PRIVATE) == [1]

    def test_groupings(self):
        store = TraceStore()
        store.add_vm(make_vm(1, node_id=5, subscription_id=100))
        store.add_vm(make_vm(2, node_id=5, subscription_id=200))
        store.add_vm(make_vm(3, node_id=6, subscription_id=100))
        assert len(store.vms_by_node()[5]) == 2
        assert len(store.vms_by_subscription()[100]) == 2

    def test_merge_disjoint(self):
        a = TraceStore()
        b = TraceStore()
        a.add_vm(make_vm(1))
        b.add_vm(make_vm(2))
        b.add_region(RegionInfo(name="x", tz_offset_hours=0))
        a.merge(b)
        assert len(a) == 2
        assert "x" in a.regions

    def test_merge_colliding_ids_rejected(self):
        a = TraceStore()
        b = TraceStore()
        a.add_vm(make_vm(1))
        b.add_vm(make_vm(1))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_incompatible_grid_rejected(self):
        a = TraceStore(TraceMetadata(duration=604800))
        b = TraceStore(TraceMetadata(duration=86400))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_colliding_topology_ids_rejected(self):
        cluster = ClusterInfo(cluster_id=7, region="r", cloud=Cloud.PRIVATE,
                              n_nodes=2, node_capacity_cores=96,
                              node_capacity_memory_gb=768)
        node = NodeInfo(node_id=9, cluster_id=7, rack_id=0, region="r",
                        cloud=Cloud.PRIVATE, capacity_cores=96,
                        capacity_memory_gb=768)
        sub = SubscriptionInfo(subscription_id=3, cloud=Cloud.PRIVATE, service="s")
        for attach in (
            lambda s: s.add_cluster(cluster),
            lambda s: s.add_node(node),
            lambda s: s.add_subscription(sub),
        ):
            a, b = TraceStore(), TraceStore()
            attach(a)
            attach(b)
            with pytest.raises(ValueError, match="colliding"):
                a.merge(b)

    def test_merge_region_conflict_rejected_identical_tolerated(self):
        a, b = TraceStore(), TraceStore()
        a.add_region(RegionInfo(name="x", tz_offset_hours=0))
        b.add_region(RegionInfo(name="x", tz_offset_hours=0))
        b.add_vm(make_vm(2))
        a.merge(b)  # identical region rows are fine (shared geography)
        assert 2 in a

        c, d = TraceStore(), TraceStore()
        c.add_region(RegionInfo(name="x", tz_offset_hours=0))
        d.add_region(RegionInfo(name="x", tz_offset_hours=-5))
        with pytest.raises(ValueError, match="region"):
            c.merge(d)

    def test_failed_merge_leaves_store_untouched(self):
        a, b = TraceStore(), TraceStore()
        a.add_vm(make_vm(1))
        b.add_vm(make_vm(2))
        b.add_vm(make_vm(1))  # collides with a
        b.add_region(RegionInfo(name="y", tz_offset_hours=2))
        with pytest.raises(ValueError):
            a.merge(b)
        assert 2 not in a
        assert "y" not in a.regions

    def test_merge_adopts_utilization_blocks(self):
        a, b = TraceStore(), TraceStore()
        n = a.metadata.n_samples
        a.add_vm(make_vm(1))
        a.add_utilization(1, np.full(n, 0.25))
        b.add_vm(make_vm(2))
        b.add_vm(make_vm(3))
        b.add_utilization_block([2, 3], np.full((2, n), 0.5))
        a.merge(b)
        assert a.vm_ids_with_utilization() == [1, 2, 3]
        assert float(a.utilization(3)[0]) == 0.5

    def test_merge_then_mutating_source_block_list_is_safe(self):
        # merge() must not leave the destination aliasing the source's
        # *block list*: clearing the source store afterwards (as a spilling
        # caller would) must not disturb the merged reads.
        a, b = TraceStore(), TraceStore()
        n = a.metadata.n_samples
        b.add_vm(make_vm(7))
        b.add_utilization(7, np.full(n, 0.35))
        a.merge(b)
        b._util_blocks.clear()
        b._util_index.clear()
        assert float(a.utilization(7)[0]) == np.float32(0.35)

    def test_event_time_ties_broken_by_kind_then_vm_id(self):
        store = TraceStore()
        # Insert in scrambled order: the sorted output must not depend on it.
        store.add_event(EventRecord(5.0, EventKind.TERMINATE, 2, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(5.0, EventKind.CREATE, 3, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(5.0, EventKind.TERMINATE, 1, Cloud.PRIVATE, "a"))
        store.add_event(EventRecord(5.0, EventKind.CREATE, 2, Cloud.PRIVATE, "a"))
        ordered = [(e.kind, e.vm_id) for e in store.events()]
        assert ordered == [
            (EventKind.CREATE, 2),
            (EventKind.CREATE, 3),
            (EventKind.TERMINATE, 1),
            (EventKind.TERMINATE, 2),
        ]

    def test_utilization_block_roundtrip_and_validation(self):
        store = TraceStore()
        n = store.metadata.n_samples
        for vm_id in (1, 2, 3):
            store.add_vm(make_vm(vm_id))
        block = np.tile(np.array([[0.1], [0.2]], dtype=np.float32), (1, n))
        store.add_utilization_block([1, 2], block)
        # Reads are views into the registered block, not copies.
        assert np.shares_memory(store.utilization(2), block)
        assert float(store.utilization(1)[0]) == np.float32(0.1)
        with pytest.raises(ValueError, match="duplicate"):
            store.add_utilization_block([3, 3], np.zeros((2, n)))
        with pytest.raises(ValueError):
            store.add_utilization_block([3], np.zeros((2, n)))  # row mismatch
        with pytest.raises(KeyError):
            store.add_utilization_block([99], np.zeros((1, n)))

    def test_reattaching_a_series_is_refused_before_any_mutation(self, tmp_path):
        store = TraceStore()
        n = store.metadata.n_samples
        for vm_id in (1, 2, 3):
            store.add_vm(make_vm(vm_id))
        store.add_utilization_block([1, 2], np.full((2, n), 0.25, dtype=np.float32))
        reads = {vm_id: store.utilization(vm_id).copy() for vm_id in (1, 2)}
        summary = store.summary()
        # Each block pairs a fresh id (3) with an attached one (2): neither
        # may register, whether the rows are in memory or in a shard.
        rows = np.full((2, n), 0.75, dtype=np.float32)
        shard = write_shard(tmp_path / "rows.npy", rows)
        for attach in (
            lambda: store.add_utilization_block([3, 2], rows),
            lambda: store.add_utilization_shard([3, 2], shard),
            lambda: store.add_utilization(2, rows[0]),
        ):
            with pytest.raises(ValueError, match="already has"):
                attach()
            assert store.summary() == summary
            assert store.vm_ids_with_utilization() == [1, 2]
            for vm_id, expected in reads.items():
                np.testing.assert_array_equal(store.utilization(vm_id), expected)

    def test_summary(self):
        store = TraceStore()
        store.add_vm(make_vm(1))
        store.add_region(RegionInfo(name="r", tz_offset_hours=-5))
        store.add_cluster(
            ClusterInfo(cluster_id=1, region="r", cloud=Cloud.PRIVATE, n_nodes=2,
                        node_capacity_cores=96, node_capacity_memory_gb=768)
        )
        store.add_node(
            NodeInfo(node_id=1, cluster_id=1, rack_id=1, region="r",
                     cloud=Cloud.PRIVATE, capacity_cores=96, capacity_memory_gb=768)
        )
        store.add_subscription(
            SubscriptionInfo(subscription_id=1, cloud=Cloud.PRIVATE, service="s")
        )
        summary = store.summary()
        assert summary["vms"] == 1
        assert summary["clusters"] == 1
        assert summary["nodes"] == 1
        assert summary["subscriptions"] == 1

    def test_region_names_by_cloud(self):
        store = TraceStore()
        store.add_region(RegionInfo(name="a", tz_offset_hours=0))
        store.add_region(RegionInfo(name="b", tz_offset_hours=0))
        store.add_vm(make_vm(1, cloud=Cloud.PRIVATE, region="a"))
        assert store.region_names() == ["a", "b"]
        assert store.region_names(cloud=Cloud.PRIVATE) == ["a"]


_QUERY_REGIONS = (None, "a", "b", "nowhere")


def _indexed_answers(store: TraceStore) -> dict:
    """Every filtered query, answered through the store's index."""
    answers = {}
    for cloud in (None, *Cloud):
        for region in _QUERY_REGIONS:
            answers["vms", cloud, region] = store.vms(cloud=cloud, region=region)
            for kind in (None, *EventKind):
                answers["events", kind, cloud, region] = store.events(
                    kind=kind, cloud=cloud, region=region
                )
        answers["util", cloud] = store.vm_ids_with_utilization(cloud=cloud)
        answers["by_node", cloud] = store.vms_by_node(cloud=cloud)
        answers["by_sub", cloud] = store.vms_by_subscription(cloud=cloud)
        answers["regions", cloud] = store.region_names(cloud=cloud)
    return answers


def _scanned_answers(store: TraceStore) -> dict:
    """The same queries, answered by scanning ``_vms`` and ``_events``."""
    vms = list(store._vms.values())
    events = sorted(store._events, key=lambda e: (e.time, e.kind.value, e.vm_id))

    def matches(row, **filters):
        return all(v is None or getattr(row, k) == v for k, v in filters.items())

    def grouped(rows, field):
        groups = {}
        for row in rows:
            groups.setdefault(getattr(row, field), []).append(row)
        return groups

    answers = {}
    for cloud in (None, *Cloud):
        for region in _QUERY_REGIONS:
            answers["vms", cloud, region] = [
                vm for vm in vms if matches(vm, cloud=cloud, region=region)
            ]
            for kind in (None, *EventKind):
                answers["events", kind, cloud, region] = [
                    e for e in events if matches(e, kind=kind, cloud=cloud, region=region)
                ]
        in_cloud = [vm for vm in vms if matches(vm, cloud=cloud)]
        answers["util", cloud] = sorted(
            vm_id for vm_id in store._util_index if matches(store._vms[vm_id], cloud=cloud)
        )
        answers["by_node", cloud] = grouped(in_cloud, "node_id")
        answers["by_sub", cloud] = grouped(in_cloud, "subscription_id")
        answers["regions", cloud] = (
            sorted(store.regions) if cloud is None else sorted({vm.region for vm in in_cloud})
        )
    return answers


class TestQueryIndex:
    """Indexed queries equal a brute-force scan after every kind of mutation."""

    @staticmethod
    def assert_matches_scan(store: TraceStore) -> None:
        expected = _scanned_answers(store)
        for _ in range(2):  # the second round reads the built index
            answers = _indexed_answers(store)
            assert answers == expected
            for key, rows in answers.items():  # same rows, not equal copies
                if isinstance(rows, list) and rows and not isinstance(rows[0], (int, str)):
                    assert all(a is b for a, b in zip(rows, expected[key], strict=True))

    def test_every_mutation_invalidates_the_index(self):
        store = TraceStore()
        n = store.metadata.n_samples
        self.assert_matches_scan(store)
        for vm_id, cloud, region, node, sub in [
            (1, Cloud.PRIVATE, "a", 0, 10),
            (2, Cloud.PUBLIC, "a", 1, 11),
            (3, Cloud.PRIVATE, "b", 0, 10),
            (4, Cloud.PUBLIC, "b", 2, 12),
        ]:
            store.add_vm(make_vm(vm_id, cloud=cloud, region=region, node_id=node,
                                 subscription_id=sub))
            self.assert_matches_scan(store)

        store.finalize_vm(3, 50.0)
        self.assert_matches_scan(store)

        store.add_event(EventRecord(10.0, EventKind.CREATE, 1, Cloud.PRIVATE, "a"))
        self.assert_matches_scan(store)
        store.add_event(EventRecord(5.0, EventKind.CREATE, 2, Cloud.PUBLIC, "a"))  # out of order
        self.assert_matches_scan(store)
        store.add_event(EventRecord(50.0, EventKind.TERMINATE, 3, Cloud.PRIVATE, "b"))
        self.assert_matches_scan(store)

        store.add_utilization_block([4, 1], np.full((2, n), 0.25))
        self.assert_matches_scan(store)

        other = TraceStore()
        other.add_region(RegionInfo(name="c", tz_offset_hours=0))
        other.add_vm(make_vm(9, cloud=Cloud.PUBLIC, region="b", node_id=2, subscription_id=11))
        other.add_vm(make_vm(8, cloud=Cloud.PRIVATE, region="a", node_id=5, ended_at=7.0))
        other.add_event(EventRecord(1.0, EventKind.CREATE, 9, Cloud.PUBLIC, "b"))
        other.add_event(EventRecord(7.0, EventKind.TERMINATE, 8, Cloud.PRIVATE, "a"))
        other.add_utilization(8, np.full(n, 0.5))
        self.assert_matches_scan(other)
        store.merge(other)
        self.assert_matches_scan(store)

    def test_returned_lists_are_the_callers(self):
        store = TraceStore()
        n = store.metadata.n_samples
        for vm_id in (1, 2, 3):
            store.add_vm(make_vm(vm_id, region="a", node_id=vm_id % 2))
        store.add_event(EventRecord(1.0, EventKind.CREATE, 1, Cloud.PRIVATE, "a"))
        store.add_utilization(2, np.zeros(n))
        store.add_region(RegionInfo(name="a", tz_offset_hours=0))
        before = _indexed_answers(store)
        for rows in _indexed_answers(store).values():
            if isinstance(rows, dict):
                for group in rows.values():
                    group.append(None)
                rows.clear()
            else:
                rows.append(None)
        assert _indexed_answers(store) == before == _scanned_answers(store)


class TestClusterInfo:
    def test_capacity(self):
        cluster = ClusterInfo(
            cluster_id=1, region="r", cloud=Cloud.PRIVATE, n_nodes=10,
            node_capacity_cores=96, node_capacity_memory_gb=768,
        )
        assert cluster.capacity_cores == 960


class TestReadOnlyViews:
    """Regression: reads used to hand out writable views into storage."""

    def _store_with_block(self):
        store = TraceStore()
        n = store.metadata.n_samples
        for vm_id in (1, 2):
            store.add_vm(make_vm(vm_id))
        store.add_utilization_block(
            [1, 2], np.full((2, n), 0.5, dtype=np.float32)
        )
        return store

    def test_utilization_view_is_read_only(self):
        store = self._store_with_block()
        view = store.utilization(1)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 9.0
        assert float(store.utilization(1)[0]) == 0.5

    def test_iter_utilization_views_are_read_only(self):
        store = self._store_with_block()
        for vm_id in store.vm_ids_with_utilization():
            with pytest.raises(ValueError, match="read-only"):
                store.utilization(vm_id)[:] = 9.0

    def test_matrix_is_a_fresh_copy(self):
        # utilization_matrix returns a gather copy; mutating it must not
        # corrupt the stored series.
        store = self._store_with_block()
        matrix = store.utilization_matrix([1, 2])
        matrix[:] = 9.0
        assert float(store.utilization(1)[0]) == 0.5

    def test_matrix_window(self):
        store = self._store_with_block()
        n = store.metadata.n_samples
        full = store.utilization_matrix([1, 2])
        window = store.utilization_matrix([1, 2], start=3, stop=9)
        np.testing.assert_array_equal(window, full[:, 3:9])
        tail = store.utilization_matrix([2], start=n - 4)
        np.testing.assert_array_equal(tail, full[1:, n - 4 :])

    def test_utilization_mean_matches_dense(self, monkeypatch):
        monkeypatch.setattr(store_module, "MEAN_CHUNK_ROWS", 2)  # 5 rows: 3 chunks
        store = TraceStore()
        n = store.metadata.n_samples
        rng = np.random.default_rng(7)
        block = rng.random((5, n)).astype(np.float32)
        for vm_id in range(1, 6):
            store.add_vm(make_vm(vm_id))
        store.add_utilization_block(list(range(1, 6)), block)
        mean = store.utilization_mean(list(range(1, 6)))
        np.testing.assert_allclose(
            mean, block.astype(np.float64).mean(axis=0), rtol=0, atol=1e-12
        )
        assert mean.dtype == np.float64


class TestTraceMetadataSampleGrid:
    def test_n_samples_floor_division(self):
        # Non-integer ratio floors: 7 full samples fit in 2200s at 300s.
        assert TraceMetadata(duration=2200.0, sample_period=300.0).n_samples == 7

    def test_n_samples_at_scaled_non_integer_durations(self):
        # duration values produced by float scaling (e.g. 0.1 * a week) are
        # not exact multiples of the period; the grid must still be the
        # floor, never one short or one over due to float error.
        for factor in (0.1, 0.3, 0.7, 1.0, 2.5):
            meta = TraceMetadata(duration=factor * 604800.0, sample_period=300.0)
            exact = factor * 604800.0 / 300.0
            assert meta.n_samples == int(exact // 1)
            assert meta.n_samples * 300.0 <= meta.duration

    def test_block_width_must_match_grid(self):
        meta = TraceMetadata(duration=2200.0, sample_period=300.0)
        store = TraceStore(meta)
        store.add_vm(make_vm(1))
        with pytest.raises(ValueError, match="expected 7"):
            store.add_utilization(1, np.zeros(8, dtype=np.float32))
        store.add_utilization(1, np.zeros(7, dtype=np.float32))
        assert store.utilization(1).shape == (7,)
