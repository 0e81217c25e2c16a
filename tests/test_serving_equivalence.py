"""Online-vs-batch equivalence for the serving layer.

The load-bearing invariant of ``repro.serving``: after ingesting any prefix
of a trace's event stream, ``KnowledgeBaseService.snapshot_json()`` must be
byte-identical to serializing a ``WorkloadKnowledgeBase`` built from scratch
over a ``TraceStore`` truncated to the same prefix.  Both paths funnel
through the same record builders, so any drift here means the online
bookkeeping diverged from what the batch path scans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.timeseries import hourly_event_counts
from repro.core.deployment import vm_count_series
from repro.core.knowledge_base import CLASSIFIER_CONFIG, WorkloadKnowledgeBase
from repro.core.patterns import classify_windows
from repro.management.prediction import (
    AllocationFailurePredictor,
    LogisticRegression,
    RegionHourCounts,
)
from repro.serving import (
    KnowledgeBaseService,
    ServiceError,
    iter_ingest_records,
    truncated_store,
)
from repro.serving import service as service_module
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

pytestmark = pytest.mark.serving


def _online_snapshot(store: TraceStore, records: list, n: int) -> str:
    service = KnowledgeBaseService.for_trace(store)
    service.apply_records(records[:n])
    return service.snapshot_json()


def _batch_snapshot(store: TraceStore, n: int) -> str:
    return WorkloadKnowledgeBase.from_trace(truncated_store(store, n)).to_json()


@pytest.fixture(scope="module")
def trace_records(small_trace):
    return list(iter_ingest_records(small_trace))


class TestGeneratedTrace:
    """Acceptance criterion: prefixes {25%, 50%, 100%} are bit-identical."""

    @pytest.mark.parametrize("frac", [0.25, 0.50, 1.00])
    def test_prefix_bit_identical(self, small_trace, trace_records, frac):
        n = int(len(trace_records) * frac)
        online = _online_snapshot(small_trace, trace_records, n)
        batch = _batch_snapshot(small_trace, n)
        assert online.encode() == batch.encode()

    def test_full_stream_matches_original_store(self, small_trace, trace_records):
        """Replaying everything reconstructs the KB of the source store."""
        online = _online_snapshot(small_trace, trace_records, len(trace_records))
        original = WorkloadKnowledgeBase.from_trace(small_trace).to_json()
        assert online == original

    @pytest.mark.slow
    def test_batch_split_invariance(self, small_trace, trace_records):
        """How the stream is chopped into batches must not matter, and
        interleaving refreshes between batches must not change the result."""
        expected = _batch_snapshot(small_trace, len(trace_records))
        for chunk in (1_000, len(trace_records) // 7 or 1):
            service = KnowledgeBaseService.for_trace(small_trace)
            for lo in range(0, len(trace_records), chunk):
                service.apply_records(trace_records[lo : lo + chunk])
                service.refresh()
            assert service.snapshot_json() == expected

    def test_risk_matches_the_per_region_features(self, small_trace, trace_records):
        """Risk answers served from the counts kept at apply time equal a
        fit on features built per region from the Fig. 3 series."""
        service = KnowledgeBaseService.for_trace(small_trace)
        applied = 0
        for frac in (0.25, 0.5, 1.0):
            n = int(len(trace_records) * frac)
            service.apply_records(trace_records[applied:n])
            applied = n
            partial = truncated_store(small_trace, n)
            assert _count_table(service._region_hours) == _fig3_table(partial)
            for cloud in Cloud:
                model = LogisticRegression().fit(*_per_region_features(partial, cloud))
                expected = _answers(
                    cloud,
                    lambda load, creations, model=model: float(
                        model.predict_proba([[load, creations]])[0]
                    ),
                )
                assert _served_risk(service, cloud) == expected

    def test_snapshot_is_idempotent(self, small_trace, trace_records):
        service = KnowledgeBaseService.for_trace(small_trace)
        service.apply_records(trace_records[: len(trace_records) // 2])
        first = service.snapshot_json()
        assert service.snapshot_json() == first


def _edge_store() -> TraceStore:
    """Hand-built trace exercising degenerate telemetry.

    VM 1: constant series (zero variance -> correlation paths must not NaN).
    VM 2: NaN gap in the middle of the series.
    VM 3: all-NaN series and no lifecycle events (pure backfill VM).
    VM 4: no telemetry at all, evicted mid-window.
    """
    store = TraceStore()
    store.add_region(RegionInfo(name="us-east", tz_offset_hours=-5, country="US"))
    store.add_region(RegionInfo(name="us-west", tz_offset_hours=-8, country="US"))
    for node_id in (0, 1):
        store.add_node(
            NodeInfo(
                node_id=node_id,
                cluster_id=0,
                rack_id=0,
                region="us-east",
                cloud=Cloud.PRIVATE,
                capacity_cores=16,
                capacity_memory_gb=64,
            )
        )
    store.add_subscription(
        SubscriptionInfo(
            subscription_id=10,
            cloud=Cloud.PRIVATE,
            service="svc",
            regions=("us-east", "us-west"),
        )
    )
    store.add_subscription(
        SubscriptionInfo(subscription_id=11, cloud=Cloud.PRIVATE, service="other")
    )
    n = store.metadata.n_samples
    end = store.metadata.duration

    store.add_vm(make_vm(1, created_at=0.0, ended_at=end / 2))
    store.add_utilization(1, np.full(n, 0.25, dtype=np.float32))

    wave = np.clip(
        0.3 + 0.2 * np.sin(np.linspace(0.0, 12.0, n)), 0.0, 1.0
    ).astype(np.float32)
    wave[n // 3 : n // 3 + 7] = np.nan
    store.add_vm(make_vm(2, region="us-west", created_at=600.0))
    store.add_utilization(2, wave)

    store.add_vm(make_vm(3, subscription_id=11))
    store.add_utilization(3, np.full(n, np.nan, dtype=np.float32))

    store.add_vm(make_vm(4, subscription_id=11, created_at=300.0, ended_at=end / 4))

    store.add_event(
        EventRecord(time=0.0, kind=EventKind.CREATE, vm_id=1,
                    cloud=Cloud.PRIVATE, region="us-east")
    )
    store.add_event(
        EventRecord(time=300.0, kind=EventKind.CREATE, vm_id=4,
                    cloud=Cloud.PRIVATE, region="us-east")
    )
    store.add_event(
        EventRecord(time=600.0, kind=EventKind.CREATE, vm_id=2,
                    cloud=Cloud.PRIVATE, region="us-west")
    )
    store.add_event(
        EventRecord(time=end / 4, kind=EventKind.EVICT, vm_id=4,
                    cloud=Cloud.PRIVATE, region="us-east")
    )
    store.add_event(
        EventRecord(time=end / 2, kind=EventKind.TERMINATE, vm_id=1,
                    cloud=Cloud.PRIVATE, region="us-east")
    )
    return store


class TestEdgeTraces:
    def test_every_prefix_bit_identical(self):
        store = _edge_store()
        records = list(iter_ingest_records(store))
        # Small enough to check *every* prefix, not just the milestones.
        for n in range(len(records) + 1):
            online = _online_snapshot(store, records, n)
            batch = _batch_snapshot(store, n)
            assert online.encode() == batch.encode(), f"prefix {n} diverged"

    def test_backfill_vm_precedes_events(self):
        """VM 3 never has a CREATE event, so it must arrive as backfill
        before any lifecycle event in the replay order."""
        store = _edge_store()
        records = list(iter_ingest_records(store))
        backfill = [r for r in records if r.event is None]
        assert [r.vm.vm_id for r in backfill] == [3]
        first_event_idx = next(
            i for i, r in enumerate(records) if r.event is not None
        )
        assert all(
            i < first_event_idx for i, r in enumerate(records) if r.event is None
        )

    def test_censoring_round_trip(self):
        """Applying a CREATE censors the VM (its end is not yet known);
        the closing event restores the true end time via ``vm_end``."""
        from repro.serving import apply_record, copy_topology

        store = _edge_store()
        records = list(iter_ingest_records(store))
        create_1 = next(
            r for r in records
            if r.event is not None and r.event.kind is EventKind.CREATE
            and r.event.vm_id == 1
        )
        assert create_1.vm is not None
        terminate_1 = next(
            r for r in records
            if r.event is not None and r.event.kind is EventKind.TERMINATE
            and r.event.vm_id == 1
        )
        assert terminate_1.vm_end == store.vm(1).ended_at

        partial = TraceStore(metadata=store.metadata)
        copy_topology(store, partial)
        apply_record(partial, create_1)
        assert partial.vm(1).ended_at == float("inf")
        apply_record(partial, terminate_1)
        assert partial.vm(1).ended_at == store.vm(1).ended_at

    def test_truncated_store_prefix_counts(self):
        store = _edge_store()
        records = list(iter_ingest_records(store))
        partial = truncated_store(store, 2)
        assert len(partial) < len(store)
        full = truncated_store(store, len(records))
        assert len(full) == len(store)
        assert full.summary()["events"] == store.summary()["events"]


#: (load fraction, recent creations) states every risk check asks about.
_RISK_GRID = [(0.0, 0.0), (0.3, 2.0), (0.5, 1.0), (0.9, 40.0), (1.0, 150.0)]


def _served_risk(service: KnowledgeBaseService, cloud: Cloud):
    try:
        return [
            json.dumps(service.allocation_failure_risk(cloud, load, creations))
            for load, creations in _RISK_GRID
        ]
    except ServiceError as exc:
        return [exc.kind, str(exc)]


def _answers(cloud: Cloud, risk) -> list[str]:
    """The wire answers of a ``risk(load, creations)`` function over the grid."""
    return [
        json.dumps(
            {
                "cloud": cloud.value,
                "load_fraction": load,
                "recent_creations": creations,
                "risk": risk(load, creations),
            }
        )
        for load, creations in _RISK_GRID
    ]


def _fitted_risk(store: TraceStore, cloud: Cloud):
    """What the service must answer: a predictor fitted afresh on ``store``."""
    try:
        predictor = AllocationFailurePredictor().fit(store, cloud)
    except ValueError as exc:
        return ["unavailable", str(exc)]
    return _answers(cloud, predictor.predict_risk)


def _count_table(counts: RegionHourCounts) -> dict:
    return {
        (cloud, region): [a.tolist() for a in counts.series(cloud, region)]
        for cloud in Cloud
        for region in counts.regions(cloud)
    }


def _fig3_table(store: TraceStore) -> dict:
    """The same counts from the Fig. 3(b)/(c) series of each region."""
    duration = store.metadata.duration
    return {
        (cloud, region): [
            vm_count_series(store, cloud, region=region).tolist(),
            *(
                hourly_event_counts(
                    store.event_times(kind, cloud=cloud, region=region), duration=duration
                ).tolist()
                for kind in (EventKind.CREATE, EventKind.ALLOCATION_FAILURE)
            ),
        ]
        for cloud in Cloud
        for region in store.region_names(cloud=cloud)
    }


def _per_region_features(store: TraceStore, cloud: Cloud) -> tuple[np.ndarray, np.ndarray]:
    """The predictor's rows, one region at a time (the feature oracle)."""
    rows, labels = [], []
    table = _fig3_table(store)
    for region in store.region_names(cloud=cloud):
        capacity = sum(
            c.capacity_cores for c in store.clusters.values()
            if c.region == region and c.cloud == cloud
        )
        if capacity <= 0:
            continue
        alive, created, failed = (np.array(a) for a in table[cloud, region])
        alive = alive.astype(np.float64)
        load = alive / alive.max() if alive.max() else alive
        for hour in range(len(alive)):
            rows.append([load[hour], float(created[hour])])
            labels.append(1.0 if failed[hour] > 0 else 0.0)
    return np.array(rows), np.array(labels)


_HOUR = 3600.0


def _risk_store() -> TraceStore:
    """A trace whose VMs start and end on, just before and just after hour
    boundaries, with allocation failures inside and outside the window.

    Private capacity sits in us-east only, so us-west's VM is left out of
    the fit; the public cloud has no capacity until eu-north's cluster.
    """
    store = TraceStore()
    end = store.metadata.duration
    for name in ("us-east", "us-west", "eu-north"):
        store.add_region(RegionInfo(name=name, tz_offset_hours=0, country="US"))
    store.add_cluster(ClusterInfo(0, "us-east", Cloud.PRIVATE, 2, 16.0, 64.0))
    store.add_cluster(ClusterInfo(1, "eu-north", Cloud.PUBLIC, 1, 8.0, 32.0))
    store.add_subscription(SubscriptionInfo(subscription_id=10, cloud=Cloud.PRIVATE, service="svc"))
    store.add_subscription(SubscriptionInfo(subscription_id=12, cloud=Cloud.PUBLIC, service="web"))
    before, after = np.nextafter(_HOUR, 0.0), np.nextafter(_HOUR, np.inf)
    vms = [  # (vm_id, cloud, region, created_at, ended_at, closing kind)
        (1, Cloud.PRIVATE, "us-east", _HOUR, 3 * _HOUR, EventKind.TERMINATE),
        (2, Cloud.PRIVATE, "us-east", before, np.nextafter(5 * _HOUR, np.inf), EventKind.EVICT),
        (3, Cloud.PRIVATE, "us-east", after, np.nextafter(2 * _HOUR, 0.0), EventKind.TERMINATE),
        (4, Cloud.PRIVATE, "us-east", -2 * _HOUR, 10.5 * _HOUR, EventKind.TERMINATE),
        (5, Cloud.PRIVATE, "us-west", 0.0, np.inf, None),
        (6, Cloud.PUBLIC, "eu-north", 2 * _HOUR + 1.0, 150 * _HOUR, EventKind.EVICT),
        (7, Cloud.PUBLIC, "eu-north", _HOUR, end + 100.0, EventKind.TERMINATE),
        (8, Cloud.PRIVATE, "us-east", np.nextafter(end, 0.0), np.inf, None),
        # No CREATE events, so both arrive as backfill rows: a NaN start
        # and an inverted interval, neither ever alive.
        (9, Cloud.PRIVATE, "us-east", np.nan, np.inf, None),
        (10, Cloud.PRIVATE, "us-east", 5 * _HOUR, 2 * _HOUR, None),
    ]
    for vm_id, cloud, region, created, ended, closing in vms:
        sub = 10 if cloud is Cloud.PRIVATE else 12
        store.add_vm(
            make_vm(vm_id, cloud=cloud, region=region, subscription_id=sub,
                    created_at=float(created), ended_at=float(ended))
        )
        times = [(created, EventKind.CREATE)] if 0 <= created < ended else []
        if closing is not None:
            times.append((ended, closing))
        for time, kind in times:
            store.add_event(EventRecord(time=float(time), kind=kind, vm_id=vm_id,
                                        cloud=cloud, region=region))
    failures = [  # (time, cloud, region): two outside the window
        (_HOUR, Cloud.PRIVATE, "us-east"),
        (np.nextafter(4 * _HOUR, 0.0), Cloud.PRIVATE, "us-east"),
        (-1.0, Cloud.PRIVATE, "us-east"),
        (end, Cloud.PRIVATE, "us-east"),
        (3 * _HOUR, Cloud.PUBLIC, "eu-north"),
    ]
    for vm_id, (time, cloud, region) in enumerate(failures, start=100):
        store.add_event(EventRecord(time=float(time), kind=EventKind.ALLOCATION_FAILURE,
                                    vm_id=vm_id, cloud=cloud, region=region))
    return store


class TestFailurePredictorState:
    """The predictor's counts are kept at apply time, and its answers equal
    a fresh fit on the batch rebuild, at every prefix."""

    @pytest.mark.parametrize("batch", [1, 3])
    def test_every_prefix(self, batch):
        store = _risk_store()
        records = list(iter_ingest_records(store))
        service = KnowledgeBaseService.for_trace(store)
        for lo in range(0, len(records), batch):
            service.apply_records(records[lo : lo + batch])
            partial = truncated_store(store, lo + batch)
            table = _count_table(service._region_hours)
            assert table == _count_table(RegionHourCounts.from_store(partial))
            assert table == _fig3_table(partial)
            for cloud in Cloud:
                assert _served_risk(service, cloud) == _fitted_risk(partial, cloud)

    def test_hour_boundaries(self):
        """Alive at hour ``h`` means ``start <= h * 3600 < end``; events
        outside the window are not counted."""
        counts = RegionHourCounts.from_store(_risk_store())
        alive, created, failed = counts.series(Cloud.PRIVATE, "us-east")
        # VM 4 (pre-window) counts from hour 0.  VMs 1 (start on hour 1's
        # boundary) and 2 (one ulp before it) count from hour 1; VM 3 (one
        # ulp after it, ending one ulp before hour 2) never counts.  VM 1
        # ends on hour 3's boundary, VM 2 one ulp after hour 5's.
        assert alive[:7].tolist() == [1, 3, 3, 2, 2, 2, 1]
        assert alive[-1] == 0  # VM 8 starts after the last boundary
        # VM 2's CREATE falls in hour 0, VMs 1's and 3's in hour 1, VM 8's
        # (one ulp before the window ends) in the last hour.
        assert created[:2].tolist() == [1, 2] and created[-1] == 1
        assert failed.sum() == 2 and failed[1] == 1 and failed[3] == 1


def _cache_store() -> tuple[TraceStore, np.ndarray]:
    """The edge trace plus two VMs whose windows change when they close.

    VM 5's full week is irregular (noise after a daily cycle), its closed
    window -- the cycle alone -- diurnal.  VM 6 lives 100 s inside one
    sample: its open window is non-empty, its closed window empty.
    """
    store = _edge_store()
    n, end = store.metadata.n_samples, store.metadata.duration
    t = np.arange(n)
    series = np.clip(0.4 + 0.25 * np.sin(2 * np.pi * t / 288), 0.0, 1.0).astype(np.float32)
    series[n // 2 :] = np.random.default_rng(0).random(n - n // 2)
    for vm_id, created, ended in ((5, 0.0, end / 2), (6, 100.0, 200.0)):
        store.add_vm(make_vm(vm_id, created_at=created, ended_at=ended), series)
        for time, kind in ((created, EventKind.CREATE), (ended, EventKind.TERMINATE)):
            store.add_event(
                EventRecord(time=time, kind=kind, vm_id=vm_id,
                            cloud=Cloud.PRIVATE, region="us-east")
            )
    return store, series


def _created(records: list, vm_id: int) -> int:
    """Index of the record that creates ``vm_id``."""
    return next(
        i for i, r in enumerate(records)
        if r.event is not None and r.event.kind is EventKind.CREATE and r.event.vm_id == vm_id
    )


class TestPatternCache:
    """Refresh takes labels from, and adds labels to, the per-VM cache."""

    def test_refresh_keeps_no_label_of_an_empty_window(self):
        store, _series = _cache_store()
        records = list(iter_ingest_records(store))
        service = KnowledgeBaseService.for_trace(store)
        service.apply_records(records[: _created(records, 6) + 1])
        assert service.pattern_for_vm(6)["pattern"]  # open window: classified
        service.apply_records(records[_created(records, 6) + 1 :])
        service.refresh()  # classifies VM 6's empty closed window
        with pytest.raises(ServiceError) as excinfo:
            service.pattern_for_vm(6)
        assert excinfo.value.kind == "unavailable"
        assert service.snapshot_json() == _batch_snapshot(store, len(records))

    def test_label_after_close_is_the_closed_windows(self, monkeypatch):
        store, series = _cache_store()
        records = list(iter_ingest_records(store))
        service = KnowledgeBaseService.for_trace(store)
        service.apply_records(records[: _created(records, 5) + 1])
        open_label = service.pattern_for_vm(5)["pattern"]
        service.apply_records(records[_created(records, 5) + 1 :])
        service.refresh()

        lo, hi = store.metadata.sample_window(store.vm(5))
        closed = classify_windows(
            [series[lo:hi]], CLASSIFIER_CONFIG, sample_period=store.metadata.sample_period
        )[0]
        assert (open_label, closed) == ("irregular", "diurnal")

        def unexpected(*args, **kwargs):
            raise AssertionError("pattern_for_vm classified a VM refresh had cached")

        monkeypatch.setattr(service_module, "classify_windows", unexpected)
        assert service.pattern_for_vm(5)["pattern"] == closed

    def test_caches_follow_ingest(self, small_trace, trace_records):
        """One service queried between ingests -- filling the pattern cache
        and the candidates memo -- matches the batch rebuild at every step."""
        service = KnowledgeBaseService.for_trace(small_trace)
        vm_ids = small_trace.vm_ids_with_utilization()
        applied, seen = 0, []
        for frac in (0.25, 0.5, 1.0):
            n = int(len(trace_records) * frac)
            service.apply_records(trace_records[applied:n])
            applied = n
            for vm_id in vm_ids[::3]:
                try:
                    service.pattern_for_vm(int(vm_id))
                except ServiceError:
                    pass  # not ingested yet, or an empty window
            batch = WorkloadKnowledgeBase.from_trace(truncated_store(small_trace, n))
            for cloud in (None, Cloud.PRIVATE, Cloud.PUBLIC):
                expected = [
                    r.subscription_id for r in batch.region_agnostic_candidates(cloud=cloud)
                ]
                for _ in range(2):  # built, then memoized
                    served = service.region_agnostic_candidates(cloud)
                    assert [c["subscription_id"] for c in served] == expected
            assert service.snapshot_json() == batch.to_json()
            seen.append(service.region_agnostic_candidates())
        assert seen[0] != seen[-1], "the candidates never changed"


class TestWireRoundTrip:
    def test_to_wire_from_wire_preserves_snapshot(self, small_trace, trace_records):
        """Records that cross the TCP boundary (dict round trip) must apply
        identically to records that never left the process."""
        from repro.serving import IngestRecord

        n = len(trace_records) // 4
        wired = [
            IngestRecord.from_wire(r.to_wire()) for r in trace_records[:n]
        ]
        direct = _online_snapshot(small_trace, trace_records, n)
        via_wire = _online_snapshot(small_trace, wired, n)
        assert direct == via_wire
