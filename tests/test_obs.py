"""Tests for the observability layer: spans, metrics registry, profiling."""

from __future__ import annotations

import importlib
import pkgutil
import pstats

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsScope,
    diff_snapshots,
    drain_spans,
    export_spans,
    mark,
    maybe_profile,
    reset_spans,
    span,
)


@pytest.fixture(autouse=True)
def _clean_spans():
    reset_spans()
    yield
    reset_spans()


class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        with span("test.outer", kind="test"):
            with span("test.inner"):
                pass
            with span("test.sibling"):
                pass
        spans = export_spans()
        by_name = {row["name"]: row for row in spans}
        assert [row["name"] for row in spans] == ["test.outer", "test.inner", "test.sibling"]
        assert by_name["test.outer"]["parent"] is None
        assert by_name["test.outer"]["depth"] == 0
        assert by_name["test.outer"]["attrs"] == {"kind": "test"}
        for child in ("test.inner", "test.sibling"):
            assert by_name[child]["parent"] == by_name["test.outer"]["index"]
            assert by_name[child]["depth"] == 1

    def test_wall_time_measured_and_contains_children(self):
        with span("test.outer") as outer:
            with span("test.inner") as inner:
                # Enough work to register on perf_counter.
                sum(range(10_000))
        assert inner.wall_s > 0
        assert outer.wall_s >= inner.wall_s

    def test_record_closed_after_block(self):
        with span("test.s") as record:
            assert not record.closed
        assert record.closed

    def test_exception_still_closes_span(self):
        with pytest.raises(RuntimeError):
            with span("test.failing"):
                raise RuntimeError("boom")
        (row,) = export_spans()
        assert row["name"] == "test.failing"
        assert row["wall_s"] >= 0
        # The stack unwound: a new span starts back at depth 0.
        with span("test.after"):
            pass
        assert export_spans()[-1]["depth"] == 0

    def test_export_since_rebases_indexes(self):
        with span("test.before"):
            pass
        bookmark = mark()
        with span("test.a"):
            with span("test.b"):
                pass
        exported = export_spans(since=bookmark)
        assert [row["name"] for row in exported] == ["test.a", "test.b"]
        assert exported[0]["index"] == 0
        assert exported[0]["parent"] is None
        assert exported[1]["parent"] == 0

    def test_parent_outside_slice_reported_as_none(self):
        with span("test.outer"):
            bookmark = mark()
            with span("test.inner"):
                pass
            exported = export_spans(since=bookmark)
        assert exported[0]["name"] == "test.inner"
        assert exported[0]["parent"] is None
        assert exported[0]["depth"] == 1  # depth is absolute, parent re-based

    def test_drain_removes_spans(self):
        with span("test.keep"):
            pass
        bookmark = mark()
        with span("test.drop"):
            pass
        drained = drain_spans(since=bookmark)
        assert [row["name"] for row in drained] == ["test.drop"]
        assert [row["name"] for row in export_spans()] == ["test.keep"]

    @pytest.mark.parametrize("name", ["BadName", "synthesize", "task..run"])
    def test_undotted_or_uppercase_name_rejected(self, name):
        with pytest.raises(ValueError, match="group.name"):
            with span(name):
                pass
        assert export_spans() == []

    def test_drain_refuses_open_spans(self):
        bookmark = mark()
        with span("test.open"):
            with pytest.raises(RuntimeError, match="still open"):
                drain_spans(since=bookmark)


class TestMetricsRegistry:
    def test_counter_handle(self):
        registry = MetricsRegistry()
        counter = Counter("cache.hit", registry=registry)
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2)
        assert counter.value == 3.0
        assert registry.snapshot()["counters"] == {"cache.hit": 3.0}

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = Histogram("task.latency", bounds=(1.0, 10.0), registry=registry)
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["task.latency"]
        assert snap["bounds"] == [1.0, 10.0]
        # bucket i holds values <= bounds[i]; the last bucket is +inf overflow
        assert snap["counts"] == [2, 1, 1]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.5)

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        assert list(registry.snapshot()["counters"]) == ["a", "z"]

    def test_diff_snapshots_only_changed_series(self):
        registry = MetricsRegistry()
        registry.inc("stable", 5)
        before = registry.snapshot()
        registry.inc("stable", 0)  # no change
        registry.inc("active", 2)
        registry.observe("h", 0.2)
        delta = diff_snapshots(before, registry.snapshot())
        assert delta["counters"] == {"active": 2.0}
        assert delta["histograms"]["h"]["count"] == 1

    def test_merge_is_additive_for_counters_and_histograms(self):
        parent = MetricsRegistry()
        parent.inc("n", 1)
        parent.observe("h", 0.2)
        delta = {
            "counters": {"n": 2.0},
            "histograms": {
                "h": {
                    "bounds": list(parent.snapshot()["histograms"]["h"]["bounds"]),
                    "counts": [1] + [0] * len(
                        parent.snapshot()["histograms"]["h"]["bounds"]
                    ),
                    "count": 1,
                    "sum": 0.0005,
                }
            },
        }
        parent.merge(delta)
        snap = parent.snapshot()
        assert snap["counters"]["n"] == 3.0
        assert snap["histograms"]["h"]["count"] == 2

    def test_merge_rejects_mismatched_buckets(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0, bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="mismatched buckets"):
            registry.merge(
                {
                    "histograms": {
                        "h": {"bounds": [5.0], "counts": [0, 0], "count": 0, "sum": 0.0}
                    }
                }
            )

    def test_metrics_scope_captures_delta_despite_prior_state(self):
        registry = MetricsRegistry()
        registry.inc("inherited", 100)  # what a forked child would inherit
        with MetricsScope(registry=registry) as scope:
            registry.inc("inherited", 1)
            registry.inc("fresh", 2)
        assert scope.delta["counters"] == {"inherited": 1.0, "fresh": 2.0}

    def test_scope_delta_merges_back_to_equivalent_totals(self):
        serial = MetricsRegistry()
        serial.inc("n", 3)

        parent = MetricsRegistry()
        worker = MetricsRegistry()
        with MetricsScope(registry=worker) as scope:
            worker.inc("n", 3)
        parent.merge(scope.delta)
        assert parent.snapshot() == serial.snapshot()

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.observe("h", 0.1)
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "histograms": {}}

    def test_second_handle_for_a_name_raises(self):
        registry = MetricsRegistry()
        Counter("cache.hit", registry=registry)
        for kind in (Counter, Histogram):
            with pytest.raises(ValueError, match="cache.hit"):
                kind("cache.hit", registry=registry)
        # Another registry keeps its own claims.
        Counter("cache.hit", registry=MetricsRegistry())

    @pytest.mark.parametrize("kind", [Counter, Histogram])
    @pytest.mark.parametrize("name", ["BadName", "synthesize"])
    def test_handle_name_outside_convention_raises(self, kind, name):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="group.name"):
            kind(name, registry=registry)
        assert registry.snapshot() == {"counters": {}, "histograms": {}}

    def test_handle_survives_reset(self):
        registry = MetricsRegistry()
        counter = Counter("cache.hit", registry=registry)
        counter.inc(2)
        registry.reset()
        assert counter.value == 0.0
        counter.inc()
        assert registry.snapshot()["counters"] == {"cache.hit": 1.0}
        # reset() drops values, not claims: the name stays taken.
        with pytest.raises(ValueError, match="cache.hit"):
            Counter("cache.hit", registry=registry)

    def test_every_module_imports_with_unique_metric_names(self):
        """Metric handles are module constants; importing the whole tree
        runs the registry's one-handle-per-name check on every one."""
        import repro

        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        ]
        assert len(names) > 70
        for name in names:
            importlib.import_module(name)


class TestProfiling:
    def test_noop_without_path(self):
        with maybe_profile(None) as profiler:
            assert profiler is None

    def test_writes_loadable_pstats(self, tmp_path):
        out = tmp_path / "nested" / "run.pstats"
        with maybe_profile(out) as profiler:
            assert profiler is not None
            sum(range(1000))
        assert out.exists()
        stats = pstats.Stats(str(out))
        assert stats.total_calls >= 1
