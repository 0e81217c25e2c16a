"""Unit/integration tests for the Section IV-B similarity analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import correlation as corr
from repro.obs import MetricsScope
from repro.telemetry.schema import Cloud, NodeInfo, RegionInfo, SubscriptionInfo
from repro.telemetry.store import TraceStore
from tests.test_store import make_vm


@pytest.fixture()
def correlated_store():
    """Two nodes: one with correlated VMs, one with a single VM (trivial)."""
    store = TraceStore()
    store.add_region(RegionInfo(name="us-east", tz_offset_hours=-5, country="US"))
    store.add_region(RegionInfo(name="us-west", tz_offset_hours=-8, country="US"))
    store.add_region(RegionInfo(name="europe", tz_offset_hours=1, country="EU"))
    for node_id in (0, 1):
        store.add_node(
            NodeInfo(node_id=node_id, cluster_id=0, rack_id=0, region="us-east",
                     cloud=Cloud.PRIVATE, capacity_cores=16, capacity_memory_gb=64)
        )
    n = store.metadata.n_samples
    t = np.linspace(0, 14 * np.pi, n)
    base = 0.3 + 0.2 * np.sin(t)
    rng = np.random.default_rng(0)
    # Node 0: two highly correlated VMs.
    store.add_vm(make_vm(1, node_id=0, subscription_id=100, region="us-east"))
    store.add_vm(make_vm(2, node_id=0, subscription_id=100, region="us-east"))
    store.add_utilization(1, np.clip(base + rng.normal(0, 0.01, n), 0, 1))
    store.add_utilization(2, np.clip(base + rng.normal(0, 0.01, n), 0, 1))
    # Node 1: single VM -> excluded as trivial.
    store.add_vm(make_vm(3, node_id=1, subscription_id=101, region="us-east"))
    store.add_utilization(3, np.clip(base, 0, 1))
    # Subscription 100 also deploys in us-west with the same pattern and in
    # europe (excluded by the US filter).
    store.add_vm(make_vm(4, node_id=0, subscription_id=100, region="us-west"))
    store.add_utilization(4, np.clip(base + rng.normal(0, 0.01, n), 0, 1))
    store.add_vm(make_vm(5, node_id=0, subscription_id=100, region="europe"))
    store.add_utilization(5, np.clip(1 - base, 0, 1))
    store.add_subscription(
        SubscriptionInfo(subscription_id=100, cloud=Cloud.PRIVATE, service="svc",
                         regions=("us-east", "us-west", "europe"))
    )
    store.add_subscription(
        SubscriptionInfo(subscription_id=101, cloud=Cloud.PRIVATE, service="other")
    )
    return store


class TestNodeLevel:
    def test_high_correlation_detected(self, correlated_store):
        cdf = corr.node_level_correlation(correlated_store, Cloud.PRIVATE)
        assert cdf.median > 0.9

    def test_trivial_nodes_excluded(self, correlated_store):
        cdf = corr.node_level_correlation(correlated_store, Cloud.PRIVATE)
        # VM 3 (single-VM node) must not contribute: node 0 hosts 4 VMs.
        assert cdf.n_samples == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            corr.node_level_correlation(TraceStore(), Cloud.PRIVATE)

    def test_private_exceeds_public_on_generated_trace(self, medium_trace):
        private = corr.node_level_correlation(medium_trace, Cloud.PRIVATE)
        public = corr.node_level_correlation(medium_trace, Cloud.PUBLIC)
        assert private.median > public.median + 0.2

    def test_no_constant_pairs_reports_zero(self, correlated_store):
        cdf = corr.node_level_correlation(correlated_store, Cloud.PRIVATE)
        assert cdf.n_constant_pairs == 0


class TestConstantPairAccounting:
    @pytest.fixture()
    def store_with_constant_vm(self, correlated_store):
        """Add an always-idle VM to the multi-VM node of correlated_store."""
        n = correlated_store.metadata.n_samples
        correlated_store.add_vm(
            make_vm(6, node_id=0, subscription_id=100, region="us-east")
        )
        correlated_store.add_utilization(6, np.full(n, 0.25))
        return correlated_store

    def test_node_level_counts_constant_pairs(self, store_with_constant_vm):
        with MetricsScope() as scope:
            cdf = corr.node_level_correlation(store_with_constant_vm, Cloud.PRIVATE)
        # The idle VM's Pearson r is undefined (zero variance) -- it is
        # skipped from the CDF but accounted for, not silently dropped.
        assert cdf.n_constant_pairs == 1
        assert cdf.n_samples == 4
        assert scope.delta["counters"]["correlation.constant_pairs"] == 1.0

    def test_region_level_counts_constant_pairs(self, correlated_store):
        n = correlated_store.metadata.n_samples
        # Subscription 102 deploys a constant-load VM in two US regions, so
        # its single region pair has undefined correlation.
        for vm_id, region in ((7, "us-east"), (8, "us-west")):
            correlated_store.add_vm(
                make_vm(vm_id, node_id=0, subscription_id=102, region=region)
            )
            correlated_store.add_utilization(vm_id, np.full(n, 0.5))
        correlated_store.add_subscription(
            SubscriptionInfo(
                subscription_id=102,
                cloud=Cloud.PRIVATE,
                service="idle",
                regions=("us-east", "us-west"),
            )
        )
        with MetricsScope() as scope:
            cdf = corr.region_level_correlation(correlated_store, Cloud.PRIVATE)
        assert cdf.n_constant_pairs == 1
        assert cdf.n_samples == 1  # subscription 100's us-east/us-west pair
        assert scope.delta["counters"]["correlation.constant_pairs"] == 1.0

    def test_result_is_correlation_cdf(self, correlated_store):
        cdf = corr.node_level_correlation(correlated_store, Cloud.PRIVATE)
        assert isinstance(cdf, corr.CorrelationCdf)
        # Still a fully functional EmpiricalCdf.
        assert 0.0 <= cdf.evaluate(1.0) <= 1.0


class TestBlockedNodeCorrelationBitCompat:
    """The hoisted-standardization kernel must match the scalar reference."""

    @staticmethod
    def assert_cdfs_identical(a, b):
        assert np.array_equal(a.values, b.values, equal_nan=True)
        assert np.array_equal(a.probabilities, b.probabilities)
        assert a.n_samples == b.n_samples
        assert a.n_constant_pairs == b.n_constant_pairs

    def test_matches_reference(self, correlated_store):
        self.assert_cdfs_identical(
            corr.node_level_correlation(correlated_store, Cloud.PRIVATE),
            corr._node_level_correlation_reference(correlated_store, Cloud.PRIVATE),
        )

    def test_matches_reference_with_constant_vm(self, correlated_store):
        n = correlated_store.metadata.n_samples
        correlated_store.add_vm(
            make_vm(9, node_id=0, subscription_id=100, region="us-east")
        )
        correlated_store.add_utilization(9, np.full(n, 0.25))
        self.assert_cdfs_identical(
            corr.node_level_correlation(correlated_store, Cloud.PRIVATE),
            corr._node_level_correlation_reference(correlated_store, Cloud.PRIVATE),
        )

    def test_matches_reference_on_generated_trace(self, small_trace, monkeypatch):
        monkeypatch.setattr(corr, "MAX_NODES", 40)
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            self.assert_cdfs_identical(
                corr.node_level_correlation(small_trace, cloud),
                corr._node_level_correlation_reference(
                    small_trace, cloud, max_nodes=40
                ),
            )


class TestRegionLevel:
    def test_us_pair_correlated(self, correlated_store):
        cdf = corr.region_level_correlation(correlated_store, Cloud.PRIVATE)
        # Only the us-east/us-west pair qualifies (europe filtered out).
        assert cdf.n_samples == 1
        assert cdf.median > 0.9

    def test_country_filter_off_includes_europe(self, correlated_store, monkeypatch):
        monkeypatch.setattr(corr, "REGION_COUNTRIES", ("US", "EU"))
        cdf = corr.region_level_correlation(correlated_store, Cloud.PRIVATE)
        assert cdf.n_samples == 3  # all pairs of 3 regions

    def test_no_multi_region_raises(self):
        store = TraceStore()
        store.add_subscription(
            SubscriptionInfo(subscription_id=1, cloud=Cloud.PRIVATE, service="s")
        )
        with pytest.raises(ValueError):
            corr.region_level_correlation(store, Cloud.PRIVATE)


class TestRegionAgnostic:
    def test_detection(self, correlated_store, monkeypatch):
        monkeypatch.setattr(corr, "AGNOSTIC_COUNTRIES", ("US",))
        reports = corr.region_agnostic_subscriptions(correlated_store, Cloud.PRIVATE)
        assert len(reports) == 1
        assert reports[0].region_agnostic
        assert reports[0].regions == ("us-east", "us-west")

    def test_anticorrelated_region_breaks_agnosticism(self, correlated_store):
        reports = corr.region_agnostic_subscriptions(correlated_store, Cloud.PRIVATE)
        assert len(reports) == 1
        assert not reports[0].region_agnostic  # europe is anti-correlated

    def test_private_cloud_has_candidates(self, medium_trace):
        reports = corr.region_agnostic_subscriptions(medium_trace, Cloud.PRIVATE)
        assert reports
        agnostic_share = np.mean([r.region_agnostic for r in reports])
        assert agnostic_share > 0.5


class TestServiceRegionSeries:
    def test_daily_folding(self, medium_trace):
        series = corr.service_region_series(
            medium_trace, "web-application", cloud=Cloud.PRIVATE
        )
        assert len(series) >= 2
        for s in series.values():
            assert s.shape == (288,)

    def test_peak_alignment(self):
        sample_period = 300.0
        day = np.zeros(288)
        day[150:160] = 1.0
        shifted = np.roll(day, 36)  # 3 hours
        gap = corr.peak_alignment_hours({"a": day, "b": shifted}, sample_period)
        assert gap == pytest.approx(3.0, abs=0.2)

    def test_alignment_circular(self):
        day = np.zeros(288)
        day[2] = 1.0
        other = np.zeros(288)
        other[286] = 1.0  # 23:50 vs 00:10 -> 20 minutes apart circularly
        gap = corr.peak_alignment_hours({"a": day, "b": other}, 300.0)
        assert gap < 0.5

    def test_alignment_needs_two_regions(self):
        with pytest.raises(ValueError):
            corr.peak_alignment_hours({"a": np.ones(288)}, 300.0)
