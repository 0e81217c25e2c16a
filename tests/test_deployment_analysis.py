"""Unit/integration tests for the Section III deployment analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import deployment as dep
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore
from repro.workloads.lifetime import SHORTEST_BIN_SECONDS


class TestVmsPerSubscription:
    def test_snapshot_semantics(self, small_trace):
        cdf = dep.vms_per_subscription_cdf(small_trace, Cloud.PRIVATE)
        assert cdf.median >= 1

    def test_private_larger_than_public(self, small_trace):
        private = dep.vms_per_subscription_cdf(small_trace, Cloud.PRIVATE)
        public = dep.vms_per_subscription_cdf(small_trace, Cloud.PUBLIC)
        assert private.median > public.median

    def test_empty_cloud_raises(self):
        with pytest.raises(ValueError):
            dep.vms_per_subscription_cdf(TraceStore(), Cloud.PRIVATE)


class TestSubscriptionsPerCluster:
    def test_public_hosts_more(self, small_trace):
        private = dep.subscriptions_per_cluster(small_trace, Cloud.PRIVATE)
        public = dep.subscriptions_per_cluster(small_trace, Cloud.PUBLIC)
        assert public.median > private.median


class TestVmSizeHeatmap:
    def test_mass_and_shape(self, small_trace):
        hm = dep.vm_size_heatmap(small_trace, Cloud.PRIVATE)
        assert hm.density.sum() == pytest.approx(1.0, abs=1e-6)

    def test_public_extends_to_corners(self, small_trace):
        private = dep.vm_size_heatmap(small_trace, Cloud.PRIVATE)
        public = dep.vm_size_heatmap(small_trace, Cloud.PUBLIC)
        assert public.corner_mass() > private.corner_mass()


class TestLifetimeCdf:
    def test_only_completed_in_window(self, small_trace):
        cdf = dep.lifetime_cdf(small_trace, Cloud.PUBLIC)
        assert cdf.values.min() > 0
        assert np.isfinite(cdf.values.max())

    def test_shortest_bin_ordering(self, small_trace):
        p = dep.lifetime_cdf(small_trace, Cloud.PRIVATE)
        q = dep.lifetime_cdf(small_trace, Cloud.PUBLIC)
        assert q.evaluate(SHORTEST_BIN_SECONDS) > p.evaluate(SHORTEST_BIN_SECONDS)


class TestCountSeries:
    def test_length_is_hours(self, small_trace):
        counts = dep.vm_count_series(small_trace, Cloud.PRIVATE)
        assert counts.shape == (24 * 7,)
        assert np.all(counts >= 0)

    def test_region_filter(self, small_trace):
        total = dep.vm_count_series(small_trace, Cloud.PUBLIC)
        region = dep.vm_count_series(small_trace, Cloud.PUBLIC, region="us-east")
        assert region.sum() < total.sum()

    def test_creation_series_counts_create_events(self, small_trace):
        creations = dep.vm_creation_series(small_trace, Cloud.PUBLIC)
        n_events = len(small_trace.events(kind=EventKind.CREATE, cloud=Cloud.PUBLIC))
        assert creations.sum() == n_events

    def test_removal_series(self, small_trace):
        removals = dep.vm_creation_series(
            small_trace, Cloud.PUBLIC, kind=EventKind.TERMINATE
        )
        assert removals.sum() > 0


class TestCreationCv:
    def test_per_region_values_finite(self, small_trace):
        cvs = dep.creation_cv_by_region(small_trace, Cloud.PUBLIC)
        assert cvs
        assert all(np.isfinite(v) and v >= 0 for v in cvs.values())

    def test_sparse_regions_skipped(self, small_trace):
        cvs = dep.creation_cv_by_region(small_trace, Cloud.PRIVATE, min_events=10**9)
        assert cvs == {}

    def test_private_burstier(self, medium_trace):
        private = dep.creation_cv_boxplot(medium_trace, Cloud.PRIVATE)
        public = dep.creation_cv_boxplot(medium_trace, Cloud.PUBLIC)
        assert private.median > public.median


class TestRegionsPerSubscription:
    def test_cdf_at_one_majority(self, medium_trace):
        # Needs the larger trace: the private cloud has few subscriptions,
        # so the single-region share is noisy at tiny scales.
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            cdf = dep.regions_per_subscription_cdf(medium_trace, cloud)
            assert cdf.evaluate(1.0) > 0.5

    def test_core_weighting_changes_shares(self, medium_trace):
        unweighted = dep.regions_per_subscription_cdf(medium_trace, Cloud.PRIVATE)
        weighted = dep.regions_per_subscription_core_weighted(
            medium_trace, Cloud.PRIVATE
        )
        # Multi-region private subscriptions hold more cores, so the weighted
        # single-region share is lower.
        assert weighted.evaluate(1.0) < unweighted.evaluate(1.0)
