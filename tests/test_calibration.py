"""End-to-end calibration: the generator hits the paper's anchors.

These are the quantitative targets from DESIGN.md section 6, asserted on a
medium trace.  Tolerances are wide enough to absorb seed-to-seed variance
but tight enough that the *shape* of each paper finding is guaranteed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import correlation as corr
from repro.core import deployment as dep
from repro.telemetry.schema import Cloud
from repro.workloads.lifetime import SHORTEST_BIN_SECONDS


class TestDeploymentAnchors:
    def test_private_deployments_larger(self, medium_trace):
        private = dep.vms_per_subscription_cdf(medium_trace, Cloud.PRIVATE)
        public = dep.vms_per_subscription_cdf(medium_trace, Cloud.PUBLIC)
        assert private.median > 5 * public.median

    def test_subscriptions_per_cluster_ratio(self, medium_trace):
        """Paper: public clusters host ~20x more subscriptions (median)."""
        private = dep.subscriptions_per_cluster(medium_trace, Cloud.PRIVATE)
        public = dep.subscriptions_per_cluster(medium_trace, Cloud.PUBLIC)
        ratio = public.median / max(1.0, private.median)
        assert 8 <= ratio <= 60

    def test_lifetime_shortest_bins(self, medium_trace):
        """Paper: 49% private vs 81% public in the shortest bin."""
        p = dep.lifetime_cdf(medium_trace, Cloud.PRIVATE).evaluate(SHORTEST_BIN_SECONDS)
        q = dep.lifetime_cdf(medium_trace, Cloud.PUBLIC).evaluate(SHORTEST_BIN_SECONDS)
        assert 0.35 <= p <= 0.62
        assert 0.68 <= q <= 0.92
        assert q - p >= 0.15

    def test_creation_cv_gap(self, medium_trace):
        private = dep.creation_cv_boxplot(medium_trace, Cloud.PRIVATE)
        public = dep.creation_cv_boxplot(medium_trace, Cloud.PUBLIC)
        assert private.median > 1.3 * public.median

    def test_single_region_core_shares(self, medium_trace):
        """Paper: ~40% of private cores vs ~70% of public cores."""
        p = dep.regions_per_subscription_core_weighted(
            medium_trace, Cloud.PRIVATE
        ).evaluate(1.0)
        q = dep.regions_per_subscription_core_weighted(
            medium_trace, Cloud.PUBLIC
        ).evaluate(1.0)
        assert 0.20 <= p <= 0.55
        assert 0.55 <= q <= 0.85

    def test_vm_populations_comparable(self, medium_trace):
        """Section II: similar numbers of VMs in both samples."""
        n_private = len(medium_trace.vms(cloud=Cloud.PRIVATE))
        n_public = len(medium_trace.vms(cloud=Cloud.PUBLIC))
        assert 0.3 <= n_private / n_public <= 3.0


class TestUtilizationAnchors:
    def test_node_correlation_medians(self, medium_trace):
        """Paper: median 0.55 (private) vs 0.02 (public)."""
        private = corr.node_level_correlation(medium_trace, Cloud.PRIVATE)
        public = corr.node_level_correlation(medium_trace, Cloud.PUBLIC)
        assert private.median >= 0.45
        assert public.median <= 0.35
        assert private.median - public.median >= 0.3

    def test_region_correlation_gap(self, medium_trace):
        private = corr.region_level_correlation(medium_trace, Cloud.PRIVATE)
        public = corr.region_level_correlation(medium_trace, Cloud.PUBLIC)
        assert private.median - public.median >= 0.4

    def test_region_agnostic_portion(self, medium_trace):
        reports = corr.region_agnostic_subscriptions(medium_trace, Cloud.PRIVATE)
        share = np.mean([r.region_agnostic for r in reports])
        assert share >= 0.5


class TestStability:
    """The anchors are not one-seed flukes."""

    @pytest.mark.parametrize("seed", [21, 99])
    def test_lifetime_anchor_across_seeds(self, seed):
        from repro.workloads.generator import GeneratorConfig, generate_trace_pair

        trace = generate_trace_pair(
            GeneratorConfig(seed=seed, scale=0.15)
        )
        p = dep.lifetime_cdf(trace, Cloud.PRIVATE).evaluate(SHORTEST_BIN_SECONDS)
        q = dep.lifetime_cdf(trace, Cloud.PUBLIC).evaluate(SHORTEST_BIN_SECONDS)
        assert q > p + 0.1
