"""Tests for the distribution-distance helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.distributions import ks_statistic, stochastic_dominance_fraction

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
arrays = hnp.arrays(dtype=np.float64, shape=st.integers(1, 80), elements=finite)


def cdf(samples) -> EmpiricalCdf:
    return EmpiricalCdf.from_samples(np.asarray(samples, dtype=float))


class TestKs:
    def test_identical_is_zero(self):
        a = cdf([1, 2, 3])
        assert ks_statistic(a, a) == 0.0

    def test_disjoint_is_one(self):
        assert ks_statistic(cdf([1, 2]), cdf([10, 20])) == 1.0

    def test_known_value(self):
        # a: mass at {1, 3}; b: mass at {2, 4} -> max gap 0.5.
        assert ks_statistic(cdf([1, 3]), cdf([2, 4])) == pytest.approx(0.5)

    @given(arrays, arrays)
    @settings(max_examples=40)
    def test_bounded_and_symmetric(self, x, y):
        a, b = cdf(x), cdf(y)
        d = ks_statistic(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(ks_statistic(b, a))


class TestDominance:
    def test_full_dominance(self):
        small = cdf([1, 2, 3])
        large = cdf([10, 20, 30])
        assert stochastic_dominance_fraction(small, large) == 1.0
        assert stochastic_dominance_fraction(large, small) < 1.0

    def test_paper_lifetime_dominance(self, medium_trace):
        """Fig. 3(a): the public lifetime CDF dominates the private one."""
        from repro.core.deployment import lifetime_cdf
        from repro.telemetry.schema import Cloud

        public = lifetime_cdf(medium_trace, Cloud.PUBLIC)
        private = lifetime_cdf(medium_trace, Cloud.PRIVATE)
        assert stochastic_dominance_fraction(public, private, tolerance=0.02) > 0.95
        assert ks_statistic(public, private) > 0.2
