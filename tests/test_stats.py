"""Unit and property tests for scalar statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.stats import (
    BoxplotStats,
    coefficient_of_variation,
    coefficient_of_variation_rows,
    pairwise_pearson,
    pearson_correlation,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
arrays = hnp.arrays(dtype=np.float64, shape=st.integers(2, 100), elements=finite)


class TestCoefficientOfVariation:
    def test_constant_series_is_zero(self):
        assert coefficient_of_variation(np.full(10, 5.0)) == 0.0

    def test_known_value(self):
        samples = np.array([1.0, 3.0])  # mean 2, std 1
        assert coefficient_of_variation(samples) == pytest.approx(0.5)

    def test_zero_mean_returns_nan(self):
        assert np.isnan(coefficient_of_variation(np.array([-1.0, 1.0])))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([]))

    def test_scale_invariance(self):
        samples = np.array([1.0, 2.0, 5.0, 9.0])
        assert coefficient_of_variation(samples) == pytest.approx(
            coefficient_of_variation(10 * samples)
        )

    def test_bursty_series_has_higher_cv(self):
        steady = np.full(100, 4.0) + np.sin(np.arange(100))
        bursty = np.ones(100)
        bursty[::25] = 60.0
        assert coefficient_of_variation(bursty) > coefficient_of_variation(steady)


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        assert pearson_correlation(x, 3 * x + 1) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        x = np.arange(10, dtype=float)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_constant_input_gives_nan(self):
        assert np.isnan(pearson_correlation(np.ones(5), np.arange(5, dtype=float)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.ones(3), np.ones(4))

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson_correlation(np.array([1.0]), np.array([2.0]))

    def test_matches_numpy_corrcoef(self, rng):
        x = rng.normal(size=50)
        y = 0.5 * x + rng.normal(size=50)
        assert pearson_correlation(x, y) == pytest.approx(
            np.corrcoef(x, y)[0, 1], abs=1e-12
        )

    @given(arrays)
    @settings(max_examples=50)
    def test_bounded(self, x):
        y = np.roll(x, 1)
        r = pearson_correlation(x, y)
        assert np.isnan(r) or -1.0 <= r <= 1.0

    @given(arrays)
    @settings(max_examples=50)
    def test_symmetric(self, x):
        y = np.roll(x, 1) + 0.5
        a = pearson_correlation(x, y)
        b = pearson_correlation(y, x)
        assert (np.isnan(a) and np.isnan(b)) or a == pytest.approx(b)


def scalar_pairwise(block: np.ndarray) -> np.ndarray:
    """The pre-campaign idiom: one pearson_correlation call per pair."""
    m = block.shape[0]
    out = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(i, m):
            out[i, j] = out[j, i] = pearson_correlation(block[i], block[j])
    return out


def assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    both_nan = np.isnan(a) & np.isnan(b)
    assert np.all((a == b) | both_nan)


class TestPairwisePearson:
    def test_matches_scalar_bitwise(self, rng):
        block = rng.normal(size=(12, 401))
        assert_bitwise(pairwise_pearson(block), scalar_pairwise(block))

    def test_constant_and_nan_rows(self, rng):
        block = rng.normal(size=(6, 200))
        block[1] = 0.25  # idle VM: every pair involving it is nan
        block[4, 50:60] = np.nan  # telemetry gap
        batched = pairwise_pearson(block)
        scalar = scalar_pairwise(block)
        assert_bitwise(batched, scalar)
        # The idle row is nan against every finite row; its pairing with the
        # NaN-gap row has denom sqrt(0 * nan) = nan != 0, so it clamps to 1.0
        # (see below) rather than reporting nan.
        assert np.all(np.isnan(np.delete(batched[1], 4)))
        # The scalar path's documented quirk -- max(-1, min(1, nan)) clamps
        # the NaN-poisoned ratio to 1.0 -- must be reproduced, not "fixed".
        assert batched[4, 0] == scalar[4, 0] == 1.0

    def test_diagonal_matches_scalar(self, rng):
        block = rng.normal(size=(4, 100))
        batched = pairwise_pearson(block)
        for i in range(4):
            assert batched[i, i] == pearson_correlation(block[i], block[i])

    def test_symmetric(self, rng):
        matrix = pairwise_pearson(rng.normal(size=(8, 150)))
        assert np.array_equal(matrix, matrix.T, equal_nan=True)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pairwise_pearson(np.ones(10))

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            pairwise_pearson(np.ones((3, 1)))


class TestCoefficientOfVariationRows:
    def test_matches_scalar_bitwise(self, rng):
        block = rng.uniform(0.1, 5.0, size=(9, 168))
        block[3] = 2.5  # constant row: CV exactly 0
        block[5] -= block[5].mean()  # zero-mean row: CV nan
        rows = coefficient_of_variation_rows(block)
        for i in range(block.shape[0]):
            scalar = coefficient_of_variation(block[i])
            assert rows[i] == scalar or (np.isnan(rows[i]) and np.isnan(scalar))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            coefficient_of_variation_rows(np.ones(5))

    def test_zero_columns_raises(self):
        with pytest.raises(ValueError):
            coefficient_of_variation_rows(np.empty((3, 0)))


class TestBoxplotStats:
    def test_quartiles(self):
        stats = BoxplotStats.from_samples(np.arange(1, 101, dtype=float))
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)
        assert stats.n_samples == 100

    def test_outliers_detected(self):
        samples = np.concatenate([np.arange(1, 101, dtype=float), [1000.0]])
        stats = BoxplotStats.from_samples(samples)
        assert stats.n_outliers == 1
        assert stats.whisker_high <= 100.0

    def test_whiskers_clip_to_data(self):
        stats = BoxplotStats.from_samples(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert stats.whisker_low == 1.0
        assert stats.whisker_high == 5.0

    def test_nan_dropped(self):
        stats = BoxplotStats.from_samples(np.array([1.0, np.nan, 3.0]))
        assert stats.n_samples == 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BoxplotStats.from_samples(np.array([np.nan]))

    @given(arrays)
    @settings(max_examples=50)
    def test_ordering_invariants(self, samples):
        stats = BoxplotStats.from_samples(samples)
        # Quartiles are ordered; whiskers bracket the in-fence data.  Note a
        # whisker may legitimately sit inside the box (e.g. [0, 1, 1, 1]:
        # the only in-fence minimum is 1.0 > Q1 = 0.75), so we do not assert
        # whisker_low <= q1.
        assert stats.q1 <= stats.median <= stats.q3
        assert stats.whisker_low <= stats.whisker_high
        iqr = stats.q3 - stats.q1
        assert stats.whisker_low >= stats.q1 - 1.5 * iqr - 1e-9
        assert stats.whisker_high <= stats.q3 + 1.5 * iqr + 1e-9
        assert 0 <= stats.n_outliers < stats.n_samples or stats.n_outliers == 0
