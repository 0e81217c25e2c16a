"""Unit and property tests for 2-D heatmaps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.heatmap import build_heatmap

positive = st.floats(min_value=0.1, max_value=1e4, allow_nan=False, allow_infinity=False)
positive_arrays = hnp.arrays(dtype=np.float64, shape=st.integers(1, 150), elements=positive)


def test_mass_conservation_inside_range():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = np.array([1.0, 2.0, 4.0, 8.0])
    hm = build_heatmap(x, y, bins=4, x_range=(1, 8), y_range=(1, 8))
    assert hm.density.sum() == pytest.approx(1.0)
    assert hm.n_samples == 4


def test_out_of_range_samples_drop_mass():
    x = np.array([1.0, 100.0])
    y = np.array([1.0, 100.0])
    hm = build_heatmap(x, y, bins=4, x_range=(0.5, 10), y_range=(0.5, 10))
    assert hm.density.sum() == pytest.approx(0.5)


def test_log_bins_require_positive():
    with pytest.raises(ValueError):
        build_heatmap(np.array([-1.0, 2.0]), np.array([1.0, 2.0]), log=True)


def test_linear_bins_allow_negative():
    hm = build_heatmap(np.array([-5.0, 5.0]), np.array([-2.0, 2.0]), bins=4, log=False)
    assert hm.density.sum() == pytest.approx(1.0)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        build_heatmap(np.ones(3), np.ones(4))


def test_empty_raises():
    with pytest.raises(ValueError):
        build_heatmap(np.array([]), np.array([]))


def test_near_degenerate_span_keeps_edges_increasing():
    # A data span of a few ulps must not collapse into duplicate edges.
    x = np.array([0.1, np.nextafter(0.1, 1.0)])
    hm = build_heatmap(x, x, bins=2)
    assert np.all(np.diff(hm.x_edges) > 0)
    assert np.all(np.diff(hm.y_edges) > 0)


def test_corner_mass_detects_extremes():
    # Concentrated center vs mass pushed to corners.
    center_x = np.full(100, 10.0)
    center_y = np.full(100, 10.0)
    hm_center = build_heatmap(center_x, center_y, bins=8, x_range=(1, 100), y_range=(1, 100))
    corner_x = np.concatenate([np.full(50, 1.0), np.full(50, 100.0)])
    corner_y = np.concatenate([np.full(50, 1.0), np.full(50, 100.0)])
    hm_corner = build_heatmap(corner_x, corner_y, bins=8, x_range=(1, 100), y_range=(1, 100))
    assert hm_corner.corner_mass() > hm_center.corner_mass()


def test_occupied_fraction():
    x = np.array([1.0, 100.0])
    y = np.array([1.0, 100.0])
    hm = build_heatmap(x, y, bins=10, x_range=(1, 100), y_range=(1, 100))
    assert hm.occupied_fraction() == pytest.approx(2 / 100)


@given(positive_arrays)
@settings(max_examples=50)
def test_mass_never_exceeds_one(x):
    hm = build_heatmap(x, x, bins=6)
    assert hm.density.sum() <= 1.0 + 1e-9
    assert np.all(hm.density >= 0)


@given(positive_arrays, st.integers(2, 12))
@settings(max_examples=40)
def test_density_shape_matches_bins(x, bins):
    hm = build_heatmap(x, x, bins=bins)
    assert hm.density.shape == (bins, bins)
    assert hm.x_edges.shape == (bins + 1,)
    assert np.all(np.diff(hm.x_edges) > 0)
