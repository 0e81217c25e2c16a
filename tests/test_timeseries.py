"""Unit and property tests for time-series utilities."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.timeseries import (
    fold_daily,
    hourly_event_counts,
    hourly_occupancy,
    percentile_bands,
    sorted_percentile,
)


class TestHourlyEventCounts:
    def test_basic_binning(self):
        times = np.array([0.0, 10.0, 3600.0, 7300.0])
        counts = hourly_event_counts(times, duration=3 * 3600)
        assert list(counts) == [2, 1, 1]

    def test_events_outside_window_ignored(self):
        times = np.array([-5.0, 100.0, 99999999.0])
        counts = hourly_event_counts(times, duration=3600)
        assert list(counts) == [1]

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0, 86400, 500)
        counts = hourly_event_counts(times, duration=86400)
        assert counts.sum() == 500
        assert counts.shape == (24,)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            hourly_event_counts(np.array([1.0]), duration=0)

    @given(st.lists(st.floats(min_value=0, max_value=86399), min_size=0, max_size=200))
    @settings(max_examples=50)
    def test_conservation_property(self, times):
        counts = hourly_event_counts(np.array(times), duration=86400)
        assert counts.sum() == len(times)


class TestHourlyOccupancy:
    def test_single_interval(self):
        counts = hourly_occupancy(
            np.array([0.0]), np.array([2 * 3600.0]), duration=4 * 3600
        )
        assert list(counts) == [1, 1, 0, 0]

    def test_censored_interval_counts_forever(self):
        counts = hourly_occupancy(
            np.array([3600.0]), np.array([np.inf]), duration=3 * 3600
        )
        assert list(counts) == [0, 1, 1]

    def test_nan_end_treated_as_censored(self):
        counts = hourly_occupancy(
            np.array([0.0]), np.array([np.nan]), duration=2 * 3600
        )
        assert list(counts) == [1, 1]

    def test_interval_born_before_window(self):
        counts = hourly_occupancy(
            np.array([-100.0]), np.array([1800.0]), duration=2 * 3600
        )
        assert list(counts) == [1, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hourly_occupancy(np.array([0.0]), np.array([1.0, 2.0]), duration=3600)

    def test_inverted_interval_never_alive(self):
        counts = hourly_occupancy(
            np.array([7200.0]), np.array([0.0]), duration=3 * 3600
        )
        assert list(counts) == [0, 0, 0]

    @staticmethod
    def _dense_reference(starts, ends, *, duration, start=0.0):
        """The original O(n_hours * n_vms) implementation, kept as an oracle."""
        starts = np.asarray(starts, dtype=np.float64).ravel()
        ends = np.asarray(ends, dtype=np.float64).ravel()
        ends = np.where(np.isnan(ends), np.inf, ends)
        n_hours = int(np.ceil(duration / 3600.0))
        boundaries = start + 3600.0 * np.arange(n_hours, dtype=np.float64)
        alive = (starts[None, :] <= boundaries[:, None]) & (
            ends[None, :] > boundaries[:, None]
        )
        return alive.sum(axis=1)

    def test_matches_dense_reference(self, rng):
        n = 500
        duration = 7 * 24 * 3600.0
        starts = rng.uniform(-3600, duration, n)
        ends = starts + rng.exponential(6 * 3600, n)
        ends[rng.random(n) < 0.1] = np.inf
        ends[rng.random(n) < 0.1] = np.nan
        fast = hourly_occupancy(starts, ends, duration=duration)
        assert np.array_equal(fast, self._dense_reference(starts, ends, duration=duration))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-3600, max_value=86400),
                st.one_of(
                    st.floats(min_value=0, max_value=172800),
                    st.just(np.inf),
                    st.just(np.nan),
                ),
            ),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_equivalence_property(self, intervals):
        # Raw (possibly inverted) intervals: both implementations must agree
        # that end < start is never alive.
        starts = np.array([s for s, _ in intervals], dtype=np.float64)
        ends = np.array([e for _, e in intervals], dtype=np.float64)
        fast = hourly_occupancy(starts, ends, duration=86400)
        assert np.array_equal(
            fast, self._dense_reference(starts, ends, duration=86400)
        )

    def test_memory_stays_linear(self):
        """150k VMs x 168 hours must not allocate the dense boolean matrix.

        The dense formulation peaks at ~25 MB (n_hours * n_vms bytes); the
        searchsorted rewrite needs only a few sorted copies of the inputs,
        so peak traced allocation stays in single-digit megabytes.
        """
        import tracemalloc

        n = 150_000
        rng = np.random.default_rng(1)
        duration = 168 * 3600.0
        starts = rng.uniform(0, duration, n)
        ends = starts + rng.exponential(24 * 3600, n)
        tracemalloc.start()
        try:
            counts = hourly_occupancy(starts, ends, duration=duration)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (168,)
        assert peak < 8 * 1024 * 1024


class TestPercentileBands:
    def test_known_percentiles(self):
        matrix = np.arange(100, dtype=float).reshape(100, 1)
        bands = percentile_bands(matrix, (50.0,))
        assert bands.band(50.0)[0] == pytest.approx(49.5)
        assert bands.n_series == 100

    def test_band_ordering(self, rng):
        matrix = rng.uniform(0, 1, size=(40, 24))
        bands = percentile_bands(matrix)
        assert np.all(bands.band(25.0) <= bands.band(50.0))
        assert np.all(bands.band(50.0) <= bands.band(75.0))
        assert np.all(bands.band(75.0) <= bands.band(95.0))

    def test_unknown_percentile_raises(self):
        bands = percentile_bands(np.ones((2, 3)), (50.0,))
        with pytest.raises(KeyError):
            bands.band(99.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            percentile_bands(np.ones(5))

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            percentile_bands(np.empty((0, 5)))

    def test_nan_gap_does_not_poison_column(self):
        """One VM's missing sample must not wipe out the whole timestamp."""
        matrix = np.array([[1.0, 1.0], [2.0, np.nan], [3.0, 3.0]])
        bands = percentile_bands(matrix, (50.0,))
        assert bands.band(50.0)[0] == pytest.approx(2.0)
        # Median over the remaining finite samples {1, 3}.
        assert bands.band(50.0)[1] == pytest.approx(2.0)
        assert bands.n_series == 3

    def test_all_nan_column_stays_nan_without_warning(self):
        matrix = np.array([[np.nan, 1.0], [np.nan, 3.0]])
        with np.errstate(all="raise"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bands = percentile_bands(matrix, (25.0, 50.0))
        assert np.all(np.isnan(bands.band(50.0)[:1]))
        assert np.isnan(bands.band(25.0)[0])
        assert bands.band(50.0)[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [(50.0, 100.5), (-1.0,), (np.nan,)])
    def test_out_of_range_percentile_raises(self, rng, bad):
        with pytest.raises(ValueError):
            percentile_bands(rng.random((5, 4)), bad)

    def test_nan_free_path_unchanged(self, rng):
        matrix = rng.uniform(0, 1, size=(20, 12))
        with_nan_path = percentile_bands(matrix)
        assert np.array_equal(
            with_nan_path.bands, np.percentile(matrix, (25.0, 50.0, 75.0, 95.0), axis=0)
        )


def _float64_reference_bands(matrix, percentiles):
    """Percentiles of the float64 matrix along axis 0, NaN-aware per column."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.isnan(m).any():
        return np.percentile(m, percentiles, axis=0)
    bands = np.full((len(percentiles), m.shape[1]), np.nan)
    has_data = ~np.all(np.isnan(m), axis=0)
    bands[:, has_data] = np.nanpercentile(m[:, has_data], percentiles, axis=0)
    return bands


def _with_nans(m, rng, share):
    m = m.copy()
    m[rng.random(m.shape) < share] = np.nan
    return m


_BAND_CASES = {
    "random": lambda rng: rng.random((50, 37)),
    "ties_and_zeros": lambda rng: np.floor(rng.random((60, 30)) * 4) / 4,
    "mostly_zero": lambda rng: np.where(rng.random((40, 25)) < 0.8, 0.0, rng.random((40, 25))),
    "constant_columns": lambda rng: np.tile(rng.random(12), (9, 1)),
    "one_row": lambda rng: rng.random((1, 20)),
    "two_rows": lambda rng: rng.random((2, 20)),
    "three_rows": lambda rng: rng.random((3, 20)),
    "720_rows_ties": lambda rng: np.floor(rng.random((720, 12)) * 7) / 7,
    "1501_rows_constant_columns": lambda rng: np.hstack(
        [rng.random((1501, 6)), np.full((1501, 2), 0.25)]
    ),
    "nan_gaps": lambda rng: _with_nans(rng.random((45, 33)), rng, 0.2),
    "nan_gaps_two_rows": lambda rng: _with_nans(rng.random((2, 40)), rng, 0.4),
    "all_nan_columns": lambda rng: np.where(
        np.arange(18) % 5 == 0, np.nan, _with_nans(rng.random((30, 18)), rng, 0.3)
    ),
}


class TestPercentileBandsBitwise:
    """Sort-first bands are byte-equal to float64 ``np.percentile`` along axis 0."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(_BAND_CASES))
    def test_bytes_equal_reference(self, case, dtype):
        matrix = _BAND_CASES[case](np.random.default_rng(3)).astype(dtype)
        original = matrix.copy()
        for percentiles in [(25.0, 50.0, 75.0, 95.0), (0.0, 1.0, 33.3, 99.9, 100.0)]:
            expected = _float64_reference_bands(matrix, percentiles)
            for layout in (matrix, np.asfortranarray(matrix)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    bands = percentile_bands(layout, percentiles).bands
                assert bands.dtype == np.float64
                assert bands.tobytes() == expected.tobytes()
                assert layout.tobytes() == original.tobytes()  # input left as it was


_SAMPLE_CASES = {
    "random": lambda rng, n: rng.random(n),
    "ties": lambda rng, n: np.floor(rng.random(n) * 5) / 5,
    "constant": lambda rng, n: np.full(n, 0.37),
    "zeros_and_ones": lambda rng, n: (rng.random(n) < 0.5).astype(np.float64),
    "mostly_zero": lambda rng, n: np.where(rng.random(n) < 0.9, 0.0, rng.random(n)),
    # Neighbours orders of magnitude apart make b - a inexact, which is
    # where a + d * g and b - d * (1 - g) part at g = 0.5.
    "log_spread": lambda rng, n: 10.0 ** rng.uniform(-9.0, 0.0, n),
}


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


class TestSortedPercentile:
    """The sorted-read quantile is bitwise ``np.percentile`` (linear method)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 2016, 2 * 2016, 5 * 2016])
    @pytest.mark.parametrize("case", sorted(_SAMPLE_CASES))
    def test_float32_scalar_percentile(self, case, n):
        values = _SAMPLE_CASES[case](np.random.default_rng(n), n).astype(np.float32)
        for q in (0, 50, 95, 100, 95.0, 33.3):
            expected = np.percentile(values, q)
            got = sorted_percentile(np.sort(values), q)
            assert type(got) is type(expected) is np.float32
            assert _bits(got) == _bits(expected), (q, got, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 2016, 3 * 2016])
    @pytest.mark.parametrize("case", sorted(_SAMPLE_CASES))
    def test_float64_vector_percentiles(self, case, n):
        rows = np.stack([_SAMPLE_CASES[case](np.random.default_rng(n + k), n) for k in range(4)])
        sorted_rows = np.sort(rows.astype(np.float32), axis=1)
        for q in [(0.0, 50.0, 95.0, 100.0), (25.0, 50.0, 75.0, 95.0), [95]]:
            expected = np.percentile(rows.astype(np.float32).astype(np.float64), q, axis=1)
            got = sorted_percentile(sorted_rows, q, dtype=np.float64)
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert _bits(got) == _bits(expected), q
            same_dtype = sorted_percentile(np.sort(rows, axis=1), q)
            assert _bits(same_dtype) == _bits(np.percentile(rows, q, axis=1))

    def test_a_nan_gives_nan(self):
        values = np.array([0.2, np.nan, 0.1, 1.0], dtype=np.float32)
        expected = np.percentile(values, 95)
        got = sorted_percentile(np.sort(values), 95)
        assert np.isnan(got) and _bits(got) == _bits(expected)
        rows = np.array([[0.1, 0.5, 0.9], [0.3, np.nan, 0.2]])
        expected = np.percentile(rows, (0.0, 50.0, 100.0), axis=1)
        got = sorted_percentile(np.sort(rows, axis=1), (0.0, 50.0, 100.0))
        assert _bits(got) == _bits(expected)
        assert np.isnan(got[:, 1]).all() and not np.isnan(got[:, 0]).any()

    @pytest.mark.parametrize("bad", [-1, 100.5, (50.0, 101.0), (np.nan,)])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ValueError, match="range"):
            sorted_percentile(np.arange(4.0), bad)


class TestFoldDaily:
    def test_fold_average(self):
        # Two days: day 1 all zeros, day 2 all twos -> folded = ones.
        series = np.concatenate([np.zeros(4), np.full(4, 2.0)])
        assert np.allclose(fold_daily(series, 4), 1.0)

    def test_partial_day_trimmed(self):
        series = np.arange(10, dtype=float)
        folded = fold_daily(series, 4)  # uses first 8 samples
        assert folded.shape == (4,)
        assert folded[0] == pytest.approx((0 + 4) / 2)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            fold_daily(np.ones(3), 4)

    def test_periodic_series_folds_exactly(self):
        day = np.sin(np.linspace(0, 2 * np.pi, 288, endpoint=False))
        week = np.tile(day, 7)
        assert np.allclose(fold_daily(week, 288), day)
