"""Unit/integration tests for the Section IV-A utilization analyses."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.timeseries import PercentileBands, fold_daily, percentile_bands
from repro.core import utilization as util
from repro.core.patterns import pattern_mix
from repro.experiments import fig6
from repro.telemetry.schema import Cloud, PATTERN_DIURNAL, PATTERN_STABLE
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY


class TestPatternMixAnalysis:
    def test_fractions_sum_to_one(self, small_trace):
        mix = pattern_mix(small_trace, Cloud.PRIVATE, max_vms=120)
        assert sum(mix.as_fractions().values()) == pytest.approx(1.0)

    def test_cloud_mixes_differ_in_documented_direction(self, medium_trace):
        p = pattern_mix(medium_trace, Cloud.PRIVATE, max_vms=400).as_fractions()
        q = pattern_mix(medium_trace, Cloud.PUBLIC, max_vms=400).as_fractions()
        assert p[PATTERN_DIURNAL] > q[PATTERN_DIURNAL]
        assert q[PATTERN_STABLE] > p[PATTERN_STABLE]


class TestPercentiles:
    def test_weekly_band_shapes(self, small_trace):
        bands = util.weekly_percentiles(small_trace, Cloud.PRIVATE, max_vms=200)
        assert bands.bands.shape[1] == small_trace.metadata.n_samples
        assert np.all(bands.band(25.0) <= bands.band(75.0))

    def test_daily_fold_length(self, small_trace):
        weekly = util.weekly_percentiles(small_trace, Cloud.PRIVATE, max_vms=200)
        daily = util.daily_bands(weekly, small_trace.metadata.sample_period)
        assert daily.bands.shape[1] == 288

    def test_empty_store_raises(self):
        with pytest.raises(ValueError):
            util.weekly_percentiles(TraceStore(), Cloud.PRIVATE)

    def test_p75_under_40_percent(self, small_trace):
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            bands = util.weekly_percentiles(small_trace, cloud, max_vms=300)
            assert bands.band(75.0).mean() < 0.40

    def test_window_peak_stays_under_budget(self, monkeypatch):
        """One band window's tracemalloc peak fits the module budget.

        The budget is shrunk so 2,000 series split into ~400-column
        windows; the bands equal one unwindowed pass bit for bit.
        """
        import tracemalloc

        from tests.test_store import make_vm

        store = TraceStore()
        n_vms, n_samples = 2000, store.metadata.n_samples
        for vm_id in range(n_vms):
            store.add_vm(make_vm(vm_id))
        rng = np.random.default_rng(0)
        store.add_utilization_block(
            list(range(n_vms)), rng.random((n_vms, n_samples), dtype=np.float32)
        )
        budget = util._BAND_BYTES_PER_ELEMENT * n_vms * 400
        monkeypatch.setattr(util, "_BAND_WINDOW_BYTES", budget)
        # Untraced first: the query index, and numpy's one-off first-call state.
        store.vm_ids_with_utilization(cloud=Cloud.PRIVATE)
        whole = percentile_bands(store.utilization_matrix(range(n_vms)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bands = util.weekly_percentiles(store, Cloud.PRIVATE)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < budget
        assert bands.bands.tobytes() == whole.bands.tobytes()

    def test_private_daily_swing_larger(self, medium_trace):
        p, q = (
            util.daily_bands(
                util.weekly_percentiles(medium_trace, cloud, max_vms=400),
                medium_trace.metadata.sample_period,
            )
            for cloud in (Cloud.PRIVATE, Cloud.PUBLIC)
        )
        assert util.daily_range(p) > util.daily_range(q)


def _daily_percentiles_reference(
    store: TraceStore, cloud: Cloud, max_vms: int
) -> PercentileBands:
    """The daily fold as it was: weekly bands recomputed from the store."""
    weekly = util.weekly_percentiles(store, cloud, max_vms=max_vms)
    samples_per_day = int(SECONDS_PER_DAY // store.metadata.sample_period)
    folded = np.vstack([fold_daily(band, samples_per_day) for band in weekly.bands])
    return PercentileBands(
        percentiles=weekly.percentiles, bands=folded, n_series=weekly.n_series
    )


class TestFig6DailyBands:
    @pytest.mark.parametrize("trace", ["small_trace", "medium_trace"])
    def test_daily_bands_match_store_reference(self, trace, request):
        store = request.getfixturevalue(trace)
        result = fig6.run(store)
        for cloud, key in ((Cloud.PRIVATE, "private_daily"), (Cloud.PUBLIC, "public_daily")):
            expected = _daily_percentiles_reference(store, cloud, max_vms=fig6.MAX_VMS)
            got = result.series[key]
            assert got.percentiles == expected.percentiles
            assert got.n_series == expected.n_series
            assert got.bands.dtype == expected.bands.dtype
            assert np.array_equal(got.bands, expected.bands)


class TestSamplePatternSeries:
    def test_returns_requested_pattern(self, small_trace):
        samples = util.sample_pattern_series(
            small_trace, Cloud.PRIVATE, PATTERN_DIURNAL, n_samples=2
        )
        assert 0 < len(samples) <= 2
        for vm_id, series in samples.items():
            assert small_trace.vm(vm_id).pattern == PATTERN_DIURNAL
            assert series.shape == (small_trace.metadata.n_samples,)

    def test_unknown_pattern_empty(self, small_trace):
        assert util.sample_pattern_series(small_trace, Cloud.PRIVATE, "nope") == {}


def test_daily_range_of_flat_band_is_zero():
    from repro.analysis.timeseries import PercentileBands

    bands = PercentileBands(percentiles=(50.0,), bands=np.ones((1, 288)), n_series=3)
    assert util.daily_range(bands) == 0.0
