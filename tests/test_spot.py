"""Unit/integration tests for the spot-VM subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.management import spot
from repro.management.spot import SpotAdoptionAdvisor, SpotAdoptionReport, hourly_survival
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_HOUR


@pytest.fixture()
def eviction_curve(monkeypatch):
    """Set the eviction knee and the rate at full allocation."""

    def set_curve(knee: float, max_rate: float = spot.MAX_EVICTION_RATE) -> None:
        monkeypatch.setattr(spot, "EVICTION_KNEE", knee)
        monkeypatch.setattr(spot, "MAX_EVICTION_RATE", max_rate)

    return set_curve


def _scalar_survival(pressure: float) -> float:
    """The per-hour survival factor as a scalar: clip, knee, then ``** 2``."""
    knee, max_rate = spot.EVICTION_KNEE, spot.MAX_EVICTION_RATE
    pressure = float(np.clip(pressure, 0.0, 1.0))
    if pressure <= knee:
        return 1.0 - 0.0
    return 1.0 - max_rate * ((pressure - knee) / (1.0 - knee)) ** 2


class TestEvictionModel:
    def test_no_eviction_below_knee(self, eviction_curve):
        eviction_curve(0.75)
        assert hourly_survival(np.array([0.5, 0.75])).tolist() == [1.0, 1.0]

    def test_rises_to_max(self, eviction_curve):
        eviction_curve(0.5, 0.4)
        at_full, at_high = hourly_survival(np.array([1.0, 0.8]))
        assert at_full == pytest.approx(0.6)
        assert 0.6 < at_high < 1.0

    def test_monotone(self):
        survival = hourly_survival(np.linspace(0, 1, 50))
        assert np.all(np.diff(survival) <= 1e-12)

    def test_pressure_clipped(self):
        survival = hourly_survival(np.array([2.0, 1.0, -1.0, 0.0]))
        assert survival[0] == survival[1]
        assert survival[2] == survival[3] == 1.0

    def test_survival(self, eviction_curve):
        eviction_curve(0.5, 0.5)
        assert np.prod(hourly_survival(np.array([1.0, 1.0]))) == pytest.approx(0.25)
        assert np.prod(hourly_survival(np.array([0.1, 0.2]))) == 1.0

    @pytest.mark.parametrize(("knee", "max_rate"), [(0.75, 0.30), (0.05, 0.30), (0.5, 0.77)])
    def test_factors_bitwise_scalar(self, knee, max_rate, eviction_curve):
        # Below 0, at 0, at the knee, at 1, above 1, and a dense sweep:
        # Python's ``** 2`` (libm pow) rounds some squares differently
        # from numpy's ``x * x``, so the sweep catches a numpy square.
        eviction_curve(knee, max_rate)
        pressures = np.concatenate(
            [[-0.5, 0.0, knee, 1.0, 1.5], np.random.default_rng(0).uniform(-0.2, 1.2, 20_000)]
        )
        expected = np.array([_scalar_survival(p) for p in pressures])
        assert hourly_survival(pressures).tobytes() == expected.tobytes()
        assert hourly_survival(pressures[:0]).shape == (0,)


class TestAdoptionAdvisor:
    def test_what_if_on_generated_trace(self, small_trace):
        advisor = SpotAdoptionAdvisor(small_trace)
        report = advisor.analyze()
        assert report.n_total_completed > 0
        assert 0 < report.n_candidates <= report.n_total_completed
        assert 0 < report.candidate_core_hours <= report.total_core_hours
        assert 0 < report.cost_saving_fraction < 1
        assert report.expected_evictions >= 0
        assert 0 <= report.valley_start_fraction <= 1

    def test_candidate_fraction_matches_short_lived_public(self, small_trace):
        advisor = SpotAdoptionAdvisor(small_trace)
        report = advisor.analyze()
        # The paper's motivation: most completed public VMs are candidates.
        assert report.candidate_fraction > 0.5

    def test_discount_scales_savings(self, small_trace, monkeypatch):
        monkeypatch.setattr(spot, "SPOT_DISCOUNT", 0.3)
        low = SpotAdoptionAdvisor(small_trace).analyze()
        monkeypatch.setattr(spot, "SPOT_DISCOUNT", 0.9)
        high = SpotAdoptionAdvisor(small_trace).analyze()
        assert high.cost_saving_fraction == pytest.approx(
            3 * low.cost_saving_fraction
        )

    def test_empty_store_raises(self):
        with pytest.raises(ValueError):
            SpotAdoptionAdvisor(TraceStore()).analyze()

    def test_max_candidate_lifetime_filters(self, small_trace, monkeypatch):
        monkeypatch.setattr(spot, "MAX_CANDIDATE_LIFETIME", 600.0)
        strict = SpotAdoptionAdvisor(small_trace).analyze()
        monkeypatch.setattr(spot, "MAX_CANDIDATE_LIFETIME", 86400.0)
        loose = SpotAdoptionAdvisor(small_trace).analyze()
        assert strict.n_candidates < loose.n_candidates


def _analyze_reference(advisor: SpotAdoptionAdvisor) -> SpotAdoptionReport:
    """The what-if as it was: a region median and a survival product per VM."""
    store = advisor.store
    duration = store.metadata.duration
    pressures = {
        region: advisor._region_pressure(region)
        for region in store.region_names(cloud=Cloud.PUBLIC)
    }
    n_candidates = n_completed = valley_starts = 0
    candidate_core_hours = total_core_hours = expected_evictions = 0.0
    for vm in store.vms(cloud=Cloud.PUBLIC):
        if not vm.completed or vm.created_at < 0 or vm.ended_at > duration:
            continue
        n_completed += 1
        core_hours = vm.cores * vm.lifetime / SECONDS_PER_HOUR
        total_core_hours += core_hours
        if vm.lifetime > spot.MAX_CANDIDATE_LIFETIME:
            continue
        n_candidates += 1
        candidate_core_hours += core_hours
        pressure = pressures[vm.region]
        first = int(vm.created_at // SECONDS_PER_HOUR)
        last = min(int(vm.ended_at // SECONDS_PER_HOUR), len(pressure) - 1)
        window = pressure[first : last + 1]
        expected_evictions += 1.0 - float(np.prod(hourly_survival(window)))
        if window.size and window[0] < np.median(pressure):
            valley_starts += 1
    return SpotAdoptionReport(
        n_candidates=n_candidates,
        n_total_completed=n_completed,
        candidate_core_hours=candidate_core_hours,
        total_core_hours=total_core_hours,
        cost_saving_fraction=float(
            spot.SPOT_DISCOUNT * candidate_core_hours / total_core_hours
        ),
        expected_evictions=float(expected_evictions),
        valley_start_fraction=valley_starts / n_candidates if n_candidates else 0.0,
    )


class TestMatchesPerVmReference:
    @pytest.mark.parametrize("trace", ["small_trace", "medium_trace"])
    def test_report_identical(self, trace, request, eviction_curve):
        # A low knee makes evictions likely, so the memoized survival terms
        # carry real weight in expected_evictions.
        advisor = SpotAdoptionAdvisor(request.getfixturevalue(trace))
        for knee in (spot.EVICTION_KNEE, 0.05):
            eviction_curve(knee)
            assert advisor.analyze() == _analyze_reference(advisor)
