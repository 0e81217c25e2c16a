"""Unit/integration tests for the region-shift planner."""

from __future__ import annotations

import pytest

from repro.experiments.case_study import SERVICE_X, build_canada_scenario
from repro.management.placement import RegionShiftPlanner
from repro.telemetry.schema import Cloud


@pytest.fixture(scope="module")
def scenario():
    return build_canada_scenario(seed=11)


@pytest.fixture(scope="module")
def planner(scenario):
    return RegionShiftPlanner(scenario, cloud=Cloud.PRIVATE)


class TestSnapshots:
    def test_canada_a_matches_pilot_start(self, planner):
        snap = planner.snapshot("canada-a")
        assert snap.core_utilization_rate == pytest.approx(0.42, abs=0.02)
        assert snap.underutilized_percentage == pytest.approx(0.23, abs=0.03)

    def test_canada_b_cold(self, planner):
        snap = planner.snapshot("canada-b")
        assert snap.core_utilization_rate < 0.2

    def test_exclusion_counterfactual(self, planner, scenario):
        moved = {
            vm.vm_id
            for vm in scenario.vms(region="canada-a")
            if vm.service == SERVICE_X
        }
        snap = planner.snapshot("canada-a", exclude_vm_ids=moved)
        baseline = planner.snapshot("canada-a")
        assert snap.allocated_cores < baseline.allocated_cores

    def test_extra_cores_counterfactual(self, planner):
        baseline = planner.snapshot("canada-b")
        boosted = planner.snapshot("canada-b", extra_cores=96.0)
        assert boosted.allocated_cores == baseline.allocated_cores + 96.0

    def test_all_snapshots(self, planner):
        snaps = planner.all_snapshots()
        assert set(snaps) == {"canada-a", "canada-b"}


class TestRecommendation:
    def test_recommends_service_x(self, planner):
        recs = planner.recommend(source_region="canada-a", target_region="canada-b")
        services = [r.service for r in recs]
        assert SERVICE_X in services
        rec = next(r for r in recs if r.service == SERVICE_X)
        assert rec.moved_cores == pytest.approx(96.0)
        assert rec.source_region == "canada-a"

    def test_auto_region_selection(self, planner):
        recs = planner.recommend()
        assert recs
        assert recs[0].source_region == "canada-a"
        assert recs[0].target_region == "canada-b"

    def test_evaluate_shift_improves_source(self, planner):
        rec = planner.recommend(
            source_region="canada-a", target_region="canada-b"
        )[0]
        outcome = planner.evaluate_shift(rec)
        before, after = outcome["source_before"], outcome["source_after"]
        assert after.underutilized_percentage < before.underutilized_percentage
        assert after.core_utilization_rate < before.core_utilization_rate
        t_before, t_after = outcome["target_before"], outcome["target_after"]
        assert t_after.allocated_cores > t_before.allocated_cores

class TestOnGeneratedTrace:
    def test_recommend_runs_on_full_trace(self, medium_trace):
        planner = RegionShiftPlanner(medium_trace, cloud=Cloud.PRIVATE)
        recs = planner.recommend()
        # The private cloud has region-agnostic services; a recommendation
        # should exist (source region auto-picked).
        assert isinstance(recs, list)
        if recs:
            outcome = planner.evaluate_shift(recs[0])
            assert (
                outcome["source_after"].allocated_cores
                <= outcome["source_before"].allocated_cores
            )
