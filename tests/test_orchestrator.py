"""Integration tests for the workload-aware optimization loop."""

from __future__ import annotations

import pytest

from repro.core.knowledge_base import (
    POLICY_OVERSUBSCRIPTION,
    POLICY_REGION_SHIFT,
    POLICY_SPOT_ADOPTION,
    POLICY_VALLEY_FILL,
    WorkloadKnowledgeBase,
)
from repro.management.orchestrator import (
    PolicyOutcome,
    WorkloadAwareOrchestrator,
)
from repro.telemetry.store import TraceStore


def outcome_of(report, policy: str):
    """The report's outcome for ``policy``, or ``None`` if it was not applicable."""
    return next((o for o in report.outcomes if o.policy == policy), None)


@pytest.fixture(scope="module")
def report(medium_trace):
    orchestrator = WorkloadAwareOrchestrator(medium_trace)
    return orchestrator.run()


class TestFullLoop:
    def test_all_main_policies_sized(self, report):
        policies = {o.policy for o in report.outcomes}
        assert POLICY_SPOT_ADOPTION in policies
        assert POLICY_OVERSUBSCRIPTION in policies
        assert POLICY_VALLEY_FILL in policies

    def test_spot_metrics(self, report):
        outcome = outcome_of(report, POLICY_SPOT_ADOPTION)
        assert outcome is not None
        assert outcome.applicable_subscriptions > 0
        assert 0 < outcome.metrics["cost_saving_fraction"] < 1
        assert outcome.metrics["candidate_fraction"] > 0.5

    def test_oversubscription_metrics(self, report):
        outcome = outcome_of(report, POLICY_OVERSUBSCRIPTION)
        assert outcome is not None
        assert outcome.metrics["utilization_gain"] > 0.2
        assert outcome.metrics["violation_rate"] <= 0.05 + 1e-9

    def test_valley_fill_metrics(self, report):
        outcome = outcome_of(report, POLICY_VALLEY_FILL)
        assert outcome is not None
        assert outcome.metrics["variance_reduction"] > 0
        assert outcome.metrics["jobs_placed"] > 0

    def test_region_shift_if_applicable(self, report):
        outcome = outcome_of(report, POLICY_REGION_SHIFT)
        if outcome is not None:
            assert outcome.metrics["moved_cores"] > 0

    def test_render(self, report):
        text = report.render()
        assert "Workload-aware optimization report" in text
        assert POLICY_SPOT_ADOPTION in text

    def test_reuses_provided_kb(self, medium_trace):
        kb = WorkloadKnowledgeBase.from_trace(medium_trace)
        orchestrator = WorkloadAwareOrchestrator(medium_trace, knowledge_base=kb)
        assert orchestrator.kb is kb


class TestDegenerateInputs:
    def test_empty_trace_yields_empty_report(self):
        store = TraceStore()
        orchestrator = WorkloadAwareOrchestrator(
            store, knowledge_base=WorkloadKnowledgeBase()
        )
        report = orchestrator.run()
        assert report.outcomes == []

    def test_policy_outcome_render_formats_fractions(self):
        outcome = PolicyOutcome(
            policy="x", applicable_subscriptions=3,
            metrics={"cost_saving_fraction": 0.123, "moved_cores": 96.0},
        )
        text = outcome.render()
        assert "12.3%" in text
        assert "96.00" in text
