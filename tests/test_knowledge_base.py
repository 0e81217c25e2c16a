"""Unit/integration tests for the workload knowledge base."""

from __future__ import annotations

import json

import pytest

from repro.core.knowledge_base import (
    POLICY_FAILURE_PREDICTION,
    POLICY_OVERSUBSCRIPTION,
    POLICY_REGION_SHIFT,
    POLICY_SPOT_ADOPTION,
    POLICY_VALLEY_FILL,
    SubscriptionKnowledge,
    WorkloadKnowledgeBase,
    build_subscription_records,
)
from repro.telemetry.schema import Cloud, PATTERN_DIURNAL, PATTERN_STABLE


@pytest.fixture(scope="module")
def kb(small_trace):
    return WorkloadKnowledgeBase.from_trace(small_trace)


class TestExtraction:
    def test_covers_populated_subscriptions(self, kb, small_trace):
        populated = {vm.subscription_id for vm in small_trace.vms()}
        assert len(kb) == len(populated)

    def test_records_have_basic_fields(self, kb):
        for record in kb.subscriptions()[:20]:
            assert record.n_vms > 0
            assert record.total_cores > 0
            assert record.n_regions >= 1
            assert record.cloud in ("private", "public")

    def test_pattern_mix_normalized(self, kb):
        for record in kb.subscriptions():
            if record.pattern_mix:
                assert sum(record.pattern_mix.values()) == pytest.approx(1.0)

    def test_cloud_filter(self, kb):
        private = kb.subscriptions(cloud=Cloud.PRIVATE)
        public = kb.subscriptions(cloud="public")
        assert private and public
        assert all(r.cloud == "private" for r in private)

    def test_services_counter(self, kb):
        services = {record.service for record in kb.subscriptions(cloud=Cloud.PRIVATE)}
        assert "web-application" in services

    def test_cloud_summary(self, kb):
        summary = kb.cloud_summary(Cloud.PUBLIC)
        assert summary["subscriptions"] > 0
        assert summary["vms"] > 0
        assert 0 <= summary["short_lived_fraction"] <= 1

    def test_batched_records_equal_one_at_a_time(self, kb, small_trace):
        # One classifier pass over every subscription's windows gives each
        # record exactly what a build of that subscription alone gives.
        vms_by_sub = small_trace.vms_by_subscription()
        entries = [
            (sub, vms_by_sub[sub_id], (), None)
            for sub_id, sub in small_trace.subscriptions.items()
            if vms_by_sub.get(sub_id)
        ][:60]
        batched = build_subscription_records(small_trace, entries)
        alone = [build_subscription_records(small_trace, [entry])[0] for entry in entries]
        assert [repr(record) for record in batched] == [repr(record) for record in alone]
        assert any(record.pattern_mix for record in batched)
        assert build_subscription_records(small_trace, []) == []

    def test_cloud_summary_unknown_raises(self):
        with pytest.raises(ValueError):
            WorkloadKnowledgeBase().cloud_summary(Cloud.PRIVATE)

    def test_region_agnostic_candidates_mostly_private(self, kb):
        private = kb.region_agnostic_candidates(cloud=Cloud.PRIVATE)
        assert private


class TestPolicyRecommendation:
    def make_record(self, **overrides) -> SubscriptionKnowledge:
        defaults = dict(
            subscription_id=1,
            cloud="public",
            service="svc",
            party="third",
            n_vms=10,
            total_cores=40.0,
            regions=("a",),
        )
        defaults.update(overrides)
        return SubscriptionKnowledge(**defaults)

    def add(self, record: SubscriptionKnowledge) -> WorkloadKnowledgeBase:
        kb = WorkloadKnowledgeBase()
        kb._records[record.subscription_id] = record
        return kb

    def test_spot_for_short_lived_public(self):
        record = self.make_record(short_lived_fraction=0.9)
        assert POLICY_SPOT_ADOPTION in self.add(record).recommend_policies(1)

    def test_no_spot_for_private(self):
        record = self.make_record(cloud="private", short_lived_fraction=0.9)
        assert POLICY_SPOT_ADOPTION not in self.add(record).recommend_policies(1)

    def test_oversubscription_for_stable(self):
        record = self.make_record(dominant_pattern=PATTERN_STABLE)
        assert POLICY_OVERSUBSCRIPTION in self.add(record).recommend_policies(1)

    def test_valley_fill_for_diurnal(self):
        record = self.make_record(dominant_pattern=PATTERN_DIURNAL)
        assert POLICY_VALLEY_FILL in self.add(record).recommend_policies(1)

    def test_region_shift_for_agnostic_multiregion(self):
        record = self.make_record(regions=("a", "b"), region_agnostic=True)
        assert POLICY_REGION_SHIFT in self.add(record).recommend_policies(1)

    def test_no_region_shift_single_region(self):
        record = self.make_record(regions=("a",), region_agnostic=True)
        assert POLICY_REGION_SHIFT not in self.add(record).recommend_policies(1)

    def test_failure_prediction_for_bursty(self):
        record = self.make_record(creation_cv=4.0)
        assert POLICY_FAILURE_PREDICTION in self.add(record).recommend_policies(1)

    def test_generated_trace_yields_policies(self, kb):
        all_policies = set()
        for record in kb.subscriptions():
            all_policies.update(kb.recommend_policies(record.subscription_id))
        assert POLICY_SPOT_ADOPTION in all_policies
        assert POLICY_OVERSUBSCRIPTION in all_policies
        assert POLICY_VALLEY_FILL in all_policies


class TestPersistence:
    def test_json_round_trip(self, kb, tmp_path):
        path = tmp_path / "kb.json"
        text = kb.to_json(path)
        assert path.read_text() == text
        rows = json.loads(text)
        assert len(rows) == len(kb)
        original = kb.subscriptions()[0]
        loaded = next(r for r in rows if r["subscription_id"] == original.subscription_id)
        assert loaded["service"] == original.service
        assert tuple(loaded["regions"]) == original.regions
        assert loaded["n_vms"] == original.n_vms

    def test_nan_round_trips_as_null(self, tmp_path):
        kb = WorkloadKnowledgeBase()
        kb._records[1] = SubscriptionKnowledge(
            subscription_id=1, cloud="private", service="s", party="first",
        )
        text = kb.to_json()
        assert "NaN" not in text
        assert json.loads(text)[0]["lifetime_p50"] is None
