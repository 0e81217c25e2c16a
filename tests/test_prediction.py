"""Unit/integration tests for the predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.management.prediction import (
    AllocationFailurePredictor,
    LifetimePredictor,
    LogisticRegression,
)
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore


class TestLogisticRegression:
    def test_learns_separable_data(self, rng):
        x = rng.normal(size=(400, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        model = LogisticRegression().fit(x, y)
        preds = model.predict(x)
        assert np.mean(preds == y) > 0.95

    def test_probabilities_bounded(self, rng):
        x = rng.normal(size=(100, 3))
        y = rng.integers(0, 2, 100).astype(float)
        model = LogisticRegression().fit(x, y)
        probs = model.predict_proba(x)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_constant_feature_handled(self):
        x = np.column_stack([np.ones(50), np.arange(50, dtype=float)])
        y = (np.arange(50) > 25).astype(float)
        model = LogisticRegression().fit(x, y)
        assert model.predict_proba([[1.0, 49.0]])[0] > 0.9

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba([[1.0]])

    def test_label_validation(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            LogisticRegression().fit(x, np.full(10, 0.5))
        with pytest.raises(ValueError):
            LogisticRegression().fit(x, np.zeros(9))

    def test_base_rate_calibration(self, rng):
        """With no signal, predicted probabilities approach the base rate."""
        x = rng.normal(size=(2000, 2))
        y = (rng.random(2000) < 0.3).astype(float)
        model = LogisticRegression().fit(x, y)
        assert model.predict_proba(x).mean() == pytest.approx(0.3, abs=0.05)


class TestLifetimePredictor:
    def test_fit_and_predict_on_trace(self, small_trace):
        predictor = LifetimePredictor().fit(small_trace)
        p = predictor.predict_short_probability(
            subscription_id=-1, service="unknown", cloud="public"
        )
        assert 0 <= p <= 1

    def test_holdout_beats_base_rate(self, medium_trace):
        evaluation = LifetimePredictor().evaluate(medium_trace)
        assert evaluation.n_test > 100
        assert evaluation.accuracy >= evaluation.base_rate - 0.02

    def test_fallback_hierarchy(self):
        predictor = LifetimePredictor()
        predictor._sub_stats = {1: (9, 10)}
        predictor._service_stats = {"svc": (1, 100)}
        predictor._cloud_stats = {"private": (50, 100)}
        # Known subscription with enough history -> subscription rate.
        p_sub = predictor.predict_short_probability(
            subscription_id=1, service="svc", cloud="private"
        )
        assert p_sub > 0.7
        # Unknown subscription -> service rate.
        p_service = predictor.predict_short_probability(
            subscription_id=2, service="svc", cloud="private"
        )
        assert p_service < 0.1
        # Unknown everything -> cloud rate.
        p_cloud = predictor.predict_short_probability(
            subscription_id=2, service="other", cloud="private"
        )
        assert p_cloud == pytest.approx(0.5, abs=0.1)

    def test_unseen_everything_is_half(self):
        predictor = LifetimePredictor()
        assert predictor.predict_short_probability(
            subscription_id=0, service="x", cloud="y"
        ) == 0.5

    def test_evaluate_empty_raises(self):
        with pytest.raises(ValueError):
            LifetimePredictor().evaluate(TraceStore())


class TestAllocationFailurePredictor:
    def test_risk_increases_with_load_and_bursts(self):
        """Train on an under-provisioned fleet: risk must rise with load."""
        from dataclasses import replace

        from repro.workloads.generator import GeneratorConfig, TraceGenerator
        from repro.workloads.profiles import private_profile

        profile = replace(
            private_profile(),
            clusters_per_region=1,
            racks_per_cluster=2,
            nodes_per_rack=3,
        )
        trace = TraceGenerator(
            profile, GeneratorConfig(seed=11, scale=0.25, synthesize_utilization=False)
        ).generate()
        predictor = AllocationFailurePredictor().fit(trace, Cloud.PRIVATE)
        low = predictor.predict_risk(0.3, 2)
        high = predictor.predict_risk(1.0, 150)
        assert high > low
