"""Unit/integration tests for the predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.management.prediction import AllocationFailurePredictor, LogisticRegression
from repro.telemetry.schema import Cloud


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
