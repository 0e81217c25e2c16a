"""Unit and statistical tests for lifetime models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.timebase import SECONDS_PER_MINUTE
from repro.workloads.lifetime import (
    SHORTEST_BIN_SECONDS,
    LifetimeModel,
    burst_lifetime_model,
    perturbed_model,
    private_lifetime_model,
    public_lifetime_model,
)


def short_fraction(model: LifetimeModel, n: int = 20000, seed: int = 0) -> float:
    """Monte-Carlo share of lifetimes in the shortest (one-hour) bin."""
    samples = model.sample(np.random.default_rng(seed), size=n)
    return float(np.mean(samples <= SHORTEST_BIN_SECONDS))


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        LifetimeModel(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        LifetimeModel(1.2, -0.2, 0.0)


def test_samples_bounded_below(rng):
    model = private_lifetime_model()
    samples = model.sample(rng, 1000)
    assert np.all(samples >= SECONDS_PER_MINUTE)


def test_sample_one(rng):
    assert private_lifetime_model().sample_one(rng) > 0


def test_private_short_fraction_near_049():
    frac = short_fraction(private_lifetime_model())
    assert 0.42 <= frac <= 0.56


def test_public_short_fraction_near_081():
    frac = short_fraction(public_lifetime_model())
    assert 0.76 <= frac <= 0.90


def test_public_shorter_than_private():
    assert (
        short_fraction(public_lifetime_model())
        > short_fraction(private_lifetime_model()) + 0.2
    )


def test_burst_model_mostly_long(rng):
    samples = burst_lifetime_model().sample(rng, 2000)
    assert np.mean(samples <= SHORTEST_BIN_SECONDS) < 0.2


def test_pure_component_models(rng):
    short_only = LifetimeModel(1.0, 0.0, 0.0)
    long_only = LifetimeModel(0.0, 0.0, 1.0)
    assert short_only.sample(rng, 500).mean() < long_only.sample(rng, 500).mean()


class TestPerturbedModel:
    def test_weights_valid(self, rng):
        base = public_lifetime_model()
        for _ in range(50):
            model = perturbed_model(base, rng)
            total = model.weight_short + model.weight_medium + model.weight_long
            assert total == pytest.approx(1.0)
            assert model.weight_short >= 0

    def test_mean_preserved(self, rng):
        base = private_lifetime_model()
        shorts = [perturbed_model(base, rng).weight_short for _ in range(800)]
        assert np.mean(shorts) == pytest.approx(base.weight_short, abs=0.03)

    def test_heterogeneity_exists(self, rng):
        base = private_lifetime_model()
        shorts = [perturbed_model(base, rng).weight_short for _ in range(200)]
        assert np.std(shorts) > 0.1

    def test_medium_long_ratio_preserved(self, rng):
        base = private_lifetime_model()
        model = perturbed_model(base, rng)
        expected_ratio = base.weight_medium / base.weight_long
        assert model.weight_medium / model.weight_long == pytest.approx(expected_ratio)

    def test_invalid_concentration(self, rng):
        with pytest.raises(ValueError):
            perturbed_model(private_lifetime_model(), rng, concentration=0)
