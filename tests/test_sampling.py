"""Cached-CDF draws equal ``Generator.choice`` on the installed numpy.

The per-VM samplers build each CDF once (``repro.sampling``) instead of
calling ``rng.choice(n, p=p)`` per draw.  Traces stay byte-identical only
while both return the same index *and* consume the same uniforms, so each
check compares the draw and then the generator's next ``random()``.  CI
installs numpy unpinned: a release that changes ``choice``'s algorithm
fails here, not as an unexplained trace digest change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import draw_index, weighted_cdf
from repro.timebase import SECONDS_PER_MINUTE
from repro.workloads.lifetime import (
    LONG,
    MEDIUM,
    SHORT,
    burst_lifetime_model,
    perturbed_model,
)
from repro.workloads.profiles import private_profile, public_profile
from repro.workloads.services import (
    OFFERINGS,
    PRIVATE_SERVICES,
    ServiceArchetype,
    sample_service,
)
from repro.workloads.utilization_models import NoiseParams

PROFILES = (private_profile(), public_profile())
SEEDS = range(12)
SIZES = (1, 5, 64)


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _normalized(weights) -> np.ndarray:
    p = np.asarray(weights, dtype=np.float64)
    return p / p.sum()


@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40).filter(lambda w: sum(w) > 0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 1, 3, 50]),
)
@settings(max_examples=80, deadline=None)
def test_draw_index_equals_choice(weights, seed, size):
    expected_rng, rng = _pair(seed)
    p = _normalized(weights)
    expected = expected_rng.choice(len(p), size=size, p=p)
    got = draw_index(rng, weighted_cdf(p), size)
    np.testing.assert_array_equal(got, expected)
    assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: str(p.cloud))
def test_sku_catalog_draws_equal_choice(profile):
    catalog = profile.sku_catalog
    p = _normalized(catalog.weights)
    for seed in SEEDS:
        expected_rng, rng = _pair(seed)
        assert catalog.sample(rng) == catalog.skus[expected_rng.choice(len(p), p=p)]
        for size in SIZES:
            expected = [catalog.skus[i] for i in expected_rng.choice(len(p), size=size, p=p)]
            assert catalog.sample(rng, size=size) == expected
        assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: str(p.cloud))
def test_archetype_draws_equal_choice(profile):
    for archetype, _share in profile.services:
        patterns = list(archetype.pattern_weights)
        pattern_p = _normalized([archetype.pattern_weights[name] for name in patterns])
        offering_p = _normalized(archetype.offering_weights)
        for seed in SEEDS:
            expected_rng, rng = _pair(seed)
            for _ in range(20):
                expected = patterns[expected_rng.choice(len(patterns), p=pattern_p)]
                assert archetype.sample_pattern(rng) == expected
                expected = OFFERINGS[expected_rng.choice(3, p=offering_p)]
                assert archetype.sample_offering(rng) == expected
            assert rng.random() == expected_rng.random()


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: str(p.cloud))
def test_service_and_region_count_draws_equal_choice(profile):
    service_p = _normalized([share for _, share in profile.services])
    spread = profile.region_spread
    for seed in SEEDS:
        expected_rng, rng = _pair(seed)
        for _ in range(20):
            expected = profile.services[expected_rng.choice(len(service_p), p=service_p)][0]
            assert sample_service(profile.services, rng) is expected
            expected = int(expected_rng.choice(spread.max_regions, p=spread.probabilities()))
            assert spread.sample_region_count(rng) == expected + 1
        assert rng.random() == expected_rng.random()


def test_bad_catalog_weights_raise():
    archetype = PRIVATE_SERVICES[0][0]
    for weights in [(), (0.5, -0.1), (0.0, 0.0)]:
        with pytest.raises(ValueError):
            sample_service(tuple((archetype, w) for w in weights), np.random.default_rng(0))


def _lifetimes_via_choice(model, rng: np.random.Generator, size: int) -> np.ndarray:
    """``LifetimeModel.sample`` as written with ``rng.choice``."""
    weights = (model.weight_short, model.weight_medium, model.weight_long)
    choice = rng.choice(3, size=size, p=weights)
    out = np.empty(size, dtype=np.float64)
    for idx, component in enumerate((SHORT, MEDIUM, LONG)):
        mask = choice == idx
        n = int(mask.sum())
        if n:
            out[mask] = component.sample(rng, n)
    return np.maximum(out, SECONDS_PER_MINUTE)


def _lifetime_models():
    rng = np.random.default_rng(3)
    models = [burst_lifetime_model()]
    for profile in PROFILES:
        models.append(profile.lifetime)
        # Subscriptions draw their own mixtures around the cloud's.
        models.extend(perturbed_model(profile.lifetime, rng) for _ in range(8))
    return models


@pytest.mark.parametrize("model", _lifetime_models())
def test_lifetime_draws_equal_choice(model):
    for seed in SEEDS:
        expected_rng, rng = _pair(seed)
        for size in SIZES:
            np.testing.assert_array_equal(
                model.sample(rng, size=size), _lifetimes_via_choice(model, expected_rng, size)
            )
        assert model.sample_one(rng) == _lifetimes_via_choice(model, expected_rng, 1)[0]
        assert rng.random() == expected_rng.random()


def _archetype(**overrides) -> ServiceArchetype:
    fields = dict(
        name="svc",
        party="first",
        pattern_weights={"diurnal": 0.6, "stable": 0.4},
        region_agnostic=False,
        noise=NoiseParams(scale_sigma=0.1, additive_sigma=0.1),
    )
    return ServiceArchetype(**{**fields, **overrides})


@pytest.mark.parametrize(
    "overrides",
    [
        {"pattern_weights": {}},
        {"pattern_weights": {"diurnal": -0.1, "stable": 1.1}},
        {"pattern_weights": {"diurnal": 0.0, "stable": 0.0}},
        {"offering_weights": (0.5, -0.2, 0.7)},
        {"offering_weights": (0.0, 0.0, 0.0)},
        {"offering_weights": (0.5, 0.5)},
        {"offering_weights": (0.25, 0.25, 0.25, 0.25)},
    ],
)
def test_bad_archetype_weights_raise(overrides):
    with pytest.raises(ValueError):
        _archetype(**overrides)


def test_valid_archetype_constructs():
    assert _archetype(offering_weights=(1.0, 0.0, 0.0)).sample_offering(
        np.random.default_rng(0)
    ) == "iaas"
