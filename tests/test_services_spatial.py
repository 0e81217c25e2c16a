"""Unit tests for the service taxonomy and spatial models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.schema import (
    PATTERN_DIURNAL,
    PATTERN_HOURLY_PEAK,
    PATTERN_STABLE,
)
from repro.workloads.services import (
    PRIVATE_SERVICES,
    PUBLIC_SERVICES,
    sample_service,
)
from repro.workloads.spatial import (
    DEFAULT_REGION_POPULARITY,
    RegionSpread,
    choose_regions,
)


def expected_pattern_mix(catalog) -> dict[str, float]:
    """Closed-form pattern mix implied by a service catalog."""
    mix: dict[str, float] = {}
    total_weight = sum(w for _, w in catalog)
    for archetype, share in catalog:
        pattern_total = sum(archetype.pattern_weights.values())
        for pattern, weight in archetype.pattern_weights.items():
            mix[pattern] = mix.get(pattern, 0.0) + (share / total_weight) * (
                weight / pattern_total
            )
    return mix


def expected_region_count(spread: RegionSpread) -> float:
    """Mean number of regions per subscription."""
    return float(np.dot(spread.probabilities(), np.arange(1, spread.max_regions + 1)))


class TestServiceCatalogs:
    def test_shares_sum_to_one(self):
        for catalog in (PRIVATE_SERVICES, PUBLIC_SERVICES):
            assert sum(w for _a, w in catalog) == pytest.approx(1.0)

    def test_pattern_weights_positive(self):
        for catalog in (PRIVATE_SERVICES, PUBLIC_SERVICES):
            for archetype, _w in catalog:
                assert all(v >= 0 for v in archetype.pattern_weights.values())
                assert sum(archetype.pattern_weights.values()) == pytest.approx(1.0)

    def test_expected_mix_encodes_paper_findings(self):
        """The catalog-implied mixes encode Fig. 5(d)'s directions."""
        private = expected_pattern_mix(PRIVATE_SERVICES)
        public = expected_pattern_mix(PUBLIC_SERVICES)
        # Diurnal dominant in both.
        assert max(private, key=private.get) == PATTERN_DIURNAL
        assert max(public, key=public.get) == PATTERN_DIURNAL
        # Private roughly double public diurnal share.
        assert private[PATTERN_DIURNAL] / public[PATTERN_DIURNAL] > 1.4
        # Stable higher in public.
        assert public[PATTERN_STABLE] > private[PATTERN_STABLE]
        # Hourly-peak concentrated in private.
        assert private.get(PATTERN_HOURLY_PEAK, 0) > public.get(PATTERN_HOURLY_PEAK, 0)

    def test_sample_pattern_respects_weights(self, rng):
        web = PRIVATE_SERVICES[0][0]
        draws = [web.sample_pattern(rng) for _ in range(300)]
        assert draws.count(PATTERN_DIURNAL) > 250

    def test_sample_service_weighted(self, rng):
        draws = [sample_service(PRIVATE_SERVICES, rng).name for _ in range(400)]
        assert draws.count("web-application") > 150

    def test_private_services_region_agnostic_majority(self):
        agnostic_share = sum(
            w for a, w in PRIVATE_SERVICES if a.region_agnostic
        )
        assert agnostic_share > 0.5
        public_agnostic = sum(w for a, w in PUBLIC_SERVICES if a.region_agnostic)
        assert public_agnostic < 0.3


class TestRegionSpread:
    def test_probabilities_sum_to_one(self):
        spread = RegionSpread(0.6, 0.5, 8)
        assert spread.probabilities().sum() == pytest.approx(1.0)
        assert spread.probabilities()[0] == pytest.approx(0.6)

    def test_single_region_only(self):
        spread = RegionSpread(1.0, 0.5, 1)
        assert spread.probabilities().tolist() == [1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RegionSpread(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            RegionSpread(0.5, 1.5, 3)
        with pytest.raises(ValueError):
            RegionSpread(0.5, 0.5, 0)

    def test_sample_in_range(self, rng):
        spread = RegionSpread(0.6, 0.5, 5)
        draws = [spread.sample_region_count(rng) for _ in range(300)]
        assert all(1 <= d <= 5 for d in draws)
        assert 0.5 <= np.mean([d == 1 for d in draws]) <= 0.7

    def test_expected_region_count(self):
        spread = RegionSpread(0.5, 0.5, 2)
        # P(1)=0.5, P(2)=0.5 -> mean 1.5
        assert expected_region_count(spread) == pytest.approx(1.5)

    def test_heavier_tail_increases_mean(self):
        light = RegionSpread(0.8, 0.3, 10)
        heavy = RegionSpread(0.55, 0.7, 10)
        assert expected_region_count(heavy) > expected_region_count(light)


class TestChooseRegions:
    def test_distinct_regions(self, rng):
        regions = choose_regions(rng, ["a", "b", "c", "d"], 3)
        assert len(set(regions)) == 3

    def test_count_clamped_to_available(self, rng):
        regions = choose_regions(rng, ["a", "b"], 5)
        assert len(regions) == 2

    def test_popularity_bias(self, rng):
        popularity = {"hot": 50.0, "cold": 1.0}
        hits = sum(
            "hot" in choose_regions(rng, ["hot", "cold"], 1, popularity=popularity)
            for _ in range(200)
        )
        assert hits > 150

    def test_default_popularity_covers_default_regions(self):
        from repro.cloud.entities import DEFAULT_REGIONS

        for spec in DEFAULT_REGIONS:
            assert spec.name in DEFAULT_REGION_POPULARITY
