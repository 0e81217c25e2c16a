"""Service taxonomy.

Section II: the private cloud is "dominated by web application services,
data analytic services, and real time communication services"; the public
cloud mixes first-party workloads with opaque third-party customer
workloads.  Each archetype below carries a utilization-pattern mix, a
region-agnosticism flag (Section IV-B: ServiceX is routed by a geo-level
load balancer, so its utilization follows one global clock in every region)
and noise levels controlling node-level similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from repro.sampling import draw_index, weighted_cdf
from repro.telemetry.schema import (
    PATTERN_DIURNAL,
    PATTERN_HOURLY_PEAK,
    PATTERN_IRREGULAR,
    PATTERN_STABLE,
)
from repro.workloads.utilization_models import NoiseParams

#: Service models, in the order of :attr:`ServiceArchetype.offering_weights`.
OFFERINGS = ("iaas", "paas", "saas")


@dataclass(frozen=True)
class ServiceArchetype:
    """A family of workloads with a characteristic utilization behaviour."""

    name: str
    #: Whether the service is operated by the cloud provider ("first" party).
    party: str
    #: Probability of each utilization pattern for this service's VMs.
    pattern_weights: dict[str, float]
    #: Region-agnostic services share one global-clock signal across regions.
    region_agnostic: bool
    #: Idiosyncratic deviation of each VM from the service's shared signal.
    noise: NoiseParams
    #: Per-subscription phase jitter (hours) applied to periodic signals.
    phase_jitter_hours: float = 0.0
    #: Typical level of the stable pattern for this service.
    stable_level_range: tuple[float, float] = (0.08, 0.35)
    #: Service-model mix: probability of IaaS / PaaS / SaaS for this service
    #: ("Both private and public cloud workloads have IaaS, PaaS and SaaS
    #: VMs", Section II).
    offering_weights: tuple[float, float, float] = (0.5, 0.3, 0.2)

    def __post_init__(self) -> None:
        # The cached CDFs skip the check ``Generator.choice`` made per draw.
        for name, weights in (
            ("pattern_weights", tuple(self.pattern_weights.values())),
            ("offering_weights", self.offering_weights),
        ):
            if not weights or any(w < 0 for w in weights) or sum(weights) <= 0:
                raise ValueError(f"{name} must be non-negative with positive sum")
        if len(self.offering_weights) != len(OFFERINGS):
            raise ValueError(f"offering_weights must have {len(OFFERINGS)} entries")

    @cached_property
    def _offering_cdf(self) -> np.ndarray:
        weights = np.asarray(self.offering_weights, dtype=np.float64)
        return weighted_cdf(weights / weights.sum())

    @cached_property
    def _patterns(self) -> tuple[tuple[str, ...], np.ndarray]:
        patterns = tuple(self.pattern_weights)
        weights = np.array([self.pattern_weights[p] for p in patterns], dtype=np.float64)
        return patterns, weighted_cdf(weights / weights.sum())

    def sample_offering(self, rng: np.random.Generator) -> str:
        """Draw the service model (iaas/paas/saas) for one subscription."""
        return OFFERINGS[int(draw_index(rng, self._offering_cdf))]

    def sample_pattern(self, rng: np.random.Generator) -> str:
        """Draw a utilization pattern for one VM of this service."""
        patterns, cdf = self._patterns
        return patterns[int(draw_index(rng, cdf))]


# ----------------------------------------------------------------------
# Private (first-party) services: homogeneous, user-facing, geo-balanced.
# ----------------------------------------------------------------------
_PRIVATE_NOISE = NoiseParams(scale_sigma=0.08, additive_sigma=0.18)

PRIVATE_SERVICES: tuple[tuple[ServiceArchetype, float], ...] = (
    (
        ServiceArchetype(
            name="web-application",
            party="first",
            pattern_weights={
                PATTERN_DIURNAL: 0.95,
                PATTERN_STABLE: 0.03,
                PATTERN_IRREGULAR: 0.02,
            },
            region_agnostic=True,
            noise=_PRIVATE_NOISE,
            phase_jitter_hours=1.0,
            offering_weights=(0.10, 0.25, 0.65),
        ),
        0.55,
    ),
    (
        ServiceArchetype(
            name="realtime-communication",
            party="first",
            pattern_weights={
                PATTERN_HOURLY_PEAK: 0.70,
                PATTERN_DIURNAL: 0.25,
                PATTERN_IRREGULAR: 0.05,
            },
            region_agnostic=True,
            noise=_PRIVATE_NOISE,
            phase_jitter_hours=0.5,
            offering_weights=(0.05, 0.20, 0.75),
        ),
        0.25,
    ),
    (
        ServiceArchetype(
            name="data-analytics",
            party="first",
            pattern_weights={
                PATTERN_DIURNAL: 0.50,
                PATTERN_STABLE: 0.35,
                PATTERN_IRREGULAR: 0.15,
            },
            region_agnostic=False,
            noise=_PRIVATE_NOISE,
            phase_jitter_hours=2.0,
            offering_weights=(0.30, 0.55, 0.15),
        ),
        0.10,
    ),
    (
        ServiceArchetype(
            name="infrastructure",
            party="first",
            pattern_weights={
                PATTERN_STABLE: 0.80,
                PATTERN_DIURNAL: 0.15,
                PATTERN_IRREGULAR: 0.05,
            },
            region_agnostic=True,
            noise=_PRIVATE_NOISE,
            phase_jitter_hours=3.0,
        ),
        0.10,
    ),
)

# ----------------------------------------------------------------------
# Public services: diverse, opaque, mostly third party, local-time bound.
# ----------------------------------------------------------------------
_PUBLIC_NOISE = NoiseParams(scale_sigma=0.25, additive_sigma=0.19)

PUBLIC_SERVICES: tuple[tuple[ServiceArchetype, float], ...] = (
    (
        ServiceArchetype(
            name="customer-web",
            party="third",
            pattern_weights={
                PATTERN_DIURNAL: 0.90,
                PATTERN_STABLE: 0.05,
                PATTERN_IRREGULAR: 0.05,
            },
            region_agnostic=False,
            noise=_PUBLIC_NOISE,
            phase_jitter_hours=6.0,
            offering_weights=(0.60, 0.30, 0.10),
        ),
        0.40,
    ),
    (
        ServiceArchetype(
            name="customer-database",
            party="third",
            pattern_weights={
                PATTERN_STABLE: 0.80,
                PATTERN_IRREGULAR: 0.15,
                PATTERN_DIURNAL: 0.05,
            },
            region_agnostic=False,
            noise=_PUBLIC_NOISE,
            phase_jitter_hours=6.0,
        ),
        0.22,
    ),
    (
        ServiceArchetype(
            name="customer-batch",
            party="third",
            pattern_weights={
                PATTERN_STABLE: 0.55,
                PATTERN_IRREGULAR: 0.40,
                PATTERN_DIURNAL: 0.05,
            },
            region_agnostic=False,
            noise=_PUBLIC_NOISE,
            phase_jitter_hours=6.0,
        ),
        0.16,
    ),
    (
        ServiceArchetype(
            name="customer-dev-test",
            party="third",
            pattern_weights={
                PATTERN_IRREGULAR: 0.45,
                PATTERN_STABLE: 0.35,
                PATTERN_DIURNAL: 0.20,
            },
            region_agnostic=False,
            noise=_PUBLIC_NOISE,
            phase_jitter_hours=6.0,
        ),
        0.12,
    ),
    (
        ServiceArchetype(
            name="first-party-public",
            party="first",
            pattern_weights={
                PATTERN_DIURNAL: 0.55,
                PATTERN_HOURLY_PEAK: 0.25,
                PATTERN_STABLE: 0.15,
                PATTERN_IRREGULAR: 0.05,
            },
            region_agnostic=True,
            noise=NoiseParams(scale_sigma=0.10, additive_sigma=0.15),
            phase_jitter_hours=1.0,
        ),
        0.10,
    ),
)


def sample_service(
    catalog: tuple[tuple[ServiceArchetype, float], ...],
    rng: np.random.Generator,
) -> ServiceArchetype:
    """Draw a service archetype from a weighted catalog."""
    return catalog[int(draw_index(rng, _catalog_cdf(tuple(w for _, w in catalog))))][0]


@cache
def _catalog_cdf(weights: tuple[float, ...]) -> np.ndarray:
    """The draw CDF of one catalog's weights, validated and built once."""
    if not weights or any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("catalog weights must be non-negative with positive sum")
    array = np.array(weights, dtype=np.float64)
    return weighted_cdf(array / array.sum())
