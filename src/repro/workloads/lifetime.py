"""VM lifetime models.

Fig. 3(a): among VMs that both started and ended within the week, 49% of
private-cloud VMs fall in the shortest lifetime bin versus 81% of
public-cloud VMs.  We model churned-VM lifetimes as a three-component
log-normal mixture (short batch tasks, medium jobs, long-running services)
whose weights differ per cloud; the anchor fractions are asserted by the
calibration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sampling import draw_index, weighted_cdf
from repro.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_MINUTE

#: Boundary of the "shortest lifetime bin" used throughout the reproduction
#: (the paper's axis is normalized; we document our choice in EXPERIMENTS.md).
SHORTEST_BIN_SECONDS = 1.0 * SECONDS_PER_HOUR


@dataclass(frozen=True)
class LognormalComponent:
    """One mixture component: log-normal with a median and log-space sigma."""

    median: float
    sigma: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` lifetimes in seconds."""
        return rng.lognormal(np.log(self.median), self.sigma, size=size)


#: Short batch tasks: minutes.
SHORT = LognormalComponent(median=18 * SECONDS_PER_MINUTE, sigma=0.75)
#: Medium jobs: hours (autoscale churn, CI pipelines, analytics runs).
MEDIUM = LognormalComponent(median=7 * SECONDS_PER_HOUR, sigma=0.80)
#: Long-running services that still end within the week: days.
LONG = LognormalComponent(median=2.2 * SECONDS_PER_DAY, sigma=0.55)


@dataclass(frozen=True)
class LifetimeModel:
    """Weighted mixture over the (short, medium, long) components."""

    weight_short: float
    weight_medium: float
    weight_long: float

    def __post_init__(self) -> None:
        total = self.weight_short + self.weight_medium + self.weight_long
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"mixture weights must sum to 1, got {total}")
        if min(self.weight_short, self.weight_medium, self.weight_long) < 0:
            raise ValueError("mixture weights must be non-negative")

    @cached_property
    def _cdf(self) -> np.ndarray:
        return weighted_cdf((self.weight_short, self.weight_medium, self.weight_long))

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` lifetimes (seconds), never below one minute."""
        components = (SHORT, MEDIUM, LONG)
        choice = draw_index(rng, self._cdf, size)
        out = np.empty(size, dtype=np.float64)
        for idx, component in enumerate(components):
            mask = choice == idx
            n = int(mask.sum())
            if n:
                out[mask] = component.sample(rng, n)
        return np.maximum(out, SECONDS_PER_MINUTE)

    def sample_one(self, rng: np.random.Generator) -> float:
        """Draw a single lifetime in seconds."""
        return float(self.sample(rng, size=1)[0])


def perturbed_model(
    model: LifetimeModel,
    rng: np.random.Generator,
    *,
    concentration: float = 6.0,
) -> LifetimeModel:
    """Per-subscription variant of a cloud-level lifetime mixture.

    Real subscriptions are far from exchangeable: some run only short batch
    jobs, others only long services -- that heterogeneity is what makes
    Resource-Central-style per-subscription lifetime prediction work [8].
    The short weight is redrawn from a Beta distribution whose mean is the
    cloud-level weight (so aggregate statistics are preserved), and the
    medium/long weights are rescaled proportionally.
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    w_short = float(
        rng.beta(
            max(1e-3, model.weight_short * concentration),
            max(1e-3, (1.0 - model.weight_short) * concentration),
        )
    )
    rest = 1.0 - w_short
    denom = model.weight_medium + model.weight_long
    if denom <= 0:
        return LifetimeModel(w_short, rest, 0.0)
    return LifetimeModel(
        weight_short=w_short,
        weight_medium=rest * model.weight_medium / denom,
        weight_long=rest * model.weight_long / denom,
    )


def burst_lifetime_model() -> LifetimeModel:
    """Lifetimes of non-censored burst VMs: rollout capacity held for a while."""
    return LifetimeModel(weight_short=0.10, weight_medium=0.50, weight_long=0.40)


def private_lifetime_model() -> LifetimeModel:
    """Churned-lifetime mixture of the private cloud (~49% shortest bin)."""
    return LifetimeModel(weight_short=0.52, weight_medium=0.28, weight_long=0.20)


def public_lifetime_model() -> LifetimeModel:
    """Churned-lifetime mixture of the public cloud (~81% shortest bin)."""
    return LifetimeModel(weight_short=0.90, weight_medium=0.07, weight_long=0.03)
