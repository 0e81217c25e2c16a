"""Spatial deployment models: how many regions a subscription spans.

Fig. 4(a): more than 50% of subscriptions in both clouds deploy into a
single region, but private-cloud subscriptions spread over more regions in
the remaining tail.  Fig. 4(b): single-region subscriptions account for only
~40% of allocated cores in the private cloud versus ~70% in the public
cloud, i.e. multi-region private subscriptions are the big ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sampling import draw_index, weighted_cdf


@dataclass(frozen=True)
class RegionSpread:
    """Distribution of the number of deployed regions per subscription.

    ``P(1) = single_region_probability``; for ``k >= 2`` the probability is
    proportional to ``tail_decay ** (k - 2)`` up to ``max_regions``.
    """

    single_region_probability: float
    tail_decay: float
    max_regions: int

    def __post_init__(self) -> None:
        if not 0 < self.single_region_probability <= 1:
            raise ValueError("single_region_probability must be in (0, 1]")
        if not 0 < self.tail_decay <= 1:
            raise ValueError("tail_decay must be in (0, 1]")
        if self.max_regions < 1:
            raise ValueError("max_regions must be >= 1")

    def probabilities(self) -> np.ndarray:
        """Probability of each region count ``1..max_regions``."""
        probs = np.zeros(self.max_regions, dtype=np.float64)
        probs[0] = self.single_region_probability
        if self.max_regions > 1:
            tail = self.tail_decay ** np.arange(self.max_regions - 1, dtype=np.float64)
            tail = tail / tail.sum() * (1.0 - self.single_region_probability)
            probs[1:] = tail
        return probs

    @cached_property
    def _cdf(self) -> np.ndarray:
        return weighted_cdf(self.probabilities())

    def sample_region_count(self, rng: np.random.Generator) -> int:
        """Draw the number of regions for one subscription."""
        return int(draw_index(rng, self._cdf)) + 1


def choose_regions(
    rng: np.random.Generator,
    available: list[str],
    count: int,
    *,
    popularity: dict[str, float] | None = None,
) -> tuple[str, ...]:
    """Pick ``count`` distinct regions, weighted by ``popularity``.

    The default popularity is uniform; the generator biases toward US
    regions so that the cross-region study of Fig. 7(b), which the paper
    restricts to ~10 US regions, has enough multi-region subscriptions.
    """
    count = min(count, len(available))
    if popularity is None:
        weights = np.ones(len(available), dtype=np.float64)
    else:
        weights = np.array([popularity.get(r, 1.0) for r in available], dtype=np.float64)
    weights = weights / weights.sum()
    idx = rng.choice(len(available), size=count, replace=False, p=weights)
    return tuple(available[int(i)] for i in np.atleast_1d(idx))


#: Default popularity used by both profiles: US regions are the busiest.
DEFAULT_REGION_POPULARITY = {
    "us-east": 3.0,
    "us-east2": 2.5,
    "us-central": 2.2,
    "us-southcentral": 2.0,
    "us-mountain": 1.6,
    "us-arizona": 1.4,
    "us-west": 2.8,
    "us-west2": 2.4,
    "us-alaska": 1.0,
    "us-hawaii": 1.0,
    "canada-a": 1.2,
    "canada-b": 1.2,
    "europe-west": 1.8,
    "asia-east": 1.5,
}
