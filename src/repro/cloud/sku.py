"""VM and node SKU catalogs.

Section II: clusters "contain thousands of nodes with identical Stock
Keeping Unit (SKU) configurations".  Section III-A (Fig. 2) observes that
private and public VM size distributions share a similar body, but the public
cloud shows "a non-negligible demand for relatively large and small VMs".

The catalogs below encode that: both clouds share a mainstream family
(loosely modelled on Azure D-series shapes), while the public catalog also
carries mass on tiny burstable SKUs and very large memory-/compute-optimized
SKUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.sampling import draw_index, weighted_cdf


@dataclass(frozen=True)
class VMSku:
    """A VM size: name, virtual cores, and memory."""

    name: str
    cores: float
    memory_gb: float


@dataclass(frozen=True)
class NodeSku:
    """A physical server configuration."""

    name: str
    cores: float
    memory_gb: float


#: Default node hardware; clusters are homogeneous in node SKU.
DEFAULT_NODE_SKU = NodeSku(name="Gen8-96c", cores=96.0, memory_gb=768.0)


@dataclass(frozen=True)
class SkuCatalog:
    """A weighted set of VM SKUs to draw deployments from."""

    skus: tuple[VMSku, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.skus) != len(self.weights):
            raise ValueError("skus and weights must have equal length")
        if not self.skus:
            raise ValueError("catalog must contain at least one SKU")
        if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")

    @cached_property
    def _cdf(self) -> np.ndarray:
        probabilities = np.asarray(self.weights, dtype=np.float64)
        return weighted_cdf(probabilities / probabilities.sum())

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw one SKU (or ``size`` SKUs) according to the catalog weights."""
        idx = draw_index(rng, self._cdf, size)
        if size is None:
            return self.skus[int(idx)]
        return [self.skus[int(i)] for i in np.atleast_1d(idx)]


# Mainstream general-purpose family shared by both clouds.
_MAINSTREAM = (
    VMSku("D2", 2, 8),
    VMSku("D4", 4, 16),
    VMSku("D8", 8, 32),
    VMSku("D16", 16, 64),
)

# Extremes mostly requested by public-cloud customers.
_TINY = (
    VMSku("B1-tiny", 1, 0.75),
    VMSku("B1", 1, 2),
)
_HUGE = (
    VMSku("E32-mem", 32, 256),
    VMSku("F64-compute", 64, 128),
    VMSku("M64-mem", 64, 512),
)


def private_sku_catalog() -> SkuCatalog:
    """SKU mix of the private (first-party) cloud: concentrated mainstream."""
    return SkuCatalog(
        skus=_MAINSTREAM,
        weights=(0.25, 0.40, 0.25, 0.10),
    )


def public_sku_catalog() -> SkuCatalog:
    """SKU mix of the public cloud: mainstream body plus tiny/huge tails."""
    return SkuCatalog(
        skus=_MAINSTREAM + _TINY + _HUGE,
        weights=(0.22, 0.30, 0.18, 0.08, 0.06, 0.06, 0.04, 0.03, 0.03),
    )
