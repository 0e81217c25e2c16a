"""Reusable statistics toolkit underpinning every analysis in the paper.

The modules here are intentionally free of any cloud-domain knowledge: they
operate on plain numpy arrays and are exercised heavily by property-based
tests.  The domain-specific characterizations in :mod:`repro.core` compose
these primitives.
"""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.distributions import (
    ks_statistic,
    stochastic_dominance_fraction,
)
from repro.analysis.heatmap import Heatmap2D, build_heatmap
from repro.analysis.stats import (
    BoxplotStats,
    coefficient_of_variation,
    coefficient_of_variation_rows,
    pairwise_pearson,
    pearson_correlation,
)
from repro.analysis.timeseries import (
    PercentileBands,
    hourly_event_counts,
    hourly_occupancy,
    percentile_bands,
)

__all__ = [
    "BoxplotStats",
    "EmpiricalCdf",
    "Heatmap2D",
    "PercentileBands",
    "build_heatmap",
    "ks_statistic",
    "stochastic_dominance_fraction",
    "coefficient_of_variation",
    "coefficient_of_variation_rows",
    "hourly_event_counts",
    "pairwise_pearson",
    "hourly_occupancy",
    "pearson_correlation",
    "percentile_bands",
]
