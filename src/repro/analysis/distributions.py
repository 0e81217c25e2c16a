"""Distribution distances for CDF comparisons.

The paper argues from *visual* CDF separation (Figs. 1a, 3a, 4, 7); these
helpers quantify that separation so experiments can report effect sizes:

* :func:`ks_statistic` -- the Kolmogorov-Smirnov distance (max vertical gap
  between two empirical CDFs);
* :func:`stochastic_dominance_fraction` -- the share of the support on
  which one CDF lies above the other (1.0 = first-order dominance).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf


def _joint_grid(a: EmpiricalCdf, b: EmpiricalCdf) -> np.ndarray:
    return np.unique(np.concatenate([a.values, b.values]))


def ks_statistic(a: EmpiricalCdf, b: EmpiricalCdf) -> float:
    """Kolmogorov-Smirnov distance between two empirical CDFs."""
    grid = _joint_grid(a, b)
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


def stochastic_dominance_fraction(
    upper: EmpiricalCdf, lower: EmpiricalCdf, *, tolerance: float = 0.0
) -> float:
    """Fraction of the joint support where ``upper``'s CDF >= ``lower``'s.

    1.0 means ``upper`` first-order stochastically dominates: at every value
    it has at least as much mass at-or-below, i.e. its samples are smaller.
    The paper's "the trend continues over the whole range of the x-axis"
    claim (Fig. 3a) is exactly dominance of the public lifetime CDF.
    """
    grid = _joint_grid(upper, lower)
    return float(np.mean(upper.evaluate(grid) >= lower.evaluate(grid) - tolerance))
