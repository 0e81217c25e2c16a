"""Empirical cumulative distribution functions.

Most figures in the paper (Fig. 1a, 3a, 4a, 4b, 7a, 7b) are CDF comparisons
between the private and public cloud.  :class:`EmpiricalCdf` is the single
representation used for all of them, including the *weighted* variant needed
for Fig. 4(b), where subscriptions are weighted by their allocated core
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EmpiricalCdf:
    """An empirical (optionally weighted) CDF over scalar samples.

    Attributes
    ----------
    values:
        Sorted, unique sample values.
    probabilities:
        ``P(X <= values[i])`` for each value; non-decreasing, ends at 1.
    n_samples:
        Number of raw samples the CDF was built from.
    """

    values: np.ndarray
    probabilities: np.ndarray
    n_samples: int = field(default=0)

    @classmethod
    def from_samples(
        cls,
        samples: np.ndarray,
        *,
        weights: np.ndarray | None = None,
    ) -> "EmpiricalCdf":
        """Build a CDF from raw ``samples`` with optional positive ``weights``."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        if samples.size == 0:
            raise ValueError("cannot build an empirical CDF from zero samples")
        if weights is None:
            weights = np.ones_like(samples)
        else:
            weights = np.asarray(weights, dtype=np.float64).ravel()
            if weights.shape != samples.shape:
                raise ValueError(
                    f"weights shape {weights.shape} != samples shape {samples.shape}"
                )
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            if not np.any(weights > 0):
                raise ValueError("at least one weight must be positive")

        order = np.argsort(samples, kind="stable")
        sorted_values = samples[order]
        sorted_weights = weights[order]

        # Collapse duplicate values so evaluation is a clean step function.
        unique_values, start_idx = np.unique(sorted_values, return_index=True)
        cum_weights = np.cumsum(sorted_weights)
        # Cumulative weight at the *end* of each run of duplicates.
        end_idx = np.append(start_idx[1:], sorted_values.size) - 1
        probabilities = cum_weights[end_idx] / cum_weights[-1]
        probabilities[-1] = 1.0  # guard against round-off
        return cls(unique_values, probabilities, n_samples=int(samples.size))

    def evaluate(self, x: np.ndarray | float) -> np.ndarray | float:
        """Return ``P(X <= x)`` (vectorized)."""
        idx = np.searchsorted(self.values, np.asarray(x, dtype=np.float64), side="right")
        padded = np.concatenate([[0.0], self.probabilities])
        result = padded[idx]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(result)
        return result

    def quantile(self, q: np.ndarray | float) -> np.ndarray | float:
        """Return the smallest value ``v`` with ``P(X <= v) >= q``."""
        q_arr = np.asarray(q, dtype=np.float64)
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        idx = np.searchsorted(self.probabilities, q_arr, side="left")
        idx = np.minimum(idx, self.values.size - 1)
        result = self.values[idx]
        if np.isscalar(q) or np.ndim(q) == 0:
            return float(result)
        return result

    @property
    def median(self) -> float:
        """The 0.5-quantile."""
        return float(self.quantile(0.5))

    def fraction_at_or_below(self, x: float) -> float:
        """Convenience alias of :meth:`evaluate` for a scalar threshold."""
        return float(self.evaluate(x))

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, p)`` arrays suitable for a step plot."""
        return self.values.copy(), self.probabilities.copy()
