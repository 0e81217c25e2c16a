"""Scalar statistics: coefficient of variation, box-plot stats, Pearson r.

These are the three workhorses of the paper's quantitative comparisons:

* the **coefficient of variation** quantifies burstiness of hourly VM
  creations across regions (Fig. 3d);
* **box-plot statistics** with 1.5-IQR whiskers render Fig. 1(b) and 3(d);
* **Pearson correlation** drives both similarity studies in Section IV-B
  (VM-to-node and cross-region).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def coefficient_of_variation(samples: np.ndarray) -> float:
    """Ratio of the standard deviation to the mean of ``samples``.

    The paper computes the CV "over the distribution of the VM number
    creation per hour over one week" (Section III-B).  A zero-mean input has
    an undefined CV; we return ``nan`` in that case so callers can filter.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("cannot compute CV of zero samples")
    mean = samples.mean()
    if mean == 0:
        return float("nan")
    return float(samples.std() / mean)


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient, returning ``nan`` for constant input.

    A constant series has no defined correlation, and telemetry series are
    frequently constant (idle VMs), so the textbook estimator here guards
    that case explicitly instead of dividing by a zero deviation.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("Pearson correlation needs at least two samples")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc))
    if denom == 0:
        return float("nan")
    r = float(np.dot(xc, yc) / denom)
    # Clamp round-off excursions outside [-1, 1].
    return max(-1.0, min(1.0, r))


def pairwise_pearson(block: np.ndarray) -> np.ndarray:
    """All-pairs Pearson correlation matrix over the rows of ``block``.

    Bitwise identical to calling :func:`pearson_correlation` on every row
    pair: each row is centered once with the same ``mean``/subtract ops the
    scalar path applies, the self-products ``dot(xc, xc)`` are hoisted out
    of the pair loop, and each pair numerator still uses ``np.dot`` (BLAS
    ``ddot``).  A full ``Xc @ Xc.T`` matmul would route through ``dgemm``,
    whose different summation order breaks the bitwise contract the
    equality tests enforce -- hoisting the centering and self-dots already
    removes the redundant per-pair passes, which is where the quadratic
    cost was.

    Returns an ``(m, m)`` symmetric matrix with ``nan`` for pairs whose
    denominator is exactly zero (a constant row paired with a finite row).
    Every other quirk of the scalar estimator is reproduced too, including
    its clamp behaviour on NaN-poisoned input.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {x.shape}")
    m, n = x.shape
    if n < 2:
        raise ValueError("Pearson correlation needs at least two samples")
    xc = x - x.mean(axis=1, keepdims=True)
    self_dots = np.empty(m, dtype=np.float64)
    for i in range(m):
        self_dots[i] = np.dot(xc[i], xc[i])
    out = np.full((m, m), np.nan, dtype=np.float64)
    for i in range(m):
        for j in range(i, m):
            denom = np.sqrt(self_dots[i] * self_dots[j])
            if denom == 0:
                continue
            r = float(np.dot(xc[i], xc[j]) / denom)
            out[i, j] = out[j, i] = max(-1.0, min(1.0, r))
    return out


def coefficient_of_variation_rows(block: np.ndarray) -> np.ndarray:
    """Per-row :func:`coefficient_of_variation` over a 2-D block.

    Bitwise identical to the scalar helper applied row by row
    (``mean``/``std`` along ``axis=1`` reproduce the per-row reductions
    exactly); rows with zero mean map to ``nan``.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ValueError("cannot compute CV of zero samples")
    means = x.mean(axis=1)
    stds = x.std(axis=1)
    out = np.full(x.shape[0], np.nan, dtype=np.float64)
    live = means != 0
    out[live] = stds[live] / means[live]
    return out


@dataclass(frozen=True)
class BoxplotStats:
    """The five-number summary used by the paper's box-plots.

    Whisker boundaries follow the convention stated in the caption of
    Fig. 1(b): 1.5 times the interquartile range, clipped to the most extreme
    sample inside that range.
    """

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    n_outliers: int
    n_samples: int

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "BoxplotStats":
        """Compute box-plot statistics of ``samples`` (NaNs are dropped)."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        samples = samples[~np.isnan(samples)]
        if samples.size == 0:
            raise ValueError("cannot compute box-plot stats of zero samples")
        q1, median, q3 = np.percentile(samples, [25, 50, 75])
        iqr = q3 - q1
        low_fence = q1 - 1.5 * iqr
        high_fence = q3 + 1.5 * iqr
        inside = samples[(samples >= low_fence) & (samples <= high_fence)]
        return cls(
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            whisker_low=float(inside.min()),
            whisker_high=float(inside.max()),
            n_outliers=int(samples.size - inside.size),
            n_samples=int(samples.size),
        )
