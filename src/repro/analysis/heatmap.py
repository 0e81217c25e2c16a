"""Two-dimensional histograms ("heatmaps").

Fig. 2 of the paper shows heatmaps of the normalized number of CPU cores
versus the normalized amount of memory per VM, for the private and the public
cloud.  Because VM SKUs span several orders of magnitude, the paper's axes
are effectively logarithmic; :func:`build_heatmap` therefore defaults to
log-spaced bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Heatmap2D:
    """A normalized 2-D histogram.

    ``density[i, j]`` is the fraction of samples with ``x`` in
    ``[x_edges[i], x_edges[i+1])`` and ``y`` in ``[y_edges[j], y_edges[j+1])``.
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    density: np.ndarray
    n_samples: int

    def occupied_fraction(self, threshold: float = 0.0) -> float:
        """Fraction of cells whose mass exceeds ``threshold``.

        A coarse "spread" measure: the paper observes that the public-cloud
        heatmap extends into the extreme corners (tiny and huge VMs), i.e. it
        occupies more cells than the private-cloud heatmap.
        """
        return float(np.mean(self.density > threshold))

    def corner_mass(self, x_fraction: float = 0.25, y_fraction: float = 0.25) -> float:
        """Mass in the bottom-left plus top-right corners of the grid.

        ``x_fraction``/``y_fraction`` select the corner size as a fraction of
        the number of bins on each axis.
        """
        nx, ny = self.density.shape
        cx = max(1, int(round(nx * x_fraction)))
        cy = max(1, int(round(ny * y_fraction)))
        bottom_left = self.density[:cx, :cy].sum()
        top_right = self.density[nx - cx :, ny - cy :].sum()
        return float(bottom_left + top_right)


def build_heatmap(
    x: np.ndarray,
    y: np.ndarray,
    *,
    bins: int = 16,
    log: bool = True,
    x_range: tuple[float, float] | None = None,
    y_range: tuple[float, float] | None = None,
) -> Heatmap2D:
    """Build a :class:`Heatmap2D` over paired samples ``(x, y)``.

    Parameters
    ----------
    bins:
        Number of bins per axis.
    log:
        Use log-spaced bin edges (requires strictly positive data/ranges).
    x_range, y_range:
        Explicit axis ranges; default to the data extent.  Fixing ranges is
        what makes private/public heatmaps directly comparable.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise ValueError("cannot build a heatmap from zero samples")

    def edges(data: np.ndarray, rng: tuple[float, float] | None) -> np.ndarray:
        lo, hi = rng if rng is not None else (float(data.min()), float(data.max()))
        if log and lo <= 0:
            raise ValueError("log-spaced bins require positive values")
        spaced = np.geomspace if log else np.linspace
        result = spaced(lo, hi, bins + 1) if hi > lo else None
        if result is None or not np.all(np.diff(result) > 0):
            # A span of a few ulps survives the hi > lo check but still
            # collapses into duplicate edges under rounding; widen it.
            result = spaced(lo, lo + 1.0, bins + 1)
        return result

    x_edges = edges(x, x_range)
    y_edges = edges(y, y_range)
    counts, _, _ = np.histogram2d(x, y, bins=(x_edges, y_edges))
    return Heatmap2D(
        x_edges=x_edges,
        y_edges=y_edges,
        density=counts / x.size,
        n_samples=int(x.size),
    )
