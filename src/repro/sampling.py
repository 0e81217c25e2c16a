"""Weighted categorical draws whose CDF is built once, not per draw.

``Generator.choice(n, p=p)`` re-validates ``p`` and rebuilds its CDF on
every call, and the generator's per-VM samplers draw from fixed weights
thousands of times per trace.  :func:`weighted_cdf` builds that CDF once
with ``choice``'s own arithmetic (``cumsum``, then divide by the last
entry) and :func:`draw_index` inverts uniforms with ``choice``'s own
search, so each draw returns the index ``rng.choice(len(p), size=size,
p=p)`` would and leaves ``rng`` in the same state.  The validation
``choice`` did per call is the weight owner's job, at construction.
``tests/test_sampling.py`` checks the equality on the installed numpy.
"""

from __future__ import annotations

import numpy as np


def weighted_cdf(p) -> np.ndarray:
    """The CDF ``Generator.choice`` derives from the probabilities ``p``.

    Pass ``p`` exactly as it went to ``choice``: weights normalized first
    and raw weights can give CDFs that differ in the last bit.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    cdf.setflags(write=False)  # cached and shared by every draw
    return cdf


def draw_index(rng: np.random.Generator, cdf: np.ndarray, size: int | None = None):
    """One index (``size=None``) or an array of ``size`` indices drawn from ``cdf``."""
    return cdf.searchsorted(rng.random(size), side="right")
