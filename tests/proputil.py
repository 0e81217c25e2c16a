"""Hypothesis-optional property-testing helpers.

CI environments install only ``numpy pytest``, so property-based
tests must not *require* hypothesis.  Import ``given``/``settings``/``st``
from here and branch on :data:`HAVE_HYPOTHESIS`: when hypothesis is
available the real strategies run; otherwise tests fall back to
deterministic stdlib-``random`` sweeps built from :func:`seeded_rngs`.
Both paths exercise the same property function, so coverage degrades in
example count, never in what is asserted.
"""

from __future__ import annotations

import random

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only on minimal installs
    given = None
    settings = None
    st = None
    HAVE_HYPOTHESIS = False


def seeded_rngs(n: int = 10, seed: int = 0xC10D) -> list[random.Random]:
    """``n`` independent deterministic RNGs for a stdlib fallback sweep.

    Each case gets its own generator (derived from one base seed) so a
    failing case can be re-run in isolation by its index.
    """
    base = random.Random(seed)
    return [random.Random(base.getrandbits(64)) for _ in range(n)]
