"""Plain-text rendering of analysis results for terminal reports.

The library deliberately has no plotting dependency; these helpers render
series as unicode sparklines, CDFs as quantile strips, and category mixes
as bar rows, so ``python -m repro study`` can show *shapes* inline.
"""

from __future__ import annotations

import numpy as np

#: Eight-level block characters, lowest to highest.
_SPARK_LEVELS = " ▁▂▃▄▅▆▇█"
#: Buckets a longer series is averaged into for its sparkline.
SPARKLINE_WIDTH = 64
#: Characters in a bar.
BAR_WIDTH = 24


def sparkline(values: np.ndarray) -> str:
    """Render a series as a fixed-width unicode sparkline.

    Values are averaged into ``SPARKLINE_WIDTH`` buckets and scaled to the
    series' own min/max (a flat series renders as a mid-level line).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return ""
    if values.size > SPARKLINE_WIDTH:
        edges = np.linspace(0, values.size, SPARKLINE_WIDTH + 1).astype(int)
        bucketed = np.array(
            [values[a:b].mean() if b > a else values[min(a, values.size - 1)]
             for a, b in zip(edges[:-1], edges[1:], strict=True)]
        )
    else:
        bucketed = values
    lo, hi = float(bucketed.min()), float(bucketed.max())
    if hi - lo < 1e-12:
        return "▄" * bucketed.size
    scaled = (bucketed - lo) / (hi - lo)
    indices = np.minimum((scaled * (len(_SPARK_LEVELS) - 1)).astype(int), len(_SPARK_LEVELS) - 1)
    return "".join(_SPARK_LEVELS[i] for i in indices)


def bar(fraction: float) -> str:
    """Render a fraction in [0, 1] as a ``BAR_WIDTH``-wide bar."""
    fraction = float(np.clip(fraction, 0.0, 1.0))
    filled = int(round(fraction * BAR_WIDTH))
    return "#" * filled + "." * (BAR_WIDTH - filled)


def mix_table(mixes: dict[str, dict[str, float]]) -> str:
    """Render category mixes (e.g. pattern shares per cloud) as bar rows.

    ``mixes`` maps a column label (e.g. ``private``) to its category
    fractions.  Categories are unioned and sorted by the first column's
    share, largest first.
    """
    if not mixes:
        return ""
    columns = list(mixes)
    categories: list[str] = []
    for column in columns:
        for category in mixes[column]:
            if category not in categories:
                categories.append(category)
    first = mixes[columns[0]]
    categories.sort(key=lambda c: -first.get(c, 0.0))
    label_width = max(len(c) for c in categories)
    lines = []
    for category in categories:
        cells = []
        for column in columns:
            share = mixes[column].get(category, 0.0)
            cells.append(f"{column} {bar(share)} {share:5.1%}")
        lines.append(f"{category.ljust(label_width)}  " + "   ".join(cells))
    return "\n".join(lines)


def cdf_strip(values: np.ndarray, probabilities: np.ndarray) -> str:
    """Render a CDF's p10, p25, p50, p75 and p90 on one line: ``p10=1  p25=4  ...``."""
    values = np.asarray(values, dtype=np.float64)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if values.size == 0:
        return ""
    parts = []
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        idx = int(np.searchsorted(probabilities, q, side="left"))
        idx = min(idx, values.size - 1)
        parts.append(f"p{int(q * 100)}={values[idx]:g}")
    return "  ".join(parts)
