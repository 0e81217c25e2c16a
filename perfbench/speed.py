"""Machine-speed reference for scaling measured times.

The machines this benchmark runs on are shared: a neighbour's load can make
the same code on the same input run 1.5x slower for minutes at a time.  A
fixed reference kernel, timed between operations, slows down with it, so
each measured time is scaled by ``REFERENCE_S / kernel time`` -- the time
the operation would have taken on a machine that runs the kernel in
``REFERENCE_S``.  The kernel mixes what the program spends its time on
(dict and list churn, sorting, JSON encoding, FFTs) and never calls the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Kernel time the reported figures are scaled to: the kernel's median on
#: the 2-vCPU Xeon container the benchmark was defined on (it ranged from
#: 1.2 to 2.9 ms there), so scaled figures read close to raw ones.
REFERENCE_S = 0.0016

#: Kernel repetitions per sample; the sample is their median.
REPEATS = 3


def _kernel(block: np.ndarray) -> float:
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i % 113
        counts[key] = counts.get(key, 0) + i
    rows = sorted((str(i * 7919 % 1000), i) for i in range(1500))
    encoded = json.dumps(rows[:300])
    spectrum = np.abs(np.fft.rfft(block, axis=1)).sum()
    return float(spectrum) + len(encoded) + len(counts)


def sample() -> float:
    """Current kernel time in seconds (median of ``REPEATS`` timings)."""
    block = np.random.default_rng(0).standard_normal((16, 2016))
    timings = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel(block)
        timings.append(time.perf_counter() - t0)
    return statistics.median(timings)


def scale(before: float, after: float) -> float:
    """Factor that maps a time measured between two samples to reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
