"""The per-VM observation rules and the one batched classification path.

``TraceMetadata`` states which samples of a VM's life the window saw, and
``classify_windows`` is the only caller of ``classify_block``; every
analysis, the knowledge base and serving go through these two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import patterns
from repro.core.patterns import classify_series, classify_windows
from repro.telemetry.store import TraceMetadata
from repro.timebase import SAMPLE_PERIOD, sample_times
from repro.workloads.utilization_models import diurnal_signal, stable_signal
from tests.test_store import make_vm

INF = float("inf")


class TestObservationWindow:
    """Boundary cases of the window rule (300 s samples, one-week window)."""

    metadata = TraceMetadata()

    @pytest.mark.parametrize(
        ("created_at", "ended_at", "span", "window", "completed"),
        [
            # Created before the window opened: clipped to 0.
            (-5000.0, 3000.0, (0.0, 3000.0), (0, 10), False),
            # Censored (ended at inf): clipped to the window's end.
            (600.0, INF, (600.0, 604800.0), (2, 2016), False),
            # Ended after the window closed.
            (600.0, 700000.0, (600.0, 604800.0), (2, 2016), False),
            # Created mid-sample: the first whole sample is the next one.
            (150.0, 1200.0, (150.0, 1200.0), (1, 4), True),
            # Lived less than one sample: the window is empty.
            (310.0, 590.0, (310.0, 590.0), (2, 1), True),
            # Ended exactly at the window's end: still "ended in the week".
            (0.0, 604800.0, (0.0, 604800.0), (0, 2016), True),
        ],
    )
    def test_boundaries(self, created_at, ended_at, span, window, completed):
        vm = make_vm(created_at=created_at, ended_at=ended_at)
        assert self.metadata.alive_span(vm) == span
        assert self.metadata.alive_seconds(vm) == span[1] - span[0]
        assert self.metadata.sample_window(vm) == window
        assert self.metadata.completed_in_window(vm) is completed


class TestClassifyWindows:
    @pytest.fixture(scope="class")
    def windows(self):
        times = sample_times(2016)
        rng = np.random.default_rng(3)
        diurnal = np.clip(
            0.5 * diurnal_signal(times, tz_offset_hours=0)
            + rng.normal(0, 0.05, times.size),
            0,
            1,
        )
        stable = stable_signal(times, level=0.4, rng=rng)
        noise = rng.uniform(0, 1, times.size)
        # Mixed lengths; the 2016-sample group holds 7 rows, and 300
        # samples (25 h) is shorter than the 2-day min_duration.
        return [
            diurnal,
            noise[:1500],
            stable,
            diurnal[:300],
            noise,
            stable[:1500],
            diurnal[100:],
            noise[::-1].copy(),
            stable[::-1].copy(),
            diurnal[::-1].copy(),
            noise[:300],
            rng.uniform(0, 1, times.size),
        ]

    def test_matches_scalar_in_input_order(self, windows, monkeypatch):
        # Two full-length rows per tile: the seven-row 2016-sample group
        # splits into four tiles.
        monkeypatch.setattr(patterns, "_CLASSIFY_TILE_BYTES", 2 * 8 * 2016)
        block_rows = []
        kernel = patterns.classify_block

        def counting_block(block, *args, **kwargs):
            block_rows.append(block.shape)
            return kernel(block, *args, **kwargs)

        monkeypatch.setattr(patterns, "classify_block", counting_block)
        labels = classify_windows(windows)
        assert labels == [classify_series(w) for w in windows]
        assert sorted(n for n, length in block_rows if length == 2016) == [1, 2, 2, 2]
        assert labels[3] == labels[10] == "irregular"  # shorter than min_duration
        assert len(set(labels)) >= 3

    def test_chunk_size_cannot_move_a_label(self, windows, monkeypatch):
        unchunked = classify_windows(windows)
        monkeypatch.setattr(patterns, "_CLASSIFY_TILE_BYTES", 1)
        assert classify_windows(windows) == unchunked

    def test_config_is_applied(self, windows):
        # One diurnal series is judged at MIN_DURATION, and one sample short
        # of it is left irregular.
        n = int(patterns.MIN_DURATION // SAMPLE_PERIOD)
        diurnal = windows[0]
        assert classify_windows([diurnal[:n], diurnal[: n - 1]]) == ["diurnal", "irregular"]

    def test_empty_input(self):
        assert classify_windows([]) == []
