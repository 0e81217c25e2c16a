"""Unit tests for the four-way pattern classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import patterns
from repro.core.patterns import (
    ClassifierConfig,
    PatternClassifier,
    PatternMix,
    classify_block,
    classify_series,
    classify_windows,
)
from repro.telemetry.schema import (
    Cloud,
    PATTERN_DIURNAL,
    PATTERN_HOURLY_PEAK,
    PATTERN_IRREGULAR,
    PATTERN_STABLE,
)
from repro.timebase import SAMPLES_PER_WEEK, sample_times
from repro.workloads.utilization_models import (
    diurnal_signal,
    hourly_peak_signal,
    irregular_signal,
    stable_signal,
)


@pytest.fixture(scope="module")
def times():
    return sample_times(SAMPLES_PER_WEEK)


@pytest.fixture(scope="module")
def examples(times):
    rng = np.random.default_rng(42)
    return {
        PATTERN_DIURNAL: np.clip(
            0.6 * diurnal_signal(times, tz_offset_hours=-8)
            + rng.normal(0, 0.05, times.size),
            0,
            1,
        ),
        PATTERN_STABLE: np.clip(
            stable_signal(times, level=0.22, rng=rng)
            + rng.normal(0, 0.006, times.size),
            0,
            1,
        ),
        PATTERN_IRREGULAR: np.clip(
            irregular_signal(times, rng=rng) + rng.normal(0, 0.01, times.size), 0, 1
        ),
        PATTERN_HOURLY_PEAK: np.clip(
            0.6 * hourly_peak_signal(times, tz_offset_hours=-8)
            + rng.normal(0, 0.05, times.size),
            0,
            1,
        ),
    }


@pytest.mark.parametrize(
    "pattern",
    [PATTERN_DIURNAL, PATTERN_STABLE, PATTERN_IRREGULAR, PATTERN_HOURLY_PEAK],
)
def test_targeted_backend_classifies_each_pattern(examples, pattern):
    assert classify_series(examples[pattern]) == pattern


def test_short_series_is_unclassifiable(examples):
    short = examples[PATTERN_DIURNAL][:100]  # ~8 hours
    assert classify_series(short) == PATTERN_IRREGULAR


def test_stable_threshold_config(examples):
    strict = ClassifierConfig(stable_std_threshold=1e-6)
    # With an absurdly strict threshold, stable is no longer detected.
    assert classify_series(examples[PATTERN_STABLE], strict) != PATTERN_STABLE


def test_noise_robustness(times):
    """Diurnal remains detectable under moderate noise."""
    rng = np.random.default_rng(0)
    signal = 0.5 * diurnal_signal(times, tz_offset_hours=0)
    noisy = np.clip(signal + rng.normal(0, 0.08, times.size), 0, 1)
    assert classify_series(noisy) == PATTERN_DIURNAL


class TestClassifyBlock:
    """classify_block must agree with per-row classify_series exactly."""

    @pytest.fixture(scope="class")
    def block(self, examples, times):
        rng = np.random.default_rng(7)
        gap = np.clip(
            0.6 * diurnal_signal(times, tz_offset_hours=0)
            + rng.normal(0, 0.05, times.size),
            0,
            1,
        )
        gap[500:600] = np.nan  # telemetry gap
        rows = list(examples.values()) + [
            np.full(times.size, 0.3),  # exactly constant (idle VM)
            rng.uniform(0, 1, times.size),  # white noise
            gap,
        ]
        return np.stack(rows)

    def test_matches_scalar_targeted(self, block):
        assert classify_block(block) == [classify_series(row) for row in block]

    def test_short_block_all_irregular(self, block):
        short = block[:, :100]
        assert classify_block(short) == [PATTERN_IRREGULAR] * short.shape[0]

    def test_empty_block(self):
        assert classify_block(np.empty((0, 2016))) == []

    def test_rejects_1d(self, block):
        with pytest.raises(ValueError):
            classify_block(block[0])


class TestTiles:
    """Cache-sized tiles cannot move a label or a std bit."""

    @pytest.fixture(scope="class")
    def rows(self, examples, times):
        rng = np.random.default_rng(11)
        rows = []
        for i in range(700):
            kind = i % 7
            if kind < 4:  # the four patterns, re-noised
                base = list(examples.values())[kind]
                row = np.clip(base + rng.normal(0, 0.02, times.size), 0, 1)
            elif kind == 4:
                row = np.full(times.size, rng.uniform())  # constant
            elif kind == 5:  # a short-period wave: fails both ACF hills
                wave = np.sin(2 * np.pi * np.arange(times.size) / rng.uniform(5, 9))
                row = np.clip(0.5 + 0.2 * wave + rng.normal(0, 0.05, times.size), 0, 1)
            else:  # diurnal with a telemetry gap
                row = np.clip(
                    0.6 * diurnal_signal(times, tz_offset_hours=int(rng.integers(-8, 9)))
                    + rng.normal(0, 0.05, times.size),
                    0,
                    1,
                )
                start = int(rng.integers(0, times.size - 100))
                row[start : start + 100] = np.nan
            rows.append(row.astype(np.float32).astype(np.float64))
        return np.stack(rows)

    @pytest.fixture(scope="class")
    def scalar_labels(self, rows):
        return [classify_series(row) for row in rows]

    def test_fixture_covers_every_label(self, scalar_labels):
        assert set(scalar_labels) == {
            PATTERN_DIURNAL,
            PATTERN_STABLE,
            PATTERN_IRREGULAR,
            PATTERN_HOURLY_PEAK,
        }

    @pytest.mark.parametrize("n_rows", [1, 31, 32, 33, 700])
    def test_tiled_equals_untiled_and_scalar(self, rows, scalar_labels, n_rows, monkeypatch):
        assert patterns._rows_per_tile(rows.shape[1]) == 32
        tiled = classify_block(rows[:n_rows])
        assert tiled == scalar_labels[:n_rows]
        monkeypatch.setattr(patterns, "_CLASSIFY_TILE_BYTES", rows.nbytes)
        assert classify_block(rows[:n_rows]) == tiled

    def test_centered_std_is_numpy_std(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            shape = (int(rng.integers(1, 40)), int(rng.integers(2, 2500)))
            block = rng.normal(size=shape) * rng.uniform(1e-3, 10) + rng.uniform(-5, 5)
            mean = block.mean(axis=1, keepdims=True)
            # the tile centers on sum / n, which is how np.mean computes it
            assert (block.sum(axis=1, keepdims=True) / shape[1]).tobytes() == mean.tobytes()
            std = patterns._centered_stds(block - mean)
            assert std.tobytes() == block.std(axis=1).tobytes()


class TestTileDecisions:
    """Array-wide hill and power tests make the scalar helpers' decisions."""

    @pytest.fixture(scope="class")
    def acfs(self):
        rng = np.random.default_rng(23)
        rows = rng.uniform(-1, 1, (400, 577))
        rows[::7] = np.round(rows[::7], 1)  # ties inside the windows
        rows[1::7, 240:340] = 0.5  # flat plateau: first argmax on the edge
        rows[2::7, 240:340] = np.linspace(0.2, 0.9, 100)  # peak on the right edge
        rows[3::7, 240:340] = np.linspace(0.9, 0.2, 100)  # peak on the left edge
        rows[4::7, 9:16] = [0.3, 0.26, 0.28, 0.5, 0.27, 0.29, 0.31]
        rows[5::7, rng.integers(0, 577, 57)] = np.nan  # scattered NaNs
        rows[6::7] = np.nan
        return rows

    @pytest.mark.parametrize("lag", [12, 288, 575])
    @pytest.mark.parametrize("threshold", [-2.0, 0.25, 0.7])
    def test_hill_passes_equals_scalar(self, acfs, lag, threshold):
        got = patterns._hill_passes(acfs, lag, 0.15, threshold)
        expected = [patterns._acf_hill_value(row, lag, 0.15) >= threshold for row in acfs]
        assert got.tolist() == expected

    @pytest.mark.parametrize("n", [576, 1001, 2016])
    def test_power_passes_equals_scalar(self, n):
        rng = np.random.default_rng(n)
        t = np.arange(n)
        rows = rng.normal(0, 0.1, (60, n))
        rows[::3] += np.sin(2 * np.pi * t / 288)
        rows[1::3] += rng.uniform(0, 0.4) * np.sin(2 * np.pi * t / 12)
        rows[5] = 0.4  # constant: zero mean power
        xc = rows - rows.mean(axis=1, keepdims=True)
        spectra = np.abs(np.fft.rfft(xc, axis=1)) ** 2 / n
        spectra[:, 0] = 0.0
        mean_powers = spectra.sum(axis=1) / spectra.shape[1]
        for lag in (12, 288):
            for min_ratio in (0.0, 4.0, 30.0):
                got = patterns._power_passes(
                    spectra, mean_powers, patterns._power_bins(lag, n), min_ratio
                )
                expected = [patterns._power_ratio(row, lag) >= min_ratio for row in rows]
                assert got.tolist() == expected


def test_one_window_equals_series(examples):
    """A serving cache miss classifies one window: it must match the oracle."""
    rng = np.random.default_rng(4)
    for series in examples.values():
        for length in (2016, 1500, int(rng.integers(577, 2016)), 576, 300):
            window = series[:length]
            assert classify_windows([window]) == [classify_series(window)]


class TestPatternMix:
    def test_fractions(self):
        mix = PatternMix(counts={PATTERN_DIURNAL: 3, PATTERN_STABLE: 1})
        assert mix.total == 4
        assert mix.fraction(PATTERN_DIURNAL) == 0.75
        assert mix.fraction(PATTERN_HOURLY_PEAK) == 0.0
        fractions = mix.as_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_mix(self):
        mix = PatternMix(counts={})
        assert mix.total == 0
        assert mix.fraction(PATTERN_DIURNAL) == 0.0


class TestClassifyStore:
    def test_classifies_long_lived_vms(self, small_trace):
        classifier = PatternClassifier()
        labels = classifier.classify_store(
            small_trace, cloud=Cloud.PRIVATE, max_vms=50
        )
        assert 0 < len(labels) <= 50
        for vm_id in labels:
            assert small_trace.vm(vm_id).cloud is Cloud.PRIVATE

    def test_subsampling_is_deterministic(self, small_trace):
        classifier = PatternClassifier()
        a = classifier.classify_store(small_trace, cloud=Cloud.PUBLIC, max_vms=30, seed=1)
        b = classifier.classify_store(small_trace, cloud=Cloud.PUBLIC, max_vms=30, seed=1)
        assert a == b

    def test_accuracy_beats_chance(self, small_trace):
        """Agreement with the generator's ground-truth pattern labels."""
        labels = PatternClassifier().classify_store(
            small_trace, cloud=Cloud.PRIVATE, max_vms=150
        )
        assert labels
        hits = sum(small_trace.vm(vm_id).pattern == label for vm_id, label in labels.items())
        assert hits / len(labels) > 0.6
