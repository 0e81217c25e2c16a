"""Four-way utilization pattern classification (Section IV-A).

The paper buckets VM CPU utilization series into *diurnal*, *stable*,
*irregular* and *hourly-peak*:

* stable   -- "extracted by restricting the standard deviation";
* diurnal  -- daily periodicity "detected using the approach discussed in
  [18]" (AUTOPERIOD, Vlachos et al., ICDM'05);
* hourly-peak -- "a special diurnal pattern ... period equal to one hour";
* irregular -- everything else.

The periodic classes run AUTOPERIOD's two stages -- a periodogram-power
test and validation on an autocorrelation hill
(:mod:`repro.core.periodicity`) -- only at the two periods the four classes
ask about (1 hour, 1 day), not over every candidate period, which keeps a
whole-trace sweep cheap.  :func:`classify_series` is the scalar reference
and :func:`classify_block` its label-identical batched form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.periodicity import autocorrelation, short_acf
from repro.telemetry.schema import (
    Cloud,
    PATTERN_DIURNAL,
    PATTERN_HOURLY_PEAK,
    PATTERN_IRREGULAR,
    PATTERN_STABLE,
)
from repro.telemetry.store import TraceStore
from repro.timebase import SAMPLE_PERIOD, SECONDS_PER_DAY


@dataclass(frozen=True)
class ClassifierConfig:
    """Thresholds of the pattern classifier."""

    #: Std threshold below which a series is "stable".
    stable_std_threshold: float = 0.035
    #: Minimum ACF value at the (refined) daily lag for "diurnal".
    diurnal_min_acf: float = 0.25
    #: Minimum ACF value at the hourly lag for "hourly-peak".
    hourly_min_acf: float = 0.25
    #: Periodogram power at the target bin must exceed this multiple of the
    #: mean spectral power for the period to be considered significant.
    min_power_ratio: float = 4.0
    #: Relative search window around the target lag for the ACF hill.
    lag_tolerance: float = 0.15
    #: Series shorter than this (seconds) cannot be classified reliably.
    min_duration: float = 2 * SECONDS_PER_DAY


def _power_bins(lag: int, n: int) -> slice:
    """Bins of a length-``n`` periodogram within 10% of period ``lag``'s frequency."""
    target_bin = n / lag
    lo = max(1, int(np.floor(target_bin * 0.9)))
    hi = min(n // 2, int(np.ceil(target_bin * 1.1)))
    return slice(lo, hi + 1)


def _power_ratio(series: np.ndarray, lag: int) -> float:
    """Periodogram power near period ``lag`` relative to the mean power."""
    x = series - series.mean()
    n = x.size
    spectrum = np.abs(np.fft.rfft(x)) ** 2 / n
    spectrum[0] = 0.0
    mean_power = spectrum.mean()
    bins = _power_bins(lag, n)
    if mean_power == 0 or bins.stop <= bins.start:
        return 0.0
    return float(spectrum[bins].max() / mean_power)


def _hill_bounds(lag: int, tolerance: float, acf_size: int) -> tuple[int, int]:
    """First and last lag of the ACF window searched for a hill near ``lag``."""
    search = max(1, int(round(lag * tolerance)))
    return max(1, lag - search), min(acf_size - 2, lag + search)


def _acf_hill_value(acf: np.ndarray, lag: int, tolerance: float) -> float:
    """Max ACF on a hill near ``lag``; -inf when no local max is present."""
    lo, hi = _hill_bounds(lag, tolerance, acf.size)
    if hi <= lo:
        return float("-inf")
    peak = lo + int(np.argmax(acf[lo : hi + 1]))
    if acf[peak] >= acf[peak - 1] and acf[peak] >= acf[peak + 1]:
        return float(acf[peak])
    return float("-inf")


def classify_series(
    series: np.ndarray,
    config: ClassifierConfig | None = None,
    *,
    sample_period: float = SAMPLE_PERIOD,
) -> str:
    """Classify one utilization series into the four canonical patterns."""
    config = config or ClassifierConfig()
    x = np.asarray(series, dtype=np.float64).ravel()
    if x.size * sample_period < config.min_duration:
        return PATTERN_IRREGULAR

    if float(x.std()) < config.stable_std_threshold:
        return PATTERN_STABLE

    hourly_lag = max(2, int(round(3600.0 / sample_period)))
    daily_lag = int(round(24 * 3600.0 / sample_period))

    acf = autocorrelation(x, max_lag=min(x.size // 2, daily_lag * 2))
    hourly_acf = _acf_hill_value(acf, hourly_lag, config.lag_tolerance)
    if (
        hourly_acf >= config.hourly_min_acf
        and _power_ratio(x, hourly_lag) >= config.min_power_ratio
    ):
        return PATTERN_HOURLY_PEAK

    if daily_lag < acf.size:
        daily_acf = _acf_hill_value(acf, daily_lag, config.lag_tolerance)
        if (
            daily_acf >= config.diurnal_min_acf
            and _power_ratio(x, daily_lag) >= config.min_power_ratio
        ):
            return PATTERN_DIURNAL
    return PATTERN_IRREGULAR


#: Float64 input bytes of one classifier tile: 32 rows of a week at 300 s
#: samples.  A tile sized to the cache, so a tile's FFT work arrays stay
#: near the L2 cache; labels are independent of the tile size.
_CLASSIFY_TILE_BYTES = 512 * 1024


def _rows_per_tile(length: int) -> int:
    return max(1, _CLASSIFY_TILE_BYTES // (8 * max(length, 1)))


def classify_block(
    block: np.ndarray,
    config: ClassifierConfig | None = None,
    *,
    sample_period: float = SAMPLE_PERIOD,
) -> list[str]:
    """Classify every row of an equal-length series block in one batch.

    Label-identical to calling :func:`classify_series` on each row
    (``tests/test_patterns.py`` asserts it on random, constant and NaN-gap
    fixtures): the row stds and the length-n periodogram are bitwise the
    scalar ones, and the ACF is :func:`~repro.core.periodicity.short_acf`,
    which pads to ``n + max_lag`` instead of ``2n`` and so differs from the
    scalar ACF only in its last bits.  The win is one short ACF per tile of
    ``_CLASSIFY_TILE_BYTES``, array-wide tests, and one shared periodogram
    for the hourly *and* daily tests, taken only for rows with an ACF hill
    that passes -- instead of up to three FFTs and two scalar helpers per
    series.
    """
    config = config or ClassifierConfig()
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D block, got shape {x.shape}")
    n_series, n = x.shape
    if n * sample_period < config.min_duration:
        return [PATTERN_IRREGULAR] * n_series
    hourly_lag = max(2, int(round(3600.0 / sample_period)))
    daily_lag = int(round(24 * 3600.0 / sample_period))
    step = _rows_per_tile(n)
    labels: list[str] = []
    for start in range(0, n_series, step):
        labels += _classify_tile(x[start : start + step], config, hourly_lag, daily_lag)
    return labels


def _centered_stds(xc: np.ndarray) -> np.ndarray:
    """Bitwise ``x.std(axis=1)``, given ``xc``: the rows of ``x`` minus their means.

    ``np.std`` centers, squares, sums and divides exactly like this, so a
    tile is centered only once for its std, ACF and spectrum.
    """
    return np.sqrt(np.sum(xc * xc, axis=1) / xc.shape[1])


#: A tile's labels, by the code :func:`_classify_tile` gives each row.
_TILE_LABELS = (PATTERN_IRREGULAR, PATTERN_STABLE, PATTERN_HOURLY_PEAK, PATTERN_DIURNAL)


def _classify_tile(
    x: np.ndarray, config: ClassifierConfig, hourly_lag: int, daily_lag: int
) -> list[str]:
    """:func:`classify_block` on one tile of rows long enough to judge.

    Each test is one array op over the rows still undecided: the std test,
    then the ACF hills on every row that is not stable, then the length-n
    periodogram only for rows with a passing hill.  The comparisons are
    :func:`classify_series`'s, so given the same ACF and spectrum each row
    gets the label the scalar helpers would give it.
    """
    n = x.shape[1]
    xc = x - x.sum(axis=1, keepdims=True) / n  # bitwise x.mean(axis=1)
    stable = _centered_stds(xc) < config.stable_std_threshold
    active = np.flatnonzero(~stable)
    if not active.size:
        return [PATTERN_STABLE] * len(x)
    codes = stable.astype(np.intp)  # 0 irregular, 1 stable
    max_lag = min(n // 2, daily_lag * 2)
    acf = short_acf(xc if active.size == len(x) else xc[active], max_lag)
    hourly = _hill_passes(acf, hourly_lag, config.lag_tolerance, config.hourly_min_acf)
    daily = (
        _hill_passes(acf, daily_lag, config.lag_tolerance, config.diurnal_min_acf)
        if daily_lag <= max_lag
        else np.zeros_like(hourly)
    )
    check = hourly | daily
    if check.any():
        rows = active[check]
        spectra = np.abs(np.fft.rfft(xc[rows], axis=1)) ** 2 / n
        spectra[:, 0] = 0.0
        mean_powers = spectra.sum(axis=1) / spectra.shape[1]  # bitwise mean
        min_ratio = config.min_power_ratio
        peak = hourly[check]
        if peak.any():
            peak &= _power_passes(spectra, mean_powers, _power_bins(hourly_lag, n), min_ratio)
        diurnal = daily[check] & ~peak
        if diurnal.any():
            diurnal &= _power_passes(spectra, mean_powers, _power_bins(daily_lag, n), min_ratio)
        codes[rows[peak]] = 2
        codes[rows[diurnal]] = 3
    return [_TILE_LABELS[code] for code in codes.tolist()]


def _hill_passes(
    acf: np.ndarray, lag: int, tolerance: float, threshold: float
) -> np.ndarray:
    """``_acf_hill_value(row, lag, tolerance) >= threshold`` for every ACF row.

    The first argmax of a window is at least every other window value (or a
    NaN, which fails every test), so only a peak on the window's edge has a
    neighbour left to compare against.  ``threshold`` is finite, so a row
    without a hill (scalar value -inf) fails it.
    """
    lo, hi = _hill_bounds(lag, tolerance, acf.shape[1])
    if hi <= lo:
        return np.zeros(acf.shape[0], dtype=bool)
    window = acf[:, lo : hi + 1]
    peak = window.argmax(axis=1)
    value = window.max(axis=1)
    return (
        (value >= threshold)
        & ((peak != 0) | (value >= acf[:, lo - 1]))
        & ((peak != hi - lo) | (value >= acf[:, hi + 1]))
    )


def _power_passes(
    spectra: np.ndarray, mean_powers: np.ndarray, bins: slice, min_ratio: float
) -> np.ndarray:
    """``_power_ratio(row, lag) >= min_ratio`` per row, given its periodogram.

    ``spectra`` holds the rows' length-n periodograms, bin 0 zeroed,
    ``mean_powers`` their means and ``bins`` is ``_power_bins(lag, n)``.
    """
    ratio = np.zeros(len(spectra))  # the scalar ratio of an empty bin range or no power
    if bins.stop > bins.start:
        np.divide(spectra[:, bins].max(axis=1), mean_powers, out=ratio, where=mean_powers != 0)
    return ratio >= min_ratio


def classify_windows(
    windows: Sequence[np.ndarray],
    config: ClassifierConfig | None = None,
    *,
    sample_period: float = SAMPLE_PERIOD,
) -> list[str]:
    """Classify variable-length windows with the batched kernel.

    Windows are grouped by length and each group runs through
    :func:`classify_block` one tile at a time: a tile sized to the cache,
    ``_CLASSIFY_TILE_BYTES`` of float64, filled just before it is
    classified.  Each row's label depends on that row alone, so neither
    grouping nor tiling can change a label; labels come back in input
    order.  A store sweep passes a lazy :class:`_StoreWindows`, which knows
    every window's length without reading it, so each of its rows is read
    once, when its tile is filled.
    """
    if isinstance(windows, _StoreWindows):
        lengths = windows.lengths
    else:
        lengths = [len(window) for window in windows]
    by_length: dict[int, list[int]] = {}
    for idx, length in enumerate(lengths):
        by_length.setdefault(length, []).append(idx)
    labels: list[str | None] = [None] * len(windows)
    for length, idxs in by_length.items():
        step = _rows_per_tile(length)
        for i in range(0, len(idxs), step):
            tile = idxs[i : i + step]
            block = np.empty((len(tile), length), dtype=np.float64)
            for row, idx in enumerate(tile):
                block[row] = windows[idx]
            tile_labels = classify_block(block, config, sample_period=sample_period)
            for idx, label in zip(tile, tile_labels, strict=True):
                labels[idx] = label
    return labels


class _StoreWindows(Sequence[np.ndarray]):
    """Each VM's observed window (:meth:`TraceMetadata.sample_window`), read on access.

    Lazy so a whole-cloud sweep over a sharded trace holds no row views
    between chunks: every read goes through the store's shard-mapping LRU,
    which releases evicted shards' pages.
    """

    def __init__(self, store: TraceStore, vm_ids: list[int]) -> None:
        self._store = store
        self._vm_ids = vm_ids
        samples = range(store.metadata.n_samples)
        self._windows = [
            slice(*store.metadata.sample_window(store.vm(vm_id))) for vm_id in vm_ids
        ]
        #: ``len(self[idx])`` for every window, computed without a read.
        self.lengths = [len(samples[window]) for window in self._windows]

    def __len__(self) -> int:
        return len(self._vm_ids)

    def __getitem__(self, idx: int) -> np.ndarray:
        return self._store.utilization(self._vm_ids[idx])[self._windows[idx]]


def classify_vm_windows(
    store: TraceStore, vm_ids: list[int], config: ClassifierConfig | None = None
) -> list[str]:
    """:func:`classify_windows` over each VM's observed window in ``store``.

    The windows are read lazily (:class:`_StoreWindows`), one tile at a
    time, so a sweep over many VMs holds no row views between tiles.
    """
    return classify_windows(
        _StoreWindows(store, vm_ids), config, sample_period=store.metadata.sample_period
    )


@dataclass(frozen=True)
class PatternMix:
    """Measured share of each pattern over a VM population (Fig. 5d)."""

    counts: dict[str, int]

    @property
    def total(self) -> int:
        """Number of classified VMs."""
        return sum(self.counts.values())

    def fraction(self, pattern: str) -> float:
        """Share of one pattern in the mix."""
        total = self.total
        return self.counts.get(pattern, 0) / total if total else 0.0

    def as_fractions(self) -> dict[str, float]:
        """All four pattern shares."""
        return {
            pattern: self.fraction(pattern)
            for pattern in (
                PATTERN_DIURNAL,
                PATTERN_STABLE,
                PATTERN_IRREGULAR,
                PATTERN_HOURLY_PEAK,
            )
        }


class PatternClassifier:
    """Classifies whole traces and evaluates against ground-truth labels."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config or ClassifierConfig()

    def classify_store(
        self,
        store: TraceStore,
        *,
        cloud: Cloud | None = None,
        max_vms: int | None = None,
        seed: int = 0,
    ) -> dict[int, str]:
        """Classify every telemetry-bearing VM alive long enough to judge.

        The series is trimmed to the VM's alive span before classification so
        the zero-padding outside its life does not register as variance.
        ``max_vms`` caps the work by *uniformly subsampling* eligible VMs
        (truncating instead would bias the mix toward the subscriptions that
        were generated first).
        """
        metadata = store.metadata
        eligible = [
            vm_id
            for vm_id in store.vm_ids_with_utilization(cloud=cloud)
            if metadata.alive_seconds(store.vm(vm_id)) >= self.config.min_duration
        ]
        if max_vms is not None and len(eligible) > max_vms:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(len(eligible), size=max_vms, replace=False)
            eligible = [eligible[i] for i in sorted(chosen)]
        labels = classify_vm_windows(store, eligible, self.config)
        return dict(zip(eligible, labels, strict=True))

    def pattern_mix(
        self,
        store: TraceStore,
        *,
        cloud: Cloud | None = None,
        max_vms: int | None = None,
    ) -> PatternMix:
        """The Fig. 5(d) statistic: share of each pattern in a cloud."""
        labels = self.classify_store(store, cloud=cloud, max_vms=max_vms)
        return PatternMix(counts=dict(Counter(labels.values())))

    def accuracy(
        self,
        store: TraceStore,
        *,
        cloud: Cloud | None = None,
        max_vms: int | None = None,
    ) -> float:
        """Agreement with the generator's ground-truth pattern labels."""
        labels = self.classify_store(store, cloud=cloud, max_vms=max_vms)
        if not labels:
            raise ValueError("no VM was classified; is telemetry attached?")
        hits = sum(
            1 for vm_id, label in labels.items() if store.vm(vm_id).pattern == label
        )
        return hits / len(labels)
