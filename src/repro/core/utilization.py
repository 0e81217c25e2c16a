"""Temporal utilization analyses (Section IV-A, Figures 5 and 6)."""

from __future__ import annotations

import numpy as np

from repro.analysis.timeseries import PercentileBands, fold_daily, percentile_bands
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY


def _long_lived_ids(store: TraceStore, cloud: Cloud, *, max_vms: int | None = None) -> list[int]:
    """Ids of telemetry-bearing VMs alive for at least 95% of the window.

    Fig. 6 tracks the population distribution over time; including VMs that
    are dead for part of the window would mix "off" zeros into the
    distribution, which the paper's inventory-joined telemetry does not do.
    """
    metadata = store.metadata
    ids = []
    for vm_id in store.vm_ids_with_utilization(cloud=cloud):
        if metadata.alive_seconds(store.vm(vm_id)) >= 0.95 * metadata.duration:
            ids.append(vm_id)
        if max_vms is not None and len(ids) >= max_vms:
            break
    if not ids:
        raise ValueError(f"no {cloud} VM spans the whole window with telemetry")
    return ids


#: Scratch budget for one windowed percentile pass, in bytes, and what one
#: window element costs at peak: its gathered float32 slab (4) plus what
#: ``percentile_bands`` allocates beyond its input (a sorted copy and its
#: float64 cast, 12 under tracemalloc, and in a window with a NaN also
#: ``np.nanpercentile``'s own float64 copy: 16.25), rounded up.  The window
#: width adapts to stay under budget.
_BAND_WINDOW_BYTES = 256 * 1024 * 1024
_BAND_BYTES_PER_ELEMENT = 21

#: The utilization percentiles of Fig. 6's bands.
PERCENTILES = (25.0, 50.0, 75.0, 95.0)


def weekly_percentiles(
    store: TraceStore,
    cloud: Cloud,
    *,
    max_vms: int | None = None,
) -> PercentileBands:
    """Fig. 6(a, b): CPU utilization percentile bands over the week.

    Each percentile is a per-timestamp statistic, so the bands are computed
    over time windows instead of one ``(n_vms, T)`` matrix -- column
    windowing changes nothing bitwise, and the full matrix for a paper-scale
    population would not fit in memory.
    """
    ids = _long_lived_ids(store, cloud, max_vms=max_vms)
    n_samples = store.metadata.n_samples
    window = max(16, _BAND_WINDOW_BYTES // (_BAND_BYTES_PER_ELEMENT * len(ids)))
    if window >= n_samples:
        return percentile_bands(store.utilization_matrix(ids), PERCENTILES)
    bands = np.empty((len(PERCENTILES), n_samples), dtype=np.float64)
    for start in range(0, n_samples, window):
        stop = min(n_samples, start + window)
        chunk = store.utilization_matrix(ids, start=start, stop=stop)
        bands[:, start:stop] = percentile_bands(chunk, PERCENTILES).bands
    return PercentileBands(
        percentiles=PERCENTILES,
        bands=bands,
        n_series=len(ids),
    )


def daily_bands(weekly: PercentileBands, sample_period: float) -> PercentileBands:
    """Fig. 6(c, d): weekly percentile bands folded into one day."""
    samples_per_day = int(SECONDS_PER_DAY // sample_period)
    folded = np.vstack([fold_daily(band, samples_per_day) for band in weekly.bands])
    return PercentileBands(
        percentiles=weekly.percentiles, bands=folded, n_series=weekly.n_series
    )


def sample_pattern_series(
    store: TraceStore,
    cloud: Cloud,
    pattern: str,
    *,
    n_samples: int = 3,
) -> dict[int, np.ndarray]:
    """Fig. 5(a-c): example series of one ground-truth pattern.

    Returns up to ``n_samples`` full-week series of VMs labelled with
    ``pattern`` that are alive the whole window.
    """
    duration = store.metadata.duration
    out: dict[int, np.ndarray] = {}
    for vm_id in store.vm_ids_with_utilization(cloud=cloud):
        vm = store.vm(vm_id)
        if vm.pattern != pattern:
            continue
        if vm.created_at > 0 or vm.ended_at < duration:
            continue
        out[vm_id] = store.utilization(vm_id).astype(np.float64)
        if len(out) >= n_samples:
            break
    return out


def daily_range(bands: PercentileBands) -> float:
    """Peak-to-trough swing of the daily median band.

    Quantifies Fig. 6(c) vs 6(d): the private cloud's median follows a
    working-hour pattern (large swing) while the public cloud's is almost
    constant (small swing).
    """
    band = bands.band(50.0)
    return float(band.max() - band.min())
