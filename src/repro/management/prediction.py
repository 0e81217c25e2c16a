"""Allocation-failure prediction built on knowledge-base features.

:class:`AllocationFailurePredictor` follows the paper's Section III-B
implication: "a better workload-aware allocation failure prediction method
... can be critical for improving the efficiency of capacity management for
the private cloud workloads".  It is a from-scratch logistic regression
over (allocation level, arrival burst) features.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.telemetry.schema import Cloud, EventKind, EventRecord, VMRecord
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_HOUR

#: Gradient-descent step of :class:`LogisticRegression`.
LEARNING_RATE = 0.5
#: Full-batch steps per :meth:`LogisticRegression.fit`.
N_ITERATIONS = 400
#: L2 penalty on the weights (the intercept included).
L2 = 1e-4


class LogisticRegression:
    """Minimal batch-gradient logistic regression (no external deps)."""

    def __init__(self) -> None:
        self.weights: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))

    def _design(self, features: np.ndarray) -> np.ndarray:
        features = (features - self._mean) / self._std
        return np.hstack([np.ones((features.shape[0], 1)), features])

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on ``features`` (n x d) and binary ``labels`` (n,)."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64).ravel()
        if features.ndim != 2 or features.shape[0] != labels.shape[0]:
            raise ValueError("features must be (n, d) aligned with labels (n,)")
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError("labels must be binary")
        self._mean = features.mean(axis=0)
        self._std = features.std(axis=0)
        self._std = np.where(self._std == 0, 1.0, self._std)
        design = self._design(features)
        design_t = design.T
        weights = np.zeros(design.shape[1])
        n = design.shape[0]
        # Each step reuses these buffers and applies _sigmoid's ufuncs and
        # the update's in the same order as allocating expressions would,
        # so the weights keep their bits.
        z = np.empty(n)
        gradient = np.empty_like(weights)
        step = np.empty_like(weights)
        for _ in range(N_ITERATIONS):
            np.matmul(design, weights, out=z)
            np.clip(z, -35, 35, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)
            np.add(1.0, z, out=z)
            np.divide(1.0, z, out=z)  # the predictions
            np.subtract(z, labels, out=z)
            np.matmul(design_t, z, out=gradient)
            np.divide(gradient, n, out=gradient)
            np.multiply(L2, weights, out=step)
            np.add(gradient, step, out=gradient)
            np.multiply(LEARNING_RATE, gradient, out=step)
            np.subtract(weights, step, out=weights)
        self.weights = weights
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row."""
        if self.weights is None:
            raise RuntimeError("fit() must be called before predict_proba()")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return self._sigmoid(self._design(features) @ self.weights)


class RegionHourCounts:
    """The integers per (cloud, region) and hour that the failure predictor fits.

    For each key: the VMs alive at each hour boundary, by
    :func:`~repro.analysis.timeseries.hourly_occupancy`'s rule (alive at
    ``b`` when ``start <= b < end``; a NaN end is ``inf``, an inverted
    interval is empty); the CREATE and the ALLOCATION_FAILURE events per
    hour, counted as :func:`~repro.analysis.timeseries.hourly_event_counts`
    counts them; and the number of VMs.  :meth:`add_vm` and
    :meth:`add_event` keep them exact one row at a time, so the online
    service refits without rescanning its store.  Nothing is kept per VM,
    so a row that is replaced is taken out by the caller.
    """

    def __init__(self, duration: float) -> None:
        self.duration = float(duration)
        self.n_hours = int(np.ceil(duration / SECONDS_PER_HOUR))
        self._boundaries = (
            SECONDS_PER_HOUR * np.arange(self.n_hours, dtype=np.float64)
        ).tolist()
        #: Per key, +1 at each VM's first alive hour and -1 after its last;
        #: the running sum is the alive count.
        self._alive_steps: dict[tuple, list[int]] = {}
        self._events: dict[EventKind, dict[tuple, list[int]]] = {
            EventKind.CREATE: {},
            EventKind.ALLOCATION_FAILURE: {},
        }
        self._n_vms: dict[tuple, int] = {}

    @classmethod
    def from_store(cls, store: TraceStore) -> "RegionHourCounts":
        """The counts of every VM and event in ``store``, in one pass."""
        counts = cls(store.metadata.duration)
        for vm in store.vms():
            counts.add_vm(vm)
        for kind in counts._events:
            for event in store.events(kind=kind):
                counts.add_event(event)
        return counts

    def add_vm(self, vm: VMRecord, count: int = 1) -> None:
        """Count one VM row; ``count=-1`` takes a counted row out again."""
        key = (vm.cloud, vm.region)
        self._n_vms[key] = self._n_vms.get(key, 0) + count
        start, end = vm.created_at, vm.ended_at
        lo = bisect_left(self._boundaries, start)
        # A NaN end is inf; an inverted interval or a NaN start is empty.
        hi = bisect_left(self._boundaries, end) if end == end else self.n_hours
        if lo < hi and start == start:
            steps = self._alive_steps.get(key)
            if steps is None:
                steps = self._alive_steps[key] = [0] * (self.n_hours + 1)
            steps[lo] += count
            steps[hi] -= count

    def add_event(self, event: EventRecord) -> None:
        """Count a CREATE or ALLOCATION_FAILURE event; others are ignored."""
        table = self._events.get(event.kind)
        time = event.time
        if table is None or not 0.0 <= time < self.duration:
            return
        hour = int(time // SECONDS_PER_HOUR)
        if hour < self.n_hours:
            key = (event.cloud, event.region)
            counts = table.get(key)
            if counts is None:
                counts = table[key] = [0] * self.n_hours
            counts[hour] += 1

    def regions(self, cloud: Cloud) -> list[str]:
        """Sorted regions holding a VM of ``cloud``, like ``region_names``."""
        return sorted(region for (c, region), n in self._n_vms.items() if c == cloud and n)

    def series(self, cloud: Cloud, region: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hourly alive VMs, creations and allocation failures of one region."""
        key = (cloud, region)
        none = [0] * (self.n_hours + 1)
        alive = np.cumsum(self._alive_steps.get(key, none)[:-1], dtype=np.int64)
        created, failed = (
            np.array(table.get(key, none[:-1]), dtype=np.int64) for table in self._events.values()
        )
        return alive, created, failed


class AllocationFailurePredictor:
    """Predicts region-hour allocation-failure risk from capacity features."""

    def __init__(self) -> None:
        self.model = LogisticRegression()

    def fit(
        self, store: TraceStore, cloud: Cloud, *, counts: RegionHourCounts | None = None
    ) -> "AllocationFailurePredictor":
        """Train on the region-hour grid of one cloud.

        One row per hour of each region with a VM of ``cloud`` and cluster
        capacity: the alive VMs over their peak, and the creations; the
        label is whether an allocation failed.  ``counts`` are the store's
        :class:`RegionHourCounts` when the caller keeps them (the online
        service does, at ingest); otherwise they are built here.
        """
        if counts is None:
            counts = RegionHourCounts.from_store(store)
        capacity: dict[str, float] = {}
        for cluster in store.clusters.values():
            if cluster.cloud == cloud:
                capacity[cluster.region] = capacity.get(cluster.region, 0) + cluster.capacity_cores
        loads, creations, failures = [], [], []
        for region in counts.regions(cloud):
            if capacity.get(region, 0) <= 0:
                continue
            alive, created, failed = counts.series(cloud, region)
            alive = alive.astype(np.float64)
            loads.append(alive / alive.max() if alive.max() else alive)
            creations.append(created.astype(np.float64))
            failures.append(failed > 0)
        if not loads:
            raise ValueError(f"no {cloud} regions with data")
        features = np.column_stack([np.concatenate(loads), np.concatenate(creations)])
        self.model.fit(features, np.concatenate(failures).astype(np.float64))
        return self

    def predict_risk(self, load_fraction: float, recent_creations: float) -> float:
        """Failure probability for a (load, burst) state."""
        return float(self.model.predict_proba([[load_fraction, recent_creations]])[0])
