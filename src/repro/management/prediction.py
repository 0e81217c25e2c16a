"""Allocation-failure prediction built on knowledge-base features.

:class:`AllocationFailurePredictor` follows the paper's Section III-B
implication: "a better workload-aware allocation failure prediction method
... can be critical for improving the efficiency of capacity management for
the private cloud workloads".  It is a from-scratch logistic regression
over (allocation level, arrival burst) features.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore


class LogisticRegression:
    """Minimal batch-gradient logistic regression (no external deps)."""

    def __init__(
        self,
        *,
        learning_rate: float = 0.5,
        n_iterations: int = 400,
        l2: float = 1e-4,
    ) -> None:
        self.learning_rate = learning_rate
        self.n_iterations = n_iterations
        self.l2 = l2
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
        weights = np.zeros(design.shape[1])
        n = design.shape[0]
        for _ in range(self.n_iterations):
            predictions = self._sigmoid(design @ weights)
            gradient = design.T @ (predictions - labels) / n + self.l2 * weights
            weights -= self.learning_rate * gradient
        self.weights = weights
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each row."""
        if self.weights is None:
            raise RuntimeError("fit() must be called before predict_proba()")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return self._sigmoid(self._design(features) @ self.weights)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary predictions at ``threshold``."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)


class AllocationFailurePredictor:
    """Predicts region-hour allocation-failure risk from capacity features."""

    def __init__(self) -> None:
        self.model = LogisticRegression()

    @staticmethod
    def _features_and_labels(
        store: TraceStore, cloud: Cloud
    ) -> tuple[np.ndarray, np.ndarray]:
        from repro.analysis.timeseries import hourly_event_counts
        from repro.core.deployment import vm_count_series
        from repro.telemetry.schema import EventKind

        rows = []
        labels = []
        for region in store.region_names(cloud=cloud):
            capacity = sum(
                c.capacity_cores
                for c in store.clusters.values()
                if c.region == region and c.cloud == cloud
            )
            if capacity <= 0:
                continue
            counts = vm_count_series(store, cloud, region=region).astype(np.float64)
            creations = hourly_event_counts(
                store.event_times(EventKind.CREATE, cloud=cloud, region=region),
                duration=store.metadata.duration,
            ).astype(np.float64)
            failures = hourly_event_counts(
                store.event_times(
                    EventKind.ALLOCATION_FAILURE, cloud=cloud, region=region
                ),
                duration=store.metadata.duration,
            )
            load = counts / counts.max() if counts.max() else counts
            for hour in range(len(counts)):
                rows.append([load[hour], creations[hour]])
                labels.append(1.0 if failures[hour] > 0 else 0.0)
        return np.array(rows), np.array(labels)

    def fit(self, store: TraceStore, cloud: Cloud) -> "AllocationFailurePredictor":
        """Train on the region-hour grid of one cloud."""
        features, labels = self._features_and_labels(store, cloud)
        if features.size == 0:
            raise ValueError(f"no {cloud} regions with data")
        self.model.fit(features, labels)
        return self

    def predict_risk(self, load_fraction: float, recent_creations: float) -> float:
        """Failure probability for a (load, burst) state."""
        return float(self.model.predict_proba([[load_fraction, recent_creations]])[0])
