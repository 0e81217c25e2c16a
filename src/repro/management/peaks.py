"""Absorbing hourly utilization peaks (Section IV-A implication).

"Hour-peak is a unique pattern which brings different opportunities in
resource management and calls for appropriate management strategies in
private cloud, such as predictive resource pre-provisioning [19] and
leveraging overclocking techniques to absorb utilization peaks [20]."

:class:`PeakAbsorber` evaluates three strategies on a node whose aggregate
demand occasionally exceeds its capacity (meeting-join spikes):

* **baseline** -- do nothing; excess demand is throttled;
* **pre-provision** -- learn the within-hour peak phase from history (the
  first part of the window) and reserve standby capacity during predicted
  peak offsets; pays for reservations that turn out idle;
* **overclock** -- boost capacity by a factor during overload, limited by a
  per-hour thermal budget; pays nothing when there is no peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.timebase import SECONDS_PER_HOUR

#: Leading share of the demand that pre-provisioning learns peaks from.
HISTORY_FRACTION = 0.5


@dataclass(frozen=True)
class PeakAbsorptionOutcome:
    """How well one strategy served demand above base capacity."""

    strategy: str
    #: Fraction of above-capacity demand (core-samples) actually served.
    served_peak_fraction: float
    #: Reserved-but-idle standby capacity, in core-hours (pre-provisioning).
    wasted_core_hours: float
    #: Total boosted time, in minutes (overclocking).
    overclock_minutes: float
    #: Fraction of all demand served (including the base load).
    served_total_fraction: float


class PeakAbsorber:
    """Evaluates peak-absorption strategies for one node's demand series."""

    def __init__(
        self,
        demand_cores: np.ndarray,
        capacity_cores: float,
        *,
        sample_period: float = 300.0,
    ) -> None:
        self.demand = np.asarray(demand_cores, dtype=np.float64).ravel()
        if self.demand.size == 0:
            raise ValueError("demand series must be non-empty")
        if np.any(self.demand < 0):
            raise ValueError("demand must be non-negative")
        if capacity_cores <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity_cores)
        self.sample_period = float(sample_period)
        self._samples_per_hour = max(1, int(round(SECONDS_PER_HOUR / sample_period)))

    # ------------------------------------------------------------------
    # strategies
    # ------------------------------------------------------------------
    def baseline(self) -> PeakAbsorptionOutcome:
        """No action: capacity is flat, excess demand is throttled."""
        effective = np.full(self.demand.size, self.capacity)
        return self._outcome("baseline", effective, wasted=0.0, boost_minutes=0.0)

    def pre_provision(self) -> PeakAbsorptionOutcome:
        """Reserve standby capacity during *predicted* peak offsets.

        The standby is the demand's excess over capacity at its highest.
        The within-hour demand profile of the history window (the first
        ``HISTORY_FRACTION`` of the demand) predicts which
        sample offsets carry peaks (those at or above the profile's 70th
        percentile).  Standby capacity is added at those offsets for the whole
        evaluation window; idle reservations count as waste.
        """
        standby_cores = max(0.0, float(self.demand.max()) - self.capacity)
        split = max(self._samples_per_hour, int(self.demand.size * HISTORY_FRACTION))
        history = self.demand[:split]

        # Within-hour profile of the history: mean demand per offset.
        n_hours = history.size // self._samples_per_hour
        if n_hours == 0:
            raise ValueError("history shorter than one hour")
        folded = history[: n_hours * self._samples_per_hour].reshape(
            n_hours, self._samples_per_hour
        )
        profile = folded.mean(axis=0)
        threshold = np.quantile(profile, 0.70)
        peak_offsets = profile >= threshold

        offsets = np.arange(self.demand.size) % self._samples_per_hour
        reserved = np.where(peak_offsets[offsets], standby_cores, 0.0)
        effective = self.capacity + reserved
        idle_reserved = np.maximum(0.0, effective - np.maximum(self.demand, self.capacity))
        idle_reserved = np.minimum(idle_reserved, reserved)
        wasted_core_hours = float(
            idle_reserved.sum() * self.sample_period / SECONDS_PER_HOUR
        )
        return self._outcome(
            "pre-provision", effective, wasted=wasted_core_hours, boost_minutes=0.0
        )

    def overclock(
        self,
        *,
        boost: float = 0.2,
        budget_minutes_per_hour: float = 10.0,
    ) -> PeakAbsorptionOutcome:
        """Boost capacity during overload, within a per-hour thermal budget."""
        if boost <= 0:
            raise ValueError("boost must be positive")
        budget_samples = int(budget_minutes_per_hour * 60 / self.sample_period)
        effective = np.full(self.demand.size, self.capacity)
        boost_samples = 0
        remaining = budget_samples
        for i in range(self.demand.size):
            if i % self._samples_per_hour == 0:
                remaining = budget_samples
            if self.demand[i] > self.capacity and remaining > 0:
                effective[i] = self.capacity * (1.0 + boost)
                remaining -= 1
                boost_samples += 1
        return self._outcome(
            "overclock",
            effective,
            wasted=0.0,
            boost_minutes=boost_samples * self.sample_period / 60.0,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _outcome(
        self,
        strategy: str,
        effective_capacity: np.ndarray,
        *,
        wasted: float,
        boost_minutes: float,
    ) -> PeakAbsorptionOutcome:
        served = np.minimum(self.demand, effective_capacity)
        excess_demand = np.maximum(0.0, self.demand - self.capacity)
        served_excess = np.maximum(0.0, served - self.capacity)
        total_excess = float(excess_demand.sum())
        total_demand = float(self.demand.sum())
        return PeakAbsorptionOutcome(
            strategy=strategy,
            served_peak_fraction=(
                float(served_excess.sum()) / total_excess if total_excess else 1.0
            ),
            wasted_core_hours=wasted,
            overclock_minutes=boost_minutes,
            served_total_fraction=(
                float(served.sum()) / total_demand if total_demand else 1.0
            ),
        )


def compare_strategies(
    demand_cores: np.ndarray,
    capacity_cores: float,
    *,
    sample_period: float = 300.0,
    boost: float = 0.2,
    budget_minutes_per_hour: float = 10.0,
) -> dict[str, PeakAbsorptionOutcome]:
    """Run all three strategies on one demand series."""
    absorber = PeakAbsorber(
        demand_cores, capacity_cores, sample_period=sample_period
    )
    return {
        "baseline": absorber.baseline(),
        "pre-provision": absorber.pre_provision(),
        "overclock": absorber.overclock(
            boost=boost, budget_minutes_per_hour=budget_minutes_per_hour
        ),
    }
