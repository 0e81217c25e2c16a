"""Spot-VM adoption for short-lived public-cloud workloads.

Section III-B implication: "for short-lived VMs hosting public cloud
workloads, one may consider adopting the spot VMs to reduce cost and improve
platform resource utilization, especially during valley hours.  The previous
observation that 81% of public cloud VMs fall into the shortest lifetime bin
shows the considerable number of candidate VMs for this adoption."

Two pieces, mirroring the cited systems:

* :class:`SpotEvictionModel` -- evictions are driven by capacity pressure:
  the fuller a region, the likelier a spot VM is reclaimed;
* :class:`SpotAdoptionAdvisor` -- the what-if analysis: which VMs of a trace
  could have run as spot, what that saves, and how many evictions to expect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_HOUR


class SpotEvictionModel:
    """Capacity-pressure-driven eviction hazard.

    The hourly eviction probability is a convex function of the region's
    allocated-core fraction: essentially zero below ``knee``, rising to
    ``max_rate`` at full allocation.
    """

    def __init__(self, *, knee: float = 0.75, max_rate: float = 0.30) -> None:
        if not 0 < knee < 1:
            raise ValueError("knee must be in (0, 1)")
        self.knee = knee
        self.max_rate = max_rate

    def hourly_survival(self, pressures: np.ndarray) -> np.ndarray:
        """P(not evicted within the hour) at each allocated fraction of ``pressures``.

        A VM's survival across consecutive hours is the product of their
        factors.  The rate is squared per element with Python's ``** 2``
        (libm ``pow``), which rounds a few squares differently from numpy's
        ``x * x``; the rest is elementwise numpy, whose ``-``, ``/`` and
        ``*`` round exactly like the scalar operations.
        """
        clipped = np.clip(np.asarray(pressures, dtype=np.float64), 0.0, 1.0)
        excess = (clipped - self.knee) / (1.0 - self.knee)
        squared = np.array([value**2 for value in excess.tolist()], dtype=np.float64)
        return 1.0 - np.where(clipped <= self.knee, 0.0, self.max_rate * squared)


@dataclass(frozen=True)
class SpotAdoptionReport:
    """Outcome of the spot what-if analysis on one trace."""

    n_candidates: int
    n_total_completed: int
    candidate_core_hours: float
    total_core_hours: float
    #: Savings as a fraction of the total on-demand bill.
    cost_saving_fraction: float
    expected_evictions: float
    #: Fraction of candidate VM starts that fell in valley hours.
    valley_start_fraction: float

    @property
    def candidate_fraction(self) -> float:
        """Share of completed VMs eligible for spot."""
        if self.n_total_completed == 0:
            return 0.0
        return self.n_candidates / self.n_total_completed


class SpotAdoptionAdvisor:
    """What-if: run short-lived public VMs as spot instances."""

    def __init__(
        self,
        store: TraceStore,
        *,
        cloud: Cloud = Cloud.PUBLIC,
        spot_discount: float = 0.7,
        eviction_model: SpotEvictionModel | None = None,
        max_candidate_lifetime: float = 6 * SECONDS_PER_HOUR,
    ) -> None:
        if not 0 < spot_discount < 1:
            raise ValueError("spot_discount must be in (0, 1)")
        self.store = store
        self.cloud = cloud
        self.spot_discount = spot_discount
        self.eviction_model = eviction_model or SpotEvictionModel()
        self.max_candidate_lifetime = max_candidate_lifetime

    def _region_pressure(self, region: str) -> np.ndarray:
        """Hourly allocated-core fraction of one region."""
        vms = self.store.vms(cloud=self.cloud, region=region)
        capacity = sum(
            c.capacity_cores
            for c in self.store.clusters.values()
            if c.region == region and c.cloud == self.cloud
        )
        if not vms or capacity <= 0:
            return np.zeros(int(self.store.metadata.duration // SECONDS_PER_HOUR))
        starts = np.array([vm.created_at for vm in vms])
        ends = np.array([vm.ended_at for vm in vms])
        cores = np.array([vm.cores for vm in vms])
        n_hours = int(self.store.metadata.duration // SECONDS_PER_HOUR)
        boundaries = SECONDS_PER_HOUR * np.arange(n_hours)
        alive = (starts[None, :] <= boundaries[:, None]) & (
            ends[None, :] > boundaries[:, None]
        )
        return (alive @ cores) / capacity

    def analyze(self) -> SpotAdoptionReport:
        """Run the what-if over the target cloud's VMs completed in the window."""
        pressures = {
            region: self._region_pressure(region)
            for region in self.store.region_names(cloud=self.cloud)
        }
        medians = {
            region: np.median(pressure)
            for region, pressure in pressures.items()
            if pressure.size
        }
        factors = {
            region: self.eviction_model.hourly_survival(pressure)
            for region, pressure in pressures.items()
        }
        # Survival depends only on the hourly window, and many short-lived
        # VMs share one; sums still add each VM's term in VM order.
        survival: dict[tuple[str, int, int], float] = {}
        n_candidates = 0
        n_completed = 0
        candidate_core_hours = 0.0
        total_core_hours = 0.0
        expected_evictions = 0.0
        valley_starts = 0
        for vm in self.store.vms(cloud=self.cloud):
            if not self.store.metadata.completed_in_window(vm):
                continue
            n_completed += 1
            core_hours = vm.cores * vm.lifetime / SECONDS_PER_HOUR
            total_core_hours += core_hours
            if vm.lifetime > self.max_candidate_lifetime:
                continue
            n_candidates += 1
            candidate_core_hours += core_hours
            pressure = pressures[vm.region]
            first = int(vm.created_at // SECONDS_PER_HOUR)
            last = min(int(vm.ended_at // SECONDS_PER_HOUR), len(pressure) - 1)
            key = (vm.region, first, last)
            if key not in survival:
                survival[key] = float(np.prod(factors[vm.region][first : last + 1]))
            expected_evictions += 1.0 - survival[key]
            if first <= last and pressure[first] < medians[vm.region]:
                valley_starts += 1
        if total_core_hours <= 0:
            raise ValueError(f"no completed {self.cloud} VMs with core-hours")
        saving = self.spot_discount * candidate_core_hours / total_core_hours
        return SpotAdoptionReport(
            n_candidates=n_candidates,
            n_total_completed=n_completed,
            candidate_core_hours=candidate_core_hours,
            total_core_hours=total_core_hours,
            cost_saving_fraction=float(saving),
            expected_evictions=float(expected_evictions),
            valley_start_fraction=valley_starts / n_candidates if n_candidates else 0.0,
        )
