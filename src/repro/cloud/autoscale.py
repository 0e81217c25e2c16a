"""Auto-scaling: the mechanism behind the public cloud's diurnal deployments.

Section III-B's implication: "the observed diurnal deployment patterns are
mostly due to the auto-scaling features provided by the cloud platform that
automatically adjust the number of VMs based on business needs."  The
:class:`Autoscaler` implements exactly that: a target-tracking controller
that evaluates a demand curve periodically and creates/terminates VMs to
match it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.simulation import Simulator
from repro.cloud.sku import VMSku

DemandCurve = Callable[[float], int]


class Autoscaler:
    """Target-tracking autoscaler for one (subscription, region) scale set."""

    def __init__(
        self,
        platform: CloudPlatform,
        *,
        subscription_id: int,
        deployment_id: int,
        service: str,
        region: str,
        sku: VMSku,
        pattern: str,
        demand: DemandCurve,
        evaluation_interval: float = 900.0,
        rng: np.random.Generator | None = None,
        offering: str = "iaas",
    ) -> None:
        self.platform = platform
        self.subscription_id = subscription_id
        self.deployment_id = deployment_id
        self.service = service
        self.region = region
        self.sku = sku
        self.pattern = pattern
        self.offering = offering
        self.demand = demand
        self.evaluation_interval = evaluation_interval
        self._rng = rng or np.random.default_rng(0)
        #: Currently running VM ids, oldest first.
        self._fleet: list[int] = []
        self.scale_out_events = 0
        self.scale_in_events = 0

    def install(self, simulator: Simulator, *, start: float, until: float) -> None:
        """Schedule periodic evaluations in ``[start, until)``."""
        simulator.schedule_periodic(
            start, self.evaluation_interval, self.evaluate, until=until
        )

    def bootstrap(self, time: float, *, backdate_to: float | None = None) -> None:
        """Create the initial fleet matching current demand."""
        target = max(0, int(self.demand(time)))
        for _ in range(target):
            self._launch(time, backdate_to=backdate_to)

    def evaluate(self, now: float) -> None:
        """One control step: move the fleet toward the demand target."""
        target = max(0, int(self.demand(now)))
        while len(self._fleet) < target:
            if not self._launch(now):
                break  # region out of capacity; retry next evaluation
        while len(self._fleet) > target:
            self._retire(now)

    def _launch(self, now: float, *, backdate_to: float | None = None) -> bool:
        request = VMRequest(
            subscription_id=self.subscription_id,
            deployment_id=self.deployment_id,
            service=self.service,
            region=self.region,
            sku=self.sku,
            pattern=self.pattern,
            offering=self.offering,
        )
        vm_id = self.platform.create_vm(request, now, backdate_to=backdate_to)
        if vm_id is None:
            return False
        self._fleet.append(vm_id)
        self.scale_out_events += 1
        return True

    def _retire(self, now: float) -> None:
        # Scale in newest-first: long-running members stay, which yields the
        # short lifetimes the paper observes for public-cloud churn.
        vm_id = self._fleet.pop()
        self.platform.terminate_vm(vm_id, now)
        self.scale_in_events += 1


def diurnal_demand(
    *,
    base: int,
    amplitude: int,
    tz_offset_hours: float,
    peak_hour: float = 14.0,
    weekend_factor: float = 0.6,
    holiday_week: bool = False,
) -> DemandCurve:
    """Build a demand curve with a local-time diurnal cycle and weekend dip.

    ``demand(t) = base + amplitude * bump(local_hour)`` where ``bump`` is a
    raised cosine peaking at ``peak_hour`` local time, scaled down by
    ``weekend_factor`` on Saturday/Sunday.
    """
    from repro.timebase import day_of_week, hour_of_day

    def demand(t: float) -> int:
        hour = float(hour_of_day(np.array([t]), tz_offset_hours=tz_offset_hours)[0])
        day = int(day_of_week(np.array([t]), tz_offset_hours=tz_offset_hours)[0])
        bump = 0.5 * (1.0 + np.cos(2.0 * np.pi * (hour - peak_hour) / 24.0))
        level = base + amplitude * bump
        if holiday_week or day >= 5:
            level *= weekend_factor
        return max(0, int(round(level)))

    return demand
