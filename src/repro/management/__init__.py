"""Management optimizers derived from the paper's implications.

Each module operationalizes one implication:

* :mod:`repro.management.oversubscription` -- chance-constrained resource
  over-subscription (Section III-B implication; the 20-86% utilization-gain
  band of [17]);
* :mod:`repro.management.spot` -- spot-VM adoption for short-lived public
  workloads, with a capacity-pressure eviction model ([15], [16]);
* :mod:`repro.management.placement` -- region-agnostic workload shifting
  between hot and cold regions (the Canada case study);
* :mod:`repro.management.prediction` -- an allocation-failure predictor
  built from workload knowledge ([8]);
* :mod:`repro.management.scheduling` -- deferrable-workload scheduling into
  diurnal valleys (Section IV-A implication).
"""

from repro.management.orchestrator import OptimizationReport, PolicyOutcome, WorkloadAwareOrchestrator
from repro.management.oversubscription import (
    ChanceConstrainedOversubscriber,
    OversubscriptionOutcome,
    sweep_epsilon,
)
from repro.management.peaks import PeakAbsorber, PeakAbsorptionOutcome, compare_strategies
from repro.management.placement import RegionShiftPlanner, RegionSnapshot, ShiftRecommendation
from repro.management.prediction import AllocationFailurePredictor, LogisticRegression
from repro.management.scheduling import DeferrableJob, ScheduleOutcome, ValleyScheduler
from repro.management.spot import SpotAdoptionAdvisor, SpotAdoptionReport, hourly_survival

__all__ = [
    "AllocationFailurePredictor",
    "ChanceConstrainedOversubscriber",
    "DeferrableJob",
    "LogisticRegression",
    "OptimizationReport",
    "PolicyOutcome",
    "WorkloadAwareOrchestrator",
    "OversubscriptionOutcome",
    "PeakAbsorber",
    "PeakAbsorptionOutcome",
    "compare_strategies",
    "RegionShiftPlanner",
    "RegionSnapshot",
    "ScheduleOutcome",
    "ShiftRecommendation",
    "SpotAdoptionAdvisor",
    "SpotAdoptionReport",
    "ValleyScheduler",
    "hourly_survival",
    "sweep_epsilon",
]
