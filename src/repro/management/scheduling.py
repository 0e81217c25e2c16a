"""Deferrable-workload scheduling into diurnal valleys.

Section IV-A implication: "As the private cloud is dominated by diurnal
workloads, more workloads of other utilization patterns need to be imported
to reduce under-utilized resource during the valley hour.  For example,
identifying deferrable workloads and schedule them to the valley hour would
be a feasible way."

:class:`ValleyScheduler` takes a region's hourly utilization profile and a
set of deferrable jobs (cores x duration, with a deadline) and greedily
places each job into the least-utilized feasible window, flattening the
profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Cores of each job :func:`jobs_from_fraction` synthesizes.
JOB_CORES = 8.0


@dataclass(frozen=True)
class DeferrableJob:
    """A batch job that may run any time before its deadline."""

    job_id: int
    cores: float
    duration_hours: int
    #: Latest hour index by which the job must have *finished*.
    deadline_hour: int

    def __post_init__(self) -> None:
        if self.duration_hours < 1:
            raise ValueError("duration_hours must be >= 1")
        if self.cores <= 0:
            raise ValueError("cores must be positive")


@dataclass(frozen=True)
class ScheduledJob:
    """Placement decision for one job."""

    job: DeferrableJob
    start_hour: int


@dataclass(frozen=True)
class ScheduleOutcome:
    """Result of scheduling a job set against a utilization profile."""

    scheduled: tuple[ScheduledJob, ...]
    rejected: tuple[DeferrableJob, ...]
    profile_before: np.ndarray
    profile_after: np.ndarray

    @property
    def peak_to_valley_before(self) -> float:
        """Peak minus valley of the original profile."""
        return float(self.profile_before.max() - self.profile_before.min())

    @property
    def peak_to_valley_after(self) -> float:
        """Peak minus valley after valley filling."""
        return float(self.profile_after.max() - self.profile_after.min())

    @property
    def variance_reduction(self) -> float:
        """Relative reduction of the profile variance (1 = flat)."""
        before = float(self.profile_before.var())
        if before == 0:
            return 0.0
        return 1.0 - float(self.profile_after.var()) / before


class ValleyScheduler:
    """Greedy valley-filling scheduler for deferrable jobs."""

    def __init__(
        self,
        hourly_used_cores: np.ndarray,
        capacity_cores: float,
    ) -> None:
        self.profile = np.asarray(hourly_used_cores, dtype=np.float64).copy()
        if self.profile.ndim != 1 or self.profile.size == 0:
            raise ValueError("hourly_used_cores must be a non-empty 1-D array")
        if capacity_cores <= 0:
            raise ValueError("capacity_cores must be positive")
        self.capacity = float(capacity_cores)

    def schedule(self, jobs: list[DeferrableJob]) -> ScheduleOutcome:
        """Place each job in its least-loaded feasible window.

        Jobs are processed largest-first (cores x duration), the classic
        greedy order for makespan-style packing.  A job is rejected when no
        window before its deadline keeps usage within capacity.
        """
        before = self.profile.copy()
        current = self.profile.copy()
        scheduled: list[ScheduledJob] = []
        rejected: list[DeferrableJob] = []
        for job in sorted(jobs, key=lambda j: j.cores * j.duration_hours, reverse=True):
            start = self._best_start(current, job)
            if start is None:
                rejected.append(job)
                continue
            current[start : start + job.duration_hours] += job.cores
            scheduled.append(ScheduledJob(job=job, start_hour=start))
        return ScheduleOutcome(
            scheduled=tuple(scheduled),
            rejected=tuple(rejected),
            profile_before=before,
            profile_after=current,
        )

    def _best_start(
        self, current: np.ndarray, job: DeferrableJob
    ) -> int | None:
        latest_start = min(job.deadline_hour - job.duration_hours, current.size - job.duration_hours)
        if latest_start < 0:
            return None
        best_start = None
        best_load = np.inf
        for start in range(latest_start + 1):
            window = current[start : start + job.duration_hours]
            if window.max() + job.cores > self.capacity:
                continue
            load = float(window.sum())
            if load < best_load:
                best_load = load
                best_start = start
        return best_start


def jobs_from_fraction(
    profile: np.ndarray,
    capacity: float,
    *,
    fill_fraction: float = 0.5,
    rng: np.random.Generator | None = None,
) -> list[DeferrableJob]:
    """Synthesize a deferrable-job set sized to a fraction of the idle valley.

    Utility for experiments: generates enough jobs of ``JOB_CORES`` cores,
    each 3 to 6 hours long, to fill roughly ``fill_fraction`` of the gap between the profile and
    its peak.
    """
    rng = rng or np.random.default_rng(0)
    profile = np.asarray(profile, dtype=np.float64)
    idle = float((profile.max() - profile).sum())
    budget = idle * fill_fraction
    jobs: list[DeferrableJob] = []
    job_id = 0
    while budget > 0 and job_id < 10_000:
        duration = int(rng.integers(3, 7))
        deadline = int(rng.integers(duration, profile.size + 1))
        jobs.append(
            DeferrableJob(
                job_id=job_id,
                cores=JOB_CORES,
                duration_hours=duration,
                deadline_hour=deadline,
            )
        )
        budget -= JOB_CORES * duration
        job_id += 1
    return jobs
