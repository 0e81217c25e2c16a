"""Unit tests for the valley scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.management.scheduling import (
    DeferrableJob,
    ValleyScheduler,
    jobs_from_fraction,
)


def diurnal_profile(hours=48, base=20.0, peak=80.0) -> np.ndarray:
    t = np.arange(hours)
    return base + (peak - base) * 0.5 * (1 + np.cos(2 * np.pi * (t - 14) / 24))


class TestDeferrableJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeferrableJob(1, cores=8, duration_hours=0, deadline_hour=5)
        with pytest.raises(ValueError):
            DeferrableJob(1, cores=0, duration_hours=1, deadline_hour=5)


class TestValleyScheduler:
    def test_job_lands_in_valley(self):
        profile = diurnal_profile()
        scheduler = ValleyScheduler(profile, capacity_cores=100.0)
        job = DeferrableJob(1, cores=10, duration_hours=2, deadline_hour=48)
        outcome = scheduler.schedule([job])
        assert len(outcome.scheduled) == 1
        start = outcome.scheduled[0].start_hour
        window_load = profile[start : start + 2].mean()
        assert window_load < profile.mean()

    def test_deadline_respected(self):
        profile = diurnal_profile()
        scheduler = ValleyScheduler(profile, capacity_cores=100.0)
        job = DeferrableJob(1, cores=10, duration_hours=4, deadline_hour=6)
        outcome = scheduler.schedule([job])
        assert outcome.scheduled[0].start_hour + 4 <= 6

    def test_impossible_deadline_rejected(self):
        scheduler = ValleyScheduler(np.full(24, 10.0), capacity_cores=100.0)
        job = DeferrableJob(1, cores=5, duration_hours=10, deadline_hour=5)
        outcome = scheduler.schedule([job])
        assert outcome.rejected == (job,)

    def test_capacity_respected(self):
        profile = np.full(24, 90.0)
        scheduler = ValleyScheduler(profile, capacity_cores=100.0)
        jobs = [
            DeferrableJob(i, cores=10, duration_hours=2, deadline_hour=24)
            for i in range(20)
        ]
        outcome = scheduler.schedule(jobs)
        assert np.all(outcome.profile_after <= 100.0 + 1e-9)
        assert outcome.rejected  # cannot fit all 20

    def test_flattens_diurnal_profile(self):
        profile = diurnal_profile()
        scheduler = ValleyScheduler(profile, capacity_cores=100.0)
        jobs = jobs_from_fraction(profile, 100.0, fill_fraction=0.6)
        outcome = scheduler.schedule(jobs)
        assert outcome.peak_to_valley_after < outcome.peak_to_valley_before
        assert outcome.variance_reduction > 0.2

    def test_mass_conserved(self):
        profile = diurnal_profile()
        scheduler = ValleyScheduler(profile, capacity_cores=200.0)
        jobs = [
            DeferrableJob(i, cores=4, duration_hours=3, deadline_hour=48)
            for i in range(10)
        ]
        outcome = scheduler.schedule(jobs)
        added = outcome.profile_after.sum() - outcome.profile_before.sum()
        expected = sum(
            s.job.cores * s.job.duration_hours for s in outcome.scheduled
        )
        assert added == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            ValleyScheduler(np.array([]), 10.0)
        with pytest.raises(ValueError):
            ValleyScheduler(np.ones(5), 0.0)


class TestJobsFromFraction:
    def test_budget_scaling(self, rng):
        profile = diurnal_profile()
        few = jobs_from_fraction(profile, 100.0, fill_fraction=0.1, rng=rng)
        many = jobs_from_fraction(profile, 100.0, fill_fraction=0.9, rng=rng)
        assert len(many) > len(few)

    def test_jobs_valid(self, rng):
        for job in jobs_from_fraction(diurnal_profile(), 100.0, rng=rng):
            assert job.duration_hours >= 1
            assert job.deadline_hour >= job.duration_hours
