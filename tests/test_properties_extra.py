"""Extra property-based tests on management invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.management.scheduling import DeferrableJob, ValleyScheduler


class TestSchedulerProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=20.0),  # cores
                st.integers(1, 8),                         # duration
                st.integers(1, 48),                        # deadline
            ),
            min_size=0,
            max_size=30,
        ),
        st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_capacity_and_deadlines_always_respected(self, raw_jobs, seed):
        rng = np.random.default_rng(seed)
        profile = rng.uniform(0, 60, size=48)
        scheduler = ValleyScheduler(profile, capacity_cores=80.0)
        jobs = [
            DeferrableJob(i, cores=c, duration_hours=d, deadline_hour=dl)
            for i, (c, d, dl) in enumerate(raw_jobs)
        ]
        outcome = scheduler.schedule(jobs)
        assert np.all(outcome.profile_after <= 80.0 + 1e-9)
        for placed in outcome.scheduled:
            end = placed.start_hour + placed.job.duration_hours
            assert end <= placed.job.deadline_hour
            assert end <= 48
        # Conservation: every job is either scheduled or rejected, once.
        assert len(outcome.scheduled) + len(outcome.rejected) == len(jobs)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_added_load_matches_scheduled_jobs(self, seed):
        rng = np.random.default_rng(seed)
        profile = rng.uniform(0, 40, size=24)
        scheduler = ValleyScheduler(profile, capacity_cores=100.0)
        jobs = [
            DeferrableJob(i, cores=float(rng.integers(1, 10)),
                          duration_hours=int(rng.integers(1, 5)),
                          deadline_hour=int(rng.integers(5, 25)))
            for i in range(10)
        ]
        outcome = scheduler.schedule(jobs)
        added = float(outcome.profile_after.sum() - outcome.profile_before.sum())
        expected = sum(s.job.cores * s.job.duration_hours for s in outcome.scheduled)
        assert added == pytest.approx(expected)
