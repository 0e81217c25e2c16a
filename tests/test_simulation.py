"""Unit and property tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.simulation import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(5.0, lambda: log.append("b"))
    sim.schedule(1.0, lambda: log.append("a"))
    sim.schedule(9.0, lambda: log.append("c"))
    sim.run()
    assert log == ["a", "b", "c"]


def test_same_time_fifo():
    sim = Simulator()
    log = []
    for i in range(5):
        sim.schedule(1.0, lambda i=i: log.append(i))
    sim.run()
    assert log == [0, 1, 2, 3, 4]


def test_clock_advances_to_until():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule(50.0, lambda: log.append("early"))
    sim.schedule(150.0, lambda: log.append("late"))
    sim.run(until=100.0)
    assert log == ["early"]
    assert sim.now == 100.0
    sim.run()
    assert log == ["early", "late"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.schedule(5.0, lambda: None)


def test_schedule_after():
    """After ``run(until=...)`` the clock reads ``until``, so relative times work."""
    sim = Simulator()
    fired = []
    sim.run(until=2.0)
    sim.schedule(sim.now + 3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    with pytest.raises(SimulationError):
        sim.schedule(sim.now - 1.0, lambda: None)


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain():
        log.append(sim.now)
        if sim.now < 3:
            sim.schedule(sim.now + 1, chain)

    sim.schedule(0.0, chain)
    sim.run()
    assert log == [0.0, 1.0, 2.0, 3.0]


def test_periodic_action():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(0.0, 10.0, ticks.append, until=35.0)
    sim.run()
    assert ticks == [0.0, 10.0, 20.0, 30.0]


def test_periodic_requires_positive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, 0.0, lambda t: None, until=10.0)


def test_periodic_empty_window():
    sim = Simulator()
    ticks = []
    sim.schedule_periodic(10.0, 1.0, ticks.append, until=10.0)
    sim.run()
    assert ticks == []


def test_step_executes_one_event():
    sim = Simulator()
    log = []
    sim.schedule(1.0, lambda: log.append(1))
    sim.schedule(2.0, lambda: log.append(2))
    sim.run(until=1.0)
    assert log == [1]
    sim.run(until=2.0)
    assert log == [1, 2]


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=60))
@settings(max_examples=50)
def test_execution_order_is_sorted(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.schedule(t, lambda t=t: fired.append(t))
    sim.run()
    assert fired == sorted(times)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=50)
def test_clock_monotone_during_run(times):
    sim = Simulator()
    observed = []
    for t in times:
        sim.schedule(t, lambda: observed.append(sim.now))
    sim.run()
    assert all(a <= b for a, b in zip(observed, observed[1:], strict=False))
