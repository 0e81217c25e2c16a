"""Unit tests for the autoscaler."""

from __future__ import annotations

from repro.cloud.autoscale import Autoscaler, diurnal_demand
from repro.cloud.entities import RegionSpec, TopologySpec, build_topology
from repro.cloud.platform import CloudPlatform
from repro.cloud.simulation import Simulator
from repro.cloud.sku import NodeSku, VMSku
from repro.telemetry.schema import Cloud, EventKind
from repro.telemetry.store import TraceStore
from repro.timebase import SECONDS_PER_DAY, SECONDS_PER_HOUR


def make_platform(nodes=6) -> CloudPlatform:
    spec = TopologySpec(
        cloud=Cloud.PUBLIC,
        regions=(RegionSpec("a", 0),),
        clusters_per_region=1,
        racks_per_cluster=1,
        nodes_per_rack=nodes,
        node_sku=NodeSku("t", 16, 64),
    )
    return CloudPlatform(build_topology(spec), TraceStore())


def make_scaler(platform, demand, interval=900.0) -> Autoscaler:
    return Autoscaler(
        platform,
        subscription_id=1,
        deployment_id=1,
        service="svc",
        region="a",
        sku=VMSku("D1", 1, 4),
        pattern="diurnal",
        demand=demand,
        evaluation_interval=interval,
    )


def test_bootstrap_matches_demand():
    platform = make_platform()
    scaler = make_scaler(platform, lambda t: 5)
    scaler.bootstrap(0.0)
    assert len(scaler._fleet) == 5
    assert sum(len(node.hosted) for node in platform.topology.nodes.values()) == 5


def test_tracks_step_demand():
    platform = make_platform()
    levels = {0: 2, 1: 6, 2: 3}

    def demand(t: float) -> int:
        return levels.get(int(t // SECONDS_PER_HOUR), 3)

    scaler = make_scaler(platform, demand, interval=SECONDS_PER_HOUR)
    scaler.bootstrap(0.0)
    sim = Simulator()
    scaler.install(sim, start=SECONDS_PER_HOUR, until=3 * SECONDS_PER_HOUR)
    sim.run()
    assert len(scaler._fleet) == 3
    assert scaler.scale_out_events >= 6  # 2 bootstrap + 4 scale-out
    assert scaler.scale_in_events == 3


def test_scale_in_terminates_newest_first():
    platform = make_platform()
    scaler = make_scaler(platform, lambda t: 3)
    scaler.bootstrap(0.0)
    first_fleet = list(scaler._fleet)
    scaler.demand = lambda t: 1
    scaler.evaluate(100.0)
    assert scaler._fleet == first_fleet[:1]
    terminated = {e.vm_id for e in platform.store.events(kind=EventKind.TERMINATE)}
    assert terminated == set(first_fleet[1:])


def test_evaluate_reaches_constant_demand_without_history():
    platform = make_platform()
    scaler = make_scaler(platform, lambda t: 3)
    scaler.evaluate(0.0)
    assert len(scaler._fleet) == 3


def test_reactive_fleet_lags_a_diurnal_ramp():
    """Evaluating only current demand leaves the fleet short mid-ramp."""
    platform = make_platform(nodes=8)
    demand = diurnal_demand(base=2, amplitude=24, tz_offset_hours=0, weekend_factor=1.0)
    scaler = make_scaler(platform, demand)
    sim = Simulator()
    horizon = SECONDS_PER_DAY
    scaler.install(sim, start=0.0, until=horizon)
    shortfalls = []

    def probe(now: float) -> None:
        shortfalls.append(max(0, demand(now) - len(scaler._fleet)))

    sim.schedule_periodic(450.0, 900.0, probe, until=horizon)
    sim.run(until=horizon)
    assert max(shortfalls) > 0
    assert scaler.scale_out_events > 0 and scaler.scale_in_events > 0


def test_capacity_limit_stops_scale_out():
    platform = make_platform(nodes=1)  # 16 cores only
    scaler = make_scaler(platform, lambda t: 100)
    scaler.evaluate(0.0)
    assert len(scaler._fleet) == 16  # one core each
    # The failed 17th attempt is recorded as an allocation failure.
    assert platform.store.events(kind=EventKind.ALLOCATION_FAILURE)


class TestDiurnalDemand:
    def test_peak_at_local_peak_hour(self):
        demand = diurnal_demand(base=2, amplitude=10, tz_offset_hours=0, peak_hour=14)
        peak = demand(14 * SECONDS_PER_HOUR)
        trough = demand(2 * SECONDS_PER_HOUR)
        assert peak == 12
        assert trough < peak

    def test_weekend_damping(self):
        demand = diurnal_demand(
            base=10, amplitude=0, tz_offset_hours=0, weekend_factor=0.5
        )
        weekday = demand(14 * SECONDS_PER_HOUR)
        weekend = demand(5 * SECONDS_PER_DAY + 14 * SECONDS_PER_HOUR)
        assert weekend == weekday // 2

    def test_timezone_shift(self):
        demand_east = diurnal_demand(base=0, amplitude=10, tz_offset_hours=0)
        demand_west = diurnal_demand(base=0, amplitude=10, tz_offset_hours=-8)
        t = 14 * SECONDS_PER_HOUR  # 14:00 UTC = 06:00 UTC-8
        assert demand_east(t) > demand_west(t)

    def test_never_negative(self):
        demand = diurnal_demand(base=0, amplitude=2, tz_offset_hours=0)
        for hour in range(0, 7 * 24, 3):
            assert demand(hour * SECONDS_PER_HOUR) >= 0
