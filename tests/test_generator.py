"""Integration tests for the trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.schema import Cloud, EventKind, UTILIZATION_PATTERNS
from repro.workloads.generator import GeneratorConfig, TraceGenerator, generate_trace_pair
from repro.workloads.profiles import private_profile, public_profile


def test_determinism():
    config = GeneratorConfig(seed=123, scale=0.05)
    a = TraceGenerator(private_profile(), config).generate()
    b = TraceGenerator(private_profile(), config).generate()
    assert len(a) == len(b)
    vms_a = {vm.vm_id: (vm.created_at, vm.ended_at, vm.node_id) for vm in a.vms()}
    vms_b = {vm.vm_id: (vm.created_at, vm.ended_at, vm.node_id) for vm in b.vms()}
    assert vms_a == vms_b
    for vm_id in a.vm_ids_with_utilization()[:20]:
        np.testing.assert_array_equal(a.utilization(vm_id), b.utilization(vm_id))


def test_different_seeds_differ():
    a = TraceGenerator(private_profile(), GeneratorConfig(seed=1, scale=0.05)).generate()
    b = TraceGenerator(private_profile(), GeneratorConfig(seed=2, scale=0.05)).generate()
    assert {vm.created_at for vm in a.vms()} != {vm.created_at for vm in b.vms()}


def test_merged_trace_has_disjoint_ids(small_trace):
    private_ids = {vm.vm_id for vm in small_trace.vms(cloud=Cloud.PRIVATE)}
    public_ids = {vm.vm_id for vm in small_trace.vms(cloud=Cloud.PUBLIC)}
    assert not (private_ids & public_ids)
    assert private_ids and public_ids


def test_vm_records_consistent(small_trace):
    duration = small_trace.metadata.duration
    for vm in small_trace.vms():
        assert vm.created_at < duration
        assert vm.ended_at > vm.created_at
        assert vm.cores > 0 and vm.memory_gb > 0
        assert vm.pattern in UTILIZATION_PATTERNS
        assert vm.node_id in small_trace.nodes
        assert vm.cluster_id in small_trace.clusters
        assert vm.region in small_trace.regions
        assert vm.subscription_id in small_trace.subscriptions


def test_events_reference_known_vms(small_trace):
    for event in small_trace.events():
        if event.kind is EventKind.ALLOCATION_FAILURE:
            continue
        assert event.vm_id in small_trace
        vm = small_trace.vm(event.vm_id)
        if event.kind is EventKind.CREATE:
            assert event.time == pytest.approx(vm.created_at)
        if event.kind is EventKind.TERMINATE:
            assert event.time == pytest.approx(vm.ended_at)


def test_create_events_only_inside_window(small_trace):
    for event in small_trace.events(kind=EventKind.CREATE):
        assert 0 <= event.time < small_trace.metadata.duration


def test_utilization_masked_to_lifetime(small_trace):
    period = small_trace.metadata.sample_period
    checked = 0
    for vm_id in small_trace.vm_ids_with_utilization():
        vm = small_trace.vm(vm_id)
        if not vm.completed or vm.created_at < 0:
            continue
        series = small_trace.utilization(vm_id)
        # Samples comfortably before creation are zero.
        pre = int(vm.created_at / period) - 2
        if pre > 0:
            assert series[pre] == 0.0
        post = int(vm.ended_at / period) + 2
        if post < series.size:
            assert series[post] == 0.0
        checked += 1
        if checked >= 25:
            break
    assert checked > 0


def test_telemetry_only_for_long_lived(small_trace):
    min_overlap = private_profile().telemetry_min_overlap
    duration = small_trace.metadata.duration
    for vm_id in small_trace.vm_ids_with_utilization()[:200]:
        vm = small_trace.vm(vm_id)
        overlap = min(vm.ended_at, duration) - max(vm.created_at, 0.0)
        assert overlap >= min_overlap


def test_workers_bit_identical_to_sequential():
    """``generate_trace_pair(workers=2)`` must equal the sequential result.

    The private and public clouds draw from independent seeded RNG streams,
    so process-parallel generation cannot change a single bit of output.
    """
    config = GeneratorConfig(seed=5, scale=0.04)
    seq = generate_trace_pair(config, workers=1)
    par = generate_trace_pair(config, workers=2)
    assert [vm.vm_id for vm in seq.vms()] == [vm.vm_id for vm in par.vms()]
    assert {vm.vm_id: (vm.created_at, vm.ended_at, vm.node_id) for vm in seq.vms()} == {
        vm.vm_id: (vm.created_at, vm.ended_at, vm.node_id) for vm in par.vms()
    }
    assert [(e.time, e.kind, e.vm_id) for e in seq.events()] == [
        (e.time, e.kind, e.vm_id) for e in par.events()
    ]
    ids = seq.vm_ids_with_utilization()
    assert ids == par.vm_ids_with_utilization()
    for vm_id in ids:
        np.testing.assert_array_equal(seq.utilization(vm_id), par.utilization(vm_id))


def test_no_utilization_option():
    config = GeneratorConfig(seed=5, scale=0.05, synthesize_utilization=False)
    trace = TraceGenerator(public_profile(), config).generate()
    assert trace.vm_ids_with_utilization() == []
    assert len(trace) > 0


def test_scaled_profile_counts():
    profile = public_profile()
    scaled = profile.scaled(0.5)
    assert scaled.n_subscriptions == profile.n_subscriptions // 2
    assert scaled.churn.base_rate_per_hour == pytest.approx(
        profile.churn.base_rate_per_hour * 0.5
    )
    with pytest.raises(ValueError):
        profile.scaled(0.0)


def test_node_capacity_respected(small_trace):
    """At any sampled instant, allocated cores never exceed node capacity."""
    for check_time in (0.0, small_trace.metadata.duration / 2):
        used: dict[int, float] = {}
        for vm in small_trace.vms():
            if vm.created_at <= check_time < vm.ended_at:
                used[vm.node_id] = used.get(vm.node_id, 0.0) + vm.cores
        for node_id, cores in used.items():
            capacity = small_trace.nodes[node_id].capacity_cores
            assert cores <= capacity + 1e-9


def test_private_cloud_has_bursts(small_trace):
    """Some private deployments arrive as large simultaneous batches."""
    from collections import Counter

    creates = small_trace.events(kind=EventKind.CREATE, cloud=Cloud.PRIVATE)
    per_instant = Counter(e.time for e in creates)
    assert max(per_instant.values()) >= 10


def test_public_cloud_autoscaled_subscriptions_cycle(small_trace):
    """Autoscaled fleets create AND terminate VMs across the week."""
    events = small_trace.events(cloud=Cloud.PUBLIC)
    creates = sum(1 for e in events if e.kind is EventKind.CREATE)
    terminates = sum(1 for e in events if e.kind is EventKind.TERMINATE)
    assert creates > 100
    assert terminates > 100
