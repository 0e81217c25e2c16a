"""Unit tests for derived utilization aggregates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.telemetry.counters import node_utilization, region_average_utilization
from repro.telemetry.schema import Cloud, NodeInfo
from repro.telemetry.store import TraceStore
from tests.test_store import make_vm


@pytest.fixture()
def store_with_node():
    store = TraceStore()
    store.add_node(
        NodeInfo(node_id=0, cluster_id=0, rack_id=0, region="us-east",
                 cloud=Cloud.PRIVATE, capacity_cores=16.0, capacity_memory_gb=64.0)
    )
    n = store.metadata.n_samples
    store.add_vm(make_vm(1, node_id=0, cores=4.0))
    store.add_vm(make_vm(2, node_id=0, cores=8.0))
    store.add_utilization(1, np.full(n, 0.5))
    store.add_utilization(2, np.full(n, 0.25))
    return store


def hosted(store, node_id):
    """A node's hosted VMs and their rows, as the node series consumes them."""
    vms = store.vms_by_node()[node_id]
    return store.nodes[node_id], vms, [store.utilization(vm.vm_id) for vm in vms]


def test_node_utilization_core_weighted(store_with_node):
    series = node_utilization(*hosted(store_with_node, 0))
    # (4*0.5 + 8*0.25) / 16 = 0.25
    assert np.allclose(series, 0.25)


def test_node_utilization_clipped():
    store = TraceStore()
    store.add_node(
        NodeInfo(node_id=0, cluster_id=0, rack_id=0, region="r",
                 cloud=Cloud.PRIVATE, capacity_cores=2.0, capacity_memory_gb=8.0)
    )
    n = store.metadata.n_samples
    store.add_vm(make_vm(1, node_id=0, cores=4.0))
    store.add_utilization(1, np.full(n, 1.0))
    series = node_utilization(*hosted(store, 0))
    assert series.max() <= 1.0


def test_region_average_utilization(store_with_node):
    avg = region_average_utilization(store_with_node, cloud=Cloud.PRIVATE)
    assert np.allclose(avg, (0.5 + 0.25) / 2)


def test_region_average_no_match_raises(store_with_node):
    with pytest.raises(ValueError):
        region_average_utilization(store_with_node, cloud=Cloud.PUBLIC)
