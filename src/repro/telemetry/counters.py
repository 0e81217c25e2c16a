"""Derived utilization aggregates.

The node-level and region-level similarity studies of Section IV-B do not
operate on raw VM counters: the node series is the (core-weighted) sum of its
hosted VMs' usage, and the region series of a subscription is "the averaged
utilization computed at the region level for each studied subscription".
This module holds the node-series rule (from rows the caller has already
read) and the population averages and groupings the region studies run on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.telemetry.schema import Cloud, NodeInfo, VMRecord
from repro.telemetry.store import TraceStore


def node_utilization(
    node: NodeInfo, vms: Sequence[VMRecord], rows: Sequence[np.ndarray]
) -> np.ndarray:
    """CPU utilization series of a node, in ``[0, 1]``.

    ``rows[i]`` is the utilization series of ``vms[i]``, already read by the
    caller (which typically reuses them, e.g. to correlate each VM with its
    node).  The node series is the core-weighted sum of its hosted VMs'
    usage divided by the node's core capacity ("the node CPU utilization
    mostly originates from the usage of VMs", Section IV-B).
    """
    total = np.zeros(rows[0].shape, dtype=np.float64)
    for vm, row in zip(vms, rows, strict=True):
        total += vm.cores * row.astype(np.float64)
    return np.clip(total / node.capacity_cores, 0.0, 1.0)


def region_average_utilization(
    store: TraceStore,
    *,
    cloud: Cloud | None = None,
    region: str | None = None,
    vm_ids: list[int] | None = None,
) -> np.ndarray:
    """Average utilization across a VM population (equal VM weights).

    Delegates to :meth:`~repro.telemetry.store.TraceStore.utilization_mean`,
    which accumulates in float64 over fixed row chunks -- the population may
    be an entire cloud, and materializing its full matrix would dwarf the
    result.
    """
    if vm_ids is None:
        vm_ids = [
            vm.vm_id
            for vm in store.vms(cloud=cloud, region=region)
            if store.has_utilization(vm.vm_id)
        ]
    if not vm_ids:
        raise ValueError("no VMs with utilization match the filter")
    return store.utilization_mean(vm_ids)


def subscription_region_vm_ids(
    store: TraceStore, *, cloud: Cloud | None = None
) -> dict[int, dict[str, list[int]]]:
    """Telemetry-bearing VM ids grouped by ``(subscription, region)``.

    One pass over the fleet.  The Fig. 7(b) and region-agnostic studies
    need this grouping for *every* subscription; deriving it per
    subscription would rescan all VMs each time, which is
    O(n_subscriptions x n_vms) across a fleet scan -- prohibitive at paper
    scale.
    """
    grouped: dict[int, dict[str, list[int]]] = {}
    for vm in store.vms(cloud=cloud):
        if not store.has_utilization(vm.vm_id):
            continue
        grouped.setdefault(vm.subscription_id, {}).setdefault(
            vm.region, []
        ).append(vm.vm_id)
    return grouped
