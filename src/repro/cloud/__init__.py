"""Cloud platform substrate: topology, discrete-event engine, allocation.

This package is the "Azure stand-in": it provides the physical hierarchy of
Section II (regions > datacenters > clusters > racks > nodes), a
Protean-style allocation service placing VMs onto nodes with fault-domain
spreading, and the discrete-event simulator that the workload generator
drives to produce a week-long trace.
"""

from repro.cloud.allocator import AllocationFailure, AllocationService
from repro.cloud.entities import Cluster, Node, Rack, Region, Topology, TopologySpec, build_topology
from repro.cloud.autoscale import Autoscaler, diurnal_demand
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.simulation import Simulator
from repro.cloud.sku import NodeSku, VMSku, private_sku_catalog, public_sku_catalog

__all__ = [
    "AllocationFailure",
    "AllocationService",
    "Autoscaler",
    "CloudPlatform",
    "Cluster",
    "Node",
    "NodeSku",
    "Rack",
    "Region",
    "Simulator",
    "Topology",
    "TopologySpec",
    "VMRequest",
    "VMSku",
    "build_topology",
    "diurnal_demand",
    "private_sku_catalog",
    "public_sku_catalog",
]
