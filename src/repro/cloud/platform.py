"""The cloud platform: executes VM lifecycles against the trace store.

:class:`CloudPlatform` is the glue between the workload generator (which
decides *what* to deploy and *when*) and the substrate (topology + allocation
service + discrete-event simulator).  Every action is recorded into a
:class:`~repro.telemetry.store.TraceStore`, producing exactly the dataset
schema the paper analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.allocator import AllocationFailure, AllocationService
from repro.cloud.entities import Topology
from repro.cloud.sku import VMSku
from repro.telemetry.schema import EventKind, EventRecord, VMRecord
from repro.telemetry.store import TraceStore


@dataclass(frozen=True)
class VMRequest:
    """Everything the platform needs to create one VM."""

    subscription_id: int
    deployment_id: int
    service: str
    region: str
    sku: VMSku
    #: Ground-truth utilization pattern label for the generator's telemetry
    #: synthesis (``diurnal`` / ``stable`` / ``irregular`` / ``hourly-peak``).
    pattern: str = "stable"
    #: Planned lifetime in seconds; ``inf`` = runs past the window.
    lifetime: float = float("inf")
    #: Service model ("iaas"/"paas"/"saas").
    offering: str = "iaas"


class CloudPlatform:
    """One cloud (private or public): fleet + allocator + trace recording."""

    def __init__(
        self,
        topology: Topology,
        store: TraceStore,
        *,
        vm_id_offset: int = 0,
    ) -> None:
        self.topology = topology
        self.store = store
        self.cloud = topology.cloud
        self.allocator = AllocationService(topology)
        self._next_vm_id = vm_id_offset
        self._vm_deployment: dict[int, int] = {}
        self._register_topology()

    def _register_topology(self) -> None:
        for region in self.topology.regions.values():
            self.store.add_region(region.to_info())
            for cluster in region.clusters:
                self.store.add_cluster(cluster.to_info())
                for node in cluster.nodes:
                    self.store.add_node(node.to_info())

    # ------------------------------------------------------------------
    # lifecycle operations
    # ------------------------------------------------------------------
    def create_vm(
        self,
        request: VMRequest,
        time: float,
        *,
        backdate_to: float | None = None,
    ) -> int | None:
        """Create and place a VM at ``time``; returns its id.

        ``backdate_to`` stamps an earlier ``created_at`` for VMs that existed
        before the observation window opened (the paper's inventory contains
        such VMs; its lifetime analysis excludes them).  Returns ``None`` on
        allocation failure, which is itself recorded as an event.
        """
        vm_id = self._next_vm_id
        try:
            node = self.allocator.allocate(
                vm_id,
                request.sku.cores,
                request.sku.memory_gb,
                region=request.region,
                deployment_id=request.deployment_id,
                subscription_id=request.subscription_id,
            )
        except AllocationFailure:
            self.store.add_event(
                EventRecord(
                    time=time,
                    kind=EventKind.ALLOCATION_FAILURE,
                    vm_id=-1,
                    cloud=self.cloud,
                    region=request.region,
                    detail=f"{request.sku.cores}c/{request.sku.memory_gb}g",
                )
            )
            return None

        self._next_vm_id += 1
        created_at = backdate_to if backdate_to is not None else time
        self.store.add_vm(
            VMRecord(
                vm_id=vm_id,
                subscription_id=request.subscription_id,
                deployment_id=request.deployment_id,
                service=request.service,
                cloud=self.cloud,
                region=request.region,
                cluster_id=node.cluster_id,
                rack_id=node.rack_id,
                node_id=node.node_id,
                cores=request.sku.cores,
                memory_gb=request.sku.memory_gb,
                created_at=float(created_at),
                ended_at=float("inf"),
                pattern=request.pattern,
                offering=request.offering,
            )
        )
        self._vm_deployment[vm_id] = request.deployment_id
        if created_at >= 0:
            self.store.add_event(
                EventRecord(
                    time=float(created_at),
                    kind=EventKind.CREATE,
                    vm_id=vm_id,
                    cloud=self.cloud,
                    region=request.region,
                )
            )
        return vm_id

    def terminate_vm(self, vm_id: int, time: float) -> None:
        """Terminate a VM: free its node, close its record, log the event."""
        deployment_id = self._vm_deployment.pop(vm_id)
        self.allocator.release(vm_id, deployment_id=deployment_id)
        vm = self.store.finalize_vm(vm_id, time)
        self.store.add_event(
            EventRecord(
                time=float(time),
                kind=EventKind.TERMINATE,
                vm_id=vm_id,
                cloud=self.cloud,
                region=vm.region,
            )
        )
