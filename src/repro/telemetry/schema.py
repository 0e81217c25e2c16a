"""Typed records of the trace schema.

Terminology follows Section II of the paper: each *subscription* deploys VMs
into a *region*; the allocation service places VMs onto *nodes*, which are
stacked in *racks* inside *clusters*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


#: The four canonical CPU utilization patterns of Section IV-A.
PATTERN_DIURNAL = "diurnal"
PATTERN_STABLE = "stable"
PATTERN_IRREGULAR = "irregular"
PATTERN_HOURLY_PEAK = "hourly-peak"
UTILIZATION_PATTERNS = (
    PATTERN_DIURNAL,
    PATTERN_STABLE,
    PATTERN_IRREGULAR,
    PATTERN_HOURLY_PEAK,
)


class Cloud(str, enum.Enum):
    """Which platform a workload runs on.

    The paper's private cloud hosts first-party (Microsoft) workloads only;
    the public cloud hosts first- and third-party workloads.
    """

    PRIVATE = "private"
    PUBLIC = "public"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class EventKind(str, enum.Enum):
    """VM lifecycle and platform events recorded in the trace.

    The simulator emits ``CREATE``, ``TERMINATE`` and ``ALLOCATION_FAILURE``.
    ``EVICT`` and ``MIGRATE`` have no producer here; saved traces and the
    ingest protocol accept them from outside the program.
    """

    CREATE = "create"
    TERMINATE = "terminate"
    EVICT = "evict"
    MIGRATE = "migrate"
    ALLOCATION_FAILURE = "allocation_failure"


@dataclass(frozen=True, slots=True)
class VMRecord:
    """One row of the VM inventory table.

    ``ended_at`` is ``inf`` for VMs still running when the observation window
    closed, mirroring the right-censoring the paper handles by "only
    includ[ing] the VMs started and ended in the week" for lifetime analysis.
    ``created_at`` may be negative for VMs that predate the window.
    """

    vm_id: int
    subscription_id: int
    deployment_id: int
    service: str
    cloud: Cloud
    region: str
    cluster_id: int
    rack_id: int
    node_id: int
    cores: float
    memory_gb: float
    created_at: float
    ended_at: float
    #: Ground-truth utilization pattern assigned by the generator (one of
    #: ``diurnal``/``stable``/``irregular``/``hourly-peak``), kept so the
    #: pattern classifier of Section IV-A can be evaluated.  Empty for traces
    #: from external sources.
    pattern: str = ""
    #: Service model: Section II notes both clouds host IaaS, PaaS and SaaS
    #: VMs ("iaas" / "paas" / "saas").
    offering: str = "iaas"

    @property
    def lifetime(self) -> float:
        """Seconds between creation and termination (``inf`` if censored)."""
        return self.ended_at - self.created_at

    @property
    def completed(self) -> bool:
        """Whether the VM both started and ended inside a finite window."""
        return self.ended_at != float("inf")

    def with_end(self, ended_at: float) -> "VMRecord":
        """This row with ``ended_at`` replaced.

        Equal field for field to ``dataclasses.replace(self,
        ended_at=ended_at)`` at well under half its cost; the store closes
        and the serving backend censors one row per VM this way.
        """
        return VMRecord(
            self.vm_id,
            self.subscription_id,
            self.deployment_id,
            self.service,
            self.cloud,
            self.region,
            self.cluster_id,
            self.rack_id,
            self.node_id,
            self.cores,
            self.memory_gb,
            self.created_at,
            ended_at,
            self.pattern,
            self.offering,
        )


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One row of the events table."""

    time: float
    kind: EventKind
    vm_id: int
    cloud: Cloud
    region: str
    #: Free-form detail, e.g. the target node of a migration.
    detail: str = ""


@dataclass(frozen=True, slots=True)
class NodeInfo:
    """Static description of one node of the simulated fleet."""

    node_id: int
    cluster_id: int
    rack_id: int
    region: str
    cloud: Cloud
    capacity_cores: float
    capacity_memory_gb: float


@dataclass(frozen=True, slots=True)
class ClusterInfo:
    """Static description of one cluster (thousands of identical-SKU nodes)."""

    cluster_id: int
    region: str
    cloud: Cloud
    n_nodes: int
    node_capacity_cores: float
    node_capacity_memory_gb: float

    @property
    def capacity_cores(self) -> float:
        """Total core capacity of the cluster."""
        return self.n_nodes * self.node_capacity_cores


@dataclass(frozen=True, slots=True)
class RegionInfo:
    """Static description of one region (geo-location)."""

    name: str
    tz_offset_hours: float
    country: str = ""
    #: Per-cloud renewable-energy accessibility score in [0, 1] (Section IV-B
    #: implication).  No analysis reads it; the trace format and ingest
    #: keep it so saved traces stay byte-stable.
    renewable_score: float = 0.5


@dataclass(slots=True)
class SubscriptionInfo:
    """Static description of one subscription."""

    subscription_id: int
    cloud: Cloud
    service: str
    party: str = "third"  # "first" (provider-owned) or "third" (customer)
    regions: tuple[str, ...] = field(default_factory=tuple)
    offering: str = "iaas"  # "iaas" / "paas" / "saas"
