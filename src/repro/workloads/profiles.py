"""Cloud workload profiles: every calibration knob in one place.

A :class:`CloudProfile` fully describes how to synthesize one cloud's
week-long workload.  The two factories, :func:`private_profile` and
:func:`public_profile`, encode the paper's findings as generator parameters;
DESIGN.md section 6 maps each knob to the paper statistic it targets, and
``tests/test_calibration.py`` asserts the anchors end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cloud.entities import DEFAULT_REGIONS, RegionSpec, TopologySpec
from repro.cloud.sku import NodeSku, SkuCatalog, private_sku_catalog, public_sku_catalog
from repro.telemetry.schema import Cloud
from repro.timebase import SECONDS_PER_HOUR
from repro.workloads.lifetime import LifetimeModel, private_lifetime_model, public_lifetime_model
from repro.workloads.services import PRIVATE_SERVICES, PUBLIC_SERVICES, ServiceArchetype
from repro.workloads.spatial import RegionSpread


@dataclass(frozen=True)
class BasePoolConfig:
    """Long-running VM pools that exist before the window opens."""

    #: Log-normal median of the per-(subscription, region) pool size.
    size_median: float
    #: Log-space sigma of the pool size.
    size_sigma: float
    #: Pool-size multiplier for multi-region subscriptions (drives Fig. 4b).
    multi_region_boost: float
    #: Pool-size multiplier applied per-region for multi-region subscriptions
    #: (< 1 spreads a similar total over regions instead of replicating it).
    multi_region_per_region_factor: float
    #: Fraction of pool VMs that terminate at a random time inside the week.
    churn_fraction: float


@dataclass(frozen=True)
class ChurnConfig:
    """Short-lived VM churn arriving during the week (per region)."""

    #: Off-peak arrival rate, VMs per hour per region.
    base_rate_per_hour: float
    #: Peak arrival rate, VMs per hour per region.
    peak_rate_per_hour: float
    #: Weekend damping of the rate curve.
    weekend_factor: float
    #: Geometric parameter for VMs per arrival (deployment batch size).
    batch_mean: float


@dataclass(frozen=True)
class BurstConfig:
    """Occasional large deployment bursts (private cloud, Fig. 3b/c)."""

    #: Fraction of subscriptions capable of bursting.
    subscription_fraction: float
    #: Burst episodes per week for each bursting subscription.
    episodes_per_week: float
    #: Log-normal median burst size (VMs created at once).
    size_median: float
    #: Log-space sigma of the burst size.
    size_sigma: float
    #: Fraction of burst VMs that keep running past the window.
    censored_fraction: float


@dataclass(frozen=True)
class AutoscaleConfig:
    """Autoscaled scale sets (public cloud's diurnal deployments)."""

    #: Fraction of subscriptions that run an autoscaler.
    subscription_fraction: float
    #: Range of the always-on fleet floor.
    base_range: tuple[int, int]
    #: Range of the diurnal amplitude on top of the floor.
    amplitude_range: tuple[int, int]
    #: Seconds between autoscaler evaluations.
    evaluation_interval: float = 900.0


@dataclass(frozen=True)
class CloudProfile:
    """Everything needed to generate one cloud's weekly trace."""

    cloud: Cloud
    n_subscriptions: int
    services: tuple[tuple[ServiceArchetype, float], ...]
    sku_catalog: SkuCatalog
    lifetime: LifetimeModel
    region_spread: RegionSpread
    base_pool: BasePoolConfig
    churn: ChurnConfig
    burst: BurstConfig | None
    autoscale: AutoscaleConfig | None
    regions: tuple[RegionSpec, ...] = DEFAULT_REGIONS
    clusters_per_region: int = 2
    racks_per_cluster: int = 6
    nodes_per_rack: int = 5
    node_sku: NodeSku = field(default_factory=lambda: NodeSku("Gen8-96c", 96.0, 768.0))
    #: Minimum overlap with the window (seconds) for a VM to get telemetry.
    telemetry_min_overlap: float = 12 * SECONDS_PER_HOUR
    #: Mean utilization scale for diurnal peaks (keeps P75 < 30%, Fig. 6).
    utilization_scale: float = 1.0

    def topology_spec(self) -> TopologySpec:
        """The fleet sizing implied by this profile."""
        return TopologySpec(
            cloud=self.cloud,
            regions=self.regions,
            clusters_per_region=self.clusters_per_region,
            racks_per_cluster=self.racks_per_cluster,
            nodes_per_rack=self.nodes_per_rack,
            node_sku=self.node_sku,
        )

    def scaled(self, scale: float) -> "CloudProfile":
        """Return a copy with subscription counts and churn rates scaled.

        Scaling **down** leaves the topology unchanged: the paper compares
        similar cluster populations, and shrinking the fleet with the
        workload would change packing density.  Scaling **up** (scale > 1)
        adds whole clusters per region instead -- each cluster keeps its
        rack/node sizing, so per-cluster packing density is preserved while
        the region gains the capacity the scaled demand needs.  Without
        that, paper-scale runs saturate the fixed fleet and placement
        rejections cap the trace far below the requested size.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        clusters = self.clusters_per_region
        if scale > 1:
            clusters = max(clusters, int(round(clusters * scale)))
        return replace(
            self,
            n_subscriptions=max(1, int(round(self.n_subscriptions * scale))),
            clusters_per_region=clusters,
            churn=replace(
                self.churn,
                base_rate_per_hour=self.churn.base_rate_per_hour * scale,
                peak_rate_per_hour=self.churn.peak_rate_per_hour * scale,
            ),
        )


def private_profile() -> CloudProfile:
    """The private (first-party) cloud profile.

    Encodes: large homogeneous deployments (Fig. 1a), few subscriptions per
    cluster (Fig. 1b), mainstream SKUs only (Fig. 2), ~49% shortest-bin
    lifetimes (Fig. 3a), static arrivals with bursts (Fig. 3b-d), long
    multi-region tail carrying most cores (Fig. 4), diurnal/hourly-peak
    dominated utilization (Fig. 5) and region-agnostic services (Fig. 7).
    """
    return CloudProfile(
        cloud=Cloud.PRIVATE,
        n_subscriptions=120,
        services=PRIVATE_SERVICES,
        sku_catalog=private_sku_catalog(),
        lifetime=private_lifetime_model(),
        region_spread=RegionSpread(
            single_region_probability=0.65,
            tail_decay=0.50,
            max_regions=10,
        ),
        base_pool=BasePoolConfig(
            size_median=24.0,
            size_sigma=0.80,
            multi_region_boost=1.4,
            multi_region_per_region_factor=1.0,
            churn_fraction=0.08,
        ),
        churn=ChurnConfig(
            base_rate_per_hour=0.9,
            peak_rate_per_hour=2.0,
            weekend_factor=0.75,
            batch_mean=2.0,
        ),
        burst=BurstConfig(
            subscription_fraction=0.35,
            episodes_per_week=1.2,
            size_median=45.0,
            size_sigma=0.65,
            censored_fraction=0.45,
        ),
        autoscale=None,
    )


def public_profile() -> CloudProfile:
    """The public cloud profile.

    Encodes: small deployments from many subscriptions (Fig. 1), SKU tails
    at both extremes (Fig. 2), ~81% shortest-bin lifetimes (Fig. 3a),
    autoscale-driven diurnal deployments (Fig. 3b-d), core usage concentrated
    in single-region subscriptions (Fig. 4), stable-heavy diverse utilization
    (Fig. 5) and region-sensitive local-time workloads (Fig. 7).
    """
    return CloudProfile(
        cloud=Cloud.PUBLIC,
        n_subscriptions=3200,
        services=PUBLIC_SERVICES,
        sku_catalog=public_sku_catalog(),
        lifetime=public_lifetime_model(),
        region_spread=RegionSpread(
            single_region_probability=0.80,
            tail_decay=0.45,
            max_regions=6,
        ),
        base_pool=BasePoolConfig(
            size_median=1.4,
            size_sigma=0.9,
            multi_region_boost=1.4,
            multi_region_per_region_factor=0.45,
            churn_fraction=0.10,
        ),
        churn=ChurnConfig(
            base_rate_per_hour=1.5,
            peak_rate_per_hour=14.0,
            weekend_factor=0.45,
            batch_mean=1.3,
        ),
        burst=None,
        autoscale=AutoscaleConfig(
            subscription_fraction=0.012,
            base_range=(2, 5),
            amplitude_range=(4, 10),
            evaluation_interval=900.0,
        ),
    )
