"""The centralized workload knowledge base (Section V).

"One first needs to abstract out the common optimization policies and then
build a centralized workload knowledge base, which continuously extracts
workload knowledge from telemetry signals (e.g., CPU utilization, VM
lifetime) and feeds them into the aforementioned optimization policies."

:class:`WorkloadKnowledgeBase` does exactly that: it distills a
:class:`~repro.telemetry.store.TraceStore` into per-subscription knowledge
records, offers a query API, recommends the paper's optimization policies
per workload, and serializes to JSON so it can be kept warm between
analysis runs.  The :mod:`repro.management` optimizers consume it.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.stats import coefficient_of_variation
from repro.analysis.timeseries import hourly_event_counts, sorted_percentile
from repro.core.correlation import region_agnostic_subscriptions
from repro.core.patterns import ClassifierConfig, classify_vm_windows
from repro.telemetry.schema import (
    Cloud,
    EventKind,
    PATTERN_DIURNAL,
    PATTERN_HOURLY_PEAK,
    PATTERN_IRREGULAR,
    PATTERN_STABLE,
)
from repro.telemetry.store import TraceStore
from repro.workloads.lifetime import SHORTEST_BIN_SECONDS

#: Policy identifiers, one per implication discussed in the paper.
POLICY_SPOT_ADOPTION = "spot-vm-adoption"
POLICY_OVERSUBSCRIPTION = "chance-constrained-oversubscription"
POLICY_VALLEY_FILL = "deferrable-valley-scheduling"
POLICY_PRE_PROVISION = "predictive-pre-provisioning"
POLICY_REGION_SHIFT = "region-agnostic-rebalancing"
POLICY_FAILURE_PREDICTION = "allocation-failure-prediction"
POLICY_CONSERVATIVE = "no-aggressive-management"

#: Pattern classifier settings of both the batch and the online path.
CLASSIFIER_CONFIG = ClassifierConfig()
#: Cross-region similarity above which a subscription is region-agnostic.
REGION_AGNOSTIC_THRESHOLD = 0.7
#: VMs per subscription whose windows feed the pattern mix.
MAX_CLASSIFIED_VMS_PER_SUBSCRIPTION = 50


def build_subscription_records(
    store, subscriptions, labels: "dict[int, str] | None" = None
) -> "list[SubscriptionKnowledge]":
    """Distill subscriptions' telemetry into knowledge records, in input order.

    The shared record builder behind both the batch
    :meth:`WorkloadKnowledgeBase.from_trace` path and the online
    :class:`~repro.serving.service.KnowledgeBaseService` refresh path --
    the two must stay byte-identical at every flush point, so there is
    exactly one implementation.

    ``subscriptions`` holds one ``(sub, vms, creations, region_agnostic)``
    tuple per subscription, ``creations`` being the ``(time, vm_id)`` pairs
    of its CREATE events.  ``store`` only needs ``metadata``, ``vm(vm_id)``
    and ``utilization(vm_id)``, so any
    :class:`~repro.telemetry.store.TraceStore`-shaped state works.  VMs and
    creations are processed in sorted order, making each record a pure
    function of its subscription's *content* -- ingest order (batch
    generation vs. online arrival) cannot shift a float sum or a
    ``Counter`` tie-break.  Lifetimes and windows follow the window rules
    of :class:`~repro.telemetry.store.TraceMetadata`.  Patterns come from
    one :func:`~repro.core.patterns.classify_vm_windows` call over every
    subscription's windows, the batched path of
    ``PatternClassifier.classify_store``; labels do not depend on how
    windows are batched, so a record is the same built alone or with others.

    ``labels`` is an optional per-VM label cache, the online service's: a
    VM found in it is not classified again, and each VM classified here is
    added to it when its window is non-empty.  For the same reason a
    cached label equals a fresh one as long as the VM's window has not
    changed; dropping the entry when it does is the caller's part.
    """
    collected = [_collect_record(store, *entry) for entry in subscriptions]
    known = {} if labels is None else labels
    misses = [
        vm_id for _record, vm_ids, _empty in collected for vm_id in vm_ids if vm_id not in known
    ]
    fresh = dict(zip(misses, classify_vm_windows(store, misses, CLASSIFIER_CONFIG)))
    for record, vm_ids, empty in collected:
        _finish_record(
            record, [fresh[vm_id] if vm_id in fresh else known[vm_id] for vm_id in vm_ids]
        )
        if labels is not None:
            # An empty window is labelled by its length alone; the service
            # answers such a VM "unavailable", so its label is not kept.
            labels.update(
                (vm_id, fresh[vm_id]) for vm_id in vm_ids if vm_id in fresh and vm_id not in empty
            )
    return [record for record, _vm_ids, _empty in collected]


def _collect_record(
    store, sub, vms, creations, region_agnostic
) -> "tuple[SubscriptionKnowledge, list[int], set[int]]":
    """Everything of one record but its patterns, the VMs to classify and
    which of those have an empty window."""
    metadata = store.metadata
    vms = sorted(vms, key=lambda vm: vm.vm_id)
    record = SubscriptionKnowledge(
        subscription_id=sub.subscription_id,
        cloud=str(sub.cloud),
        service=sub.service,
        party=sub.party,
        n_vms=len(vms),
        total_cores=float(sum(vm.cores for vm in vms)),
        regions=tuple(sorted({vm.region for vm in vms})),
    )

    completed = [vm.lifetime for vm in vms if metadata.completed_in_window(vm)]
    if completed:
        # The bits of np.median and np.mean over these finite floats, for
        # a tenth of their per-call cost: the middle value or the halved
        # sum of the middle two, and an exact count over the total.
        record.lifetime_p50 = float(statistics.median(completed))
        short = sum(t <= SHORTEST_BIN_SECONDS for t in completed)
        record.short_lived_fraction = float(short / len(completed))

    to_classify: list[int] = []
    empty: set[int] = set()
    utils = []
    for vm in vms:
        series = store.utilization(vm.vm_id)
        if series is None:
            continue
        lo, hi = metadata.sample_window(vm)
        window = series[lo:hi]
        if window.size:
            utils.append(window)
        if len(to_classify) < MAX_CLASSIFIED_VMS_PER_SUBSCRIPTION:
            to_classify.append(vm.vm_id)
            if not window.size:
                empty.add(vm.vm_id)
    if utils:
        stacked = np.concatenate(utils)  # a private copy, free to reorder
        record.mean_utilization = float(stacked.mean())
        # A SIMD sort and a read of p95 off the sorted samples take half
        # the time of np.percentile's partition, with the same bits.
        stacked.sort()
        record.p95_utilization = float(sorted_percentile(stacked, 95))

    if len(creations) >= 12:
        times = np.array([t for t, _vm_id in sorted(creations)])
        counts_per_hour = hourly_event_counts(times, duration=metadata.duration)
        cv = coefficient_of_variation(counts_per_hour)
        if np.isfinite(cv):
            record.creation_cv = cv

    record.region_agnostic = region_agnostic
    return record, to_classify, empty


def _finish_record(record: "SubscriptionKnowledge", labels: list[str]) -> None:
    """Fill in ``record``'s pattern mix from its classified windows' labels."""
    if not labels:
        return
    counts = Counter(labels)
    record.pattern_mix = {
        p: counts.get(p, 0) / len(labels)
        for p in (
            PATTERN_DIURNAL,
            PATTERN_STABLE,
            PATTERN_IRREGULAR,
            PATTERN_HOURLY_PEAK,
        )
    }
    record.dominant_pattern = counts.most_common(1)[0][0]


@dataclass
class SubscriptionKnowledge:
    """Everything the knowledge base knows about one subscription."""

    subscription_id: int
    cloud: str
    service: str
    party: str
    n_vms: int = 0
    total_cores: float = 0.0
    regions: tuple[str, ...] = ()
    #: Median lifetime of completed VMs (seconds); NaN if none completed.
    lifetime_p50: float = float("nan")
    #: Fraction of completed VMs in the shortest lifetime bin.
    short_lived_fraction: float = float("nan")
    #: Classified pattern shares over this subscription's VMs.
    pattern_mix: dict[str, float] = field(default_factory=dict)
    dominant_pattern: str = ""
    #: CV of this subscription's hourly VM creations (burstiness).
    creation_cv: float = float("nan")
    #: Cross-region similarity verdict; None when single-region/unknown.
    region_agnostic: bool | None = None
    mean_utilization: float = float("nan")
    p95_utilization: float = float("nan")

    @property
    def n_regions(self) -> int:
        """Number of deployed regions."""
        return len(self.regions)


class WorkloadKnowledgeBase:
    """Queryable per-subscription workload knowledge."""

    def __init__(self) -> None:
        self._records: dict[int, SubscriptionKnowledge] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, store: TraceStore) -> "WorkloadKnowledgeBase":
        """Extract knowledge from telemetry, like the paper's pipeline.

        Per-subscription distillation lives in
        :func:`build_subscription_records`, shared with the online
        :class:`~repro.serving.service.KnowledgeBaseService` so the two
        paths cannot drift.
        """
        kb = cls()

        creations_by_sub: dict[int, list[tuple[float, int]]] = {}
        for event in store.events(kind=EventKind.CREATE):
            vm = store.vm(event.vm_id)
            creations_by_sub.setdefault(vm.subscription_id, []).append(
                (event.time, event.vm_id)
            )

        agnostic: dict[int, bool] = {}
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            try:
                for report in region_agnostic_subscriptions(
                    store, cloud, threshold=REGION_AGNOSTIC_THRESHOLD
                ):
                    agnostic[report.subscription_id] = report.region_agnostic
            except ValueError:
                continue

        vms_by_sub = store.vms_by_subscription()
        entries = [
            (sub, vms_by_sub[sub_id], creations_by_sub.get(sub_id, ()), agnostic.get(sub_id))
            for sub_id, sub in store.subscriptions.items()
            if vms_by_sub.get(sub_id)
        ]
        for record in build_subscription_records(store, entries):
            kb._records[record.subscription_id] = record
        return kb

    def put(self, record: SubscriptionKnowledge) -> None:
        """Insert or replace one record.

        The online :class:`~repro.serving.service.KnowledgeBaseService`
        uses this to refresh dirty subscriptions in place.
        """
        self._records[record.subscription_id] = record

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, subscription_id: int) -> SubscriptionKnowledge:
        """One subscription's knowledge record."""
        return self._records[subscription_id]

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def subscriptions(self, *, cloud: Cloud | str | None = None) -> list[SubscriptionKnowledge]:
        """All records, optionally filtered by cloud."""
        records = self._records.values()
        if cloud is not None:
            cloud = str(cloud)
            records = (r for r in records if r.cloud == cloud)
        return sorted(records, key=lambda r: r.subscription_id)

    def region_agnostic_candidates(
        self, *, cloud: Cloud | str | None = None
    ) -> list[SubscriptionKnowledge]:
        """Subscriptions the cross-region study marked as region-agnostic."""
        return [r for r in self.subscriptions(cloud=cloud) if r.region_agnostic]

    def cloud_summary(self, cloud: Cloud | str) -> dict[str, float]:
        """Aggregate knowledge for one cloud (report fodder)."""
        records = self.subscriptions(cloud=cloud)
        if not records:
            raise ValueError(f"no knowledge for cloud {cloud}")
        short = [r.short_lived_fraction for r in records if np.isfinite(r.short_lived_fraction)]
        cvs = [r.creation_cv for r in records if np.isfinite(r.creation_cv)]
        return {
            "subscriptions": float(len(records)),
            "vms": float(sum(r.n_vms for r in records)),
            "total_cores": float(sum(r.total_cores for r in records)),
            "mean_regions": float(np.mean([r.n_regions for r in records])),
            "short_lived_fraction": float(np.mean(short)) if short else float("nan"),
            "mean_creation_cv": float(np.mean(cvs)) if cvs else float("nan"),
            "region_agnostic_count": float(
                sum(1 for r in records if r.region_agnostic)
            ),
        }

    # ------------------------------------------------------------------
    # policy recommendation (the knowledge base's purpose in Section V)
    # ------------------------------------------------------------------
    def recommend_policies(self, subscription_id: int) -> list[str]:
        """Map a workload's traits to the paper's optimization policies."""
        record = self.get(subscription_id)
        policies: list[str] = []
        if (
            record.cloud == str(Cloud.PUBLIC)
            and np.isfinite(record.short_lived_fraction)
            and record.short_lived_fraction >= 0.5
        ):
            policies.append(POLICY_SPOT_ADOPTION)
        if record.dominant_pattern == PATTERN_STABLE:
            policies.append(POLICY_OVERSUBSCRIPTION)
        if record.dominant_pattern == PATTERN_DIURNAL:
            policies.append(POLICY_VALLEY_FILL)
            if record.cloud == str(Cloud.PRIVATE):
                policies.append(POLICY_OVERSUBSCRIPTION)
        if record.dominant_pattern == PATTERN_HOURLY_PEAK:
            policies.append(POLICY_PRE_PROVISION)
        if record.region_agnostic and record.n_regions >= 2:
            policies.append(POLICY_REGION_SHIFT)
        if np.isfinite(record.creation_cv) and record.creation_cv >= 2.0:
            policies.append(POLICY_FAILURE_PREDICTION)
        if record.dominant_pattern == PATTERN_IRREGULAR:
            policies.append(POLICY_CONSERVATIVE)
        return policies

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize to JSON (optionally writing to ``path``)."""
        def _clean(value):
            if isinstance(value, float) and not np.isfinite(value):
                return None
            return value

        payload = []
        for record in self.subscriptions():
            row = asdict(record)
            row["regions"] = list(record.regions)
            payload.append({k: _clean(v) for k, v in row.items()})
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text
