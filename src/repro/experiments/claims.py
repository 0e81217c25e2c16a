"""The paper's claims, stated once: ``validate`` and ``study`` as views.

Every Section III-IV claim the reproduction tests is one ``result.check``
in one registry task (:mod:`repro.experiments.parallel`), and that check
is the only place its band lives.  ``repro validate`` and ``repro study``
restate no band: :data:`ANCHORS` and :data:`INSIGHTS` name the checks
they report by ``(task id, check name)``, :func:`evaluate_claims` runs
only the shared-trace tasks those keys name and reads the verdicts back,
and both verbs print the same :class:`ClaimReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.render import mix_table, sparkline
from repro.core import deployment as dep
from repro.experiments.base import CheckResult, ExperimentResult
from repro.experiments.parallel import TASKS
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore

#: ``(registry task id, check name)``: one check of one task.
ClaimKey = tuple[str, str]

#: The calibration anchors ``repro validate`` reports.
ANCHORS: tuple[ClaimKey, ...] = (
    ("fig1a", "private deployments much larger at the median"),
    ("fig1a", "similar VM populations in both clouds"),
    ("fig1b", "public cluster hosts many times more subscriptions"),
    ("fig3a", "private shortest-bin fraction ~49%"),
    ("fig3a", "public shortest-bin fraction ~81%"),
    ("fig3d", "private CVs larger across regions"),
    ("fig4b", "single-region core share ~40% in the private cloud"),
    ("fig4b", "single-region core share ~70% in the public cloud"),
    ("fig7a", "private workloads similar within a node"),
    ("fig7a", "public VM and node utilization nearly uncorrelated"),
    ("fig7b", "private subscriptions keep the same pattern across regions"),
    ("fig7b", "a large portion of private subscriptions look region-agnostic"),
)

#: The paper's four insights, each a named group of checks (``repro study``).
INSIGHTS: Mapping[str, tuple[ClaimKey, ...]] = {
    "Insight 1: private deployments are larger; public clusters host many "
    "more subscriptions": (
        ("fig1a", "private deployments much larger at the median"),
        ("fig1b", "public cluster hosts many times more subscriptions"),
    ),
    "Insight 2: private arrivals are burstier (higher CV) than the public "
    "cloud's regular diurnal pattern": (
        ("fig3d", "private CVs larger across regions"),
    ),
    "Insight 3: utilization-pattern mixes differ (private more "
    "diurnal/hourly-peak, public more stable)": (
        ("fig5", "private has roughly double the (diurnal + hourly-peak) share of public"),
        ("fig5", "stable share higher in the public cloud"),
        ("fig5", "hourly-peak appears mostly in the private cloud"),
    ),
    "Insight 4: private workloads are more homogeneous per node and more "
    "region-agnostic": (
        ("fig7a", "private median correlation much higher"),
        ("fig7b", "private subscriptions keep the same pattern across regions"),
    ),
}

@dataclass(frozen=True)
class ClaimGroup:
    """One named group of checks with their verdicts on one trace."""

    name: str
    claims: tuple[tuple[str, CheckResult], ...]

    @property
    def passed(self) -> bool:
        """Whether every check of the group passed."""
        return all(check.passed for _task, check in self.claims)


@dataclass(frozen=True)
class ClaimReport:
    """Verdicts of named check groups, plus the task results they came from."""

    title: str
    groups: tuple[ClaimGroup, ...]
    results: Mapping[str, ExperimentResult]

    @property
    def passed(self) -> bool:
        """Whether every group holds."""
        return all(group.passed for group in self.groups)

    def render(self) -> str:
        """Console rendering: one verdict line per group, one per check."""
        checks = [check for group in self.groups for _task, check in group.claims]
        lines = [f"{self.title}: {sum(c.passed for c in checks)}/{len(checks)} checks pass"]
        for group in self.groups:
            lines.append(f"[{'HOLDS' if group.passed else 'FAILS'}] {group.name}")
            lines += [f"    {task} {check.render()}" for task, check in group.claims]
        return "\n".join(lines)

    def markdown(self, store: TraceStore) -> str:
        """Standalone markdown: the groups' check tables, then the shape view."""
        lines = [
            f"# {self.title}",
            "",
            "Private vs public cloud comparison in the style of *How Different "
            "are the Cloud Workloads?* (DSN'23).",
            "",
        ]
        for group in self.groups:
            lines += [
                f"## {'✅' if group.passed else '❌'} {group.name}",
                "",
                "| Task | Check | Paper | Measured | Status |",
                "|---|---|---|---|---|",
            ]
            for task, check in group.claims:
                status = "pass" if check.passed else "FAIL"
                lines.append(
                    f"| {task} | {check.name} | {check.paper} | {check.measured} | {status} |"
                )
            lines.append("")
        if "fig5" in self.results:
            lines += [
                "## Utilization pattern mix (Fig. 5d)", "", "```",
                pattern_mix_table(self.results["fig5"]), "```", "",
            ]
        lines += [
            "## Temporal shapes (hourly, whole week)", "", "```",
            *shape_lines(store), "```", "",
        ]
        return "\n".join(lines)


def pattern_mix_table(fig5: ExperimentResult) -> str:
    """Fig. 5(d)'s measured pattern mix of both clouds as bar rows."""
    return mix_table(
        {"private": fig5.series["private_mix"], "public": fig5.series["public_mix"]}
    )


def shape_lines(store: TraceStore) -> list[str]:
    """Hourly VM-count and creation sparklines of each cloud that has VMs."""
    lines = []
    for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
        if store.vms(cloud=cloud):
            counts = dep.vm_count_series(store, cloud)
            creations = dep.vm_creation_series(store, cloud)
            lines.append(f"{cloud} VM count/hour   {sparkline(counts)}")
            lines.append(f"{cloud} creations/hour  {sparkline(creations)}")
    return lines


def _named_check(result: ExperimentResult, name: str) -> CheckResult:
    matches = [check for check in result.checks if check.name == name]
    if len(matches) != 1:
        raise KeyError(
            f"{result.experiment_id} has {len(matches)} checks named {name!r}"
        )
    return matches[0]


def evaluate_claims(
    store: TraceStore, title: str, groups: Mapping[str, Sequence[ClaimKey]]
) -> ClaimReport:
    """Run each shared-trace task ``groups`` names once; collect its named checks."""
    task_ids = dict.fromkeys(task for keys in groups.values() for task, _name in keys)
    results = {task_id: TASKS[task_id].runner(store) for task_id in task_ids}
    return ClaimReport(
        title=title,
        groups=tuple(
            ClaimGroup(
                name,
                tuple((task, _named_check(results[task], check)) for task, check in keys),
            )
            for name, keys in groups.items()
        ),
        results=results,
    )


def run_study(store: TraceStore) -> ClaimReport:
    """The paper's four insights, re-evaluated on one merged trace."""
    return evaluate_claims(store, "Cloud workload characterization", INSIGHTS)


def validate_trace(store: TraceStore) -> ClaimReport:
    """The calibration anchors on one merged trace."""
    return evaluate_claims(store, "Calibration scorecard", {"Calibration anchors": ANCHORS})
