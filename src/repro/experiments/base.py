"""Common result types for the experiment harness."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


def _jsonable(value: Any) -> Any:
    """JSON fallback for series payloads: arrays as lists, records as dicts."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return repr(value)


@dataclass(frozen=True)
class CheckResult:
    """One paper-vs-measured shape check."""

    name: str
    passed: bool
    paper: str
    measured: str

    def render(self) -> str:
        """One-line rendering."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: paper={self.paper} measured={self.measured}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (used by the run manifest)."""
        return {
            "name": self.name,
            "passed": self.passed,
            "paper": self.paper,
            "measured": self.measured,
        }


@dataclass
class ExperimentResult:
    """Outcome of reproducing one figure/table."""

    experiment_id: str
    title: str
    checks: list[CheckResult] = field(default_factory=list)
    #: Named numeric outputs (CDF points, series, box stats) for plotting.
    series: dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    @property
    def passed(self) -> bool:
        """Whether every shape check passed."""
        return all(check.passed for check in self.checks)

    def check(self, name: str, passed: bool, paper: str, measured: str) -> None:
        """Append one check."""
        self.checks.append(
            CheckResult(name=name, passed=bool(passed), paper=paper, measured=measured)
        )

    def render(self) -> str:
        """Multi-line text rendering for the console and EXPERIMENTS.md."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for check in self.checks:
            lines.append("  " + check.render())
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    def digest(self) -> str:
        """sha256 of the canonical JSON of the checks and series.

        Two results with equal digests gave the same answers: every check
        (name, verdict, paper and measured text) and every series value.
        The manifest records it per row.
        """
        payload = {
            "checks": [check.to_dict() for check in self.checks],
            "series": self.series,
        }
        blob = json.dumps(payload, sort_keys=True, default=_jsonable)
        return hashlib.sha256(blob.encode()).hexdigest()
