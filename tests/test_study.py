"""Tests for ``repro study``: the paper's four insights over registry checks."""

from __future__ import annotations

import pytest

from repro.experiments.claims import INSIGHTS, run_study


@pytest.fixture(scope="module")
def study(medium_trace):
    return run_study(medium_trace)


def test_all_four_insights_hold(study):
    assert [group.name for group in study.groups] == list(INSIGHTS)
    assert len(study.groups) == 4
    for group in study.groups:
        assert group.passed, study.render()
    assert study.passed


def test_report_renders(study):
    report = study.render()
    assert report.startswith("Cloud workload characterization: 8/8 checks pass")
    assert "[HOLDS] Insight 1" in report and "[HOLDS] Insight 4" in report
    assert "fig7a [PASS] private median correlation much higher" in report
