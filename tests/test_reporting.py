"""Tests for the markdown rendering of ``repro study``."""

from __future__ import annotations

import pytest

from repro.experiments.claims import run_study


@pytest.fixture(scope="module")
def study(medium_trace):
    return run_study(medium_trace)


@pytest.fixture(scope="module")
def text(study, medium_trace):
    return study.markdown(medium_trace)


def test_markdown_structure(text):
    assert text.startswith("# Cloud workload characterization")
    assert "## ✅ Insight 1: private deployments are larger" in text
    assert "| Task | Check | Paper | Measured | Status |" in text
    assert "| fig3d | private CVs larger across regions |" in text
    assert "## Utilization pattern mix (Fig. 5d)" in text


def test_all_insights_marked_passing(text):
    # All four insights hold on the calibrated trace.
    assert text.count("✅") == 4
    assert "❌" not in text
    assert "| FAIL |" not in text


def test_sparklines_with_store(text):
    assert "## Temporal shapes" in text
    assert "private VM count/hour" in text and "public creations/hour" in text


def test_study_cli_markdown_flag(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "study.md"
    code = main(["study", "--seed", "3", "--scale", "0.12", "--markdown", str(out)])
    assert code == 0
    assert "## Temporal shapes" in out.read_text()
    assert "markdown report written" in capsys.readouterr().out
