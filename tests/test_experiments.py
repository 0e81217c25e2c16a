"""Integration tests: every paper figure/table reproduces on a shared trace."""

from __future__ import annotations

import pytest

from repro.experiments import case_study, fig1, fig2, fig3, fig4, fig5, fig6, fig7, implications
from repro.experiments.base import CheckResult, ExperimentResult
from repro.experiments.runner import PAPER_ARTIFACTS, render_report, write_experiments_md
from repro.telemetry.io import load_trace, save_trace
from repro.workloads.generator import GeneratorConfig, generate_trace_pair


@pytest.fixture(scope="module")
def store(medium_trace):
    return medium_trace


def _assert_all_pass(result):
    for check in result.checks:
        assert check.passed, f"{result.experiment_id}: {check.render()}"


def test_fig1a(store):
    _assert_all_pass(fig1.run_fig1a(store))


def test_fig1b(store):
    _assert_all_pass(fig1.run_fig1b(store))


def test_fig2(store):
    _assert_all_pass(fig2.run(store))


def test_fig3a(store):
    _assert_all_pass(fig3.run_fig3a(store))


def test_fig3b(store):
    _assert_all_pass(fig3.run_fig3b(store))


def test_fig3c(store):
    _assert_all_pass(fig3.run_fig3c(store))


def test_fig3d(store):
    _assert_all_pass(fig3.run_fig3d(store))


def test_fig4a(store):
    _assert_all_pass(fig4.run_fig4a(store))


def test_fig4b(store):
    _assert_all_pass(fig4.run_fig4b(store))


def test_fig5(store):
    _assert_all_pass(fig5.run(store, max_vms=500))


def test_fig6(store):
    _assert_all_pass(fig6.run(store, max_vms=800))


def test_fig7a(store):
    _assert_all_pass(fig7.run_fig7a(store))


def test_fig7b(store):
    _assert_all_pass(fig7.run_fig7b(store))


def test_fig7c(store):
    _assert_all_pass(fig7.run_fig7c(store))


def test_im1_oversubscription(store):
    _assert_all_pass(implications.run_oversubscription(store, max_candidates=300))


def test_im2_spot(store):
    _assert_all_pass(implications.run_spot(store))


def test_case_study():
    _assert_all_pass(case_study.run(seed=11))


def test_every_experiment_has_paper_artifact_mapping(store):
    results = [fig1.run_fig1a(store), fig1.run_fig1b(store), fig2.run(store)]
    for result in results:
        assert result.experiment_id in PAPER_ARTIFACTS


class TestHarness:
    def test_check_result_render(self):
        check = CheckResult("name", True, "p", "m")
        assert "PASS" in check.render()
        assert "FAIL" in CheckResult("n", False, "p", "m").render()

    def test_experiment_result_passed(self):
        result = ExperimentResult("x", "t")
        assert result.passed  # vacuous
        result.check("a", True, "p", "m")
        assert result.passed
        result.check("b", False, "p", "m")
        assert not result.passed

    def test_render_report(self, store):
        results = [fig1.run_fig1a(store)]
        report = render_report(results)
        assert "fig1a" in report

    def test_write_experiments_md(self, store, tmp_path):
        results = [fig1.run_fig1a(store), fig2.run(store)]
        path = write_experiments_md(results, tmp_path / "EXP.md")
        text = path.read_text()
        assert "fig1a" in text
        assert "Figure 2" in text
        assert "| Check | Paper | Measured | Status |" in text


def test_fig3c_removals(store):
    _assert_all_pass(fig3.run_fig3c_removals(store))


@pytest.mark.parametrize("seed, region", [(7, "us-east"), (6, "us-east2")])
def test_single_region_panels_sample_a_region_both_clouds_use(tmp_path, seed, region):
    """Seed 6 leaves private ``us-east`` empty, so its panels move to ``us-east2``.

    The sample follows ``store.regions`` order, which a save/load round trip
    must keep.
    """
    config = GeneratorConfig(seed=seed, scale=0.12, synthesize_utilization=False)
    generated = generate_trace_pair(config)
    store = load_trace(save_trace(generated, tmp_path / "trace"))
    assert list(store.regions) == list(generated.regions)
    assert fig3.sample_region(store) == region
    for run in (fig3.run_fig3b, fig3.run_fig3c, fig3.run_fig3c_removals):
        result = run(store)
        assert result.series and result.checks
