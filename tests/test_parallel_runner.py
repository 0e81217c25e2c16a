"""Tests for the declarative registry, parallel executor, and run manifest."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import parallel
from repro.experiments.base import ExperimentResult
from repro.experiments.config import ExperimentConfig, clear_trace_cache
from repro.experiments.runner import (
    MANIFEST_SCHEMA_VERSION,
    PAPER_ARTIFACTS,
    load_manifest,
    run_pipeline,
    validate_manifest,
    write_manifest,
)

#: Small but sufficient for every experiment to *execute* (some shape
#: checks legitimately fail at this scale; equality across job counts is
#: what these tests assert).
CONFIG = ExperimentConfig(seed=7, scale=0.05)


@pytest.fixture(autouse=True)
def _isolated_memo():
    clear_trace_cache()
    yield
    clear_trace_cache()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Serial-cold, jobs=2-warm, and serial-warm pipeline runs, shared cache."""
    clear_trace_cache()
    cache_dir = tmp_path_factory.mktemp("pipeline-cache")
    serial = run_pipeline(CONFIG, jobs=1, cache_dir=cache_dir)
    clear_trace_cache()
    parallel_report = run_pipeline(CONFIG, jobs=2, cache_dir=cache_dir)
    clear_trace_cache()
    serial_warm = run_pipeline(CONFIG, jobs=1, cache_dir=cache_dir)
    return serial, parallel_report, serial_warm


def _comparable(results: list[ExperimentResult]) -> list[tuple[str, str]]:
    """Each result's id and digest, which covers its checks *and* series."""
    return [(result.experiment_id, result.digest()) for result in results]


class TestRegistry:
    def test_ids_unique_and_complete(self):
        ids = [task.task_id for task in parallel.REGISTRY]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(PAPER_ARTIFACTS)

    def test_paper_artifacts_come_from_registry(self):
        for task in parallel.REGISTRY:
            assert PAPER_ARTIFACTS[task.task_id] == task.paper_artifact

    def test_results_match_task_ids(self, reports):
        serial, _, _ = reports
        for outcome in serial.outcomes:
            assert outcome.result.experiment_id == outcome.task_id

    def test_unknown_task_id_rejected(self):
        with pytest.raises(KeyError, match="no-such-task"):
            parallel.execute(CONFIG, task_ids=["no-such-task"])

    def test_task_subset_runs_in_registry_order(self, tmp_path):
        outcomes = parallel.execute(
            CONFIG, task_ids=["fig2", "fig1a"], cache_dir=tmp_path
        )
        assert [o.task_id for o in outcomes] == ["fig1a", "fig2"]


class TestParallelDeterminism:
    def test_jobs2_equals_serial(self, reports):
        serial, parallel_report, _ = reports
        assert _comparable(serial.results) == _comparable(parallel_report.results)

    def test_manifest_equal_modulo_walltimes(self, reports):
        serial, parallel_report, _ = reports

        def strip(manifest: dict) -> dict:
            stripped = json.loads(json.dumps(manifest))
            stripped["jobs"] = None
            stripped["totals"]["wall_time_s"] = None
            stripped["trace"] = {**stripped["trace"], "hit": None, "source": None}
            # Cold vs warm runs legitimately differ in metrics (miss vs hit
            # counters, synthesis spans); warm-vs-warm equality is asserted
            # separately in test_metrics_equal_across_job_counts.
            stripped["metrics"] = None
            for row in stripped["experiments"]:
                row["wall_time_s"] = None
                row["trace_cache"] = None
            return stripped

        assert strip(serial.manifest) == strip(parallel_report.manifest)

    def test_metrics_equal_across_job_counts(self, reports):
        """Warm jobs=2 and warm jobs=1 runs emit identical metrics modulo timing.

        Worker deltas are merged into the parent registry in registry order,
        so the counters/histograms (and the span *structure*) must be
        byte-identical between job counts once the trace cache is warm.
        """
        _, parallel_report, serial_warm = reports

        def strip_timings(metrics: dict) -> dict:
            stripped = json.loads(json.dumps(metrics))

            def strip_spans(spans: list[dict]) -> list[dict]:
                for entry in spans:
                    entry["wall_s"] = None
                    entry["peak_rss_delta_kb"] = None
                return spans

            strip_spans(stripped.get("spans", []))
            for task in stripped.get("tasks", {}).values():
                task["wall_time_s"] = None
                task["trace_fetch_s"] = None
                strip_spans(task.get("spans", []))
            return stripped

        assert strip_timings(serial_warm.metrics) == strip_timings(
            parallel_report.metrics
        )


class TestManifest:
    def test_cold_run_records_miss(self, reports):
        serial, _, _ = reports
        assert not serial.trace_info.hit
        assert serial.manifest["trace"]["source"] == "generated"
        rows = {row["id"]: row for row in serial.manifest["experiments"]}
        assert rows["fig1a"]["trace_cache"] == "miss"

    def test_warm_run_skips_synthesis(self, reports):
        _, warm, _ = reports
        assert warm.trace_info.hit
        assert warm.manifest["trace"]["hit"] is True
        assert warm.manifest["trace"]["source"] == "disk"
        for row in warm.manifest["experiments"]:
            expected = "hit" if parallel.TASKS[row["id"]].uses_shared_trace else "n/a"
            assert row["trace_cache"] == expected

    def test_schema_fields(self, reports):
        serial, _, _ = reports
        manifest = serial.manifest
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["config"] == {"seed": CONFIG.seed, "scale": CONFIG.scale}
        assert manifest["config_hash"] == CONFIG.config_hash()
        totals = manifest["totals"]
        assert totals["experiments"] == len(parallel.REGISTRY)
        assert totals["passed"] + totals["failed"] == totals["experiments"]
        for row in manifest["experiments"]:
            assert row["paper_artifact"] == PAPER_ARTIFACTS[row["id"]]
            assert row["checks_passed"] <= row["checks_total"]
            assert row["wall_time_s"] >= 0
            assert (row["checks_passed"] == row["checks_total"]) == row["passed"]
            assert len(row["digest"]) == 64

    def test_round_trip(self, reports, tmp_path):
        serial, _, _ = reports
        path = write_manifest(serial.manifest, tmp_path / "manifest.json")
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(serial.manifest))

    def test_validate_rejects_missing_keys(self, reports):
        serial, _, _ = reports
        broken = json.loads(json.dumps(serial.manifest))
        del broken["totals"]
        with pytest.raises(ValueError, match="totals"):
            validate_manifest(broken)

    def test_validate_rejects_wrong_schema_version(self, reports):
        serial, _, _ = reports
        broken = json.loads(json.dumps(serial.manifest))
        broken["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest(broken)

    def test_validate_rejects_inconsistent_totals(self, reports):
        serial, _, _ = reports
        broken = json.loads(json.dumps(serial.manifest))
        broken["totals"]["passed"] += 1
        with pytest.raises(ValueError, match="inconsistent"):
            validate_manifest(broken)

    def test_validate_rejects_bad_row(self, reports):
        serial, _, _ = reports
        broken = json.loads(json.dumps(serial.manifest))
        del broken["experiments"][0]["wall_time_s"]
        with pytest.raises(ValueError, match="wall_time_s"):
            validate_manifest(broken)


class TestResultSerialization:
    def test_digest_covers_checks_and_series(self):
        def result(measured: str, value: float) -> ExperimentResult:
            r = ExperimentResult("x", "t", series={"cdf": np.array([0.5, value])})
            r.check("c", True, "p", measured)
            return r

        base = result("1.0", 1.0).digest()
        assert result("1.0", 1.0).digest() == base
        assert result("1.0", 0.9).digest() != base
        assert result("1.1", 1.0).digest() != base

    def test_experiment_result_round_trip(self, reports):
        serial, _, _ = reports
        for result in serial.results:
            clone = ExperimentResult.from_dict(result.to_dict())
            assert clone.experiment_id == result.experiment_id
            assert clone.passed == result.passed
            assert [c.render() for c in clone.checks] == [c.render() for c in result.checks]
