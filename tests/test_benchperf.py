"""Tests for bench-perf in ``repro.bench``: its gate, determinism and CLI."""

from __future__ import annotations

import copy

import pytest

from repro import bench
from repro.bench import (
    SCHEMA_VERSION,
    compare,
    load_artifact,
    render,
    run_bench_perf,
)
from repro.cli import main


def artifact(**overrides) -> dict:
    """A minimal, internally consistent bench-perf artifact."""
    payload = {
        "bench": "perf",
        "schema_version": SCHEMA_VERSION,
        "seed": 7,
        "scale": 0.12,
        "repeats": 3,
        "calibration_s": 0.5,
        "tasks": [
            {"id": "fig1a", "status": "ok", "median_s": 1.0, "samples_s": [1.0]},
            {"id": "fig7a", "status": "ok", "median_s": 4.0, "samples_s": [4.0]},
            {"id": "tiny", "status": "ok", "median_s": 0.01, "samples_s": [0.01]},
        ],
        "total_s": 5.01,
        "kernels": [],
    }
    payload.update(overrides)
    return payload


def with_task_times(base: dict, times: dict[str, float]) -> dict:
    candidate = copy.deepcopy(base)
    for task in candidate["tasks"]:
        if task["id"] in times:
            task["median_s"] = times[task["id"]]
    candidate["total_s"] = round(sum(t["median_s"] for t in candidate["tasks"]), 6)
    return candidate


class TestCompareToBaseline:
    def test_identical_artifacts_pass(self):
        result = compare(artifact(), artifact())
        assert result["ok"]
        assert result["failures"] == []
        assert result["machine_factor"] == 1.0
        assert "perf gate: ok" in render(artifact(), result)

    def test_within_tolerance_passes(self):
        candidate = with_task_times(artifact(), {"fig1a": 1.15})  # +15% < 20%
        assert compare(candidate, artifact())["ok"]

    def test_per_task_regression_fails(self):
        candidate = with_task_times(artifact(), {"fig7a": 5.0})  # +25%
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("fig7a" in f for f in result["failures"])
        assert "REGRESSED" in render(candidate, result)

    def test_total_regression_fails_even_when_tasks_pass(self):
        # Every task up 12%: under the 20% per-task bar, over the 10% total.
        candidate = with_task_times(
            artifact(), {"fig1a": 1.12, "fig7a": 4.48, "tiny": 0.0112}
        )
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("total_s" in f for f in result["failures"])

    def test_calibration_normalizes_slower_machine(self):
        # 2x slower machine, 2x slower tasks: no relative regression.
        candidate = with_task_times(
            artifact(calibration_s=1.0), {"fig1a": 2.0, "fig7a": 8.0, "tiny": 0.02}
        )
        result = compare(candidate, artifact())
        assert result["ok"]
        assert result["machine_factor"] == 2.0

    def test_noise_floor_skips_tiny_tasks(self):
        # 3x regression on a 10ms task is timer noise, not a perf bug.
        candidate = with_task_times(artifact(), {"tiny": 0.03})
        result = compare(candidate, artifact())
        assert result["ok"]
        (tiny_row,) = [r for r in result["rows"] if r["id"] == "tiny"]
        assert not tiny_row["gated"]

    def test_total_under_noise_floor_is_not_gated(self):
        # A one-task run totals a few ms: +50% there is timer noise.
        base = artifact(tasks=[artifact()["tasks"][2]], total_s=0.01)
        candidate = with_task_times(base, {"tiny": 0.015})
        result = compare(candidate, base)
        assert result["ok"]
        (total_row,) = [r for r in result["rows"] if r["field"] == "total_s"]
        assert not total_row["gated"]

    def test_total_over_noise_floor_is_gated(self):
        # Just above the 50 ms floor the +10% total bar applies again.
        base = artifact(tasks=[artifact()["tasks"][2]], total_s=0.01)
        base = with_task_times(base, {"tiny": 0.049})
        candidate = with_task_times(base, {"tiny": 0.056})  # +14%
        result = compare(candidate, base)
        assert not result["ok"]
        (total_row,) = [r for r in result["rows"] if r["field"] == "total_s"]
        assert total_row["gated"]
        assert any(f.startswith("total_s:") for f in result["failures"])

    def test_schema_version_mismatch_fails(self):
        result = compare(
            artifact(schema_version=SCHEMA_VERSION + 1), artifact()
        )
        assert not result["ok"]
        assert any("schema_version" in f for f in result["failures"])

    def test_seed_and_scale_mismatch_fails(self):
        assert not compare(artifact(seed=8), artifact())["ok"]
        assert not compare(artifact(scale=0.3), artifact())["ok"]

    def test_task_list_mismatch_fails(self):
        candidate = artifact()
        candidate["tasks"] = candidate["tasks"][:-1]
        candidate["total_s"] = 5.0
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("row list" in f for f in result["failures"])

    def test_non_ok_status_fails(self):
        candidate = artifact()
        candidate["tasks"][0]["status"] = "failed"
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("status" in f for f in result["failures"])

    def test_missing_calibration_fails(self):
        result = compare(artifact(calibration_s=0.0), artifact())
        assert not result["ok"]
        assert any("calibration" in f for f in result["failures"])


class TestRunBenchPerf:
    def test_rejects_zero_repeats(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench_perf(repeats=0, cache_dir=tmp_path)

    def test_two_runs_agree_on_tasks_and_schema(self, tmp_path):
        """Determinism: re-running yields the same task list and artifact shape.

        Wall-times legitimately differ between runs; everything else --
        task identities, ordering, statuses, schema fields -- must not.
        One cheap task and repeats=1 keep this a smoke-scale run.
        """
        kwargs = dict(
            seed=7, scale=0.12, repeats=1, cache_dir=tmp_path, task_ids=["fig1a"]
        )
        first = run_bench_perf(**kwargs)
        second = run_bench_perf(**kwargs)
        for payload in (first, second):
            assert payload["bench"] == "perf"
            assert payload["schema_version"] == SCHEMA_VERSION
            assert set(payload) == {
                "bench", "schema_version", "seed", "scale", "repeats",
                "machine", "calibration_s", "tasks", "total_s", "kernels",
            }
            assert [k["name"] for k in payload["kernels"]] == [
                "pairwise_pearson", "classify_block"
            ]
            assert all(k["outputs_identical"] for k in payload["kernels"])
        assert [t["id"] for t in first["tasks"]] == ["fig1a"]
        assert [t["id"] for t in first["tasks"]] == [t["id"] for t in second["tasks"]]
        assert [t["status"] for t in first["tasks"]] == [
            t["status"] for t in second["tasks"]
        ]
        # And the comparison machinery accepts a self-comparison end-to-end.
        assert compare(second, first)["ok"]


class TestLoadArtifact:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        import json

        path.write_text(json.dumps(artifact()))
        assert load_artifact(path, "perf")["total_s"] == 5.01

    def test_rejects_other_artifacts(self, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        path.write_text('{"bench": "scale"}')
        with pytest.raises(ValueError):
            load_artifact(path, "perf")


class TestWriteBaseline:
    """``--write-baseline`` refuses a run that failed on its own."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"kernels": [{"name": "pairwise_pearson", "scalar_s": 1.0, "batched_s": 0.5,
                          "speedup": 2.0, "outputs_identical": False}]},
            {"tasks": [{"id": "fig1a", "status": "failed", "median_s": 1.0,
                        "samples_s": [1.0]}], "total_s": 1.0},
        ],
        ids=["kernel-drift", "failed-task"],
    )
    def test_bad_run_leaves_baseline_untouched(self, tmp_path, monkeypatch, bad):
        baseline = tmp_path / "BENCH_perf.json"
        baseline.write_text("committed\n")
        monkeypatch.setattr(bench, "run_bench_perf", lambda **_: artifact(**bad))
        code = main([
            "bench-perf", "--cache-dir", str(tmp_path),
            "--baseline", str(baseline), "--write-baseline",
        ])
        assert code == 1
        assert baseline.read_text() == "committed\n"

    def test_good_run_is_written(self, tmp_path, monkeypatch):
        baseline = tmp_path / "BENCH_perf.json"
        monkeypatch.setattr(bench, "run_bench_perf", lambda **_: artifact())
        code = main([
            "bench-perf", "--cache-dir", str(tmp_path),
            "--baseline", str(baseline), "--write-baseline",
        ])
        assert code == 0
        assert load_artifact(baseline, "perf") == artifact()
