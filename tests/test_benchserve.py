"""Tests for bench-serve in ``repro.bench``: its gate, request plans and CLI.

Mirrors ``tests/test_benchperf.py`` for the serving gate.  Everything but
``TestRunBenchServe`` is pure (no subprocesses, no sockets).
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro import bench
from repro.bench import (
    QUERY_MIX,
    SCHEMA_VERSION,
    _build_ops,
    _percentiles,
    compare,
    load_artifact,
    render,
    run_bench_serve,
    write_artifact,
)
from repro.cli import main

pytestmark = pytest.mark.serving


def artifact(**overrides) -> dict:
    """A minimal, internally consistent bench-serve artifact."""
    payload = {
        "bench": "serve",
        "schema_version": SCHEMA_VERSION,
        "seed": 7,
        "scale": 0.12,
        "clients": 4,
        "requests_per_client": 400,
        "speedup": 0.0,
        "calibration_s": 0.5,
        "replay": {"records": 1000, "batches": 10, "wall_s": 1.0},
        "service": {"vms": 100, "events": 900, "records": 40},
        "queries": [
            {"op": "pattern_for_vm", "count": 700, "ok": 650, "not_found": 50,
             "errors": 0, "mean_ms": 1.2, "p50_ms": 1.0, "p95_ms": 3.0,
             "p99_ms": 5.0},
            {"op": "stats", "count": 300, "ok": 300, "not_found": 0,
             "errors": 0, "mean_ms": 0.4, "p50_ms": 0.3, "p95_ms": 0.8,
             "p99_ms": 1.0},
        ],
        "total": {"requests": 1000, "errors": 0, "wall_s": 1.0, "qps": 1000.0,
                  "mean_ms": 1.0, "p50_ms": 0.8, "p95_ms": 2.5, "p99_ms": 4.5},
    }
    payload.update(overrides)
    return payload


def with_p99(base: dict, op: str, p99_ms: float) -> dict:
    candidate = copy.deepcopy(base)
    for row in candidate["queries"]:
        if row["op"] == op:
            row["p99_ms"] = p99_ms
    return candidate


class TestCompareToBaseline:
    def test_identical_artifacts_pass(self):
        result = compare(artifact(), artifact())
        assert result["ok"]
        assert result["failures"] == []
        assert result["machine_factor"] == 1.0
        assert "serve gate: ok" in render(artifact(), result)

    def test_p99_within_tolerance_passes(self):
        candidate = with_p99(artifact(), "pattern_for_vm", 9.0)  # +80% < 100%
        assert compare(candidate, artifact())["ok"]

    def test_p99_regression_fails(self):
        candidate = with_p99(artifact(), "pattern_for_vm", 11.0)  # +120%
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("pattern_for_vm" in f for f in result["failures"])
        assert "REGRESSED" in render(candidate, result)

    def test_noise_floor_skips_fast_ops(self):
        # stats baseline p99 is 1ms; even tripling it stays under the 2ms
        # floor, so the gate must not fire.
        candidate = with_p99(artifact(), "stats", 1.9)
        result = compare(candidate, artifact())
        assert result["ok"]
        stats_row = next(r for r in result["rows"] if r["id"] == "stats")
        assert not stats_row["gated"]

    def test_qps_drop_fails(self):
        candidate = artifact()
        candidate["total"] = dict(candidate["total"], qps=500.0)  # -50% > 40%
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("total.qps" in f for f in result["failures"])

    def test_calibration_normalizes_slower_machine(self):
        # Candidate machine is 2x slower: halved QPS and doubled tails are
        # exactly what the calibration predicts, so the gate passes.
        candidate = artifact(calibration_s=1.0)
        candidate["total"] = dict(candidate["total"], qps=500.0)
        for row in candidate["queries"]:
            row["p99_ms"] *= 2.0
        result = compare(candidate, artifact())
        assert result["ok"]
        assert result["machine_factor"] == 2.0

    def test_query_errors_fail(self):
        candidate = artifact()
        candidate["total"] = dict(candidate["total"], errors=3)
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("error" in f for f in result["failures"])

    def test_key_mismatch_fails(self):
        for key, value in (
            ("schema_version", 99),
            ("seed", 8),
            ("scale", 0.3),
            ("clients", 2),
            ("requests_per_client", 10),
        ):
            result = compare(artifact(**{key: value}), artifact())
            assert not result["ok"], key
            assert any(key in f for f in result["failures"]), key

    def test_query_mix_mismatch_fails(self):
        candidate = artifact()
        candidate["queries"] = candidate["queries"][:1]
        result = compare(candidate, artifact())
        assert not result["ok"]
        assert any("row list" in f for f in result["failures"])

    def test_missing_calibration_fails(self):
        result = compare(artifact(calibration_s=0.0), artifact())
        assert not result["ok"]
        assert any("calibration" in f for f in result["failures"])

    def test_speedup_mismatch_fails(self):
        """A paced run must not compare against the ingest-bound baseline."""
        result = compare(artifact(speedup=0), artifact(speedup=60))
        assert not result["ok"]
        assert any("speedup mismatch" in f for f in result["failures"])


class TestArtifactIO:
    def test_round_trip(self, tmp_path):
        path = write_artifact(artifact(), tmp_path / "BENCH_serve.json")
        assert load_artifact(path, "serve") == artifact()

    def test_rejects_other_artifacts(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({"bench": "perf"}))
        with pytest.raises(ValueError):
            load_artifact(path, "serve")


class TestRequestPlans:
    def test_plans_are_deterministic(self):
        vm_ids = list(range(100, 140))
        sub_ids = list(range(10, 20))
        a = _build_ops(np.random.default_rng(7000), 200, vm_ids, sub_ids)
        b = _build_ops(np.random.default_rng(7000), 200, vm_ids, sub_ids)
        assert a == b
        c = _build_ops(np.random.default_rng(7001), 200, vm_ids, sub_ids)
        assert a != c

    def test_plans_cover_the_mix(self):
        plan = _build_ops(
            np.random.default_rng(1), 500, list(range(10)), list(range(3))
        )
        ops = {op for op, _ in plan}
        assert ops == {name for name, _ in QUERY_MIX}
        for op, args in plan:
            if op == "pattern_for_vm":
                assert isinstance(args["vm_id"], int)
            elif op == "spot_eligibility":
                assert isinstance(args["subscription_id"], int)
            elif op == "allocation_failure_risk":
                assert set(args) == {"cloud", "load_fraction", "recent_creations"}

    def test_percentiles_shape(self):
        stats = _percentiles([1.0, 2.0, 3.0, 4.0])
        assert set(stats) == {"mean_ms", "p50_ms", "p95_ms", "p99_ms"}
        assert stats["p50_ms"] == 2.5


class TestWriteBaseline:
    def test_query_errors_leave_baseline_untouched(self, tmp_path, monkeypatch):
        baseline = tmp_path / "BENCH_serve.json"
        baseline.write_text("committed\n")
        bad = artifact()
        bad["queries"][0]["errors"] = 2
        bad["total"] = dict(bad["total"], errors=2)
        monkeypatch.setattr(bench, "run_bench_serve", lambda **_: bad)
        code = main([
            "bench-serve", "--cache-dir", str(tmp_path),
            "--baseline", str(baseline), "--write-baseline",
        ])
        assert code == 1
        assert baseline.read_text() == "committed\n"


class TestRunBenchServe:
    def test_smoke_run_compares_ok_against_itself(self, tmp_path):
        """The smallest end-to-end pass: service, replay, one client."""
        payload = run_bench_serve(
            seed=7, scale=0.03, clients=1, requests_per_client=20,
            cache_dir=tmp_path,
        )
        path = write_artifact(payload, tmp_path / "BENCH_serve.json")
        loaded = load_artifact(path, "serve")
        assert loaded["total"]["requests"] == 20
        assert loaded["total"]["errors"] == 0
        assert loaded["speedup"] == bench.SERVE_SPEEDUP
        assert compare(loaded, loaded)["ok"]
