"""Tests for bench-scale in ``repro.bench``: the generate + analyze phases."""

from __future__ import annotations

import copy

from repro.bench import (
    SCHEMA_VERSION,
    compare,
    load_artifact,
    problems,
    run_bench_scale,
    write_artifact,
)


def test_smoke_run_compares_ok_against_itself(tmp_path):
    payload = run_bench_scale(
        seed=7, scale=0.03, cache_dir=tmp_path / "cache", task_ids=["fig1a"]
    )
    path = write_artifact(payload, tmp_path / "BENCH_scale.json")
    loaded = load_artifact(path, "scale")
    assert loaded["schema_version"] == SCHEMA_VERSION
    assert set(loaded["phases"]) == {"generate", "analyze"}
    assert [t["id"] for t in loaded["phases"]["analyze"]["tasks"]] == ["fig1a"]
    assert loaded["passed"] and problems(loaded) == []
    assert compare(loaded, loaded)["ok"]

    over = copy.deepcopy(loaded)
    over["within_budget"] = False
    assert any("budget" in p for p in problems(over))
    assert not compare(over, loaded)["ok"]
