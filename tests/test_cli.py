"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_docs_quote_only_real_flags():
    """Every ``--flag`` the docs mention is an option of some CLI verb."""
    parser = build_parser()
    (verbs,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    real = {
        option
        for sub in [parser, *verbs.choices.values()]
        for action in sub._actions
        for option in action.option_strings
    }
    docs = Path(__file__).resolve().parent.parent / "docs"
    stale = sorted(
        f"{doc.name}: {flag}"
        for doc in sorted(docs.glob("*.md"))
        for flag in set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", doc.read_text()))
        if flag not in real
    )
    assert not stale, f"docs quote flags no CLI verb accepts: {stale}"


REPO_ROOT = Path(__file__).resolve().parent.parent

#: A backticked repo path: two or more ``/``-separated segments of path
#: characters (``*`` globs allowed) ending in a file extension or a ``/``,
#: optionally followed by a ``::node`` test id.
_DOC_PATH = re.compile(r"`([\w.*-]*/[\w./*-]*?(?:\.\w+|/))(?:::[^`\s]+)?`")


def test_docs_cite_only_real_paths():
    """Every repo path README, DESIGN and docs/ cite in backticks exists."""
    docs = [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        *sorted((REPO_ROOT / "docs").glob("*.md")),
    ]
    bases = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro")
    missing = sorted(
        f"{doc.name}: {path}"
        for doc in docs
        for path in set(_DOC_PATH.findall(doc.read_text()))
        if not any(next(base.glob(path), None) for base in bases)
    )
    assert not missing, f"docs cite paths that do not exist: {missing}"


def test_ci_requirements_cover_every_third_party_import():
    """``.github/requirements-ci.txt`` lists every package src/ and tests/ import."""
    first_party = {"repro", "tests"}
    imported: dict[str, str] = {}
    sources = [*(REPO_ROOT / "src").rglob("*.py"), *(REPO_ROOT / "tests").rglob("*.py")]
    for source in sorted(sources):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in first_party:
                    imported.setdefault(top, str(source.relative_to(REPO_ROOT)))
    listed = {
        re.split(r"[\s<>=!~;\[]", line.strip(), maxsplit=1)[0].lower().replace("-", "_")
        for line in (REPO_ROOT / ".github" / "requirements-ci.txt").read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    }
    unlisted = sorted(
        f"{top} (imported by {path})" for top, path in imported.items() if top not in listed
    )
    assert not unlisted, f"requirements-ci.txt misses: {unlisted}"


def test_case_study_command(capsys):
    code = main(["case-study", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Canada" in out
    assert "PASS" in out


def test_generate_and_study_round_trip(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    code = main(
        ["generate", "--seed", "3", "--scale", "0.05", "--out", str(trace_dir)]
    )
    assert code == 0
    assert (trace_dir / "vms" / "vm_id.npy").exists()

    # Reuse the saved trace for the knowledge-base command.
    kb_path = tmp_path / "kb.json"
    code = main(["kb", "--trace", str(trace_dir), "--out", str(kb_path)])
    assert code == 0
    payload = json.loads(kb_path.read_text())
    assert payload
    out = capsys.readouterr().out
    assert "private" in out


def test_generate_refuses_an_old_trace_directory(tmp_path, capsys):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    (trace_dir / "vms.jsonl").write_text("{}\n")  # a format-2 trace's file
    code = main(["generate", "--seed", "3", "--scale", "0.05", "--out", str(trace_dir)])
    assert code == 1
    assert "is not empty" in capsys.readouterr().err
    assert [path.name for path in trace_dir.iterdir()] == ["vms.jsonl"]


def test_kb_sample_flag(tmp_path, capsys):
    code = main(["kb", "--seed", "3", "--scale", "0.05", "--sample", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "policy recommendations" in out


def test_optimize_command(capsys):
    code = main(["optimize", "--seed", "3", "--scale", "0.08"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Workload-aware optimization report" in out


def test_validate_command(capsys):
    code = main(["validate", "--seed", "7", "--scale", "0.15"])
    out = capsys.readouterr().out
    assert "Calibration scorecard" in out
    assert code == 0, out


def test_experiments_manifest_and_exit_gate(tmp_path, capsys):
    """Failing shape checks must surface as a nonzero exit plus manifest rows.

    Scale 0.05 is deliberately too thin for ~5 checks, so this exercises
    the CI gate path: exit code 1, `passed: false` rows in the manifest.
    """
    from repro.experiments.config import clear_trace_cache
    from repro.experiments.runner import load_manifest

    clear_trace_cache()
    manifest_path = tmp_path / "manifest.json"
    code = main(
        [
            "experiments", "--seed", "7", "--scale", "0.05", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "Reproduced" in out
    manifest = load_manifest(manifest_path)
    assert manifest["totals"]["failed"] > 0
    assert any(not row["passed"] for row in manifest["experiments"])


def test_experiments_manifest_default_path_next_to_md(tmp_path):
    """Bare --manifest lands next to the EXPERIMENTS.md being written."""
    from repro.experiments.config import clear_trace_cache
    from repro.experiments.runner import load_manifest

    clear_trace_cache()
    md_path = tmp_path / "EXPERIMENTS.md"
    main(
        [
            "experiments", "--seed", "7", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--write-md", str(md_path), "--manifest",
        ]
    )
    assert md_path.exists()
    manifest = load_manifest(tmp_path / "manifest.json")
    assert manifest["config"]["scale"] == 0.05
    assert len(manifest["experiments"]) == manifest["totals"]["experiments"]


def test_experiments_metrics_snapshot_matches_manifest(tmp_path):
    """--metrics dumps the run snapshot; per-task walls must match the manifest."""
    from repro.experiments.config import clear_trace_cache
    from repro.experiments.runner import METRICS_SCHEMA_VERSION, load_manifest

    clear_trace_cache()
    manifest_path = tmp_path / "manifest.json"
    metrics_path = tmp_path / "metrics.json"
    main(
        [
            "run", "--seed", "7", "--scale", "0.05", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest_path),
            "--metrics", str(metrics_path),
        ]
    )
    metrics = json.loads(metrics_path.read_text())
    assert metrics["schema_version"] == METRICS_SCHEMA_VERSION
    counters = metrics["counters"]
    assert counters.get("cache.hit", 0) + counters.get("cache.miss", 0) >= 1
    manifest = load_manifest(manifest_path)
    assert manifest["metrics"] == metrics
    rows = {row["id"]: row for row in manifest["experiments"]}
    assert set(metrics["tasks"]) == set(rows)
    for task_id, task in metrics["tasks"].items():
        assert task["wall_time_s"] == rows[task_id]["wall_time_s"]
        assert any(s["name"] == "task.run" for s in task["spans"])


def test_experiments_profile_writes_pstats(tmp_path):
    import pstats

    from repro.experiments.config import clear_trace_cache

    clear_trace_cache()
    profile_path = tmp_path / "run.pstats"
    main(
        [
            "experiments", "--seed", "7", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--profile", str(profile_path),
        ]
    )
    assert profile_path.exists()
    stats = pstats.Stats(str(profile_path))
    assert stats.total_calls > 0
