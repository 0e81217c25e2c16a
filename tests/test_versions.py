"""Every version constant agrees with the committed artifact or doc it versions.

Schema-versioned contracts exist so that mismatched producers and
consumers refuse to compare instead of guessing.  That only works while
the literals agree, so bump the constant, the committed artifact and the
docs together.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.bench import SCHEMA_VERSION
from repro.experiments.runner import MANIFEST_SCHEMA_VERSION
from repro.telemetry.io import TRACE_FORMAT_VERSION
from repro.workloads.generator import GENERATOR_VERSION

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "artifact, version",
    [
        ("BENCH_perf.json", SCHEMA_VERSION),
        ("BENCH_scale.json", SCHEMA_VERSION),
        ("BENCH_serve.json", SCHEMA_VERSION),
    ],
)
def test_committed_artifact_records_the_code_version(artifact, version):
    document = json.loads((REPO_ROOT / artifact).read_text())
    assert document["schema_version"] == version


@pytest.mark.parametrize(
    "doc, pattern, version",
    [
        ("docs/PIPELINE.md", r'"schema_version":\s*(\d+)', MANIFEST_SCHEMA_VERSION),
        ("docs/PIPELINE.md", r'"generator_version":\s*"([^"]+)"', GENERATOR_VERSION),
        ("docs/TRACE_FORMAT.md", r"format v(\d+) \(current\)", TRACE_FORMAT_VERSION),
    ],
)
def test_docs_quote_the_code_version(doc, pattern, version):
    match = re.search(pattern, (REPO_ROOT / doc).read_text())
    assert match is not None, f"{doc} no longer quotes {pattern!r}"
    assert match.group(1) == str(version)
