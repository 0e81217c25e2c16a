"""The answers do not depend on the process that computes them.

Two subprocesses run the same script concurrently, one under
``PYTHONHASHSEED=0`` and one under ``PYTHONHASHSEED=1``, each with a fresh
trace cache.  The script generates seed 7 at scale 0.05, runs all 19
registry tasks and builds the knowledge-base snapshot, then prints three
fingerprints: the saved trace's ``checksums.json``, every task's
``ExperimentResult.digest()`` (from the run manifest) and the sha256 of
``WorkloadKnowledgeBase.to_json()``.  Unseeded randomness, a clock read
that reaches a check or series, or an answer ordered by ``set``/``dict``
hash order makes the two processes disagree.

Run directly (``python tests/test_determinism.py CACHE_DIR``) to print
one process's fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "1")


def fingerprints(cache_dir: Path) -> dict:
    """One process's trace checksums, task digests and KB hash."""
    from repro.core.knowledge_base import WorkloadKnowledgeBase
    from repro.experiments.config import ExperimentConfig, get_trace
    from repro.experiments.runner import run_pipeline

    config = ExperimentConfig(seed=7, scale=0.05)
    report = run_pipeline(config, jobs=1, cache_dir=cache_dir)
    store = get_trace(config, cache_dir=cache_dir)
    kb_json = WorkloadKnowledgeBase.from_trace(store).to_json()
    return {
        "trace_checksums": json.loads(
            (Path(report.trace_info.path) / "checksums.json").read_text()
        ),
        "task_digests": {row["id"]: row["digest"] for row in report.manifest["experiments"]},
        "kb_sha256": hashlib.sha256(kb_json.encode()).hexdigest(),
    }


def test_answers_identical_across_hash_seeds(tmp_path):
    pythonpath = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / f"cache-{seed}")],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    outputs = []
    for seed, proc in zip(HASH_SEEDS, procs, strict=True):
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed} run failed:\n{stderr}"
        outputs.append(json.loads(stdout))

    first, second = outputs
    digests = first["task_digests"]
    assert len(digests) == 19 and all(digests.values())
    assert first["trace_checksums"]
    assert first["trace_checksums"] == second["trace_checksums"]
    moved = sorted(task for task, d in digests.items() if second["task_digests"][task] != d)
    assert not moved, f"task digests differ between hash seeds: {moved}"
    assert first["kb_sha256"] == second["kb_sha256"]


if __name__ == "__main__":
    print(json.dumps(fingerprints(Path(sys.argv[1])), sort_keys=True))
