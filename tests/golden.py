"""Golden outputs: every answer the pipeline gives on two seeds, as digests.

:func:`compute_golden` runs the whole registry on seeds 7 and 1 at scale
0.12 and digests what it produced: each task's
``ExperimentResult.digest()``, the generated trace (:func:`store_digest`),
the saved trace's ``checksums.json``, the knowledge-base JSON, and the
failure-risk answers after every replay batch (:func:`risk_digest`).
``tests/golden.json`` holds the committed values and
``tests/test_golden.py`` recomputes them.  The file records its own
identity, the generator version and each seed's ``config_hash``, so a
golden file for another generator is told apart from answers that moved.

A change that moves an output on purpose rewrites the file with
``PYTHONPATH=src python tools/update_golden.py`` and names the keys that
moved, and why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.knowledge_base import WorkloadKnowledgeBase
from repro.experiments.cache import config_hash, get_trace
from repro.experiments.runner import run_pipeline
from repro.serving import KnowledgeBaseService, iter_ingest_records
from repro.serving.replay import batch_stream
from repro.serving.service import ServiceError
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceStore
from repro.workloads.generator import GENERATOR_VERSION, GeneratorConfig

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SEEDS = (7, 1)
SCALE = 0.12
#: (load fraction, recent creations) states the failure predictor answers.
RISK_GRID = tuple((load, creations) for load in (0.0, 0.3, 0.5, 0.9, 1.0)
                  for creations in (0.0, 1.0, 5.0, 40.0, 150.0))


def store_digest(store: TraceStore) -> str:
    """sha256 over a trace's VM table, utilization bytes and events."""
    h = hashlib.sha256()
    for vm in sorted(store.vms(), key=lambda vm: vm.vm_id):
        h.update(repr(dataclasses.astuple(vm)).encode())
        series = store.utilization(vm.vm_id)
        if series is not None:
            h.update(np.ascontiguousarray(series).tobytes())
    for event in store.events():
        h.update(repr((event.time, event.kind.value, event.vm_id, event.region)).encode())
    return h.hexdigest()


def risk_digest(store: TraceStore) -> str:
    """sha256 over the failure-risk answers at every replay batch boundary.

    The trace's ingest stream is applied batch by batch to a fresh service;
    after each batch both clouds answer every :data:`RISK_GRID` state.  A
    refused query contributes its error kind and message.
    """
    service, h = KnowledgeBaseService.for_trace(store), hashlib.sha256()
    for batch in batch_stream(list(iter_ingest_records(store))):
        service.apply_records(batch)
        for cloud in Cloud:
            for load, creations in RISK_GRID:
                try:
                    answer = service.allocation_failure_risk(cloud, load, creations)
                except ServiceError as exc:
                    answer = [exc.kind, str(exc)]
                h.update(json.dumps(answer).encode())
    return h.hexdigest()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def identity() -> dict[str, str]:
    """What the golden file is for: the generator version and each seed's cache key."""
    ident = {"generator_version": GENERATOR_VERSION}
    for seed in SEEDS:
        ident[f"config_hash/{seed}"] = config_hash(GeneratorConfig(seed=seed, scale=SCALE))
    return ident


def seed_outputs(seed: int, cache_dir: Path) -> dict:
    """One seed's digests, with a trace cache in ``cache_dir``."""
    config = GeneratorConfig(seed=seed, scale=SCALE)
    report = run_pipeline(config, jobs=1, cache_dir=cache_dir)
    store = get_trace(config, cache_dir=cache_dir)
    checksums = Path(report.trace_info.path) / "checksums.json"
    return {
        "tasks": {row["id"]: row["digest"] for row in report.manifest["experiments"]},
        "store": store_digest(store),
        "checksums.json": _sha256(checksums.read_bytes()),
        "kb_json": _sha256(WorkloadKnowledgeBase.from_trace(store).to_json().encode()),
        "failure_risk": risk_digest(store),
    }


def compute_golden(cache_dir: Path) -> dict:
    """The golden file's content.

    The seeds run in two processes, which keeps the test within ~6 s of
    tier-1 wall time on a 2-vCPU host (~13 s one after the other).
    """
    with ProcessPoolExecutor(max_workers=len(SEEDS)) as pool:
        outputs = pool.map(seed_outputs, SEEDS, [cache_dir] * len(SEEDS))
        seeds = {str(seed): output for seed, output in zip(SEEDS, outputs, strict=True)}
    return {"identity": identity(), "seeds": seeds}


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}/"))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def moved_keys(expected: dict, actual: dict) -> list[str]:
    """Every ``/``-joined key whose value differs, or that only one side has."""
    old, new = _flatten(expected), _flatten(actual)
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
