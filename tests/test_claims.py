"""The claim tables name real registry checks, so a rename cannot drop one."""

from __future__ import annotations

import pytest

from repro.experiments.claims import ANCHORS, INSIGHTS
from repro.experiments.parallel import TASKS

ALL_KEYS = sorted(set(ANCHORS) | {key for keys in INSIGHTS.values() for key in keys})


@pytest.fixture(scope="module")
def results(small_trace):
    task_ids = sorted({task for task, _name in ALL_KEYS})
    return {task: TASKS[task].runner(small_trace) for task in task_ids}


@pytest.mark.parametrize("key", ALL_KEYS, ids=[f"{t}:{n}" for t, n in ALL_KEYS])
def test_each_key_names_exactly_one_shared_trace_check(key, results):
    task, name = key
    assert TASKS[task].uses_shared_trace
    names = [check.name for check in results[task].checks]
    assert names.count(name) == 1, names


def test_table_shapes():
    assert len(ANCHORS) == len(set(ANCHORS)) == 12
    assert len(INSIGHTS) == 4
