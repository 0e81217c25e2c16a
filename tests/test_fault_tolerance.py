"""Hardening tests: injected faults must degrade the pipeline, not end it.

Every scenario asserts the same contract from a different angle: a task
that raises, hangs, is SIGKILLed, or meets a corrupted cache entry marks
*only itself* ``failed``/``timeout`` (after its retry budget) while the
rest of the registry completes, and the run still produces a complete,
valid, registry-ordered manifest whose ``degraded`` flag and exit code
describe what happened.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.experiments import config as config_module
from repro.experiments import faultinject, parallel
from repro.experiments.cache import fetch_trace
from repro.experiments.config import ExperimentConfig, RetryPolicy, clear_trace_cache
from repro.experiments.faultinject import FaultKind, FaultSpec, parse_faults
from repro.experiments.runner import (
    EXIT_CHECK_FAILURES,
    EXIT_DEGRADED,
    EXIT_OK,
    exit_code_for_manifest,
    run_pipeline,
    validate_manifest,
)
from repro.obs import metrics

CONFIG = ExperimentConfig(seed=7, scale=0.05)

#: A cheap three-task slice of the registry (in registry order).
SUBSET = ["fig1a", "fig2", "fig5"]

FAST = RetryPolicy(retries=0)
FAST_RETRY = RetryPolicy(retries=2)


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """Each test starts with no armed faults, no memo, no consumed counts."""
    previous = os.environ.pop(faultinject.ENV_FAULT, None)
    clear_trace_cache()
    faultinject.reset_consumed()
    yield
    os.environ.pop(faultinject.ENV_FAULT, None)
    if previous is not None:
        os.environ[faultinject.ENV_FAULT] = previous
    clear_trace_cache()
    faultinject.reset_consumed()


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry immediately; the real backoff constants are unit-tested."""
    monkeypatch.setattr(config_module, "BACKOFF_S", 0.0)


def arm(plan: str) -> None:
    os.environ[faultinject.ENV_FAULT] = plan


def run_subset(policy: RetryPolicy, *, jobs: int, cache_dir) -> dict:
    outcomes = parallel.execute(
        CONFIG, jobs=jobs, cache_dir=cache_dir, task_ids=SUBSET, policy=policy
    )
    assert [o.task_id for o in outcomes] == SUBSET  # registry order, always
    return {o.task_id: o for o in outcomes}


class TestFaultSpecParsing:
    def test_parse_single_spec(self):
        (spec,) = parse_faults("fig5:raise")
        assert spec == FaultSpec("fig5", FaultKind.RAISE, None)

    def test_parse_aliases(self):
        assert parse_faults("a:crash")[0].kind is FaultKind.RAISE
        assert parse_faults("a:stall")[0].kind is FaultKind.HANG
        assert parse_faults("a:sigkill")[0].kind is FaultKind.KILL

    def test_parse_count_and_multiple_specs(self):
        specs = parse_faults("fig5:raise:2, cache:corrupt; fig2:hang")
        assert [s.render() for s in specs] == [
            "fig5:raise:2",
            "cache:corrupt:1",
            "fig2:hang",
        ]

    def test_corrupt_defaults_to_one_shot(self):
        (spec,) = parse_faults("cache:corrupt")
        assert spec.count == 1

    def test_task_faults_default_to_every_attempt(self):
        (spec,) = parse_faults("fig5:raise")
        assert spec.fires_on(1) and spec.fires_on(99)
        counted = parse_faults("fig5:raise:1")[0]
        assert counted.fires_on(1) and not counted.fires_on(2)

    def test_empty_and_unset_plans(self):
        assert parse_faults(None) == ()
        assert parse_faults("  ") == ()

    @pytest.mark.parametrize("bad", ["fig5", "fig5:explode", "fig5:raise:0", "a:b:c:d"])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_resolve_exact_beats_prefix(self):
        ids = [t.task_id for t in parallel.REGISTRY]
        assert faultinject.resolve_target("fig3a", ids) == "fig3a"
        # "fig3" matches five tasks; the first in registry order wins.
        assert faultinject.resolve_target("fig3", ids) == "fig3a"
        assert faultinject.resolve_target("nope", ids) is None


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0)

    def test_backoff_doubles_and_caps(self):
        assert (config_module.BACKOFF_S, config_module.BACKOFF_MAX_S) == (0.1, 30.0)
        policy = RetryPolicy(retries=9)
        assert policy.max_attempts == 10
        assert [policy.backoff_for(n) for n in (1, 2, 3)] == pytest.approx([0.1, 0.2, 0.4])
        # 0.1 * 2**9 = 51.2 s is capped.
        assert policy.backoff_for(9) == pytest.approx(25.6)
        assert policy.backoff_for(10) == 30.0
        assert policy.to_dict()["backoff_s"] == 0.1


@pytest.mark.usefixtures("no_backoff")
class TestCrashIsolation:
    """One injected failure per mode; the other tasks must complete."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_fault_contained(self, tmp_path, jobs):
        arm("fig2:raise")
        outcomes = run_subset(FAST, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig2"].status == "failed"
        assert outcomes["fig2"].attempts == FAST.max_attempts
        assert "FaultInjected" in outcomes["fig2"].error
        for other in ("fig1a", "fig5"):
            assert outcomes[other].status == "ok"
            assert outcomes[other].result is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigkill_fault_contained(self, tmp_path, jobs):
        arm("fig2:kill")
        outcomes = run_subset(FAST, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig2"].status == "failed"
        assert "-9" in outcomes["fig2"].error
        assert outcomes["fig1a"].status == outcomes["fig5"].status == "ok"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_hang_fault_times_out(self, tmp_path, jobs):
        arm("fig2:hang")
        policy = RetryPolicy(retries=0, task_timeout_s=2.0)
        outcomes = run_subset(policy, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig2"].status == "timeout"
        assert outcomes["fig2"].attempts == 1
        assert "timed out" in outcomes["fig2"].error
        assert outcomes["fig1a"].status == outcomes["fig5"].status == "ok"

    def test_statuses_identical_across_job_counts(self, tmp_path):
        arm("fig2:raise")
        reference = None
        for jobs in (1, 2):
            outcomes = run_subset(FAST_RETRY, jobs=jobs, cache_dir=tmp_path)
            shape = [
                (o.task_id, o.status, o.attempts, o.error) for o in outcomes.values()
            ]
            if reference is None:
                reference = shape
            assert shape == reference


@pytest.mark.usefixtures("no_backoff")
class TestRetries:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_fault_is_retried_to_success(self, tmp_path, jobs):
        arm("fig2:raise:1")  # fires only on attempt 1; attempt 2 succeeds
        before = metrics.REGISTRY.counter_value("retry.attempts")
        outcomes = run_subset(FAST_RETRY, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig2"].status == "retried"
        assert outcomes["fig2"].attempts == 2
        assert outcomes["fig2"].result is not None
        assert metrics.REGISTRY.counter_value("retry.attempts") == before + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_persistent_fault_exhausts_attempts(self, tmp_path, jobs):
        arm("fig2:raise")
        before = metrics.REGISTRY.counter_value("retry.attempts")
        outcomes = run_subset(FAST_RETRY, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig2"].status == "failed"
        assert outcomes["fig2"].attempts == FAST_RETRY.max_attempts
        # Each failed attempt is listed in the accumulated error.
        for attempt in range(1, FAST_RETRY.max_attempts + 1):
            assert f"attempt {attempt}" in outcomes["fig2"].error
        assert (
            metrics.REGISTRY.counter_value("retry.attempts")
            == before + FAST_RETRY.retries
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_fast_skips_not_yet_started_tasks(self, tmp_path, jobs):
        arm("fig1a:raise")
        policy = RetryPolicy(retries=0, fail_fast=True)
        outcomes = run_subset(policy, jobs=jobs, cache_dir=tmp_path)
        assert outcomes["fig1a"].status == "failed"
        statuses = {o.status for tid, o in outcomes.items() if tid != "fig1a"}
        # At jobs=2 a sibling may already be in flight when fig1a fails, so
        # it legitimately completes; anything not yet started is skipped.
        assert "skipped" in statuses
        assert statuses <= {"ok", "skipped"}
        for outcome in outcomes.values():
            if outcome.status == "skipped":
                assert outcome.attempts == 0
                assert outcome.result is None


class TestScheduler:
    """Inline and worker attempts go through one loop; selection is observable."""

    def test_jobs1_runs_every_attempt_in_the_calling_process(self, tmp_path, monkeypatch):
        def no_workers(*args, **kwargs):
            raise AssertionError("jobs=1 without timeout or hang/kill must not fork")

        monkeypatch.setattr(multiprocessing.get_context(), "Process", no_workers)
        pids = []
        real_run_task = parallel.run_task

        def recording_run_task(*args, **kwargs):
            pids.append(os.getpid())
            return real_run_task(*args, **kwargs)

        monkeypatch.setattr(parallel, "run_task", recording_run_task)
        arm("fig2:raise:1")
        before = metrics.REGISTRY.snapshot()["counters"]
        outcomes = run_subset(RetryPolicy(retries=1), jobs=1, cache_dir=tmp_path)
        after = metrics.REGISTRY.snapshot()["counters"]

        assert pids == [os.getpid()] * 4  # fig1a, fig2 twice, fig5
        assert outcomes["fig2"].status == "retried"
        assert outcomes["fig2"].attempts == 2

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("retry.attempts") == 1
        # The cold trace fetch is counted once while the task runs inline;
        # merging the outcome's delta on top would count it twice.
        task_misses = sum(
            o.metrics.get("counters", {}).get("cache.miss", 0) for o in outcomes.values()
        )
        assert task_misses == 1
        assert delta("cache.miss") == task_misses

    def test_finished_worker_is_not_recorded_as_crashed(self, tmp_path, monkeypatch):
        """A worker can send its outcome and exit between two scheduler reads.

        The first ``poll(0)`` on each pipe answers as of the call but
        returns two seconds later, after the worker has delivered and
        exited.  A scheduler that reads the pipe before liveness then sees
        "no message, process dead" and drops a finished result.
        """
        ctx = multiprocessing.get_context()
        real_pipe = ctx.Pipe

        class StaleFirstPoll:
            def __init__(self, conn):
                self._conn = conn
                self._polled = False

            def poll(self, timeout=0.0):
                answer = self._conn.poll(timeout)
                if not self._polled:
                    self._polled = True
                    time.sleep(2.0)
                return answer

            def __getattr__(self, name):
                return getattr(self._conn, name)

        def pipe(duplex=True):
            recv, send = real_pipe(duplex)
            return StaleFirstPoll(recv), send

        monkeypatch.setattr(ctx, "Pipe", pipe)
        outcomes = parallel.execute(
            CONFIG, jobs=2, cache_dir=tmp_path, task_ids=["fig1a", "fig2"],
            policy=RetryPolicy(retries=0),
        )
        assert [(o.task_id, o.status, o.attempts, o.error) for o in outcomes] == [
            ("fig1a", "ok", 1, None),
            ("fig2", "ok", 1, None),
        ]
        assert all(o.result is not None for o in outcomes)


class TestCacheCorruptionFault:
    def test_corrupt_fault_evicts_and_resynthesizes(self, tmp_path):
        gen = CONFIG.generator_config()
        store, cold = fetch_trace(gen, cache_dir=tmp_path)
        assert not cold.hit
        arm("cache:corrupt")
        before = metrics.REGISTRY.counter_value("cache.corrupt_evicted")
        recovered, info = fetch_trace(gen, cache_dir=tmp_path)
        assert info.evicted_corrupt
        assert not info.hit  # the poisoned entry did not count as a hit
        assert metrics.REGISTRY.counter_value("cache.corrupt_evicted") == before + 1
        assert len(recovered) == len(store)

    def test_corrupt_fault_is_one_shot_per_process(self, tmp_path):
        gen = CONFIG.generator_config()
        fetch_trace(gen, cache_dir=tmp_path)
        arm("cache:corrupt")
        _, first = fetch_trace(gen, cache_dir=tmp_path)
        _, second = fetch_trace(gen, cache_dir=tmp_path)
        assert first.evicted_corrupt
        assert second.hit and not second.evicted_corrupt


class TestDegradedManifest:
    """Full-pipeline acceptance: fig3:crash fails exactly one of 19 tasks."""

    @pytest.fixture(scope="class")
    def degraded_report(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("fault-cache")
        clear_trace_cache()
        run_pipeline(CONFIG, jobs=2, cache_dir=cache_dir)  # warm the cache
        clear_trace_cache()
        os.environ[faultinject.ENV_FAULT] = "fig3:crash"
        try:
            policy = RetryPolicy(retries=1)
            return run_pipeline(CONFIG, jobs=2, cache_dir=cache_dir, policy=policy)
        finally:
            os.environ.pop(faultinject.ENV_FAULT, None)
            clear_trace_cache()

    def test_exactly_one_task_failed(self, degraded_report):
        rows = {row["id"]: row for row in degraded_report.manifest["experiments"]}
        assert len(rows) == len(parallel.REGISTRY)
        failed = [row for row in rows.values() if row["status"] != "ok"]
        assert [row["id"] for row in failed] == ["fig3a"]  # first "fig3" prefix match
        assert failed[0]["status"] == "failed"
        assert failed[0]["attempts"] == 2  # retries + 1
        assert "FaultInjected" in failed[0]["error"]

    def test_manifest_is_complete_and_ordered(self, degraded_report):
        manifest = degraded_report.manifest
        validate_manifest(manifest)
        assert [row["id"] for row in manifest["experiments"]] == [
            task.task_id for task in parallel.REGISTRY
        ]
        assert manifest["degraded"] is True
        assert manifest["totals"]["degraded"] == 1
        assert manifest["faults"] == ["fig3:raise"]
        assert manifest["policy"]["retries"] == 1

    def test_other_tasks_produced_results(self, degraded_report):
        completed = {result.experiment_id for result in degraded_report.results}
        assert len(completed) == len(parallel.REGISTRY) - 1
        assert "fig3a" not in completed


class TestExitCodes:
    @staticmethod
    def manifest_with(rows, degraded):
        return {"experiments": rows, "degraded": degraded}

    def test_all_ok_exits_zero(self):
        rows = [{"status": "ok", "passed": True}, {"status": "retried", "passed": True}]
        assert exit_code_for_manifest(self.manifest_with(rows, False)) == EXIT_OK

    def test_degraded_but_complete_exits_three(self):
        rows = [
            {"status": "ok", "passed": True},
            {"status": "failed", "passed": False},
            {"status": "timeout", "passed": False},
        ]
        assert exit_code_for_manifest(self.manifest_with(rows, True)) == EXIT_DEGRADED

    def test_check_failures_outrank_degradation(self):
        rows = [
            {"status": "ok", "passed": False},  # completed but wrong: exit 1
            {"status": "failed", "passed": False},
        ]
        code = exit_code_for_manifest(self.manifest_with(rows, True))
        assert code == EXIT_CHECK_FAILURES


class TestManifestV3Validation:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        clear_trace_cache()
        report = run_pipeline(
            CONFIG, jobs=1, cache_dir=tmp_path_factory.mktemp("v3-cache")
        )
        clear_trace_cache()
        return report.manifest

    def _copy(self, manifest):
        import json

        return json.loads(json.dumps(manifest))

    def test_clean_run_is_not_degraded(self, manifest):
        validate_manifest(manifest)
        assert manifest["degraded"] is False
        assert manifest["faults"] == []
        assert all(row["status"] == "ok" for row in manifest["experiments"])

    def test_rejects_unknown_status(self, manifest):
        broken = self._copy(manifest)
        broken["experiments"][0]["status"] = "exploded"
        with pytest.raises(ValueError, match="status"):
            validate_manifest(broken)

    def test_rejects_completed_row_with_zero_attempts(self, manifest):
        broken = self._copy(manifest)
        broken["experiments"][0]["attempts"] = 0
        with pytest.raises(ValueError, match="zero attempts"):
            validate_manifest(broken)

    def test_rejects_degraded_flag_mismatch(self, manifest):
        broken = self._copy(manifest)
        broken["degraded"] = True
        with pytest.raises(ValueError, match="degraded"):
            validate_manifest(broken)

    def test_rejects_passed_row_with_degraded_status(self, manifest):
        broken = self._copy(manifest)
        row = next(row for row in broken["experiments"] if row["passed"])
        row["status"] = "failed"
        broken["totals"]["degraded"] = 1
        broken["degraded"] = True
        with pytest.raises(ValueError, match="cannot pass"):
            validate_manifest(broken)
