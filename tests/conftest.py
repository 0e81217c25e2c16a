"""Shared fixtures and the blocking-call guard.

Traces are expensive, so they are session-scoped.

The guard fails any test that runs a blocking primitive on a thread whose
asyncio event loop is running: one such call stalls every client the
serving layer multiplexes on that loop.  It traps the primitive itself,
through an audit hook on ``open``, ``subprocess.Popen``, ``os.system`` and
``shutil.*`` plus a wrapper around ``time.sleep`` (which raises no audit
event before Python 3.13).  Reads by the import system are exempt, so a
lazy import on the loop (``numpy.fft`` on the first classify) is not a
hit.  Only executed paths are checked; hand blocking work to
``asyncio.to_thread`` to keep it off the loop.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import numpy as np
import pytest

from repro.workloads.generator import GeneratorConfig, generate_trace_pair

#: Audit events of blocking primitives (``shutil.*`` is matched by prefix).
_BLOCKING_EVENTS = frozenset({"open", "subprocess.Popen", "os.system"})

#: One line per blocking call seen on a running loop, since session start.
_blocking_hits: list[str] = []


def _note_blocking(what: str) -> None:
    if asyncio._get_running_loop() is None:
        return
    frame = sys._getframe(2)
    sites = []
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename.startswith("<frozen importlib"):
            return  # the import system reading a module
        if len(sites) < 4:
            sites.append(f"{filename}:{frame.f_lineno} in {frame.f_code.co_name}")
        frame = frame.f_back
    _blocking_hits.append(f"{what} at " + " <- ".join(sites))


def _audit(event: str, args: tuple) -> None:
    if event in _BLOCKING_EVENTS or event.startswith("shutil."):
        _note_blocking(f"{event}{args!r}")


def _guarded_sleep(seconds: float, _sleep=time.sleep) -> None:
    _note_blocking(f"time.sleep({seconds!r})")
    _sleep(seconds)


sys.addaudithook(_audit)
time.sleep = _guarded_sleep


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail the test if its body blocked a running event loop."""
    seen = len(_blocking_hits)
    result = yield
    hits = _blocking_hits[seen:]
    if hits:
        pytest.fail(
            "blocking call on a running event loop:\n  " + "\n  ".join(hits),
            pytrace=False,
        )
    return result


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Point the on-disk trace cache at a session tmp dir.

    Keeps the suite hermetic (no writes to the user's ~/.cache/repro) while
    still letting repeat fetches within one session hit the disk cache.
    """
    root = tmp_path_factory.mktemp("trace-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def small_trace():
    """A small merged private+public trace for functional tests."""
    return generate_trace_pair(GeneratorConfig(seed=7, scale=0.12))


@pytest.fixture(scope="session")
def medium_trace():
    """A larger trace for statistical/calibration assertions."""
    return generate_trace_pair(GeneratorConfig(seed=7, scale=0.3))


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)
