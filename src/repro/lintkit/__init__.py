"""repro.lintkit: dependency-free determinism & invariant linter.

A custom AST analysis pass enforcing the reproducibility contract that
ruff/flake8 cannot express:

====== ============================================================
REP001 unseeded randomness (legacy ``np.random.*``, stdlib ``random``)
REP002 wall-clock reads outside ``repro/obs`` (core paths use spans)
REP004 broad ``except`` that neither re-raises nor counts the swallow
REP005 unsorted dict/set iteration feeding hashing/dispatch sinks
REP006 metric/span naming convention (``group.name``)
REP007 per-series FFT/Pearson/``np.append`` inside loops in hot paths
====== ============================================================

Every rule is a per-file pass over one parsed tree.  Retired codes keep
their gaps so existing pragmas stay valid; each became a runtime check:
REP003 (cache-key coverage) is ``repro.experiments.cache.config_hash``,
REP011 (wire-protocol drift) a ``tests/test_serving.py`` protocol-table
test, and REP008-REP010 (blocking calls, dropped coroutines, state torn
across an ``await``) are the blocking-primitive guard in
``tests/conftest.py``, the unawaited-coroutine warnings ``pyproject.toml``
turns into errors, and the serving batch-atomicity and lifecycle tests.
A metric name registered twice is refused at import time by
``repro.obs.metrics.MetricsRegistry``.

Run it as ``python -m repro lint`` or ``python -m repro.lintkit``; the
rule catalog and the ``# lint: allow[...]`` pragma, the only way to
suppress a finding, are documented in ``docs/LINTING.md``.  Everything
here is pure standard library.
"""

from repro.lintkit.framework import (
    Diagnostic,
    FileContext,
    LintResult,
    Rule,
    lint_paths,
)
from repro.lintkit.report import render_json, render_text
from repro.lintkit.rules import RULE_INDEX, default_rules

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintResult",
    "RULE_INDEX",
    "Rule",
    "default_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
