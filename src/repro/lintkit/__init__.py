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
REP008 blocking calls reachable from ``async def`` (incl. transitive)
REP009 unawaited coroutines / dropped ``create_task`` handles
REP010 instance-state mutation torn across an ``await`` without a lock
====== ============================================================

REP001, REP002 and REP004-REP007 are per-file passes; REP008-REP010 are
*project* rules running over a whole-program
:class:`~repro.lintkit.project.ProjectContext` (cross-module imports,
call graph, async coloring).  The two retired codes keep their gaps so
existing pragmas stay valid: REP003 (cache-key coverage) is checked at
runtime by ``repro.experiments.cache.config_hash`` and REP011
(wire-protocol drift) by ``tests/test_serving.py``.  A metric name
registered twice is refused at import time by
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
from repro.lintkit.project import ProjectContext, ProjectRule
from repro.lintkit.report import render_json, render_text
from repro.lintkit.rules import RULE_INDEX, default_rules

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "RULE_INDEX",
    "Rule",
    "default_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
