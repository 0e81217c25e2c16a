"""Experiment harness: one module per paper figure/table.

Every experiment returns an
:class:`~repro.experiments.base.ExperimentResult` holding (a) the numeric
series behind the figure, (b) shape checks comparing the measured result to
the paper's reported values, and (c) a plain-text rendering.
:func:`repro.experiments.runner.run_pipeline` executes the whole evaluation
through the task scheduler in :mod:`repro.experiments.parallel` and builds
the run manifest; :func:`repro.experiments.runner.write_experiments_md`
regenerates ``EXPERIMENTS.md``.  :mod:`repro.experiments.claims` names the
checks that ``repro study`` and ``repro validate`` report.
"""

from repro.experiments.base import CheckResult, ExperimentResult
from repro.experiments.config import ExperimentConfig, get_trace
from repro.experiments.runner import RunReport, run_pipeline, write_experiments_md

__all__ = [
    "CheckResult",
    "ExperimentConfig",
    "ExperimentResult",
    "RunReport",
    "get_trace",
    "run_pipeline",
    "write_experiments_md",
]
