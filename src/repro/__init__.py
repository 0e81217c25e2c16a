"""repro: reproduction of "How Different are the Cloud Workloads?" (DSN'23).

A full-stack reproduction of the paper's measurement study on synthetic
Azure-like telemetry:

* :mod:`repro.cloud` -- the cloud-platform substrate (topology, allocation
  service, discrete-event simulation, autoscaling, failure injection);
* :mod:`repro.workloads` -- the calibrated private/public workload
  generator that substitutes for the proprietary dataset;
* :mod:`repro.telemetry` -- the trace schema and store;
* :mod:`repro.analysis` -- the statistics toolkit (CDFs, box-plots, CV,
  heatmaps, percentile bands, Pearson correlation);
* :mod:`repro.core` -- the characterization suite (every analysis of
  Sections III and IV, plus the Section-V workload knowledge base);
* :mod:`repro.management` -- optimizers for each implication (spot VMs,
  chance-constrained over-subscription, region shifting, predictors,
  valley scheduling);
* :mod:`repro.experiments` -- one module per paper figure/table, emitting
  paper-vs-measured checks; ``run_study`` and ``validate_trace``
  (:mod:`repro.experiments.claims`) report named groups of those checks.

Quickstart::

    from repro import GeneratorConfig, generate_trace_pair, run_study

    trace = generate_trace_pair(GeneratorConfig(seed=7, scale=0.3))
    report = run_study(trace)
    print(report.render())
"""

from repro.core import ClassifierConfig, PatternClassifier, WorkloadKnowledgeBase
from repro.experiments.claims import run_study
from repro.telemetry import Cloud, TraceStore, load_trace, save_trace
from repro.workloads import (
    GeneratorConfig,
    generate_trace,
    generate_trace_pair,
    private_profile,
    public_profile,
)

__version__ = "1.0.0"

__all__ = [
    "ClassifierConfig",
    "Cloud",
    "GeneratorConfig",
    "PatternClassifier",
    "TraceStore",
    "WorkloadKnowledgeBase",
    "__version__",
    "generate_trace",
    "generate_trace_pair",
    "load_trace",
    "private_profile",
    "public_profile",
    "run_study",
    "save_trace",
]
