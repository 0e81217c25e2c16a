"""The paper's primary contribution: the workload characterization suite.

Each module maps to a section of the paper:

* :mod:`repro.core.deployment` -- Section III (deployment characteristics);
* :mod:`repro.core.periodicity` -- the autocorrelation the pattern
  classifier validates periods on (Vlachos et al., ICDM'05);
* :mod:`repro.core.patterns` -- Section IV-A's four-way utilization
  pattern classification;
* :mod:`repro.core.utilization` -- Section IV-A's distribution analyses;
* :mod:`repro.core.correlation` -- Section IV-B's node-level and
  region-level similarity studies and region-agnosticism detection;
* :mod:`repro.core.knowledge_base` -- the centralized workload knowledge
  base the paper motivates in Section V.

The paper's claims about these analyses are checked once, by the
experiment registry (:mod:`repro.experiments`).
"""

from repro.core.knowledge_base import SubscriptionKnowledge, WorkloadKnowledgeBase
from repro.core.patterns import (
    PatternMix,
    classify_block,
    classify_series,
    classify_store,
    pattern_mix,
)

__all__ = [
    "PatternMix",
    "SubscriptionKnowledge",
    "WorkloadKnowledgeBase",
    "classify_block",
    "classify_series",
    "classify_store",
    "pattern_mix",
]
