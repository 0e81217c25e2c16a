"""Synthetic workload generation.

This package is the stand-in for the paper's proprietary dataset: it drives
the :mod:`repro.cloud` substrate with private- and public-cloud demand whose
statistics are calibrated to every quantitative anchor the paper reports
(see DESIGN.md, "Calibration anchors").  The entry point is
:func:`repro.workloads.generator.generate_trace` /
:func:`repro.workloads.generator.generate_trace_pair`.
"""

from repro.workloads.generator import GeneratorConfig, TraceGenerator, generate_trace, generate_trace_pair
from repro.workloads.profiles import CloudProfile, private_profile, public_profile

__all__ = [
    "CloudProfile",
    "GeneratorConfig",
    "TraceGenerator",
    "generate_trace",
    "generate_trace_pair",
    "private_profile",
    "public_profile",
]
