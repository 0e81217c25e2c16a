"""Spot-VM adoption analysis for the public cloud.

The paper observes that 81% of public-cloud VMs are short-lived and suggests
running them as spot VMs "to reduce cost and improve platform resource
utilization, especially during valley hours".  This example runs the
what-if: which completed public VMs could have been spot, what that saves,
and how many evictions the capacity-pressure model expects.

Run:
    python examples/spot_savings.py
"""

from __future__ import annotations

from repro import GeneratorConfig, generate_trace_pair
from repro.management.spot import SpotAdoptionAdvisor


def main() -> None:
    trace = generate_trace_pair(GeneratorConfig(seed=5, scale=0.2))
    print("Spot adoption what-if (public cloud)")
    advisor = SpotAdoptionAdvisor(trace, spot_discount=0.7)
    report = advisor.analyze()
    print(f"   completed public VMs: {report.n_total_completed}")
    print(
        f"   spot candidates:      {report.n_candidates} "
        f"({report.candidate_fraction:.0%})"
    )
    print(
        f"   candidate core-hours: {report.candidate_core_hours:,.0f} of "
        f"{report.total_core_hours:,.0f}"
    )
    print(f"   bill reduction:       {report.cost_saving_fraction:.1%}")
    print(f"   expected evictions:   {report.expected_evictions:.1f}")
    print(f"   valley-hour starts:   {report.valley_start_fraction:.0%}")


if __name__ == "__main__":
    main()
