"""Quickstart: generate a week of private+public cloud telemetry and
reproduce the paper's headline comparison.

Run:
    python examples/quickstart.py [--scale 0.2] [--seed 7]
"""

from __future__ import annotations

import argparse
import time

from repro import GeneratorConfig, generate_trace_pair, run_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"Generating one synthetic week (seed={args.seed}, scale={args.scale}) ...")
    t0 = time.time()
    trace = generate_trace_pair(GeneratorConfig(seed=args.seed, scale=args.scale))
    summary = trace.summary()
    print(
        f"  {summary['vms']} VMs, {summary['events']} lifecycle events, "
        f"{summary['utilization_series']} utilization series "
        f"({time.time() - t0:.1f}s)\n"
    )

    print("Re-evaluating the paper's four insights (Sections III & IV) ...\n")
    print(run_study(trace).render())


if __name__ == "__main__":
    main()
