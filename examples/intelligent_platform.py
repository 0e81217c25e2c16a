"""The workload-aware intelligent cloud platform (Section V), end to end.

Builds the workload knowledge base from a synthetic week, routes each
subscription to the policies the paper motivates, sizes every policy's
opportunity on the actual trace, and prints the consolidated optimization
report -- the closed loop the paper proposes as future work.

Run:
    python examples/intelligent_platform.py
"""

from __future__ import annotations

from collections import Counter

from repro import GeneratorConfig, WorkloadKnowledgeBase, generate_trace_pair
from repro.management.orchestrator import WorkloadAwareOrchestrator


def main() -> None:
    print("Generating one synthetic week (private + public) ...")
    trace = generate_trace_pair(GeneratorConfig(seed=3, scale=0.2))

    print("Extracting the workload knowledge base ...")
    kb = WorkloadKnowledgeBase.from_trace(trace)
    routed: Counter[str] = Counter()
    for record in kb.subscriptions():
        for policy in kb.recommend_policies(record.subscription_id):
            routed[policy] += 1
    print(f"  {len(kb)} subscriptions profiled; policy routing:")
    for policy, count in routed.most_common():
        print(f"    {policy:42s} {count:4d}")

    print("\nSizing every policy on the trace ...\n")
    orchestrator = WorkloadAwareOrchestrator(trace, knowledge_base=kb)
    report = orchestrator.run()
    print(report.render())

    print(
        "\nEach line above is one implication of the paper turned into a"
        " measurable optimization, driven by the knowledge base."
    )


if __name__ == "__main__":
    main()
