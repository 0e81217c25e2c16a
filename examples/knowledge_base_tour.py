"""Tour of the centralized workload knowledge base (Section V).

Builds the knowledge base from a synthetic trace, queries it, asks for
policy recommendations per workload, and exports it as JSON --
"the key pillar of the future workload-aware intelligent cloud platform".

Run:
    python examples/knowledge_base_tour.py
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from pathlib import Path

from repro import Cloud, GeneratorConfig, WorkloadKnowledgeBase, generate_trace_pair


def main() -> None:
    trace = generate_trace_pair(GeneratorConfig(seed=3, scale=0.15))
    print("Extracting workload knowledge from telemetry ...")
    kb = WorkloadKnowledgeBase.from_trace(trace)
    print(f"  {len(kb)} subscriptions profiled\n")

    for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
        print(f"{cloud} cloud summary:")
        for key, value in kb.cloud_summary(cloud).items():
            print(f"  {key:24s} {value:10.2f}")
        services = Counter(record.service for record in kb.subscriptions(cloud=cloud))
        print(f"  services: {dict(services)}\n")

    print("Region-agnostic candidates (private):")
    for record in kb.region_agnostic_candidates(cloud=Cloud.PRIVATE)[:5]:
        print(
            f"  sub {record.subscription_id} ({record.service}), "
            f"{record.n_regions} regions, dominant pattern "
            f"{record.dominant_pattern or '?'}"
        )

    print("\nPolicy recommendations across the fleet:")
    policy_counts: Counter[str] = Counter()
    for record in kb.subscriptions():
        for policy in kb.recommend_policies(record.subscription_id):
            policy_counts[policy] += 1
    for policy, count in policy_counts.most_common():
        print(f"  {policy:40s} {count:4d} subscriptions")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kb.json"
        kb.to_json(path)
        rows = json.loads(path.read_text())
        print(f"\nJSON export: {path.stat().st_size:,} bytes, {len(rows)} records")


if __name__ == "__main__":
    main()
