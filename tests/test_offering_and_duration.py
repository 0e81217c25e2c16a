"""Tests for the IaaS/PaaS/SaaS dimension and non-weekly windows."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.telemetry.schema import Cloud
from repro.timebase import SECONDS_PER_DAY
from repro.workloads.generator import GeneratorConfig, TraceGenerator
from repro.workloads.profiles import private_profile, public_profile
from repro.workloads.services import PRIVATE_SERVICES


def offering_mix(store, cloud: Cloud) -> dict[str, float]:
    """Share of IaaS / PaaS / SaaS VMs in one cloud (Section II attribute)."""
    vms = store.vms(cloud=cloud)
    counts = Counter(vm.offering for vm in vms)
    return {offering: n / len(vms) for offering, n in counts.items()}


class TestOffering:
    def test_mix_sums_to_one(self, small_trace):
        for cloud in (Cloud.PRIVATE, Cloud.PUBLIC):
            mix = offering_mix(small_trace, cloud)
            assert sum(mix.values()) == pytest.approx(1.0)
            assert set(mix) <= {"iaas", "paas", "saas"}

    def test_private_saas_heavy(self, small_trace):
        """Microsoft 365-style first-party services are SaaS-dominated."""
        private = offering_mix(small_trace, Cloud.PRIVATE)
        public = offering_mix(small_trace, Cloud.PUBLIC)
        assert private.get("saas", 0) > public.get("saas", 0)
        assert public.get("iaas", 0) > private.get("iaas", 0)

    def test_offering_constant_within_subscription(self, small_trace):
        by_sub = small_trace.vms_by_subscription()
        for _sub_id, vms in list(by_sub.items())[:50]:
            assert len({vm.offering for vm in vms}) == 1

    def test_subscription_info_carries_offering(self, small_trace):
        offerings = {s.offering for s in small_trace.subscriptions.values()}
        assert offerings <= {"iaas", "paas", "saas"}
        assert len(offerings) >= 2

    def test_sample_offering_respects_weights(self, rng):
        web = PRIVATE_SERVICES[0][0]  # SaaS-heavy
        draws = [web.sample_offering(rng) for _ in range(300)]
        assert draws.count("saas") > 120

    def test_offering_survives_io_round_trip(self, small_trace, tmp_path):
        from repro.telemetry.io import load_trace, save_trace

        save_trace(small_trace, tmp_path / "t")
        loaded = load_trace(tmp_path / "t")
        vm = small_trace.vms()[0]
        assert loaded.vm(vm.vm_id).offering == vm.offering


class TestNonWeeklyWindows:
    def test_three_day_window(self):
        config = GeneratorConfig(seed=5, scale=0.08, duration=3 * SECONDS_PER_DAY)
        trace = TraceGenerator(private_profile(), config).generate()
        assert trace.metadata.duration == 3 * SECONDS_PER_DAY
        assert trace.metadata.n_samples == 3 * 288
        assert len(trace) > 50
        for vm_id in trace.vm_ids_with_utilization()[:10]:
            assert trace.utilization(vm_id).size == 3 * 288

    def test_two_week_window(self):
        config = GeneratorConfig(
            seed=5, scale=0.04, duration=14 * SECONDS_PER_DAY,
            synthesize_utilization=False,
        )
        trace = TraceGenerator(public_profile(), config).generate()
        assert trace.metadata.n_samples == 14 * 288
        # Events span the full window, not just the first week.
        times = [e.time for e in trace.events()]
        assert max(times) > 7 * SECONDS_PER_DAY

    def test_analyses_run_on_short_window(self):
        from repro.core.deployment import lifetime_cdf, vm_count_series

        config = GeneratorConfig(seed=5, scale=0.1, duration=3 * SECONDS_PER_DAY,
                                 synthesize_utilization=False)
        trace = TraceGenerator(public_profile(), config).generate()
        counts = vm_count_series(trace, Cloud.PUBLIC)
        assert counts.shape == (72,)
        cdf = lifetime_cdf(trace, Cloud.PUBLIC)
        assert cdf.n_samples > 10
