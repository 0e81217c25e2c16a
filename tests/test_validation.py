"""Tests for ``repro validate``: the calibration anchors over registry checks."""

from __future__ import annotations

from repro.experiments.claims import ANCHORS, validate_trace


class TestScorecard:
    def test_default_trace_passes(self, medium_trace):
        scorecard = validate_trace(medium_trace)
        (group,) = scorecard.groups
        assert [(task, check.name) for task, check in group.claims] == list(ANCHORS)
        assert scorecard.passed, scorecard.render()

    def test_render(self, medium_trace):
        text = validate_trace(medium_trace).render()
        assert text.startswith(f"Calibration scorecard: {len(ANCHORS)}/{len(ANCHORS)}")
        assert "fig3a [PASS] private shortest-bin fraction ~49%" in text

    def test_detects_broken_profile(self):
        """A profile with inverted lifetime mixes must fail the scorecard."""
        from dataclasses import replace

        from repro.telemetry.store import TraceMetadata, TraceStore
        from repro.workloads.generator import GeneratorConfig, TraceGenerator
        from repro.workloads.lifetime import LifetimeModel
        from repro.workloads.profiles import private_profile, public_profile

        # Swap the clouds' lifetime models: the shortest-bin anchors break.
        broken_private = replace(
            private_profile(), lifetime=LifetimeModel(0.95, 0.04, 0.01)
        )
        config = GeneratorConfig(seed=5, scale=0.15)
        private = TraceGenerator(broken_private, config).generate()
        public = TraceGenerator(
            public_profile(), config, entity_offset=1
        ).generate()
        merged = TraceStore(TraceMetadata(label="broken"))
        merged.merge(private)
        merged.merge(public)
        scorecard = validate_trace(merged)
        assert not scorecard.passed
        failed = {
            (task, check.name)
            for group in scorecard.groups
            for task, check in group.claims
            if not check.passed
        }
        assert ("fig3a", "private shortest-bin fraction ~49%") in failed
