"""Unit/integration tests for chance-constrained over-subscription."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.management.oversubscription import (
    ChanceConstrainedOversubscriber,
    OversubscriptionOutcome,
    sweep_epsilon,
)
from repro.telemetry.schema import Cloud
from repro.telemetry.store import TraceMetadata, TraceStore
from repro.timebase import SAMPLE_PERIOD
from tests.test_store import make_vm

#: sweep_epsilon's default safety levels, the ones the im1 experiment runs.
EPSILONS = inspect.signature(sweep_epsilon).parameters["epsilons"].default


@pytest.fixture()
def flat_store():
    """VMs with constant 25% utilization of 4 cores each."""
    store = TraceStore()
    n = store.metadata.n_samples
    for vm_id in range(12):
        store.add_vm(make_vm(vm_id, cores=4.0))
        store.add_utilization(vm_id, np.full(n, 0.25))
    return store


class TestPacking:
    def test_baseline_respects_reservation(self, flat_store):
        packer = ChanceConstrainedOversubscriber(flat_store)
        outcome = packer.pack_baseline(16.0)
        assert outcome.n_vms_packed == 4  # 4 x 4 cores = 16
        assert outcome.reserved_cores == 16.0
        assert outcome.mean_utilization == pytest.approx(0.25)
        assert outcome.violation_probability == 0.0

    def test_chance_constrained_packs_more(self, flat_store):
        packer = ChanceConstrainedOversubscriber(flat_store)
        outcome = packer.pack_chance_constrained(16.0, epsilon=0.01)
        # Demand per VM = 1 core -> all 12 fit within 16 cores of capacity.
        assert outcome.n_vms_packed == 12
        assert outcome.violation_probability == 0.0
        assert outcome.mean_utilization == pytest.approx(12 / 16)

    def test_improvement_metric(self, flat_store):
        packer = ChanceConstrainedOversubscriber(flat_store)
        baseline = packer.pack_baseline(16.0)
        packed = packer.pack_chance_constrained(16.0, epsilon=0.01)
        assert packed.improvement_over(baseline) == pytest.approx(2.0)

    def test_invalid_epsilon(self, flat_store):
        packer = ChanceConstrainedOversubscriber(flat_store)
        with pytest.raises(ValueError):
            packer.pack_chance_constrained(16.0, epsilon=0.0)
        with pytest.raises(ValueError):
            packer.pack_chance_constrained(16.0, epsilon=1.0)

    def test_empty_store_raises(self):
        with pytest.raises(ValueError):
            ChanceConstrainedOversubscriber(TraceStore())

    def test_max_candidates_subsamples(self, flat_store):
        packer = ChanceConstrainedOversubscriber(flat_store, max_candidates=5)
        assert len(packer._candidates) == 5


class TestChanceConstraint:
    def test_violation_bounded_on_generated_trace(self, small_trace):
        packer = ChanceConstrainedOversubscriber(
            small_trace, cloud=Cloud.PRIVATE, max_candidates=200
        )
        for epsilon in (0.2, 0.05, 0.01):
            outcome = packer.pack_chance_constrained(96.0, epsilon)
            assert outcome.violation_probability <= epsilon + 1e-9

    def test_looser_epsilon_never_packs_fewer(self, small_trace):
        packer = ChanceConstrainedOversubscriber(
            small_trace, cloud=Cloud.PRIVATE, max_candidates=200
        )
        tight = packer.pack_chance_constrained(96.0, 0.001)
        loose = packer.pack_chance_constrained(96.0, 0.3)
        assert loose.n_vms_packed >= tight.n_vms_packed
        assert loose.mean_utilization >= tight.mean_utilization


class TestSweep:
    def test_sweep_ordering(self, small_trace):
        packer = ChanceConstrainedOversubscriber(
            small_trace, cloud=Cloud.PRIVATE, max_candidates=150
        )
        results = sweep_epsilon(packer, 96.0, epsilons=(0.3, 0.05, 0.001))
        gains = [g for _o, g in results]
        assert gains == sorted(gains, reverse=True)
        assert all(g > 0 for g in gains)

    def test_improvement_requires_positive_baseline(self):
        outcome = OversubscriptionOutcome(
            policy="x", epsilon=0.1, n_vms_packed=0, reserved_cores=0,
            capacity_cores=16, mean_utilization=0.5, violation_probability=0,
        )
        zero = OversubscriptionOutcome(
            policy="b", epsilon=0, n_vms_packed=0, reserved_cores=0,
            capacity_cores=16, mean_utilization=0.0, violation_probability=0,
        )
        with pytest.raises(ValueError):
            outcome.improvement_over(zero)


def _single_vm_packer(series) -> ChanceConstrainedOversubscriber:
    """A packer whose one candidate demands ``series`` cores (1-core VM)."""
    store = TraceStore(TraceMetadata(duration=len(series) * SAMPLE_PERIOD))
    store.add_vm(make_vm(0, cores=1.0))
    store.add_utilization(0, series)
    return ChanceConstrainedOversubscriber(store)


def _assert_count_rule(series, capacity: float, epsilon: float) -> None:
    """The packer skips the VM iff numpy's "higher" quantile exceeds capacity."""
    packer = _single_vm_packer(series)
    demand = np.asarray(series, dtype=np.float32).astype(np.float64)
    exceeds = np.quantile(demand, 1.0 - epsilon, method="higher") > capacity
    outcome = packer.pack_chance_constrained(capacity, epsilon)
    assert outcome.n_vms_packed == (0 if exceeds else 1), (list(demand), capacity)


class TestCountRule:
    """``count(trial > c) >= n - k`` decides what ``np.quantile(..., "higher") > c`` does."""

    @pytest.mark.parametrize("epsilon", EPSILONS)
    @pytest.mark.parametrize(
        ("series", "capacity"),
        [
            ([0.5], 0.5),  # n = 1, capacity equal to the sample
            ([0.5], 0.25),  # n = 1, over
            ([0.25, 0.5], 0.25),  # n = 2, capacity equal to the lower sample
            ([0.25, 0.5], 0.5),  # n = 2, capacity equal to the higher sample
            ([0.5, 0.5], 0.5),  # n = 2, tie at capacity
            ([0.5, 0.5], 0.25),  # n = 2, tie over capacity
            ([0.5] * 7 + [0.75] * 3, 0.5),  # ties straddling capacity
            ([0.25] * 9 + [1.0], 0.25),  # one spike over a flat floor
            ([float("nan")], 0.5),  # n = 1, a NaN quantile never exceeds
            ([float("nan"), 1.0], 0.5),  # n = 2, one NaN sample
            ([1.0] * 9 + [float("nan")], 0.5),  # NaN among samples all over
        ],
    )
    def test_edge_cases(self, series, capacity, epsilon):
        _assert_count_rule(series, capacity, epsilon)

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_fuzzed_cases_match_numpy_quantile(self, epsilon):
        rng = np.random.default_rng(int(epsilon * 1e6))
        for _ in range(250):  # 5 epsilons x 250 = 1250 cases
            n = int(rng.choice([1, 2, 3, rng.integers(4, 200)]))
            # A quarter grid forces ties and is exact in float32 and
            # float64; capacities stay positive so utilization is defined.
            series = rng.integers(1, 5, n) / 4.0
            if rng.random() < 0.2:
                series[rng.integers(n)] = np.nan
            if rng.random() < 0.5:
                capacity = float(series[rng.integers(n)])  # equal to a sample
            else:
                capacity = float(rng.integers(1, 5) / 4.0 + rng.choice([-0.1, 0.0, 0.1]))
            _assert_count_rule(series, capacity, epsilon)


def _pack_reference(
    packer: ChanceConstrainedOversubscriber, capacity: float, epsilon: float
) -> OversubscriptionOutcome:
    """The quantile packer as it was: one np.quantile per candidate."""
    packed = []
    reserved = 0.0
    aggregate = np.zeros(packer.store.metadata.n_samples, dtype=np.float64)
    for candidate in packer._candidates:
        trial = aggregate + candidate.demand
        if np.quantile(trial, 1.0 - epsilon, method="higher") > capacity:
            continue
        aggregate = trial
        packed.append(candidate)
        reserved += candidate.cores
    return packer._outcome("chance-constrained", epsilon, packed, reserved, capacity)


class TestMatchesQuantileReference:
    @pytest.mark.parametrize("trace", ["small_trace", "medium_trace"])
    @pytest.mark.parametrize("capacity", [96.0, 24.0])
    def test_outcomes_identical_at_every_epsilon(self, trace, capacity, request):
        store = request.getfixturevalue(trace)
        packer = ChanceConstrainedOversubscriber(
            store, cloud=Cloud.PRIVATE, max_candidates=600
        )
        for epsilon in EPSILONS:
            assert packer.pack_chance_constrained(capacity, epsilon) == _pack_reference(
                packer, capacity, epsilon
            )
