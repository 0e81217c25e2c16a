"""Property-based invariants for trace serialization and cache keying.

Runs under hypothesis when available, else as a deterministic
stdlib-``random`` sweep (see :mod:`tests.proputil`) -- the asserted
properties are identical either way:

* ``save_trace`` / ``load_trace`` is the identity on stores carrying
  events and utilization (not just VM rows), and always leaves a
  checksum sidecar that verifies;
* ``cache.config_hash`` is a pure function of the config -- equal configs
  collide, different configs (any field) do not, and the literal digest
  for the default config never drifts silently.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments import cache
from repro.experiments.cache import CacheKeyCoverageError, config_hash
from repro.telemetry.io import load_trace, save_trace, verify_trace_dir
from repro.telemetry.schema import Cloud, EventKind, EventRecord
from repro.telemetry.store import TraceStore
from repro.workloads.generator import PlacementPolicy, GeneratorConfig
from tests.proputil import HAVE_HYPOTHESIS, given, seeded_rngs, settings, st
from tests.test_store import make_vm

N_FALLBACK_CASES = 15


def _build_store(rand) -> TraceStore:
    """A small random store with VMs, events, and telemetry.

    ``rand`` only needs ``randint``/``uniform``/``random``/``choice`` --
    satisfied by both ``random.Random`` and the hypothesis draw adapter.
    """
    store = TraceStore()
    n_vms = rand.randint(1, 8)
    for vm_id in range(n_vms):
        created = rand.uniform(0.0, 1000.0)
        censored = rand.random() < 0.4
        store.add_vm(
            make_vm(
                vm_id,
                cloud=rand.choice([Cloud.PRIVATE, Cloud.PUBLIC]),
                cores=float(rand.choice([1, 2, 4, 8])),
                created_at=created,
                ended_at=float("inf") if censored else created + rand.uniform(1.0, 1e5),
            )
        )
        if not censored:
            vm = store.vm(vm_id)
            store.add_event(
                EventRecord(
                    vm.ended_at, EventKind.TERMINATE, vm_id, vm.cloud, vm.region
                )
            )
        if rand.random() < 0.5:
            series = np.linspace(
                rand.random(), rand.random(), store.metadata.n_samples
            ).astype(np.float32)
            store.add_utilization(vm_id, series)
    return store


def _assert_store_round_trip(store: TraceStore, directory) -> None:
    save_trace(store, directory)
    verify_trace_dir(directory)  # the checksum sidecar must self-validate
    loaded = load_trace(directory)
    assert len(loaded) == len(store)
    for vm in store.vms():
        assert loaded.vm(vm.vm_id) == vm
    assert loaded.events() == store.events()
    for vm_id in store.vm_ids_with_utilization():
        np.testing.assert_array_equal(loaded.utilization(vm_id), store.utilization(vm_id))
    assert loaded.summary() == store.summary()


def _random_config(rand) -> GeneratorConfig:
    return GeneratorConfig(
        seed=rand.randint(0, 10_000),
        scale=rand.choice([0.05, 0.1, 0.5, 1.0]),
        duration=rand.choice([86_400.0, 604_800.0]),
        synthesize_utilization=rand.random() < 0.5,
        placement_policy=rand.choice(list(PlacementPolicy)),
        holiday_week=rand.random() < 0.5,
    )


def _assert_hash_properties(config: GeneratorConfig, other: GeneratorConfig) -> None:
    digest = config_hash(config)
    assert isinstance(digest, str) and len(digest) == 20
    int(digest, 16)  # hex, or this raises
    # Pure function: recomputing (fresh but equal instance) is stable.
    assert config_hash(GeneratorConfig(**vars(config).copy())) == digest
    if other == config:
        assert config_hash(other) == digest
    else:
        assert config_hash(other) != digest


if HAVE_HYPOTHESIS:

    class _DrawAdapter:
        """Give hypothesis draws the ``random.Random`` surface the builders use."""

        def __init__(self, data):
            self._data = data

        def randint(self, lo, hi):
            return self._data.draw(st.integers(lo, hi))

        def uniform(self, lo, hi):
            return self._data.draw(
                st.floats(lo, hi, allow_nan=False, allow_infinity=False)
            )

        def random(self):
            return self._data.draw(st.floats(0.0, 1.0, allow_nan=False))

        def choice(self, options):
            return self._data.draw(st.sampled_from(list(options)))

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_property_store_round_trip(tmp_path_factory, data):
        store = _build_store(_DrawAdapter(data))
        _assert_store_round_trip(store, tmp_path_factory.mktemp("prop_store"))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_config_hash(data):
        adapter = _DrawAdapter(data)
        _assert_hash_properties(_random_config(adapter), _random_config(adapter))

else:

    @pytest.mark.parametrize("case", range(N_FALLBACK_CASES))
    def test_property_store_round_trip(tmp_path_factory, case):
        rng = seeded_rngs(N_FALLBACK_CASES)[case]
        store = _build_store(rng)
        _assert_store_round_trip(store, tmp_path_factory.mktemp("prop_store"))

    @pytest.mark.parametrize("case", range(N_FALLBACK_CASES))
    def test_property_config_hash(case):
        rng = seeded_rngs(N_FALLBACK_CASES, seed=0xCAFE)[case]
        _assert_hash_properties(_random_config(rng), _random_config(rng))


@dataclasses.dataclass(frozen=True)
class _ConfigWithNewKnob(GeneratorConfig):
    """A ``GeneratorConfig`` that grew a knob the cache key never heard of."""

    new_knob: float = 1.0


class TestConfigHashAnchors:
    """Non-random guarantees that hold regardless of the test backend."""

    def test_equal_configs_collide(self):
        assert config_hash(GeneratorConfig()) == config_hash(GeneratorConfig())

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 8},
            {"scale": 0.31},
            {"duration": 3600.0},
            {"synthesize_utilization": False},
            {"placement_policy": PlacementPolicy.BEST_FIT},
            {"holiday_week": True},
        ],
    )
    def test_every_field_participates(self, override):
        base = GeneratorConfig()
        changed = GeneratorConfig(**{**vars(base), **override})
        assert config_hash(changed) != config_hash(base)

    def test_default_digest_is_pinned(self):
        # Moving this literal invalidates every cached trace on disk.
        assert config_hash(GeneratorConfig()) == "2478433ef5b86623400c"

    # config_hash refuses a config its key tables do not describe.

    def test_unkeyed_field_raises(self):
        with pytest.raises(CacheKeyCoverageError, match=r"unkeyed fields \['new_knob'\]"):
            config_hash(_ConfigWithNewKnob())

    def test_exempt_field_is_clean_and_leaves_the_key_alone(self, monkeypatch):
        monkeypatch.setattr(cache, "CACHE_KEY_EXEMPT", frozenset({"new_knob"}))
        base = config_hash(GeneratorConfig())
        assert config_hash(_ConfigWithNewKnob()) == base
        assert config_hash(_ConfigWithNewKnob(new_knob=2.0)) == base

    def test_stale_entry_raises(self, monkeypatch):
        stale = cache.CACHE_KEY_FIELDS + ("removed_knob",)
        monkeypatch.setattr(cache, "CACHE_KEY_FIELDS", stale)
        with pytest.raises(CacheKeyCoverageError, match=r"stale entries \['removed_knob'\]"):
            config_hash(GeneratorConfig())

    def test_keyed_and_exempt_raises(self, monkeypatch):
        monkeypatch.setattr(cache, "CACHE_KEY_EXEMPT", frozenset({"seed"}))
        with pytest.raises(CacheKeyCoverageError, match=r"keyed and exempt \['seed'\]"):
            config_hash(GeneratorConfig())
