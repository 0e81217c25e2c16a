"""End-to-end trace generation: profile -> simulated week -> TraceStore.

The generator is the substitution for the paper's proprietary dataset.  It
plays a cloud's weekly demand against the :mod:`repro.cloud` substrate:

1. build the fleet topology and subscriptions;
2. bootstrap long-running base pools (backdated creations, like the VMs
   that predate the paper's observation window);
3. install churn arrivals (diurnal NHPP), private-cloud burst episodes and
   public-cloud autoscalers into the discrete-event simulator;
4. run the week;
5. synthesize 5-minute CPU telemetry for every sufficiently long-lived VM,
   with the shared-signal structure that controls the similarity analyses
   of Section IV-B.

``generate_trace_pair`` produces the merged private+public store that every
experiment consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import Counter, Histogram, span
from repro.cloud.allocator import PlacementPolicy
from repro.cloud.autoscale import Autoscaler, diurnal_demand
from repro.cloud.entities import build_topology
from repro.cloud.platform import CloudPlatform, VMRequest
from repro.cloud.simulation import Simulator
from repro.sampling import draw_index, weighted_cdf
from repro.telemetry.schema import (
    Cloud,
    PATTERN_HOURLY_PEAK,
    PATTERN_IRREGULAR,
    PATTERN_STABLE,
    SubscriptionInfo,
)
from repro.telemetry.shards import DEFAULT_SHARD_ROWS, ShardSpiller
from repro.telemetry.store import TraceMetadata, TraceStore
from repro.timebase import (
    SAMPLE_PERIOD,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    day_of_week,
    hour_of_day,
    sample_times,
)
from repro.workloads.arrivals import diurnal_rate_curve, nhpp, sample_burst_episodes
from repro.workloads.lifetime import LifetimeModel, burst_lifetime_model, perturbed_model
from repro.workloads.profiles import CloudProfile
from repro.workloads.services import ServiceArchetype, sample_service
from repro.workloads.spatial import DEFAULT_REGION_POPULARITY, choose_regions
from repro.workloads.utilization_models import (
    diurnal_signal,
    hourly_peak_signal,
    irregular_signal_block,
    irregular_spike_counts,
    mask_to_lifetime_block,
    stable_signal_block,
    vm_series_block_from_signal,
)

#: UTC offset of the "headquarters clock" that region-agnostic services
#: follow in every region (the geo-load-balancer of the ServiceX case study).
GLOBAL_CLOCK_TZ = -8.0

#: Version of the generation pipeline's *output*.  The experiment trace
#: cache keys on this together with :class:`GeneratorConfig`, so bump it
#: whenever a change alters the generated trace for an unchanged config —
#: stale cached traces are then invalidated automatically.
GENERATOR_VERSION = "2"

_VMS_GENERATED = Counter("generator.vms")
_EVENTS_GENERATED = Counter("generator.events")
_SERIES_SYNTHESIZED = Counter("generator.telemetry_series")
#: Size distribution of periodic synthesis groups (deterministic per config).
_GROUP_SIZES = Histogram("generator.group_size", bounds=(1, 4, 16, 64, 256, 1024, 4096))

#: Rows per vectorized synthesis chunk.  Matches the trace shard size so the
#: spill path's chunks never cross shard boundaries; every bulk fill is a
#: single logical RNG draw split row-wise, which numpy's Generators stream
#: identically however the split falls -- chunked output is bit-identical
#: to one whole-group fill.
_SYNTH_CHUNK_ROWS = DEFAULT_SHARD_ROWS


@dataclass(frozen=True)
class GeneratorConfig:
    """Reproducible generation settings."""

    seed: int = 7
    #: Scales subscription counts and churn rates (1.0 = DESIGN.md sizing).
    scale: float = 1.0
    duration: float = SECONDS_PER_WEEK
    synthesize_utilization: bool = True
    placement_policy: PlacementPolicy = PlacementPolicy.SPREAD
    #: Section VII (threats to validity): simulate a holiday week where
    #: every day behaves like a weekend (reduced activity everywhere).
    holiday_week: bool = False


@dataclass
class _Subscription:
    """Internal working record for one subscription."""

    subscription_id: int
    archetype: ServiceArchetype
    regions: tuple[str, ...]
    #: Per-(region) base pool sizes.
    pool_sizes: dict[str, int]
    bursty: bool = False
    autoscaled: bool = False
    phase_jitter_hours: float = 0.0
    #: Level of this subscription's stable-pattern VMs.
    stable_level: float = 0.2
    #: Per-VM amplitude median for periodic patterns.
    amplitude_median: float = 0.6
    #: Subscription-specific churn lifetime mixture (heterogeneous fleet).
    lifetime_model: LifetimeModel | None = None
    #: Service model of this subscription ("iaas"/"paas"/"saas").
    offering: str = "iaas"


class TraceGenerator:
    """Generates one cloud's weekly trace from a profile."""

    def __init__(
        self,
        profile: CloudProfile,
        config: GeneratorConfig | None = None,
        *,
        entity_offset: int = 0,
        spill_dir: "str | None" = None,
    ) -> None:
        self.profile = profile
        self.config = config or GeneratorConfig()
        self._offset = entity_offset * 1_000_000
        seed_key = 0 if profile.cloud is Cloud.PRIVATE else 1
        self._rng = np.random.default_rng([self.config.seed, seed_key])
        self._next_deployment = self._offset
        self._subscriptions: list[_Subscription] = []
        #: When set, synthesized telemetry spills straight into trace shard
        #: files under this directory instead of one in-RAM matrix; the
        #: generated values are bit-identical either way (``spill_dir`` is
        #: deliberately *not* a GeneratorConfig field, so it never enters
        #: the trace cache key).
        self._spill_dir = spill_dir

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> TraceStore:
        """Run the full pipeline and return the trace."""
        with span(
            "generate.trace", cloud=str(self.profile.cloud), scale=self.config.scale
        ):
            store = self._generate()
        _VMS_GENERATED.inc(len(store))
        _EVENTS_GENERATED.inc(store.summary()["events"])
        return store

    def _generate(self) -> TraceStore:
        profile = self.profile.scaled(self.config.scale)
        store = TraceStore(
            TraceMetadata(
                duration=self.config.duration,
                sample_period=SAMPLE_PERIOD,
                label=str(profile.cloud),
            )
        )
        topology = build_topology(profile.topology_spec(), id_offset=self._offset)
        platform = CloudPlatform(
            topology,
            store,
            policy=self.config.placement_policy,
            rng=self._rng,
            vm_id_offset=self._offset,
        )
        simulator = Simulator()

        self._subscriptions = self._build_subscriptions(profile, store)
        self._bootstrap_base_pools(profile, platform, simulator)
        self._install_churn(profile, platform, simulator)
        if profile.burst is not None:
            self._install_bursts(profile, platform, simulator)
        if profile.autoscale is not None:
            self._install_autoscalers(profile, platform, simulator)

        with span("generate.simulate", cloud=str(profile.cloud)):
            simulator.run(until=self.config.duration)

        if self.config.synthesize_utilization:
            with span("generate.synthesize", cloud=str(profile.cloud), vms=len(store)):
                self._synthesize_utilization(profile, store)
        return store

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def _build_subscriptions(
        self, profile: CloudProfile, store: TraceStore
    ) -> list[_Subscription]:
        rng = self._rng
        region_names = [spec.name for spec in profile.regions]
        subscriptions = []
        for i in range(profile.n_subscriptions):
            sub_id = self._offset + i
            archetype = sample_service(profile.services, rng)
            n_regions = profile.region_spread.sample_region_count(rng)
            regions = choose_regions(
                rng, region_names, n_regions, popularity=DEFAULT_REGION_POPULARITY
            )
            pool_cfg = profile.base_pool
            size_median = pool_cfg.size_median
            per_region_factor = 1.0
            if len(regions) > 1:
                size_median *= pool_cfg.multi_region_boost
                per_region_factor = pool_cfg.multi_region_per_region_factor
            pool_sizes = {}
            for region in regions:
                raw = rng.lognormal(np.log(size_median * per_region_factor), pool_cfg.size_sigma)
                pool_sizes[region] = max(1, int(round(raw)))
            sub = _Subscription(
                subscription_id=sub_id,
                archetype=archetype,
                regions=regions,
                pool_sizes=pool_sizes,
                phase_jitter_hours=float(
                    rng.uniform(-archetype.phase_jitter_hours, archetype.phase_jitter_hours)
                ),
                stable_level=float(rng.uniform(*archetype.stable_level_range)),
                amplitude_median=float(np.clip(rng.lognormal(np.log(0.55), 0.35), 0.15, 1.0)),
                lifetime_model=perturbed_model(profile.lifetime, rng),
                offering=archetype.sample_offering(rng),
            )
            if profile.burst is not None:
                sub.bursty = bool(rng.random() < profile.burst.subscription_fraction)
            if profile.autoscale is not None:
                sub.autoscaled = bool(
                    rng.random() < profile.autoscale.subscription_fraction
                )
            subscriptions.append(sub)
            store.add_subscription(
                SubscriptionInfo(
                    subscription_id=sub_id,
                    cloud=profile.cloud,
                    service=archetype.name,
                    party=archetype.party,
                    regions=regions,
                    offering=sub.offering,
                )
            )
        return subscriptions

    def _new_deployment(self) -> int:
        self._next_deployment += 1
        return self._next_deployment

    def _make_request(
        self, sub: _Subscription, region: str, deployment_id: int, profile: CloudProfile
    ) -> VMRequest:
        return VMRequest(
            subscription_id=sub.subscription_id,
            deployment_id=deployment_id,
            service=sub.archetype.name,
            region=region,
            sku=profile.sku_catalog.sample(self._rng),
            pattern=sub.archetype.sample_pattern(self._rng),
            offering=sub.offering,
        )

    # ------------------------------------------------------------------
    # base pools
    # ------------------------------------------------------------------
    def _bootstrap_base_pools(
        self, profile: CloudProfile, platform: CloudPlatform, simulator: Simulator
    ) -> None:
        rng = self._rng
        duration = self.config.duration
        for sub in self._subscriptions:
            for region, size in sub.pool_sizes.items():
                deployment_id = self._new_deployment()
                for _ in range(size):
                    request = self._make_request(sub, region, deployment_id, profile)
                    backdate = -float(rng.uniform(0.0, 21 * SECONDS_PER_DAY))
                    vm_id = platform.create_vm(request, 0.0, backdate_to=backdate)
                    if vm_id is None:
                        continue
                    if rng.random() < profile.base_pool.churn_fraction:
                        end = float(rng.uniform(0.0, duration))
                        simulator.schedule(
                            end, _timed_terminator(platform, simulator, vm_id)
                        )

    # ------------------------------------------------------------------
    # churn (short-lived arrivals during the week)
    # ------------------------------------------------------------------
    def _install_churn(
        self, profile: CloudProfile, platform: CloudPlatform, simulator: Simulator
    ) -> None:
        rng = self._rng
        duration = self.config.duration
        churn = profile.churn
        # Subscriptions present in each region, used to attribute arrivals.
        subs_by_region: dict[str, list[_Subscription]] = {}
        for sub in self._subscriptions:
            for region in sub.regions:
                subs_by_region.setdefault(region, []).append(sub)

        for region_spec in profile.regions:
            region = region_spec.name
            candidates = subs_by_region.get(region)
            if not candidates:
                continue
            rate = diurnal_rate_curve(
                base_per_hour=churn.base_rate_per_hour,
                peak_per_hour=churn.peak_rate_per_hour,
                tz_offset_hours=region_spec.tz_offset_hours,
                weekend_factor=churn.weekend_factor,
                holiday_week=self.config.holiday_week,
            )
            arrivals = nhpp(rate, churn.peak_rate_per_hour, duration, rng)
            # Attribute churn proportionally to each subscription's footprint
            # in the region: busy subscriptions create (and delete) more VMs.
            weights = np.array(
                [sub.pool_sizes.get(region, 1) for sub in candidates],
                dtype=np.float64,
            )
            cdf = weighted_cdf(weights / weights.sum())
            for time in arrivals:
                sub = candidates[int(draw_index(rng, cdf))]
                batch = 1 + int(rng.geometric(1.0 / max(1.0, churn.batch_mean)) - 1)
                deployment_id = self._new_deployment()
                model = sub.lifetime_model or profile.lifetime
                lifetimes = model.sample(rng, size=batch)
                simulator.schedule(
                    float(time),
                    _batch_creator(
                        self, platform, simulator, sub, region, deployment_id,
                        profile, lifetimes, duration,
                    ),
                )

    # ------------------------------------------------------------------
    # private-cloud bursts
    # ------------------------------------------------------------------
    def _install_bursts(
        self, profile: CloudProfile, platform: CloudPlatform, simulator: Simulator
    ) -> None:
        rng = self._rng
        burst = profile.burst
        assert burst is not None
        burst_lifetimes = burst_lifetime_model()
        duration = self.config.duration
        for sub in self._subscriptions:
            if not sub.bursty:
                continue
            episodes = sample_burst_episodes(
                episodes_per_week=burst.episodes_per_week,
                size_median=burst.size_median,
                size_sigma=burst.size_sigma,
                duration=duration,
                rng=rng,
            )
            for episode in episodes:
                region = sub.regions[int(rng.integers(len(sub.regions)))]
                deployment_id = self._new_deployment()
                # Rollout cleanup is itself bursty: most of an episode's
                # temporary VMs are decommissioned together (the paper notes
                # removals mirror the bursty creation pattern), the rest
                # drain individually.
                cohort_lifetime = burst_lifetimes.sample_one(rng)
                individual = burst_lifetimes.sample(rng, size=episode.size)
                shared = rng.random(episode.size) < 0.7
                finite = np.where(shared, cohort_lifetime, individual)
                lifetimes = np.where(
                    rng.random(episode.size) < burst.censored_fraction,
                    np.inf,
                    finite,
                )
                simulator.schedule(
                    episode.time,
                    _batch_creator(
                        self, platform, simulator, sub, region, deployment_id,
                        profile, lifetimes, duration,
                    ),
                )

    # ------------------------------------------------------------------
    # public-cloud autoscalers
    # ------------------------------------------------------------------
    def _install_autoscalers(
        self, profile: CloudProfile, platform: CloudPlatform, simulator: Simulator
    ) -> None:
        rng = self._rng
        autoscale = profile.autoscale
        assert autoscale is not None
        tz_by_region = {spec.name: spec.tz_offset_hours for spec in profile.regions}
        for sub in self._subscriptions:
            if not sub.autoscaled:
                continue
            region = sub.regions[int(rng.integers(len(sub.regions)))]
            base = int(rng.integers(autoscale.base_range[0], autoscale.base_range[1] + 1))
            amplitude = int(
                rng.integers(autoscale.amplitude_range[0], autoscale.amplitude_range[1] + 1)
            )
            scaler = Autoscaler(
                platform,
                subscription_id=sub.subscription_id,
                deployment_id=self._new_deployment(),
                service=sub.archetype.name,
                region=region,
                sku=profile.sku_catalog.sample(rng),
                pattern=sub.archetype.sample_pattern(rng),
                offering=sub.offering,
                demand=diurnal_demand(
                    base=base,
                    amplitude=amplitude,
                    tz_offset_hours=tz_by_region[region],
                    peak_hour=14.0 + sub.phase_jitter_hours,
                    weekend_factor=0.6,
                    holiday_week=self.config.holiday_week,
                ),
                evaluation_interval=autoscale.evaluation_interval,
                rng=rng,
            )
            scaler.bootstrap(0.0, backdate_to=-float(rng.uniform(0, 14 * SECONDS_PER_DAY)))
            scaler.install(simulator, start=autoscale.evaluation_interval, until=self.config.duration)

    # ------------------------------------------------------------------
    # telemetry synthesis
    # ------------------------------------------------------------------
    def _telemetry_eligible(
        self, profile: CloudProfile, store: TraceStore
    ) -> "list[tuple[object, _Subscription, float]]":
        """``(vm, subscription, tz)`` for every VM that gets telemetry.

        Order is the store's VM insertion order, which is a deterministic
        function of the simulated week.
        """
        tz_by_region = {spec.name: spec.tz_offset_hours for spec in profile.regions}
        subs_by_id = {sub.subscription_id: sub for sub in self._subscriptions}
        alive_seconds = store.metadata.alive_seconds
        min_overlap = profile.telemetry_min_overlap
        eligible = []
        append = eligible.append
        for vm in store.vms():
            if alive_seconds(vm) < min_overlap:
                continue
            sub = subs_by_id[vm.subscription_id]
            tz = (
                GLOBAL_CLOCK_TZ
                if sub.archetype.region_agnostic
                else tz_by_region[vm.region]
            )
            append((vm, sub, tz))
        return eligible

    def _synthesize_utilization(
        self, profile: CloudProfile, store: TraceStore
    ) -> None:
        """Vectorized telemetry synthesis in shard-aligned row chunks.

        Telemetry-eligible VMs are partitioned into groups that share the
        same base-signal construction -- all stable VMs, all irregular VMs,
        and one ``(subscription, pattern, tz)`` group per periodic service.
        Per-VM parameters are drawn once per group; the bulk fills run in
        fixed row chunks into either one preallocated ``(n_vms, T)`` matrix
        (registered as a single storage block) or, with ``spill_dir`` set,
        directly into on-disk trace shards attached lazily -- paper-scale
        telemetry then never exists in RAM at once.  Chunking never changes
        the output: each pass is one logical RNG fill split row-wise, which
        numpy Generators stream identically however the split falls.

        Two deterministic RNG streams are used: per-VM *parameters* (levels,
        amplitudes, spike placement) come from the generator's main PCG64
        stream, while bulk per-sample *fills* (noise matrices, random walks)
        come from an SFC64 stream seeded from it -- SFC64 is the fastest
        bit generator numpy ships, and the fills dominate the draw count.
        """
        rng = self._rng
        # A bit generator constructed with an explicit seed is the approved
        # fast-fill pattern -- this SFC64 is seeded from the config-seeded
        # PCG64 stream, so the whole draw sequence remains a pure function
        # of GeneratorConfig.  An unseeded ``np.random.SFC64()`` would make
        # every trace digest differ between processes, which
        # tests/test_determinism.py catches.
        fill_rng = np.random.Generator(
            np.random.SFC64(int(rng.integers(np.iinfo(np.int64).max)))
        )
        times = sample_times(store.metadata.n_samples)
        eligible = self._telemetry_eligible(profile, store)
        if not eligible:
            return
        n_vms, n_samples = len(eligible), times.shape[0]

        # Partition eligible VMs by signal construction; within each group
        # the store's insertion order is kept, and periodic groups keep
        # first-appearance order, so the draw sequence is deterministic.
        stable_vms: list[tuple] = []
        irregular_vms: list[tuple] = []
        periodic: dict[tuple, list[tuple]] = {}
        for entry in eligible:
            vm, sub, tz = entry
            if vm.pattern == PATTERN_STABLE:
                stable_vms.append(entry)
            elif vm.pattern == PATTERN_IRREGULAR:
                irregular_vms.append(entry)
            else:
                key = (sub.subscription_id, vm.pattern, round(tz, 2))
                periodic.setdefault(key, []).append(entry)

        # Groups are laid out contiguously in row order -- either in one
        # preallocated float32 matrix (resident path) or directly in trace
        # shard files on disk (spill path).  Every bulk fill runs in
        # shard-aligned row chunks; each chunked pass is one logical RNG
        # draw split row-wise, so both paths emit the exact bytes the old
        # whole-group fills produced.
        spiller = (
            ShardSpiller(
                self._spill_dir, n_vms, n_samples, prefix=str(profile.cloud)
            )
            if self._spill_dir is not None
            else None
        )
        block = (
            None if spiller is not None else np.empty((n_vms, n_samples), dtype=np.float32)
        )
        ordered: list[tuple] = []

        def rows(a: int, b: int) -> np.ndarray:
            return spiller.rows(a, b) if spiller is not None else block[a:b]

        def chunk_ranges(a: int, b: int) -> "list[tuple[int, int]]":
            if spiller is not None:
                return spiller.chunk_ranges(a, b, _SYNTH_CHUNK_ROWS)
            return [
                (p, min(b, p + _SYNTH_CHUNK_ROWS))
                for p in range(a, b, _SYNTH_CHUNK_ROWS)
            ]

        def release(a: int, b: int) -> None:
            # Push a finished chunk's dirty pages to disk and hand them
            # back to the kernel, so spill residency stays O(chunk).
            if spiller is not None:
                spiller.release_range(a, b)

        def finish_group(group: "list[tuple]") -> None:
            # Mask and clamp right after the fill passes, chunk by chunk.
            start = len(ordered)
            created = np.array([vm.created_at for vm, _, _ in group])
            ended = np.array([vm.ended_at for vm, _, _ in group])
            for a, b in chunk_ranges(start, start + len(group)):
                view = rows(a, b)
                mask_to_lifetime_block(
                    view,
                    times,
                    created_at=created[a - start : b - start],
                    ended_at=ended[a - start : b - start],
                )
                np.clip(view, 0.0, 1.0, out=view)
                release(a, b)
            ordered.extend(group)

        # One chunk-sized scratch matrix serves both aperiodic groups'
        # additive noise.  Like the periodic fast path, noise is
        # variance-matched uniform (see :func:`vm_series_block_from_signal`):
        # only its variance reaches any downstream statistic, and uniforms
        # sample ~5x faster.
        n_scratch = min(_SYNTH_CHUNK_ROWS, max(len(stable_vms), len(irregular_vms)))
        scratch = (
            np.empty((n_scratch, n_samples), dtype=np.float32) if n_scratch else None
        )

        def add_noise(view: np.ndarray, sigma: float) -> None:
            eps = scratch[: view.shape[0]]
            fill_rng.random(dtype=np.float32, out=eps)
            eps -= np.float32(0.5)
            eps *= np.float32(sigma * np.sqrt(12.0))
            view += eps

        if stable_vms:
            with span("synthesize.stable", vms=len(stable_vms)):
                start, n = len(ordered), len(stable_vms)
                levels = np.array([sub.stable_level for _, sub, _ in stable_vms])
                levels = np.clip(
                    levels * rng.lognormal(0.0, 0.2, size=n), 0.02, 0.6
                )
                # Two sequential chunked passes (signal, then noise) keep
                # the fill_rng draw order of the old whole-group code.
                for a, b in chunk_ranges(start, start + n):
                    stable_signal_block(
                        times,
                        levels[a - start : b - start],
                        wobble=0.01,
                        rng=fill_rng,
                        out=rows(a, b),
                    )
                    release(a, b)
                for a, b in chunk_ranges(start, start + n):
                    add_noise(rows(a, b), 0.006)
                    release(a, b)
                finish_group(stable_vms)
        if irregular_vms:
            with span("synthesize.irregular", vms=len(irregular_vms)):
                start, n = len(ordered), len(irregular_vms)
                # Spike counts for the whole group up front (the draw the
                # unchunked code made first), then per-chunk placement.
                counts = irregular_spike_counts(times, n, rng=rng)
                for a, b in chunk_ranges(start, start + n):
                    irregular_signal_block(
                        times,
                        b - a,
                        rng=rng,
                        out=rows(a, b),
                        counts=counts[a - start : b - start],
                    )
                    release(a, b)
                for a, b in chunk_ranges(start, start + n):
                    add_noise(rows(a, b), 0.01)
                    release(a, b)
                finish_group(irregular_vms)

        # All periodic groups on the same sample grid share per-timezone
        # clock arrays; each (subscription, pattern, tz) group still gets
        # its own phase-jittered signal.
        clock_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        signal_cache: dict[tuple, np.ndarray] = {}
        with span(
            "synthesize.periodic",
            groups=len(periodic),
            vms=sum(len(group) for group in periodic.values()),
        ):
            for key, group in periodic.items():
                _GROUP_SIZES.observe(len(group))
                _, pattern, _ = key
                _, sub, tz = group[0]
                shared = signal_cache.get(key)
                if shared is None:
                    clock = clock_cache.get(tz)
                    if clock is None:
                        clock = (
                            hour_of_day(times, tz_offset_hours=tz),
                            day_of_week(times, tz_offset_hours=tz),
                        )
                        clock_cache[tz] = clock
                    shared = self._shared_signal(
                        pattern, sub, tz, times, clock=clock
                    ).astype(np.float32)
                    signal_cache[key] = shared
                noise = sub.archetype.noise
                amplitudes = np.clip(
                    sub.amplitude_median
                    * rng.lognormal(0.0, noise.scale_sigma + 0.35, size=len(group)),
                    0.1,
                    1.5,
                )
                start = len(ordered)
                for a, b in chunk_ranges(start, start + len(group)):
                    vm_series_block_from_signal(
                        shared,
                        amplitudes[a - start : b - start],
                        additive_sigma=noise.additive_sigma,
                        rng=fill_rng,
                        out=rows(a, b),
                    )
                    release(a, b)
                finish_group(group)

        _SERIES_SYNTHESIZED.inc(len(ordered))
        vm_ids = [vm.vm_id for vm, _, _ in ordered]
        if spiller is not None:
            row = 0
            for ref in spiller.finalize():
                store.add_utilization_shard(vm_ids[row : row + ref.n_rows], ref)
                row += ref.n_rows
        else:
            store.add_utilization_block(vm_ids, block)

    def _shared_signal(
        self,
        pattern: str,
        sub: _Subscription,
        tz: float,
        times: np.ndarray,
        clock: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> np.ndarray:
        """The base signal every VM of a periodic group scales from."""
        if pattern == PATTERN_HOURLY_PEAK:
            return hourly_peak_signal(
                times,
                tz_offset_hours=tz,
                envelope_peak_hour=13.0 + sub.phase_jitter_hours,
                holiday_week=self.config.holiday_week,
                clock=clock,
            )
        return diurnal_signal(
            times,
            tz_offset_hours=tz,
            peak_hour=14.0,
            phase_jitter_hours=sub.phase_jitter_hours,
            holiday_week=self.config.holiday_week,
            clock=clock,
        )


# ----------------------------------------------------------------------
# scheduled-action factories (plain closures keep the simulator simple)
# ----------------------------------------------------------------------
def _batch_creator(
    generator: TraceGenerator,
    platform: CloudPlatform,
    simulator: Simulator,
    sub: _Subscription,
    region: str,
    deployment_id: int,
    profile: CloudProfile,
    lifetimes: np.ndarray,
    duration: float,
):
    def action() -> None:
        now = simulator.now
        for lifetime in lifetimes:
            request = generator._make_request(sub, region, deployment_id, profile)
            vm_id = platform.create_vm(request, now)
            if vm_id is None:
                continue
            end = now + float(lifetime)
            if np.isfinite(end) and end < duration:
                simulator.schedule(end, _timed_terminator(platform, simulator, vm_id))

    return action


def _timed_terminator(platform: CloudPlatform, simulator: Simulator, vm_id: int):
    # Each pool and churn VM gets one terminator and the autoscaler retires
    # only its own fleet, so ending a VM twice is a bug and raises.
    def action() -> None:
        platform.terminate_vm(vm_id, simulator.now)

    return action


# ----------------------------------------------------------------------
# top-level helpers
# ----------------------------------------------------------------------
def generate_trace(
    profile: CloudProfile,
    config: GeneratorConfig | None = None,
    *,
    entity_offset: int = 0,
    spill_dir: "str | None" = None,
) -> TraceStore:
    """Generate a single cloud's trace."""
    return TraceGenerator(
        profile, config, entity_offset=entity_offset, spill_dir=spill_dir
    ).generate()


def _generate_pair_member(
    cloud_key: str, config: GeneratorConfig, spill_dir: "str | None" = None
) -> TraceStore:
    """Generate one member of the private+public pair (process-pool target)."""
    from repro.workloads.profiles import private_profile, public_profile

    if cloud_key == "private":
        return generate_trace(
            private_profile(), config, entity_offset=0, spill_dir=spill_dir
        )
    return generate_trace(
        public_profile(), config, entity_offset=1, spill_dir=spill_dir
    )


def generate_trace_pair(
    config: GeneratorConfig | None = None,
    *,
    workers: int = 1,
    spill_dir: "str | None" = None,
) -> TraceStore:
    """Generate the merged private+public trace every experiment consumes.

    ``workers=2`` generates the two clouds in parallel processes.  Each
    cloud already owns an independent seeded RNG stream (``[seed, 0]`` for
    private, ``[seed, 1]`` for public), so the result is bit-identical to
    the sequential ``workers=1`` run.  Falls back to sequential generation
    when a process pool cannot be started.

    ``spill_dir`` routes telemetry synthesis straight to on-disk trace shards
    (the two clouds share the directory under distinct file prefixes, and
    worker processes hand shards back by path); the trace's values are
    bit-identical with or without it.
    """
    config = config or GeneratorConfig()
    private: TraceStore | None = None
    public: TraceStore | None = None
    if workers > 1:
        import concurrent.futures

        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
                private_future = pool.submit(
                    _generate_pair_member, "private", config, spill_dir
                )
                public_future = pool.submit(
                    _generate_pair_member, "public", config, spill_dir
                )
                private = private_future.result()
                public = public_future.result()
        except (OSError, PermissionError):
            # Sandboxes without process-spawn rights get the same trace,
            # just sequentially.
            private = public = None
    if private is None or public is None:
        private = _generate_pair_member("private", config, spill_dir)
        public = _generate_pair_member("public", config, spill_dir)
    merged = TraceStore(
        TraceMetadata(
            duration=config.duration,
            sample_period=SAMPLE_PERIOD,
            label="private+public",
        )
    )
    merged.merge(private)
    merged.merge(public)
    return merged
