"""The nationwide fleet simulator.

Runs one scenario end to end: builds the BS topology, assembles each
opt-in device from real mechanism components, schedules its workload
from the behaviour generators, realizes every episode *through* those
mechanisms, and returns the collected :class:`~repro.dataset.store.Dataset`.

Pairing across arms: every stochastic decision is drawn from a stream
seeded by ``(scenario seed, device id, purpose)``, so a vanilla run and
a patched run of the same scenario see identical devices, identical
ambient episodes, and identical transition opportunities — the only
differences are the policy decisions and recovery triggers under test,
exactly like the paper's A/B deployment but with common random numbers.

The same seeding discipline makes device simulation embarrassingly
parallel: ``run(workers=N)`` partitions the population into contiguous
device-id shards and executes them in worker processes via
:mod:`repro.parallel`, producing records byte-identical to the
sequential run (see ``docs/performance.md``).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.android.rat_policy import (
    StabilityCompatiblePolicy,
    policy_for_android_version,
)
from repro.android.recovery import (
    RecoveryPolicy,
    TIMP_RECOVERY_POLICY,
    VANILLA_RECOVERY_POLICY,
)
from repro.analysis.columnar import compute_analysis_block
from repro.core.events import FailureType
from repro.dataset.records import (
    ARM_PATCHED,
    BaseStationRecord,
    DeviceRecord,
    TransitionRecord,
)
from repro.dataset.store import Dataset
from repro.fleet import behavior
from repro.fleet.device import SimulatedDevice
from repro.fleet.models import PHONE_MODELS, PhoneModelSpec
from repro.fleet.scenario import ENGINE_BATCH, ScenarioConfig
from repro.monitoring.listener import DeviceFlags
from repro.network.bearer import DEFAULT_CAUSE_SAMPLER
from repro.obs import (
    DURATION_BUCKETS_S,
    EVENT_COUNT_BUCKETS,
    MetricsRegistry,
    counter_key,
    get_registry,
    use_registry,
)
from repro.network.basestation import DEPLOYMENT_TRAITS
from repro.network.isp import ISP, ISP_PROFILES
from repro.network.topology import NationalTopology
from repro.parallel.sharding import ShardSpec
from repro.parallel.stats import ShardStats, StopWatch, execution_metadata
from repro.radio.rat import RAT
from repro.simtime import SECONDS_PER_MONTH

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.pipeline import TelemetryRunResult

#: How post-transition failures split across types.
_POST_TRANSITION_TYPE_MIX = (
    (FailureType.DATA_SETUP_ERROR, 0.50),
    (FailureType.DATA_STALL, 0.35),
    (FailureType.OUT_OF_SERVICE, 0.15),
)

#: False-positive setup flavours and their odds.
_FP_FLAVOURS = (
    ("overload", 0.70),
    ("voice_call", 0.10),
    ("balance", 0.10),
    ("manual", 0.10),
)

_OVERLOAD_FP_CAUSES = ("INSUFFICIENT_RESOURCES", "CONGESTION",
                       "ACCESS_BLOCK")

#: Precomputed counter keys for the per-device/per-episode hot paths,
#: so enabling metrics does not pay kwargs + sort on every increment.
_DEVICES_KEY = counter_key("fleet_devices_total")
_EPISODE_KEYS = {
    kind: counter_key("fleet_episodes_total", kind=kind)
    for kind in ("ambient", "transition", "false_positive")
}
_RAT_TRANSITION_KEYS = {
    (executed, failed): counter_key("fleet_transitions_total",
                                    executed=str(executed).lower(),
                                    failed=str(failed).lower())
    for executed in (False, True)
    for failed in (False, True)
}
_FAILURE_TYPE_KEYS: dict = {}


class FleetSimulator:
    """Simulates one scenario and produces its dataset."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.topology = NationalTopology(config.topology)
        #: Chaos telemetry result of the last run (None when the
        #: scenario has no ``chaos`` block).
        self.telemetry: TelemetryRunResult | None = None

    # -- public API ----------------------------------------------------------

    def run(
        self,
        workers: int | None = None,
        *,
        n_shards: int | None = None,
        checkpoint_dir=None,
        resume: bool = False,
    ) -> Dataset:
        """Simulate every device; returns the collected dataset.

        ``workers`` selects the execution engine: ``None`` or ``1``
        runs sequentially in-process (the legacy path); ``N >= 2``
        shards the device population across ``N`` worker processes via
        :func:`repro.parallel.run_sharded`.  Records are identical
        either way; ``dataset.metadata["execution"]`` describes what
        actually ran (mode, per-shard stats, throughput, supervision).

        ``checkpoint_dir`` spools every completed shard to a durable
        store and ``resume=True`` reloads completed shards from it (a
        checkpointed request always routes through the sharded engine,
        even at one worker, so the artifacts exist to resume from);
        ``n_shards`` sets the partition granularity independently of
        process concurrency.  See ``docs/performance.md``.

        In sharded mode each shard replays its own telemetry pipeline,
        so ``self.telemetry`` stays ``None`` and the merged summary
        lands in ``dataset.metadata["telemetry"]`` instead.
        """
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        if resume and checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint directory")
        if ((workers is not None and workers > 1) or checkpoint_dir
                or (n_shards is not None and n_shards > 1)):
            from repro.parallel.engine import run_sharded

            self.telemetry = None
            return run_sharded(
                self.config, workers or 1,
                n_shards=n_shards,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
                base_station_records=base_station_rows(self.topology),
            )

        dataset = Dataset(metadata=self.base_metadata(self.config))
        dataset.base_stations = base_station_rows(self.topology)
        registry = MetricsRegistry() if self.config.metrics else None
        watch = StopWatch()
        with use_registry(registry):
            shard, stats = self.simulate_shard(
                ShardSpec(index=0, n_shards=1, lo=1,
                          hi=self.config.n_devices + 1)
            )
            dataset.devices.extend(shard.devices)
            dataset.failures.extend(shard.failures)
            dataset.transitions.extend(shard.transitions)
            chaos = self.config.chaos
            if chaos is not None and chaos.enabled:
                # Imported on use: a run without chaos needs no spoolers.
                from repro.chaos.pipeline import run_telemetry_pipeline

                self.telemetry = run_telemetry_pipeline(dataset, chaos)
                dataset.metadata["telemetry"] = self.telemetry.summary()
            # Same streaming aggregate the sharded workers compute —
            # one partial over the single full-range shard, so serial
            # and sharded runs carry byte-identical analysis blocks.
            dataset.metadata["analysis"] = compute_analysis_block(dataset)
        # The stats cover the whole serial task (simulation + telemetry
        # + metrics), matching what sharded workers report.
        stats.wall_s = watch.elapsed()
        stats.cpu_s = watch.cpu_elapsed()
        if registry is not None:
            dataset.metadata["metrics"] = registry.deterministic_snapshot()
        dataset.metadata["execution"] = execution_metadata(
            mode="serial", workers=1, shards=[stats],
            wall_s=watch.elapsed(),
            spans=registry.span_timings() if registry else None,
        )
        return dataset

    def simulate_shard(self, spec: ShardSpec) -> tuple[Dataset, ShardStats]:
        """Simulate one contiguous device-id shard.

        Returns the shard-local records plus execution stats.  Used by
        both the sequential path (one full-range shard) and the
        :mod:`repro.parallel` workers, so the two engines realize
        devices through literally the same code.

        With ``engine="batch"`` the shard is advanced by the vectorized
        array engine instead (:mod:`repro.fleet.batch`); the serial
        walk below stays the correctness oracle.
        """
        if self.config.engine == ENGINE_BATCH:
            from repro.fleet.batch import simulate_shard_batch

            return simulate_shard_batch(self.config, self.topology, spec)
        shard = Dataset()
        watch = StopWatch()
        registry = get_registry()
        with registry.span("fleet.simulate_shard"):
            for device_id in spec.device_ids():
                with registry.span("fleet.device"):
                    self._simulate_device(device_id, shard)
        stats = ShardStats(
            shard=spec.index,
            device_lo=spec.lo,
            device_hi=spec.hi,
            n_devices=spec.n_devices,
            n_failures=len(shard.failures),
            n_transitions=len(shard.transitions),
            wall_s=watch.elapsed(),
            cpu_s=watch.cpu_elapsed(),
        )
        return shard, stats

    @staticmethod
    def base_metadata(config: ScenarioConfig) -> dict:
        """Run-level metadata shared by every execution engine."""
        return {
            "arm": config.arm,
            "n_devices": config.n_devices,
            "seed": config.seed,
            "study_months": config.study_months,
            "frequency_scale": config.frequency_scale,
            "engine": config.engine,
        }

    # -- per-device simulation ---------------------------------------------------

    def _stream(self, device_id: int, purpose: str) -> random.Random:
        return random.Random(
            f"{self.config.seed}:{device_id}:{purpose}"
        )

    def _simulate_device(self, device_id: int, dataset: Dataset) -> None:
        profile_rng = self._stream(device_id, "profile")
        spec = self._pick_model(profile_rng)
        isp = self._pick_isp(profile_rng)
        device = self._build_device(device_id, spec, isp)

        hazard = (
            spec.sample_hazard(
                profile_rng, isp_factor=behavior.ISP_HAZARD_FACTOR[isp]
            )
            * self.config.frequency_scale
            * (self.config.study_months / 8.0)
        )
        factor_5g = (
            self.config.ambient_factor_5g
            if self.config.ambient_factor_5g is not None
            else behavior.AMBIENT_FRACTION_5G
        )
        ambient_hazard = hazard * (factor_5g if spec.has_5g else 1.0)
        study_s = self.config.study_months * SECONDS_PER_MONTH

        schedule = self._schedule(profile_rng, spec, hazard,
                                  ambient_hazard, study_s)
        oos_active = profile_rng.random() < (
            behavior.OOS_ACTIVE_DEVICE_FRACTION
        )
        radio_profile = behavior.make_radio_profile(profile_rng)

        for index, (when, kind) in enumerate(schedule):
            device.rng = self._stream(device_id, f"mech:{index}")
            if when > device.clock.now():
                device.clock.advance_to(when)
            if kind == "ambient":
                self._realize_ambient(device, profile_rng, oos_active,
                                      radio_profile)
            elif kind == "transition":
                self._realize_transition(device, profile_rng, dataset)
            else:  # false positive
                self._realize_false_positive(device, profile_rng)

        dataset.devices.append(
            self._device_record(device_id, spec, isp, profile_rng, study_s)
        )
        dataset.failures.extend(device.records)

        registry = get_registry()
        if registry.enabled:
            registry.inc_key(_DEVICES_KEY)
            registry.get_histogram(
                "fleet_device_events", EVENT_COUNT_BUCKETS
            ).observe(float(len(schedule)))
            duration_hist = registry.get_histogram(
                "fleet_failure_duration_s", DURATION_BUCKETS_S
            )
            for record in device.records:
                key = _FAILURE_TYPE_KEYS.get(record.failure_type)
                if key is None:
                    key = counter_key("fleet_failures_total",
                                      type=record.failure_type)
                    _FAILURE_TYPE_KEYS[record.failure_type] = key
                registry.inc_key(key)
                duration_hist.observe(record.duration_s)

    def _schedule(
        self,
        rng: random.Random,
        spec: PhoneModelSpec,
        hazard: float,
        ambient_hazard: float,
        study_s: float,
    ) -> list[tuple[float, str]]:
        """Time-sorted (when, kind) items for one device."""
        cap = self.config.max_events_per_device
        n_ambient = min(_poisson(rng, ambient_hazard), cap)
        transition_rate = (
            behavior.TRANSITION_RATE_5G if spec.has_5g
            else behavior.TRANSITION_RATE_NON_5G
        )
        n_transitions = min(_poisson(rng, hazard * transition_rate), cap)
        n_fps = min(
            _poisson(rng, ambient_hazard * self.config.false_positive_rate),
            cap,
        )
        schedule = (
            [(rng.uniform(0, study_s), "ambient")
             for _ in range(n_ambient)]
            + [(rng.uniform(0, study_s), "transition")
               for _ in range(n_transitions)]
            + [(rng.uniform(0, study_s), "fp") for _ in range(n_fps)]
        )
        schedule.sort()
        registry = get_registry()
        if registry.enabled:
            registry.inc_key(_EPISODE_KEYS["ambient"], n_ambient)
            registry.inc_key(_EPISODE_KEYS["transition"], n_transitions)
            registry.inc_key(_EPISODE_KEYS["false_positive"], n_fps)
        return schedule

    # -- episode realization -------------------------------------------------------

    def _realize_ambient(
        self,
        device: SimulatedDevice,
        rng: random.Random,
        oos_active: bool,
        radio_profile: behavior.DeviceRadioProfile,
    ) -> None:
        failure_type = behavior.sample_failure_type(rng, oos_active)
        if failure_type is FailureType.DATA_STALL:
            natural, component = behavior.sample_stall_natural_duration(rng)
            context = behavior.sample_event_context(
                rng, self.topology, device.isp, device.spec.has_5g,
                long_outage=natural > 1_200.0,
                profile=radio_profile,
            )
            fault_kind = behavior.sample_stall_fault_kind(rng)
            device.realize_stall(context, natural, component, fault_kind)
            return
        context = behavior.sample_event_context(
            rng, self.topology, device.isp, device.spec.has_5g,
            profile=radio_profile,
        )
        if failure_type is FailureType.DATA_SETUP_ERROR:
            cause = DEFAULT_CAUSE_SAMPLER.sample(
                rng,
                rat=context.rat,
                signal_level=context.signal_level,
                deployment_density=DEPLOYMENT_TRAITS[
                    context.deployment].density,
            )
            device.realize_setup_error(context, cause)
        elif failure_type is FailureType.OUT_OF_SERVICE:
            device.realize_out_of_service(
                context, behavior.sample_oos_duration(rng)
            )
        else:
            device.realize_legacy_failure(context, failure_type)

    def _realize_transition(
        self,
        device: SimulatedDevice,
        rng: random.Random,
        dataset: Dataset,
    ) -> None:
        scenario = behavior.sample_transition_scenario(
            rng, device.spec.has_5g
        )
        current, selected, executed = device.decide_transition(scenario)
        if executed:
            p_fail = behavior.transition_failure_probability(
                current.rat, current.signal_level,
                selected.rat, selected.signal_level,
            ) + device.transition_procedure_failure_rate(selected.rat)
        else:
            p_fail = behavior.stay_failure_probability(
                current.rat, current.signal_level
            )
        failed = rng.random() < p_fail
        after = selected if executed else current
        registry = get_registry()
        if registry.enabled:
            registry.inc_key(_RAT_TRANSITION_KEYS[executed, failed])
        dataset.transitions.append(TransitionRecord(
            device_id=device.device_id,
            from_rat=current.rat.label,
            from_level=int(current.signal_level),
            to_rat=selected.rat.label,
            to_level=int(selected.signal_level),
            executed=executed,
            failed_after=failed,
            arm=device.arm,
        ))
        if not failed:
            return
        deployment = behavior.sample_event_deployment(
            rng, after.signal_level
        )
        bs = self.topology.sample_bs(rng, device.isp, deployment, after.rat)
        context = behavior.EventContext(
            rat=after.rat, signal_level=after.signal_level,
            deployment=deployment, bs=bs,
        )
        failure_type = _weighted(rng, _POST_TRANSITION_TYPE_MIX)
        if failure_type is FailureType.DATA_SETUP_ERROR:
            cause = DEFAULT_CAUSE_SAMPLER.sample(
                rng,
                rat=after.rat,
                signal_level=after.signal_level,
                deployment_density=DEPLOYMENT_TRAITS[deployment].density,
                during_handover=True,
            )
            device.realize_handover_failure(
                current.rat, current.signal_level, context, cause
            )
        elif failure_type is FailureType.DATA_STALL:
            natural, component = behavior.sample_stall_natural_duration(rng)
            device.realize_stall(
                context, natural, component,
                fault_kind=behavior.sample_stall_fault_kind(rng),
                post_transition=True,
            )
        else:
            device.realize_out_of_service(
                context, behavior.sample_oos_duration(rng),
                post_transition=True,
            )

    def _realize_false_positive(
        self, device: SimulatedDevice, rng: random.Random
    ) -> None:
        """Suspicious-but-false events the monitor must filter out."""
        flavour = _weighted(rng, _FP_FLAVOURS)
        context = behavior.sample_event_context(
            rng, self.topology, device.isp, device.spec.has_5g
        )
        before = len(device.records)
        if flavour == "overload":
            cause = rng.choice(_OVERLOAD_FP_CAUSES)
            device.realize_false_positive_setup(context, cause)
        else:
            flags = {
                "voice_call": DeviceFlags(in_voice_call=True),
                "balance": DeviceFlags(balance_exhausted=True),
                "manual": DeviceFlags(data_manually_disabled=True),
            }[flavour]
            previous = device.monitor.flags
            device.monitor.flags = flags
            cause = DEFAULT_CAUSE_SAMPLER.sample(rng)
            device.realize_false_positive_setup(context, cause)
            device.monitor.flags = previous
        if len(device.records) != before:
            raise RuntimeError(
                "false-positive episode leaked into the dataset"
            )

    # -- population ---------------------------------------------------------

    def _pick_model(self, rng: random.Random) -> PhoneModelSpec:
        shares = [spec.user_share for spec in PHONE_MODELS]
        return rng.choices(PHONE_MODELS, weights=shares)[0]

    def _pick_isp(self, rng: random.Random) -> ISP:
        isps = list(ISP_PROFILES)
        if self.config.isp_weights is not None:
            weights = list(self.config.isp_weights)
        else:
            weights = [ISP_PROFILES[isp].subscriber_share
                       for isp in isps]
        return rng.choices(isps, weights=weights)[0]

    def _build_device(
        self, device_id: int, spec: PhoneModelSpec, isp: ISP
    ) -> SimulatedDevice:
        patched = self.config.arm == ARM_PATCHED
        if patched:
            rat_policy = StabilityCompatiblePolicy()
            recovery: RecoveryPolicy = TIMP_RECOVERY_POLICY
            if self.config.patched_probations_s is not None:
                recovery = TIMP_RECOVERY_POLICY.with_probations(
                    self.config.patched_probations_s
                )
        else:
            rat_policy = policy_for_android_version(spec.android_version)
            recovery = VANILLA_RECOVERY_POLICY
        return SimulatedDevice(
            device_id=device_id,
            spec=spec,
            isp=isp,
            arm=self.config.arm,
            rat_policy=rat_policy,
            recovery_policy=recovery,
            rng=self._stream(device_id, "mech:init"),
            use_endc=patched and spec.has_5g,
        )

    def _device_record(
        self,
        device_id: int,
        spec: PhoneModelSpec,
        isp: ISP,
        rng: random.Random,
        study_s: float,
    ) -> DeviceRecord:
        total = (
            behavior.STUDY_CONNECTED_SECONDS
            * (self.config.study_months / 8.0)
            * rng.lognormvariate(0.0, 0.3)
        )
        usage = behavior.rat_usage_mix(spec.has_5g)
        exposure: dict[tuple[str, int], float] = {}
        for rat, rat_share in usage.items():
            for level, level_share in enumerate(
                behavior.EXPOSURE_LEVEL_SHARES
            ):
                seconds = total * rat_share * level_share
                if seconds > 0:
                    exposure[(rat.label, level)] = seconds
        return DeviceRecord(
            device_id=device_id,
            model=spec.model,
            android_version=spec.android_version,
            has_5g=spec.has_5g,
            isp=isp.label,
            arm=self.config.arm,
            exposure_s=exposure,
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def base_station_rows(topology: NationalTopology) -> list[BaseStationRecord]:
    """The dataset's BS inventory for ``topology`` (deterministic)."""
    return [
        BaseStationRecord(
            bs_id=bs.bs_id,
            isp=bs.isp.label,
            rats=tuple(sorted(rat.label for rat in bs.supported_rats)),
            deployment=bs.deployment.value,
        )
        for bs in topology.base_stations
    ]


def _poisson(rng: random.Random, mean: float) -> int:
    """Poisson draw; normal approximation for large means."""
    if mean <= 0:
        return 0
    if mean > 200:
        return max(0, round(rng.gauss(mean, mean**0.5)))
    # Knuth's method.
    limit = 2.718281828459045 ** (-mean)
    count, product = 0, rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _weighted(rng: random.Random, table):
    total = sum(weight for _, weight in table)
    roll = rng.random() * total
    cumulative = 0.0
    for item, weight in table:
        cumulative += weight
        if roll < cumulative:
            return item
    return table[-1][0]
