"""Tests for the crash-tolerant shard supervisor.

The contract under test: worker-infrastructure faults (death, hangs
past the deadline, corrupt result payloads, spawn failures) are
retried with backoff and finally degraded to inline execution — the
run completes with the exact serial-run dataset and a full failure
history in ``metadata["execution"]`` — while exceptions raised inside
``simulate_shard`` fail the run fast with the worker's traceback.
"""

import json
import multiprocessing

import pytest

from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel import (
    RetryPolicy,
    ShardResultInvalid,
    ShardSimulationError,
    WorkerChaosConfig,
    make_shards,
    run_sharded,
    simulate_shard,
    validate_shard_result,
)
from repro.parallel.worker_chaos import WorkerChaos, WorkerChaosFault

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection tests patch the parent and rely on fork",
)


def tiny_scenario(n_devices=30, seed=11, **kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        n_devices=n_devices,
        seed=seed,
        topology=TopologyConfig(n_base_stations=120, seed=seed + 1),
        **kwargs,
    )


#: Fast supervision for fault tests: short backoff, tight deadline.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base_s=0.02,
                         backoff_max_s=0.1, shard_timeout_s=1.5)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.3)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(5) == pytest.approx(0.3)


class TestWorkerChaos:
    def test_draw_is_deterministic_per_shard_and_attempt(self):
        config = WorkerChaosConfig(seed=5, kill_rate=0.3, hang_rate=0.3,
                                   corrupt_rate=0.3)
        chaos = WorkerChaos(config)
        draws = [chaos.fault_for(shard, attempt)
                 for shard in range(6) for attempt in range(3)]
        assert draws == [chaos.fault_for(shard, attempt)
                         for shard in range(6) for attempt in range(3)]
        # Retries see fresh draws — not every attempt of a shard is
        # doomed to the same fault.
        assert len({chaos.fault_for(0, a) for a in range(20)}) > 1

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            WorkerChaosConfig(kill_rate=0.8, hang_rate=0.4)
        with pytest.raises(ValueError):
            WorkerChaosConfig(kill_rate=-0.1)

    def test_exception_fault_raises(self):
        chaos = WorkerChaos(WorkerChaosConfig(seed=1, exception_rate=1.0))
        with pytest.raises(WorkerChaosFault):
            chaos.on_enter(0, 0)

    def test_corrupt_fault_mangles_result(self):
        scenario = tiny_scenario(n_devices=6)
        [spec] = make_shards(6, 1)
        result = simulate_shard(scenario, spec)
        chaos = WorkerChaos(WorkerChaosConfig(seed=1, corrupt_rate=1.0))
        mangled = chaos.mangle_result(0, 0, result)
        with pytest.raises(ShardResultInvalid):
            validate_shard_result(spec, mangled)


class TestResultValidation:
    def test_accepts_genuine_result(self):
        scenario = tiny_scenario(n_devices=8)
        [spec] = make_shards(8, 1)
        validate_shard_result(spec, simulate_shard(scenario, spec))

    def test_rejects_wrong_type(self):
        [spec] = make_shards(8, 1)
        with pytest.raises(ShardResultInvalid):
            validate_shard_result(spec, "garbage")

    def test_rejects_missing_devices(self):
        scenario = tiny_scenario(n_devices=8)
        [spec] = make_shards(8, 1)
        result = simulate_shard(scenario, spec)
        result.dataset.devices.pop()
        with pytest.raises(ShardResultInvalid):
            validate_shard_result(spec, result)

    def test_rejects_mismatched_spec(self):
        scenario = tiny_scenario(n_devices=8)
        first, second = make_shards(8, 2)
        result = simulate_shard(scenario, first)
        with pytest.raises(ShardResultInvalid):
            validate_shard_result(second, result)


@needs_fork
class TestFaultRecovery:
    """Each fault class ends in the exact serial dataset."""

    def assert_identical_with_history(self, worker_chaos, category,
                                      retry=FAST_RETRY, workers=2,
                                      n_shards=2):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        dataset = run_sharded(scenario, workers=workers,
                              n_shards=n_shards, retry=retry,
                              worker_chaos=worker_chaos)
        assert dataset.record_digest() == serial.record_digest()
        execution = dataset.metadata["execution"]
        categories = {f["category"] for f in execution["failures"]}
        assert category in categories
        assert all(f["kind"] == "infrastructure"
                   for f in execution["failures"])
        return execution

    def test_killed_workers_recover(self):
        execution = self.assert_identical_with_history(
            WorkerChaosConfig(seed=2, kill_rate=1.0), "worker-death")
        # Every attempt dies, so both shards exhaust retries and
        # degrade to inline — and the run still completes.
        assert execution["degraded_shards"] == [0, 1]
        assert execution["retries"] == 2 * FAST_RETRY.max_retries
        assert sorted(execution["reran_shards"]) == [0, 1]

    def test_raising_workers_recover(self):
        self.assert_identical_with_history(
            WorkerChaosConfig(seed=2, exception_rate=1.0),
            "worker-death")

    def test_hung_workers_hit_deadline_and_recover(self):
        retry = RetryPolicy(max_retries=1, backoff_base_s=0.02,
                            shard_timeout_s=0.4)
        execution = self.assert_identical_with_history(
            WorkerChaosConfig(seed=2, hang_rate=1.0, hang_s=30.0),
            "deadline", retry=retry)
        assert execution["degraded_shards"] == [0, 1]

    def test_corrupt_results_rejected_and_recovered(self):
        self.assert_identical_with_history(
            WorkerChaosConfig(seed=2, corrupt_rate=1.0),
            "corrupt-result")

    def test_mixed_seeded_chaos_at_four_workers(self):
        """The acceptance-criteria run: kill + hang + corrupt enabled,
        ``workers=4``, byte-identical output, full failure history."""
        scenario = tiny_scenario(n_devices=40)
        serial = FleetSimulator(scenario).run()
        chaos = WorkerChaosConfig(seed=3, kill_rate=0.2, hang_rate=0.2,
                                  corrupt_rate=0.2, hang_s=10.0)
        dataset = run_sharded(
            scenario, workers=4, n_shards=6,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.02,
                              shard_timeout_s=1.5),
            worker_chaos=chaos,
        )
        assert dataset.record_digest() == serial.record_digest()
        execution = dataset.metadata["execution"]
        # The seeded draws at this seed fault several dispatches; every
        # one of them must be on record.
        assert execution["failures"]
        assert execution["retries"] >= 1
        assert execution["reran_shards"]
        faulted = {f["shard"] for f in execution["failures"]}
        assert faulted == set(execution["reran_shards"])
        assert json.dumps(execution)  # must stay JSON-able

    def test_ab_deltas_survive_chaos(self):
        """Common-random-numbers pairing is chaos-proof: faults change
        scheduling, never records."""
        from repro.core.study import run_ab_evaluation

        scenario = tiny_scenario(n_devices=30, seed=3)
        _, _, clean = run_ab_evaluation(scenario)
        chaos = WorkerChaosConfig(seed=7, kill_rate=0.3)
        vanilla = run_sharded(scenario.vanilla(), workers=2,
                              retry=FAST_RETRY, worker_chaos=chaos)
        patched = run_sharded(scenario.patched(), workers=2,
                              retry=FAST_RETRY, worker_chaos=chaos)
        from repro.analysis.evaluation import evaluate_ab

        assert evaluate_ab(vanilla, patched) == clean


@needs_fork
class TestSimulationFailures:
    def test_simulation_bug_fails_fast_with_worker_traceback(self,
                                                             monkeypatch):
        def broken(self, spec):
            raise RuntimeError("injected simulation bug")

        monkeypatch.setattr(
            "repro.fleet.simulator.FleetSimulator.simulate_shard",
            broken,
        )
        with pytest.raises(ShardSimulationError) as excinfo:
            run_sharded(tiny_scenario(), workers=2, retry=FAST_RETRY)
        message = str(excinfo.value)
        assert "injected simulation bug" in message
        assert "worker traceback" in message
        assert excinfo.value.error_type == "RuntimeError"

    def test_simulation_bug_is_not_retried(self, monkeypatch):
        calls = multiprocessing.get_context("fork").Value("i", 0)

        def counting_bug(self, spec):
            with calls.get_lock():
                calls.value += 1
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(
            "repro.fleet.simulator.FleetSimulator.simulate_shard",
            counting_bug,
        )
        with pytest.raises(ShardSimulationError):
            run_sharded(tiny_scenario(), workers=2, retry=FAST_RETRY)
        # Fail fast: at most one dispatch per shard, no retries of a
        # deterministic failure.
        assert calls.value <= 2


class TestInlineFallback:
    """The engine records *why* it did not run in worker processes."""

    def test_no_start_method_reason_recorded_verbatim(self, monkeypatch):
        monkeypatch.setattr(
            "repro.parallel.engine.preferred_start_method", lambda: None
        )
        dataset = run_sharded(tiny_scenario(n_devices=8), workers=2)
        execution = dataset.metadata["execution"]
        assert execution["mode"] == "inline"
        assert execution["fallback_reason"] == (
            "no multiprocessing start method available"
        )

    def test_supervisor_failure_reason_recorded_verbatim(self,
                                                         monkeypatch):
        class Collapsing:
            def __init__(self, *args, **kwargs):
                from repro.parallel.supervisor import SupervisionReport

                self.report = SupervisionReport()

            def run(self):
                raise RuntimeError("injected pool collapse")

        monkeypatch.setattr("repro.parallel.engine.ShardSupervisor",
                            Collapsing)
        scenario = tiny_scenario(n_devices=8)
        serial = FleetSimulator(scenario).run()
        dataset = run_sharded(scenario, workers=2)
        execution = dataset.metadata["execution"]
        assert execution["mode"] == "inline"
        assert execution["fallback_reason"] == (
            "supervisor failed (RuntimeError: injected pool collapse); "
            "ran inline"
        )
        assert dataset.record_digest() == serial.record_digest()

    def test_invalid_mode_env_raises_documented_valueerror(self,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "threads")
        with pytest.raises(ValueError, match="unknown parallel mode"):
            run_sharded(tiny_scenario(n_devices=8), workers=2)

    def test_single_shard_process_request_runs_inline_silently(self):
        dataset = run_sharded(tiny_scenario(n_devices=8), workers=2,
                              n_shards=1)
        execution = dataset.metadata["execution"]
        assert execution["mode"] == "inline"
        assert "fallback_reason" not in execution
        assert execution["retries"] == 0
        assert execution["reran_shards"] == []

    def test_inline_runs_report_empty_supervision(self):
        dataset = run_sharded(tiny_scenario(n_devices=8), workers=2,
                              mode="inline")
        execution = dataset.metadata["execution"]
        assert execution["retries"] == 0
        assert execution["reran_shards"] == []
        assert execution["degraded_shards"] == []
        assert execution["failures"] == []
