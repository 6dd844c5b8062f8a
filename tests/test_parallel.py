"""Tests for the sharded fleet execution engine (``repro.parallel``).

The load-bearing guarantee is byte-identity: a sharded run must produce
exactly the records of the sequential run, in the same order, for any
worker count — that is what makes ``--workers`` a pure performance knob
and keeps common-random-numbers pairing intact across A/B arms.
"""

import dataclasses
import json

import pytest

from repro.chaos import ChaosConfig
from repro.chaos.transport import ChaosTransport, PayloadDropped
from repro.core.study import run_ab_evaluation
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel import (
    ShardMergeError,
    make_shards,
    merge_shard_datasets,
    merge_telemetry_summaries,
    run_sharded,
    shard_bounds,
)
from repro.parallel.engine import resolve_mode


def tiny_scenario(n_devices=60, seed=11, **kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        n_devices=n_devices,
        seed=seed,
        topology=TopologyConfig(n_base_stations=120, seed=seed + 1),
        **kwargs,
    )


class TestShardBounds:
    @pytest.mark.parametrize("n_devices,n_shards", [
        (10, 1), (10, 3), (10, 10), (1, 1), (7, 2), (100, 8),
    ])
    def test_partition_covers_exactly(self, n_devices, n_shards):
        bounds = shard_bounds(n_devices, n_shards)
        ids = [i for lo, hi in bounds for i in range(lo, hi)]
        assert ids == list(range(1, n_devices + 1))

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in shard_bounds(103, 8)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_more_shards_than_devices_clamps(self):
        bounds = shard_bounds(3, 8)
        assert len(bounds) == 3
        assert all(hi - lo == 1 for lo, hi in bounds)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            shard_bounds(0, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0)

    def test_make_shards_specs(self):
        shards = make_shards(10, 3)
        assert [s.index for s in shards] == [0, 1, 2]
        assert all(s.n_shards == 3 for s in shards)
        assert list(shards[0].device_ids())[0] == 1


class TestDeterminism:
    """Sharded output must be byte-identical to the sequential run."""

    def test_inline_matches_serial(self):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        sharded = run_sharded(scenario, workers=4, mode="inline")
        assert sharded.record_digest() == serial.record_digest()

    def test_process_matches_serial(self):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        sharded = FleetSimulator(scenario).run(workers=2)
        assert sharded.record_digest() == serial.record_digest()

    def test_worker_count_is_irrelevant(self):
        scenario = tiny_scenario(n_devices=23)
        digests = {
            run_sharded(scenario, workers=w, mode="inline").record_digest()
            for w in (2, 3, 5)
        }
        assert len(digests) == 1

    def test_chaos_records_survive_sharding(self):
        scenario = tiny_scenario(chaos=ChaosConfig(seed=5))
        serial = FleetSimulator(scenario).run()
        sharded = run_sharded(scenario, workers=3, mode="inline")
        assert sharded.record_digest() == serial.record_digest()

    def test_rejects_bad_worker_count(self):
        simulator = FleetSimulator(tiny_scenario(n_devices=4))
        with pytest.raises(ValueError):
            simulator.run(workers=0)

    def test_mode_resolution(self, monkeypatch):
        assert resolve_mode(None) == "process"
        assert resolve_mode("inline") == "inline"
        monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")
        assert resolve_mode(None) == "inline"
        with pytest.raises(ValueError):
            resolve_mode("threads")


class TestABParity:
    def test_deltas_identical_across_worker_counts(self):
        scenario = tiny_scenario(n_devices=80, seed=3)
        results = {}
        for workers in (None, 2):
            vanilla, patched, evaluation = run_ab_evaluation(
                scenario, workers=workers
            )
            results[workers] = (
                vanilla.record_digest(), patched.record_digest(),
                dataclasses.asdict(evaluation),
            )
        assert results[None] == results[2]


class TestExecutionMetadata:
    def test_serial_run_records_execution(self):
        dataset = FleetSimulator(tiny_scenario(n_devices=8)).run()
        execution = dataset.metadata["execution"]
        assert execution["mode"] == "serial"
        assert execution["workers"] == 1
        assert execution["n_shards"] == 1
        [shard] = execution["shards"]
        assert shard["n_devices"] == 8
        assert shard["device_lo"] == 1 and shard["device_hi"] == 9
        assert shard["wall_s"] >= 0 and shard["cpu_s"] >= 0

    def test_sharded_run_records_execution(self):
        dataset = run_sharded(tiny_scenario(n_devices=9), workers=3,
                              mode="inline")
        execution = dataset.metadata["execution"]
        assert execution["mode"] == "inline"
        assert execution["workers"] == 3
        assert execution["n_shards"] == 3
        assert [s["shard"] for s in execution["shards"]] == [0, 1, 2]
        assert sum(s["n_devices"] for s in execution["shards"]) == 9
        assert execution["merge_s"] >= 0
        assert json.dumps(execution)  # must stay JSON-able

    def test_process_mode_records_start_method(self):
        dataset = FleetSimulator(tiny_scenario(n_devices=6)).run(workers=2)
        execution = dataset.metadata["execution"]
        if execution["mode"] == "process":
            assert execution["start_method"] in ("fork", "spawn")
        else:  # platform without multiprocessing: fallback recorded
            assert execution["fallback_reason"]


class TestTelemetryMerge:
    def test_sharded_chaos_run_reconciles(self):
        scenario = tiny_scenario(n_devices=40, chaos=ChaosConfig(seed=9))
        serial = FleetSimulator(scenario).run()
        sharded = run_sharded(scenario, workers=2, mode="inline")

        merged = sharded.metadata["telemetry"]
        assert merged["merged_from_shards"] == 2
        assert len(merged["shards"]) == 2
        rec = merged["reconciliation"]
        assert rec["unexplained"] == []
        assert rec["emitted"] == len(sharded.failures)
        assert rec["accepted"] == sum(
            s["reconciliation"]["accepted"] for s in merged["shards"]
        )
        # Same records emitted overall as the serial pipeline saw.
        serial_rec = serial.metadata["telemetry"]["reconciliation"]
        assert rec["emitted"] == serial_rec["emitted"]
        assert json.dumps(merged)

    def test_merge_sums_counters(self):
        shard = {
            "reconciliation": {
                "emitted": 5, "accepted": 4, "duplicates": 1, "shed": 0,
                "budget_exhausted": 0, "quarantined": 1, "in_flight": 0,
                "unexplained": [], "retry_histogram": {"1": 3},
                "transport": {"dropped": 2.0},
            },
            "server": {"accepted": 4.0},
            "n_devices": 10,
            "drain_rounds": 2,
        }
        merged = merge_telemetry_summaries([shard, shard])
        rec = merged["reconciliation"]
        assert rec["emitted"] == 10 and rec["accepted"] == 8
        assert rec["retry_histogram"] == {"1": 6}
        assert rec["transport"] == {"dropped": 4.0}
        assert merged["server"] == {"accepted": 8.0}
        assert merged["n_devices"] == 20
        assert merged["drain_rounds"] == 2

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_telemetry_summaries([])


class TestMergeInvariants:
    def test_rejects_gap_between_shards(self):
        scenario = tiny_scenario(n_devices=9)
        simulator = FleetSimulator(scenario)
        shards = make_shards(9, 3)
        first, _ = simulator.simulate_shard(shards[0])
        third, _ = simulator.simulate_shard(shards[2])
        with pytest.raises(ShardMergeError):
            merge_shard_datasets([first, third])

    def test_merge_is_concatenation(self):
        scenario = tiny_scenario(n_devices=9)
        simulator = FleetSimulator(scenario)
        pieces = [simulator.simulate_shard(spec)[0]
                  for spec in make_shards(9, 3)]
        merged = merge_shard_datasets(pieces)
        assert [d.device_id for d in merged.devices] == list(range(1, 10))


class TestPerSenderTransport:
    """A device's upload fault fate must not depend on how other
    devices' sends interleave — the invariant sharding relies on."""

    def fates(self, order, config):
        """Per-sender outcomes of interleaved sends in ``order``."""
        delivered: list[bytes] = []
        transport = ChaosTransport(delivered.append, config)
        outcomes: dict[str, list[str]] = {}
        counters: dict[str, int] = {}
        for sender in order:
            n = counters.get(sender, 0)
            counters[sender] = n + 1
            payload = f"{sender}:{n}".encode()
            try:
                transport.send(payload, sender=sender)
                outcomes.setdefault(sender, []).append("ok")
            except PayloadDropped:
                outcomes.setdefault(sender, []).append("dropped")
        return outcomes

    def test_fate_independent_of_interleaving(self):
        config = ChaosConfig(seed=13, drop_rate=0.4)
        a_first = self.fates(["a"] * 6 + ["b"] * 6, config)
        interleaved = self.fates(["a", "b"] * 6, config)
        assert a_first == interleaved
