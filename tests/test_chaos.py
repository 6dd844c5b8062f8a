"""Tests for the chaos harness: fault-injecting transport, durable
spooling under faults, and end-to-end reconciliation."""

import json
import zlib

import pytest

from repro.backend.ingest import IngestionServer
from repro.chaos import (
    BackendUnavailable,
    ChaosConfig,
    ChaosTransport,
    PayloadDropped,
    mangle,
    reconcile,
    run_telemetry_pipeline,
)
from repro.dataset.records import FailureRecord, record_identity
from repro.dataset.store import Dataset
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.monitoring.uploader import UploadBatcher
from repro.network.topology import TopologyConfig
from repro.serve.query import QueryEngine
from repro.store import SegmentStore


def make_record(device_id=1, start=100.0, duration=30.0) -> FailureRecord:
    return FailureRecord(
        device_id=device_id, model=3, android_version="9.0",
        has_5g=False, isp="ISP-A", failure_type="DATA_STALL",
        start_time=start, duration_s=duration, bs_id=7, rat="4G",
        signal_level=3, deployment="URBAN",
    )


def make_dataset(n_devices=10, per_device=5) -> Dataset:
    dataset = Dataset()
    for device_id in range(1, n_devices + 1):
        for index in range(per_device):
            dataset.failures.append(make_record(
                device_id=device_id,
                start=100.0 * device_id + 10.0 * index,
                duration=10.0 + index,
            ))
    return dataset


def compress(data: dict) -> bytes:
    return zlib.compress(json.dumps(data, sort_keys=True,
                                    default=str).encode())


class TestChaosConfig:
    def test_defaults_are_valid(self):
        config = ChaosConfig()
        assert config.enabled
        assert config.outages == ()

    @pytest.mark.parametrize("field", [
        "drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate",
        "wifi_availability",
    ])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            ChaosConfig(**{field: 1.5})
        with pytest.raises(ValueError):
            ChaosConfig(**{field: -0.1})

    def test_empty_outage_window_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig(outages=((100.0, 100.0),))

    def test_outages_normalized_to_float_tuples(self):
        config = ChaosConfig(outages=[[10, 20]])
        assert config.outages == ((10.0, 20.0),)

    def test_lossless_strips_every_fault(self):
        chaotic = ChaosConfig(drop_rate=0.3, duplicate_rate=0.2,
                              reorder_rate=0.1, corrupt_rate=0.05,
                              outages=((0.0, 10.0),), max_attempts=4)
        clean = chaotic.lossless()
        assert clean.drop_rate == 0.0
        assert clean.outages == ()
        assert clean.max_attempts == 4  # policy knobs survive


class TestMangle:
    def test_mangled_payload_cannot_decompress(self):
        payload = compress({"a": 1})
        with pytest.raises(zlib.error):
            zlib.decompress(mangle(payload))

    def test_mangle_empty(self):
        assert mangle(b"") == b"\xff"


class TestChaosTransport:
    def test_lossless_passthrough(self):
        received = []
        transport = ChaosTransport(received.append, ChaosConfig())
        send = transport.for_sender(0)
        for index in range(10):
            send(compress({"n": index}))
        assert len(received) == 10
        assert transport.delivered == 10
        assert transport.sends == 10

    def test_drop_raises_and_counts(self):
        received = []
        transport = ChaosTransport(received.append,
                                   ChaosConfig(drop_rate=1.0))
        send = transport.for_sender(0)
        with pytest.raises(PayloadDropped):
            send(b"payload")
        assert transport.dropped == 1
        assert received == []

    def test_duplicate_delivers_twice(self):
        received = []
        transport = ChaosTransport(received.append,
                                   ChaosConfig(duplicate_rate=1.0))
        send = transport.for_sender(0)
        send(b"payload")
        assert received == [b"payload", b"payload"]
        assert transport.duplicated == 1

    def test_corruption_is_delivered_mangled_and_remembered(self):
        server = IngestionServer()
        transport = ChaosTransport(server.receive,
                                   ChaosConfig(corrupt_rate=1.0))
        send = transport.for_sender(0)
        payload = compress(make_record().to_dict())
        send(payload)  # acked: no exception
        assert server.malformed == 1
        assert server.accepted == 0
        assert transport.corrupted_payloads == [payload]

    def test_outage_window_rejects_then_recovers(self):
        received = []
        transport = ChaosTransport(
            received.append, ChaosConfig(outages=((100.0, 200.0),))
        )
        send = transport.for_sender(0)
        transport.advance(50.0)
        send(b"before")
        transport.advance(150.0)
        with pytest.raises(BackendUnavailable):
            send(b"during")
        transport.advance(200.0)  # window end is exclusive
        send(b"after")
        assert received == [b"before", b"after"]
        assert transport.outage_rejections == 1

    def test_time_never_moves_backward(self):
        transport = ChaosTransport(lambda p: None, ChaosConfig())
        transport.advance(100.0)
        transport.advance(50.0)
        assert transport.now == 100.0

    def test_reorder_holds_then_delivers_after_later_payload(self):
        received = []
        config = ChaosConfig(reorder_rate=1.0)
        transport = ChaosTransport(received.append, config)
        send = transport.for_sender(0)
        send(b"first")  # held, but acked
        assert received == []
        assert transport.held_payloads == (b"first",)
        # Force the next send through: a fresh transport rng draw will
        # hold it too at rate 1.0, so flush explicitly instead.
        assert transport.flush_held() == 1
        assert received == [b"first"]

    def test_reorder_flush_rehelds_on_backend_error(self):
        server = IngestionServer()
        transport = ChaosTransport(server.receive,
                                   ChaosConfig(reorder_rate=1.0))
        send = transport.for_sender(0)
        payload = compress(make_record().to_dict())
        send(payload)
        server.take_down()
        with pytest.raises(Exception):
            transport.flush_held()
        assert transport.held_payloads == (payload,)
        server.bring_up()
        transport.flush_held()
        assert server.accepted == 1

    def test_same_seed_same_fault_sequence(self):
        def run():
            received = []
            config = ChaosConfig(seed=99, drop_rate=0.4,
                                 duplicate_rate=0.3)
            transport = ChaosTransport(received.append, config)
            send = transport.for_sender(0)
            outcomes = []
            for index in range(50):
                try:
                    send(bytes([index]))
                    outcomes.append("ack")
                except PayloadDropped:
                    outcomes.append("drop")
            return outcomes, received

        assert run() == run()


class TestReconcile:
    def test_classifies_every_loss_channel(self):
        server = IngestionServer()
        accepted = make_record(device_id=1).to_dict()
        server.ingest_record(accepted)

        batcher = UploadBatcher()
        shed_key = record_identity(make_record(device_id=2).to_dict())
        budget_key = record_identity(make_record(device_id=3).to_dict())
        pending = make_record(device_id=4).to_dict()
        batcher.shed_keys.append(shed_key)
        batcher.budget_exhausted_keys.append(budget_key)
        batcher.enqueue(pending)

        emitted = {
            record_identity(accepted), shed_key, budget_key,
            record_identity(pending),
        }
        report = reconcile(emitted, server, [batcher])
        assert report.emitted == 4
        assert report.accepted == 1
        assert report.shed == 1
        assert report.budget_exhausted == 1
        assert report.in_flight == 1
        assert report.quarantined == 0
        assert report.ok
        assert report.explained_losses == 3

    def test_unexplained_loss_is_flagged(self):
        server = IngestionServer()
        ghost = record_identity(make_record().to_dict())
        report = reconcile({ghost}, server, [])
        assert not report.ok
        assert report.unexplained == (ghost,)
        assert "UNEXPLAINED" in report.render()

    def test_report_to_dict_is_json_able(self):
        server = IngestionServer()
        report = reconcile(set(), server, [UploadBatcher()])
        payload = json.dumps(report.to_dict())
        assert json.loads(payload)["emitted"] == 0


class TestTelemetryPipeline:
    def test_lossless_run_accepts_everything(self):
        dataset = make_dataset()
        result = run_telemetry_pipeline(dataset, ChaosConfig())
        report = result.report
        assert report.emitted == len(dataset.failures)
        assert report.accepted == report.emitted
        assert report.ok
        assert result.server.accepted == report.emitted

    def test_chaotic_run_reconciles_cleanly(self):
        dataset = make_dataset(n_devices=20, per_device=8)
        chaos = ChaosConfig(
            seed=5, drop_rate=0.3, duplicate_rate=0.2,
            reorder_rate=0.1, corrupt_rate=0.05,
        )
        report = run_telemetry_pipeline(dataset, chaos).report
        assert report.ok
        assert report.accepted == (
            report.emitted - report.explained_losses
        )

    def test_retries_recover_from_pure_drop(self):
        dataset = make_dataset(n_devices=15, per_device=6)
        chaos = ChaosConfig(seed=11, drop_rate=0.3)
        result = run_telemetry_pipeline(dataset, chaos)
        assert result.report.accepted == result.report.emitted
        assert result.transport.dropped > 0
        assert sum(attempts * count for attempts, count
                   in result.report.retry_histogram.items()) > 0

    def test_outage_recovers_in_drain(self):
        dataset = make_dataset(n_devices=10, per_device=6)
        starts = [record.start_time for record in dataset.failures]
        outage = (min(starts), max(starts) + 1.0)  # down all run long
        chaos = ChaosConfig(seed=3, outages=(outage,),
                            max_attempts=50)
        result = run_telemetry_pipeline(dataset, chaos)
        assert result.transport.outage_rejections > 0
        assert result.report.ok
        assert result.report.accepted == result.report.emitted

    def test_dedup_holds_under_duplication(self, tmp_path):
        dataset = make_dataset(n_devices=12, per_device=6)
        chaos = ChaosConfig(seed=8, duplicate_rate=0.5)
        server = IngestionServer()
        server.attach_store(SegmentStore(tmp_path / "store"))
        result = run_telemetry_pipeline(dataset, chaos, server)
        assert server.duplicates > 0
        assert server.accepted == result.report.emitted
        assert (QueryEngine(server).fold().block["n_failures"]
                == server.accepted)

    def test_pipeline_is_deterministic(self):
        dataset = make_dataset(n_devices=8, per_device=5)
        chaos = ChaosConfig(seed=21, drop_rate=0.25,
                            duplicate_rate=0.15, corrupt_rate=0.05)
        first = run_telemetry_pipeline(dataset, chaos)
        second = run_telemetry_pipeline(dataset, chaos)
        assert first.report.to_dict() == second.report.to_dict()


class TestScenarioWiring:
    def test_fleet_run_with_chaos_block(self):
        chaos = ChaosConfig(seed=2, drop_rate=0.2, duplicate_rate=0.1)
        scenario = ScenarioConfig(
            n_devices=40, seed=9,
            topology=TopologyConfig(n_base_stations=200, seed=10),
            chaos=chaos,
        )
        simulator = FleetSimulator(scenario)
        dataset = simulator.run()
        assert simulator.telemetry is not None
        report = simulator.telemetry.report
        assert report.ok
        assert report.emitted == len(
            {record_identity(record.to_dict())
             for record in dataset.failures}
        )
        summary = dataset.metadata["telemetry"]
        assert summary["reconciliation"]["unexplained"] == []
        json.dumps(summary)  # metadata must stay JSON-able

    def test_disabled_chaos_is_skipped(self):
        scenario = ScenarioConfig(
            n_devices=10, seed=9,
            topology=TopologyConfig(n_base_stations=20, seed=10),
            chaos=ChaosConfig(enabled=False, drop_rate=0.5),
        )
        simulator = FleetSimulator(scenario)
        dataset = simulator.run()
        assert simulator.telemetry is None
        assert "telemetry" not in dataset.metadata

    def test_no_chaos_block_keeps_legacy_behaviour(self):
        scenario = ScenarioConfig(
            n_devices=10, seed=9,
            topology=TopologyConfig(n_base_stations=20, seed=10),
        )
        simulator = FleetSimulator(scenario)
        simulator.run()
        assert simulator.telemetry is None
