"""End-to-end tests for the live ingest service.

Every test talks to a real TCP socket: the batcher/transport stack on
one side, the threaded :class:`IngestService` on the other, so the
overload behaviours (backpressure acks, breaker unavailability,
slow-loris deadlines, drain acks) are exercised through the same code
path production traffic would take.
"""

import base64
import json
import os
import random
import threading
import time
from contextlib import contextmanager

import pytest

from repro.chaos import DiskIO
from repro.chaos.config import ChaosConfig
from repro.chaos.reconcile import payload_key, reconcile
from repro.dataset.records import record_identity
from repro.monitoring.uploader import UploadBatcher
from repro.obs import SUM_SCALE, ThreadSafeRegistry, use_registry
from repro.serve import (
    CLOSED,
    OPEN,
    IngestService,
    PayloadTooLarge,
    RetryAfter,
    ServeConfig,
    ServeConnectionError,
    ServeUnavailable,
    SocketTransport,
)
from repro.serve.harness import (
    drain_fleet,
    drive_fleet,
    malformed_flood,
    reconcile_fleet,
    stalled_clients,
    synthetic_records,
)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


@contextmanager
def serving(config=None, server=None):
    service = IngestService(server=server, config=config).start()
    try:
        yield service
    finally:
        service.stop(drain=False)


@contextmanager
def blocked_ingest(service):
    """Gate the worker inside ``server.receive_many`` so payloads pile
    up in the admission queue deterministically."""
    entered = threading.Event()
    release = threading.Event()
    real = service.server.receive_many

    def gated(payloads):
        entered.set()
        release.wait(timeout=10.0)
        real(payloads)

    service.server.receive_many = gated
    try:
        yield entered, release
    finally:
        release.set()
        service.server.receive_many = real


def dataset(server):
    """The accepted records as a sorted list of canonical JSON lines —
    the byte-level basis for run-equivalence assertions."""
    return sorted(
        json.dumps(record.to_dict(), sort_keys=True, default=str)
        for record in server.records
    )


class TestHappyPath:
    def test_fleet_round_trip_reconciles_clean(self):
        records = synthetic_records(n_devices=6, per_device=3)
        registry = ThreadSafeRegistry()
        with use_registry(registry), serving() as service:
            drive = drive_fleet(records, *service.address)
            drain_fleet(drive)
            assert wait_until(lambda: service.server.accepted == 18)
            report = reconcile_fleet(drive, service.server,
                                     service=service)
            drive.close()
        assert report.ok
        assert report.accepted == 18
        assert report.emitted == 18
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve_admitted_total"] == 18
        assert snapshot["counters"]["serve_frames_total"] == 18
        assert snapshot["counters"]["ingest_accepted_total"] == 18
        stages = [key for key in snapshot["histograms"]
                  if key.startswith("serve_stage_seconds")]
        assert any('stage="ingest"' in key for key in stages)
        assert any('stage="queue"' in key for key in stages)

    def test_duplicate_sends_are_absorbed_by_dedup(self):
        record = synthetic_records(1, 1)[0]
        with serving() as service:
            batcher = UploadBatcher(
                transport=SocketTransport(*service.address, sender=1)
            )
            payload_size = batcher.enqueue(record)
            assert batcher.maybe_flush(True) == payload_size
            batcher.enqueue(record)
            batcher.maybe_flush(True)
            assert wait_until(
                lambda: service.server.accepted == 1
                and service.server.duplicates == 1
            )

    def test_malformed_payloads_are_acked_and_quarantined(self):
        with serving() as service:
            acks = malformed_flood(*service.address, frames=5)
            assert acks == {"ok": 5}
            assert wait_until(
                lambda: service.server.quarantined == 5
            )


class TestBackpressure:
    def test_full_queue_acks_retry_after(self):
        config = ServeConfig(queue_capacity=1, retry_after_s=2.0)
        with serving(config) as service:
            with blocked_ingest(service) as (entered, release):
                filler = SocketTransport(*service.address, sender=100)
                filler(b"filler-1")   # worker takes this and blocks
                assert entered.wait(timeout=5.0)
                filler(b"filler-2")   # fills the single queue slot
                probe = SocketTransport(*service.address, sender=101)
                with pytest.raises(RetryAfter) as excinfo:
                    probe(b"overflow")
                assert excinfo.value.retry_after_s >= 2.0
                assert service.queue.rejected == 1
                release.set()
            # Backpressure was advisory, not loss: a later retry lands.
            assert wait_until(lambda: service.queue.depth == 0)
            probe(b"overflow")
            assert wait_until(lambda: service.server.quarantined == 3)
            filler.close()
            probe.close()

    def test_batcher_folds_server_retry_after_into_backoff(self):
        config = ServeConfig(queue_capacity=1, retry_after_s=2.0)
        record = synthetic_records(1, 1)[0]
        with serving(config) as service:
            batcher = UploadBatcher(
                transport=SocketTransport(*service.address, sender=5),
                base_backoff_s=0.5, max_backoff_s=60.0, jitter=0.5,
                rng=random.Random(7),
            )
            with blocked_ingest(service) as (entered, release):
                filler = SocketTransport(*service.address, sender=100)
                filler(b"filler-1")   # worker takes this and blocks
                assert entered.wait(timeout=5.0)
                filler(b"filler-2")   # fills the single queue slot
                batcher.enqueue(record)
                batcher.maybe_flush(True, now=100.0)
                # The payload stayed spooled and the server's delay
                # (>= 2s) beat the local jittered draw (<= 0.75s).
                assert batcher.pending_payloads == 1
                assert batcher.retry_signals == 1
                assert batcher.next_attempt_s >= 102.0
                release.set()
            assert wait_until(lambda: service.queue.depth == 0)
            for step in range(1, 20):
                if not batcher.pending_payloads:
                    break
                batcher.maybe_flush(True, now=100.0 + step * 120.0)
                time.sleep(0.01)
            assert wait_until(lambda: service.server.accepted == 1)
            report = reconcile(
                {record_identity(record)}, service.server, [batcher],
                service=service,
            )
        assert report.ok
        assert report.accepted == 1
        assert report.retry_signals == 1


class TestProtection:
    def test_oversized_payload_is_rejected_permanently(self):
        config = ServeConfig(max_frame_bytes=64)
        record = synthetic_records(1, 1)[0]
        with serving(config) as service:
            batcher = UploadBatcher(
                transport=SocketTransport(*service.address, sender=3)
            )
            batcher.enqueue(record)
            batcher.maybe_flush(True, now=1.0)
            assert batcher.rejected_payloads == 1
            assert batcher.pending_payloads == 0
            assert batcher.rejected_keys == [record_identity(record)]
            assert wait_until(lambda: service.oversized_frames == 1)
            report = reconcile(
                {record_identity(record)}, service.server, [batcher],
                service=service,
            )
        assert report.ok
        assert report.rejected == 1
        assert report.accepted == 0

    def test_raw_oversized_frame_raises_payload_too_large(self):
        config = ServeConfig(max_frame_bytes=64)
        with serving(config) as service:
            transport = SocketTransport(*service.address)
            with pytest.raises(PayloadTooLarge):
                transport(b"x" * 65)

    def test_slow_loris_connections_hit_the_read_deadline(self):
        config = ServeConfig(read_deadline_s=0.2)
        with serving(config) as service:
            closed = stalled_clients(*service.address, clients=3,
                                     wait_s=3.0)
            assert closed == 3
            assert wait_until(lambda: service.deadline_closes == 3)

    def test_connection_cap_refuses_newcomers(self):
        config = ServeConfig(max_connections=1, read_deadline_s=5.0)
        with serving(config) as service:
            first = SocketTransport(*service.address, sender=1)
            first(b"keepalive")  # holds the only connection slot
            second = SocketTransport(*service.address, sender=2)
            with pytest.raises(ServeConnectionError):
                second(b"refused")
            assert wait_until(
                lambda: service.connections_refused >= 1
            )
            first.close()
            second.close()


class TestBreaker:
    def test_breaker_trips_serves_unavailable_and_recovers(self):
        config = ServeConfig(breaker_threshold=2, breaker_reset_s=0.4)
        records = synthetic_records(1, 2)
        registry = ThreadSafeRegistry()
        with use_registry(registry), serving(config) as service:
            service.server.take_down()
            transport = SocketTransport(*service.address, sender=0)
            batcher = UploadBatcher(transport=transport)
            batcher.enqueue(records[0])
            batcher.maybe_flush(True)  # acked OK, then ingest faults
            assert wait_until(
                lambda: service.breaker.state == OPEN
            )
            # Front end now refuses up front, hinting at the timer.
            with pytest.raises(ServeUnavailable) as excinfo:
                transport(b"while-open")
            assert excinfo.value.retry_after_s is not None
            assert service.unavailable_acks >= 1
            # Downstream heals; the breaker probes and closes, and the
            # owned (requeued) payload finally lands.
            service.server.bring_up()
            assert wait_until(
                lambda: service.breaker.state == CLOSED
                and service.server.accepted == 1
            )
            batcher.enqueue(records[1])
            batcher.maybe_flush(True)
            assert wait_until(lambda: service.server.accepted == 2)
            assert service.breaker.trips >= 1
            assert service.breaker.recoveries >= 1
            transport.close()
        counters = registry.snapshot()["counters"]
        assert counters[
            'serve_breaker_transitions_total{from="closed",to="open"}'
        ] >= 1
        assert counters[
            'serve_breaker_transitions_total'
            '{from="half-open",to="closed"}'
        ] >= 1
        assert counters['serve_ingest_faults_total'] >= 2


class TestOverloadPolicies:
    def test_shed_oldest_losses_are_classified_not_mysteries(self):
        config = ServeConfig(queue_capacity=2, policy="shed-oldest")
        records = synthetic_records(n_devices=4, per_device=1)
        keys = {record_identity(r) for r in records}
        with serving(config) as service:
            batchers = []
            with blocked_ingest(service) as (entered, _release):
                for index, record in enumerate(records):
                    batcher = UploadBatcher(
                        transport=SocketTransport(
                            *service.address, sender=index
                        )
                    )
                    batcher.enqueue(record)
                    batcher.maybe_flush(True)
                    batchers.append(batcher)
                    if index == 0:
                        # Ensure the worker holds the first payload so
                        # the remaining three race only the queue.
                        assert entered.wait(timeout=5.0)
            # 4 acked, capacity 2 + 1 in the worker's hand: exactly
            # one was shed, with its identity accounted.
            assert len(service.shed_keys) == 1
            assert wait_until(lambda: service.server.accepted == 3)
            report = reconcile(keys, service.server, batchers,
                               service=service)
            for batcher in batchers:
                batcher.transport.close()
        assert report.ok
        assert report.accepted == 3
        assert report.server_shed == 1

    def test_queued_payloads_reconcile_as_in_flight(self):
        records = synthetic_records(n_devices=3, per_device=1)
        with serving() as service:
            with blocked_ingest(service) as (entered, release):
                hold = SocketTransport(*service.address, sender=99)
                hold(b"worker-bait")
                assert entered.wait(timeout=5.0)
                keys = set()
                for index, record in enumerate(records):
                    batcher = UploadBatcher(
                        transport=SocketTransport(
                            *service.address, sender=index
                        )
                    )
                    batcher.enqueue(record)
                    batcher.maybe_flush(True)
                    keys.add(record_identity(record))
                # All three acked but none ingested: the service owns
                # them, and says so.
                assert service.queued_keys == keys
                report = reconcile(keys, service.server, [],
                                   service=service)
                assert report.ok
                assert report.in_flight == 3
                release.set()
            assert wait_until(lambda: service.server.accepted == 3)
            hold.close()


class TestDrainResume:
    def test_graceful_drain_flushes_and_checkpoints(self, tmp_path):
        records = synthetic_records(n_devices=4, per_device=2)
        path = tmp_path / "serve.ckpt"
        service = IngestService().start()
        drive = drive_fleet(records, *service.address)
        drain_fleet(drive)
        assert wait_until(lambda: service.server.accepted == 8)
        result = service.stop(checkpoint_path=path)
        drive.close()
        assert result.drained
        assert result.leftover == 0
        assert result.checkpoint_path == str(path)
        snapshot = json.loads(path.read_text())
        assert snapshot["format"] == 1
        assert snapshot["server"]["accepted"] == 8
        assert snapshot["queue"] == []

    def test_interrupted_run_resumes_to_identical_dataset(
        self, tmp_path
    ):
        records = synthetic_records(n_devices=5, per_device=3)
        # -- control: one uninterrupted run ----------------------------
        with serving() as control:
            drive = drive_fleet(records, *control.address)
            drain_fleet(drive)
            assert wait_until(lambda: control.server.accepted == 15)
            control_dataset = dataset(control.server)
            drive.close()
        # -- interrupted: backend down, SIGTERM-style stop mid-run -----
        config = ServeConfig(breaker_threshold=2, breaker_reset_s=60.0,
                             drain_timeout_s=0.3)
        path = tmp_path / "serve.ckpt"
        service = IngestService(config=config).start()
        service.server.take_down()
        drive = drive_fleet(records, *service.address)
        result = service.stop(checkpoint_path=path)
        # Nothing could be ingested: every record is either still
        # spooled client-side or checkpointed from the queue.
        assert service.server.accepted == 0
        assert path.exists()
        snapshot = json.loads(path.read_text())
        assert len(snapshot["queue"]) == result.leftover
        report = reconcile(drive.emitted, service.server,
                           drive.batchers.values(), service=snapshot)
        assert report.ok
        assert report.accepted == 0
        assert report.in_flight == 15
        # -- resume and finish the run ---------------------------------
        resumed = IngestService.resume(path, config=ServeConfig())
        resumed.server.bring_up()
        resumed.start()
        drive = drive_fleet([], *resumed.address, drive=drive)
        drain_fleet(drive)
        assert wait_until(lambda: resumed.server.accepted == 15)
        final = reconcile_fleet(drive, resumed.server, service=resumed)
        assert final.ok
        assert final.accepted == 15
        # The resumed run converged on byte-identical records.
        assert dataset(resumed.server) == control_dataset
        resumed.stop()
        drive.close()


class TestPayloadOwnership:
    """Regressions for the serve-layer ownership guarantees: an acked
    payload is ingested, checkpointed, or shed *with accounting* —
    never silently dropped, and never able to wedge the queue."""

    def test_resume_restores_admission_accounting(self, tmp_path):
        """A drain checkpoint carries the admission counters and shed
        identities; resume must restore them, or pre-restart sheds
        reconcile as unexplained losses."""
        config = ServeConfig(queue_capacity=2, policy="shed-oldest")
        records = synthetic_records(n_devices=4, per_device=1)
        path = tmp_path / "serve.ckpt"
        service = IngestService(config=config).start()
        with blocked_ingest(service) as (entered, _release):
            for index, record in enumerate(records):
                batcher = UploadBatcher(
                    transport=SocketTransport(
                        *service.address, sender=index
                    )
                )
                batcher.enqueue(record)
                batcher.maybe_flush(True)
                batcher.transport.close()
                if index == 0:
                    assert entered.wait(timeout=5.0)
        assert len(service.shed_keys) == 1
        shed_before = list(service.shed_keys)
        service.stop(checkpoint_path=path)
        summary_before = service.queue.summary()
        resumed = IngestService.resume(path, config=config)
        assert resumed.shed_keys == shed_before
        summary_after = resumed.queue.summary()
        for counter in ("admitted", "rejected", "shed", "shed_bytes"):
            assert summary_after[counter] == summary_before[counter]
        assert (summary_after["depth_high_watermark"]
                >= summary_before["depth_high_watermark"])

    def test_drain_without_checkpoint_sheds_with_accounting(self):
        """stop(drain=True) with no checkpoint path must turn queued
        payloads into accounted server-side sheds, not silent loss."""
        config = ServeConfig(breaker_threshold=2, breaker_reset_s=60.0,
                             drain_timeout_s=0.2)
        records = synthetic_records(n_devices=5, per_device=1)
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            service = IngestService(config=config).start()
            service.server.take_down()
            drive = drive_fleet(records, *service.address)
            result = service.stop(checkpoint_path=None)
            drive.close()
        assert result.leftover > 0
        assert result.checkpoint_path is None
        assert len(service.shed_keys) == result.leftover
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            "serve_drain_discarded_total"] == result.leftover
        report = reconcile(drive.emitted, service.server,
                           drive.batchers.values(), service=service)
        assert report.ok, report.render()
        assert report.server_shed == result.leftover

    def test_poison_payload_is_quarantined_not_requeued_forever(self):
        """One payload that deterministically faults downstream must
        exhaust its retry budget and be shed with identity accounting
        — not wedge every payload queued behind it."""
        config = ServeConfig(ingest_retry_limit=3,
                             breaker_threshold=100)
        poison = synthetic_records(n_devices=1, per_device=1,
                                   seed=13)[0]
        good = synthetic_records(n_devices=3, per_device=1)
        registry = ThreadSafeRegistry()
        with use_registry(registry), serving(config) as service:
            poison_key = record_identity(poison)
            real = service.server.receive_many

            def faulting(payloads):
                if poison_key in map(payload_key, payloads):
                    raise ValueError("downstream chokes on this one")
                real(payloads)

            service.server.receive_many = faulting
            batchers = []
            for index, record in enumerate([poison] + good):
                batcher = UploadBatcher(
                    transport=SocketTransport(
                        *service.address, sender=index
                    )
                )
                batcher.enqueue(record)
                batcher.maybe_flush(True)
                batchers.append(batcher)
            assert wait_until(lambda: service.server.accepted == 3)
            assert wait_until(lambda: service.poisoned == 1)
            service.server.receive_many = real
            assert poison_key in service.shed_keys
            report = reconcile(
                {record_identity(r) for r in [poison] + good},
                service.server, batchers, service=service,
            )
            for batcher in batchers:
                batcher.transport.close()
        assert report.ok, report.render()
        assert report.accepted == 3
        assert report.server_shed == 1
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            "serve_poison_quarantined_total"] == 1
        assert snapshot["counters"][
            'serve_shed_total{policy="poison"}'] == 1

    def test_transient_outage_does_not_consume_retry_budget(self):
        """ServiceUnavailable faults are the downstream's fault, not
        the payload's: an outage longer than the retry budget must not
        quarantine owned payloads as poison."""
        config = ServeConfig(ingest_retry_limit=2,
                             breaker_threshold=1000,
                             breaker_reset_s=0.01)
        record = synthetic_records(n_devices=1, per_device=1)[0]
        with serving(config) as service:
            service.server.take_down()
            batcher = UploadBatcher(
                transport=SocketTransport(*service.address, sender=1)
            )
            batcher.enqueue(record)
            batcher.maybe_flush(True)
            # Give the worker time for well over ingest_retry_limit
            # failed attempts against the downed backend.
            assert wait_until(lambda: service.ingest_faults > 10)
            assert service.poisoned == 0
            service.server.bring_up()
            assert wait_until(lambda: service.server.accepted == 1)
            batcher.transport.close()

    def test_connections_gauge_falls_back_to_zero_on_close(self):
        """serve_connections_active is a level, not a high-water mark:
        it must fall when clients disconnect."""
        registry = ThreadSafeRegistry()

        def gauge():
            return registry.snapshot()["gauges"].get(
                "serve_connections_active"
            )

        with use_registry(registry), serving() as service:
            first = SocketTransport(*service.address, sender=1)
            second = SocketTransport(*service.address, sender=2)
            record_a, record_b = synthetic_records(2, 1)
            for transport, record in ((first, record_a),
                                      (second, record_b)):
                batcher = UploadBatcher(transport=transport)
                batcher.enqueue(record)
                batcher.maybe_flush(True)
            assert wait_until(lambda: gauge() == 2.0)
            first.close()
            assert wait_until(lambda: gauge() == 1.0)
            second.close()
            assert wait_until(lambda: gauge() == 0.0)


class TestChaosSoak:
    def test_chaotic_fleet_reconciles_with_zero_unexplained(self):
        chaos = ChaosConfig(
            seed=99, drop_rate=0.15, duplicate_rate=0.1,
            corrupt_rate=0.08, reorder_rate=0.05,
        )
        records = synthetic_records(n_devices=10, per_device=4)
        with serving() as service:
            drive = drive_fleet(records, *service.address, chaos=chaos)
            drain_fleet(drive)
            assert wait_until(lambda: service.queue.depth == 0)
            time.sleep(0.05)  # let the worker finish the last payload
            report = reconcile_fleet(drive, service.server,
                                     service=service)
            drive.close()
        assert report.ok, report.render()
        assert report.emitted == 40
        assert (report.accepted + report.explained_losses
                == report.emitted)
        # Chaos actually did something worth explaining.
        assert report.duplicates + report.quarantined > 0


class Downstream:
    """Stands in for ``server.receive_many``: logs every call's
    payload identities, can hold the worker inside a call so a batch
    piles up behind it, and can fault calls."""

    def __init__(self, service):
        self.calls = []
        self.hold = 0
        self.entered = threading.Semaphore(0)
        self.release = threading.Semaphore(0)
        self.fault = lambda keys: None
        self.real = service.server.receive_many
        service.server.receive_many = self

    def __call__(self, payloads):
        keys = [payload_key(p) for p in payloads]
        self.calls.append(keys)
        if self.hold:
            self.hold -= 1
            self.entered.release()
            self.release.acquire(timeout=10.0)
        exc = self.fault(keys)
        if exc is not None:
            raise exc
        self.real(payloads)


def send_each(service, records):
    """One connection per record, sent in order; the batchers."""
    batchers = []
    for index, record in enumerate(records):
        batcher = UploadBatcher(transport=SocketTransport(
            *service.address, sender=index
        ))
        batcher.enqueue(record)
        batcher.maybe_flush(True)
        batchers.append(batcher)
    return batchers


class TestGroupCommit:
    def pile_up(self, service, downstream, records):
        """Hold the worker on ``records[0]`` while the rest queue, so
        the next batch is exactly ``records[1:]``, in order."""
        downstream.hold = 1
        batchers = send_each(service, records[:1])
        assert downstream.entered.acquire(timeout=5.0)
        batchers += send_each(service, records[1:])
        assert service.queue.depth == len(records) - 1
        return batchers

    def test_worker_commits_what_queued_as_one_batch(self, tmp_path):
        records = synthetic_records(n_devices=6, per_device=1)
        keys = [record_identity(r) for r in records]
        config = ServeConfig(store_dir=str(tmp_path / "store"))
        registry = ThreadSafeRegistry()
        with use_registry(registry), serving(config) as service:
            downstream = Downstream(service)
            batchers = self.pile_up(service, downstream, records)
            downstream.release.release()
            assert wait_until(lambda: service.server.accepted == 6)
            assert downstream.calls == [keys[:1], keys[1:]]
            for batcher in batchers:
                batcher.transport.close()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["store_wal_fsyncs_total"] == 2
        batch = snapshot["histograms"]["serve_ingest_batch_records"]
        assert batch["count"] == 2
        assert batch["sum_scaled"] == 6 * SUM_SCALE
        # Stage latencies stay one observation per record.
        for stage in ("ingest", "queue"):
            hist = snapshot["histograms"][
                f'serve_stage_seconds{{stage="{stage}"}}']
            assert hist["count"] == 6

    def test_faulted_batch_is_retried_one_payload_at_a_time(self):
        """A batch fault blames no payload: it goes back to the head
        in order, and the retry budget and poison quarantine then
        apply per payload exactly as for single appends."""
        config = ServeConfig(ingest_retry_limit=3,
                             breaker_threshold=100)
        poison = synthetic_records(n_devices=1, per_device=1,
                                   seed=13)[0]
        good = synthetic_records(n_devices=4, per_device=1)
        records = [good[0], good[1], poison, good[2], good[3]]
        keys = [record_identity(r) for r in records]
        registry = ThreadSafeRegistry()
        with use_registry(registry), serving(config) as service:
            downstream = Downstream(service)
            downstream.fault = lambda batch: (
                ValueError("downstream chokes on this one")
                if keys[2] in batch else None
            )
            batchers = self.pile_up(service, downstream, records)
            downstream.release.release()
            assert wait_until(lambda: service.server.accepted == 4)
            assert wait_until(lambda: service.poisoned == 1)
            assert downstream.calls == [
                [keys[0]], keys[1:],
                [keys[1]], [keys[2]], [keys[2]], [keys[2]],
                [keys[3]], [keys[4]],
            ]
            # The batch fault consumed nobody's budget: the poison got
            # its full three solo attempts.
            assert service.ingest_faults == 4
            assert service.shed_keys == [keys[2]]
            report = reconcile(set(keys), service.server, batchers,
                               service=service)
            # Back to batches once the faulted one is worked off.
            more = synthetic_records(n_devices=3, per_device=1, seed=77)
            batchers += self.pile_up(service, downstream, more)
            downstream.release.release()
            assert wait_until(lambda: service.server.accepted == 7)
            assert len(downstream.calls[-1]) == 2
            for batcher in batchers:
                batcher.transport.close()
        assert report.ok, report.render()
        assert report.accepted == 4 and report.server_shed == 1
        assert registry.snapshot()["counters"][
            "serve_poison_quarantined_total"] == 1

    def test_outage_on_a_batch_consumes_no_budget(self):
        """A budget of one would poison any payload charged a single
        fault; an outage over a whole batch must charge none."""
        config = ServeConfig(ingest_retry_limit=1,
                             breaker_threshold=1000,
                             breaker_reset_s=0.01)
        records = synthetic_records(n_devices=4, per_device=1)
        keys = [record_identity(r) for r in records]
        with serving(config) as service:
            downstream = Downstream(service)
            batchers = self.pile_up(service, downstream, records)
            service.server.take_down()
            downstream.release.release()
            assert wait_until(lambda: service.ingest_faults > 10)
            assert service.poisoned == 0
            service.server.bring_up()
            assert wait_until(lambda: service.server.accepted == 4)
            # The held payload went back to the head, in front of the
            # three behind it; from then on the four are requeued
            # whole and in order and retried as one batch.
            assert downstream.calls[0] == keys[:1]
            assert downstream.calls[1:] == [keys] * (
                len(downstream.calls) - 1)
            for batcher in batchers:
                batcher.transport.close()

    def test_drain_with_a_batch_in_hand_resumes_losing_nothing(
        self, tmp_path
    ):
        records = synthetic_records(n_devices=5, per_device=1)
        keys = [record_identity(r) for r in records]
        config = ServeConfig(store_dir=str(tmp_path / "store"),
                             drain_timeout_s=0.2)
        path = tmp_path / "serve.ckpt"
        service = IngestService(config=config).start()
        downstream = Downstream(service)
        batchers = self.pile_up(service, downstream, records)
        # Let the first commit through and hold the batch of four in
        # the worker's hand, then SIGTERM-style stop: the disk gives
        # out under the in-hand batch while the drain waits for it.
        downstream.hold = 1
        downstream.release.release()
        assert downstream.entered.acquire(timeout=5.0)
        downstream.fault = lambda batch: OSError("disk gave out")
        stopping = threading.Thread(
            target=service.stop, kwargs={"checkpoint_path": path}
        )
        stopping.start()
        assert wait_until(service._stop_worker.is_set)
        downstream.release.release()
        stopping.join(timeout=10.0)
        assert not stopping.is_alive()
        for batcher in batchers:
            batcher.transport.close()
        assert service.server.accepted == 1
        snapshot = json.loads(path.read_text())
        assert [payload_key(base64.b64decode(entry["payload"]))
                for entry in snapshot["queue"]] == keys[1:]
        resumed = IngestService.resume(path, config=config).start()
        try:
            assert wait_until(lambda: resumed.server.accepted == 5)
            assert set(resumed.server.store) == set(keys)
        finally:
            resumed.stop()

    def test_checkpoint_is_fsynced_before_it_replaces_the_old_one(
        self, tmp_path
    ):
        """Regression: the drain checkpoint carries acked payloads, so
        it must be durable before the rename — it used to be written
        with a bare ``write_text`` + ``os.replace``."""

        class CountingIO(DiskIO):
            def __init__(self):
                self.atomic_writes = []

            def write_atomic(self, path, data):
                self.atomic_writes.append((str(path), len(data)))
                super().write_atomic(path, data)

        service = IngestService()
        service.io = CountingIO()
        service.queue.offer(b"owned payload", sender=3)
        path = tmp_path / "deep" / "serve.ckpt"
        fsynced = []
        real_fsync = os.fsync
        os.fsync = lambda fd: (fsynced.append(fd), real_fsync(fd))[1]
        try:
            service.write_checkpoint(path)
        finally:
            os.fsync = real_fsync
        assert service.io.atomic_writes == [
            (str(path), path.stat().st_size)]
        assert len(fsynced) == 1
        assert list(path.parent.iterdir()) == [path]  # no temp left
        restored = IngestService.resume(path)
        assert restored.queue.depth == 1
