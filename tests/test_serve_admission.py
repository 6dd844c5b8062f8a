"""Tests for the bounded admission queue and its overload policies."""

import json
import sys
import threading
import time
import zlib

import pytest

from repro.dataset.records import record_identity
from repro.serve.admission import AdmissionQueue


def record_payload(device_id: int, start: float = 1.0) -> bytes:
    """A realistic compressed-record payload (identity-recoverable)."""
    data = {
        "device_id": device_id, "failure_type": "DATA_STALL",
        "start_time": start, "duration_s": 5.0,
    }
    return zlib.compress(
        json.dumps(data, sort_keys=True, default=str).encode()
    )


def record_key(device_id: int, start: float = 1.0) -> str:
    return record_identity({
        "device_id": device_id, "failure_type": "DATA_STALL",
        "start_time": start, "duration_s": 5.0,
    })


class TestAdmission:
    def test_admits_below_capacity(self):
        queue = AdmissionQueue(capacity=3)
        for index in range(3):
            decision = queue.offer(b"p%d" % index, sender=index)
            assert decision.admitted
            assert not decision.shed
        assert queue.depth == 3
        assert queue.admitted == 3
        assert queue.depth_high_watermark == 3

    def test_pop_is_fifo(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer(b"a")
        queue.offer(b"b")
        assert queue.pop(timeout=0.1).payload == b"a"
        assert queue.pop(timeout=0.1).payload == b"b"

    def test_pop_times_out_empty(self):
        assert AdmissionQueue().pop(timeout=0.01) is None

    def test_requeue_front_is_bound_exempt(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(b"owned")
        entry = queue.pop(timeout=0.1)
        queue.offer(b"new")  # fills the single slot again
        queue.requeue_front(entry)
        assert queue.depth == 2
        assert queue.pop(timeout=0.1).payload == b"owned"

    def test_pop_many_takes_what_is_queued_up_to_the_limit(self):
        queue = AdmissionQueue(capacity=8)
        for name in (b"a", b"b", b"c", b"d", b"e"):
            queue.offer(name)
        assert [e.payload for e in queue.pop_many(3, timeout=0.1)] == [
            b"a", b"b", b"c"]
        # Never waits to fill: two are queued, two come back at once.
        assert [e.payload for e in queue.pop_many(32, timeout=5.0)] == [
            b"d", b"e"]
        assert queue.pop_many(32, timeout=0.01) == []

    def test_pop_many_blocks_for_the_first_entry_only(self):
        queue = AdmissionQueue()
        timer = threading.Timer(0.05, queue.offer, args=(b"late",))
        timer.start()
        try:
            entries = queue.pop_many(32, timeout=5.0)
        finally:
            timer.join(timeout=5.0)
        assert [e.payload for e in entries] == [b"late"]

    def test_requeue_front_keeps_a_batch_in_order(self):
        queue = AdmissionQueue(capacity=2)
        for name in (b"a", b"b"):
            queue.offer(name)
        batch = queue.pop_many(2, timeout=0.1)
        queue.offer(b"c")
        queue.requeue_front(*batch)
        assert queue.depth == 3  # bound-exempt: already owned
        assert [e.payload for e in queue.pop_many(8, timeout=0.1)] == [
            b"a", b"b", b"c"]

    def test_pop_many_under_concurrent_offers_loses_and_reorders_nothing(
        self
    ):
        """Four producers against one batching consumer that hands
        every third batch back once: each sender's payloads come out
        exactly once and in the order they went in."""
        per_sender, senders = 400, 4
        queue = AdmissionQueue(capacity=per_sender * senders)

        def produce(sender):
            for index in range(per_sender):
                assert queue.offer(b"%d" % index, sender=sender).admitted

        seen = {sender: [] for sender in range(senders)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce, args=(s,))
                       for s in range(senders)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 20.0
            batches = 0
            while (sum(map(len, seen.values())) < per_sender * senders
                   and time.monotonic() < deadline):
                batch = queue.pop_many(7, timeout=0.05)
                batches += 1
                if batch and batches % 3 == 0:
                    queue.requeue_front(*batch)
                    continue
                for entry in batch:
                    seen[entry.sender].append(int(entry.payload))
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert seen == {sender: list(range(per_sender))
                        for sender in range(senders)}
        assert queue.depth == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(policy="drop-everything")
        with pytest.raises(ValueError):
            AdmissionQueue(retry_after_s=0.0)


class TestRejectNewest:
    def test_full_queue_rejects_with_retry_after(self):
        queue = AdmissionQueue(capacity=2, policy="reject-newest",
                               retry_after_s=3.0)
        queue.offer(b"a")
        queue.offer(b"b")
        decision = queue.offer(b"c")
        assert not decision.admitted
        assert decision.retry_after_s >= 3.0
        assert queue.rejected == 1
        assert queue.depth == 2  # nothing already acked was touched

    def test_retry_after_escalates_under_sustained_pressure(self):
        queue = AdmissionQueue(capacity=2, policy="reject-newest",
                               retry_after_s=2.0)
        queue.offer(b"a")
        queue.offer(b"b")
        first = queue.offer(b"x").retry_after_s
        for _ in range(20):
            last = queue.offer(b"x").retry_after_s
        assert last > first
        assert last <= 2.0 * 4.0  # capped at 4x the base

    def test_pressure_resets_once_below_capacity(self):
        queue = AdmissionQueue(capacity=2, policy="reject-newest",
                               retry_after_s=2.0)
        queue.offer(b"a")
        queue.offer(b"b")
        for _ in range(10):
            queue.offer(b"x")
        queue.pop(timeout=0.1)
        queue.offer(b"c")  # below capacity again: pressure resets
        queue.pop(timeout=0.1)
        queue.offer(b"d")
        relaxed = queue.offer(b"x").retry_after_s
        assert relaxed == pytest.approx(2.0 * (1.0 + 1 / 2))


class TestShedOldest:
    def test_evicts_oldest_and_accounts_identity(self):
        queue = AdmissionQueue(capacity=2, policy="shed-oldest")
        queue.offer(record_payload(1), sender=1)
        queue.offer(record_payload(2), sender=2)
        decision = queue.offer(record_payload(3), sender=3)
        assert decision.admitted
        assert len(decision.shed) == 1
        assert decision.shed[0].payload == record_payload(1)
        assert queue.shed == 1
        assert queue.shed_bytes == len(record_payload(1))
        assert queue.shed_keys == [record_key(1)]
        # The queue now holds the two newest payloads.
        assert queue.pop(timeout=0.1).payload == record_payload(2)
        assert queue.pop(timeout=0.1).payload == record_payload(3)

    def test_undecodable_shed_payload_sheds_without_key(self):
        queue = AdmissionQueue(capacity=1, policy="shed-oldest")
        queue.offer(b"junk-not-a-record")
        queue.offer(record_payload(2))
        assert queue.shed == 1
        assert queue.shed_keys == []


class TestFairShare:
    def test_hog_is_rejected_not_light_senders(self):
        queue = AdmissionQueue(capacity=3, policy="fair-share",
                               retry_after_s=1.0)
        queue.offer(record_payload(7, 1.0), sender=7)
        queue.offer(record_payload(7, 2.0), sender=7)
        queue.offer(record_payload(8, 1.0), sender=8)
        # Sender 7 holds 2/3 of the queue: its next offer is rejected.
        decision = queue.offer(record_payload(7, 3.0), sender=7)
        assert not decision.admitted
        assert queue.rejected == 1

    def test_light_sender_sheds_from_the_hog(self):
        queue = AdmissionQueue(capacity=3, policy="fair-share")
        queue.offer(record_payload(7, 1.0), sender=7)
        queue.offer(record_payload(7, 2.0), sender=7)
        queue.offer(record_payload(8, 1.0), sender=8)
        decision = queue.offer(record_payload(9, 1.0), sender=9)
        assert decision.admitted
        # The hog's *oldest* payload was evicted.
        assert queue.shed_keys == [record_key(7, 1.0)]
        senders = [queue.pop(timeout=0.1).sender for _ in range(3)]
        assert senders == [7, 8, 9]

    def test_tied_shares_reject_the_newcomer(self):
        queue = AdmissionQueue(capacity=2, policy="fair-share")
        queue.offer(record_payload(1), sender=1)
        queue.offer(record_payload(2), sender=2)
        # Tie at one each; deterministic tie-break picks the smallest
        # sender id as the hog — sender 1 offering again is the hog.
        decision = queue.offer(record_payload(1, 9.0), sender=1)
        assert not decision.admitted


class TestDrainRestore:
    def test_drain_all_empties_and_returns_everything(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer(b"a", sender=1)
        queue.offer(b"b", sender=2)
        entries = queue.drain_all()
        assert [e.payload for e in entries] == [b"a", b"b"]
        assert queue.depth == 0

    def test_restore_is_bound_exempt(self):
        queue = AdmissionQueue(capacity=1)
        queue.restore([(b"a", 1), (b"b", 2), (b"c", 3)])
        assert queue.depth == 3
        assert queue.pop(timeout=0.1).payload == b"a"

    def test_payload_keys_reports_queued_identities(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer(record_payload(1), sender=1)
        queue.offer(b"junk")
        assert queue.payload_keys() == {record_key(1)}
