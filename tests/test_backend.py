"""Tests for the backend: streaming aggregation and upload ingestion."""

import json
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.ingest import (
    QUARANTINE_CAPACITY,
    IngestionServer,
    ServiceUnavailable,
)
from repro.backend.streaming import P2Quantile, StreamingStats
from repro.monitoring.uploader import UploadBatcher


class TestStreamingStats:
    def test_matches_numpy(self):
        values = np.random.RandomState(0).lognormal(2.0, 1.0, 2_000)
        stats = StreamingStats()
        stats.extend(values)
        assert stats.count == 2_000
        assert stats.mean == pytest.approx(values.mean())
        assert stats.variance == pytest.approx(values.var(), rel=1e-9)
        assert stats.minimum == values.min()
        assert stats.maximum == values.max()
        assert stats.total == pytest.approx(values.sum())

    def test_small_counts(self):
        stats = StreamingStats()
        assert stats.variance == 0.0
        stats.add(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200),
           st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=200))
    def test_merge_equals_single_pass(self, left, right):
        a = StreamingStats()
        a.extend(left)
        b = StreamingStats()
        b.extend(right)
        merged = a.merge(b)
        combined = StreamingStats()
        combined.extend(left + right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-6,
                                            abs=1e-6)
        assert merged.variance == pytest.approx(combined.variance,
                                                rel=1e-6, abs=1e-3)

    def test_merge_with_empty(self):
        a = StreamingStats()
        a.extend([1.0, 2.0])
        assert a.merge(StreamingStats()).mean == a.mean
        assert StreamingStats().merge(a).count == 2


class TestP2Quantile:
    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_exact_for_tiny_streams(self):
        sketch = P2Quantile(0.5)
        for value in (5.0, 1.0, 3.0):
            sketch.add(value)
        assert sketch.value() == 3.0

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_approximates_numpy_on_lognormal(self, quantile):
        rng = np.random.RandomState(1)
        values = rng.lognormal(1.0, 0.8, 20_000)
        sketch = P2Quantile(quantile)
        for value in values:
            sketch.add(float(value))
        exact = float(np.quantile(values, quantile))
        assert sketch.value() == pytest.approx(exact, rel=0.08)

    def test_approximates_uniform_median(self):
        rng = random.Random(2)
        sketch = P2Quantile(0.5)
        for _ in range(10_000):
            sketch.add(rng.uniform(0.0, 100.0))
        assert sketch.value() == pytest.approx(50.0, abs=3.0)

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    min_size=1, max_size=500))
    def test_estimate_within_observed_range(self, values):
        sketch = P2Quantile(0.75)
        for value in values:
            sketch.add(value)
        assert min(values) <= sketch.value() <= max(values)


def record_dict(device_id=1, duration=30.0, failure_type="DATA_STALL",
                start=100.0) -> dict:
    return dict(
        device_id=device_id, model=3, android_version="9.0",
        has_5g=False, isp="ISP-A", failure_type=failure_type,
        start_time=start, duration_s=duration, bs_id=7, rat="4G",
        signal_level=3, deployment="URBAN", error_code=None,
        resolved_by=None, stages_executed=0, post_transition=False,
        arm="vanilla",
    )


class TestIngestionServer:
    def compress(self, data: dict) -> bytes:
        return zlib.compress(json.dumps(data, sort_keys=True,
                                        default=str).encode())

    def test_accepts_valid_uploads(self):
        server = IngestionServer()
        server.receive(self.compress(record_dict()))
        assert server.accepted == 1
        assert server.records[0].duration_s == 30.0

    def test_deduplicates_retried_uploads(self):
        server = IngestionServer()
        payload = self.compress(record_dict())
        server.receive(payload)
        server.receive(payload)
        assert server.accepted == 1
        assert server.duplicates == 1

    def test_rejects_garbage(self):
        server = IngestionServer()
        server.receive(b"not compressed at all")
        server.receive(zlib.compress(b"[1, 2, 3"))
        server.receive(self.compress({"nope": 1}))
        assert server.malformed == 3
        assert server.accepted == 0

    def test_streaming_aggregates_match(self):
        server = IngestionServer()
        durations = [10.0, 20.0, 30.0, 40.0]
        for index, duration in enumerate(durations):
            server.receive(self.compress(
                record_dict(device_id=index, duration=duration,
                            start=100.0 + index)
            ))
        stats = server.duration_stats["DATA_STALL"]
        assert stats.count == 4
        assert stats.mean == pytest.approx(25.0)
        assert server.duration_share() == {"DATA_STALL": 1.0}

    def test_duration_share_across_types(self):
        server = IngestionServer()
        server.ingest_record(record_dict(device_id=1, duration=90.0))
        server.ingest_record(record_dict(
            device_id=2, duration=10.0,
            failure_type="DATA_SETUP_ERROR",
        ))
        share = server.duration_share()
        assert share["DATA_STALL"] == pytest.approx(0.9)

    def test_end_to_end_with_upload_batcher(self):
        """Device-side batching feeds the backend transport directly."""
        server = IngestionServer()
        batcher = UploadBatcher(transport=server.receive)
        for index in range(5):
            batcher.enqueue(record_dict(device_id=index,
                                        start=float(index)))
        flushed = batcher.maybe_flush(wifi_available=True)
        assert flushed > 0
        assert server.accepted == 5
        assert server.bytes_received == flushed

    def test_receive_many_judges_each_payload_on_its_own(self):
        """A batch is accounted payload by payload exactly as the same
        payloads sent one at a time — a duplicate inside it included."""
        good = [record_dict(device_id=i, start=float(i)) for i in range(3)]
        bad = record_dict(device_id=9)
        bad["unexpected_field"] = 1
        payloads = [
            self.compress(good[0]), b"garbage bytes",
            self.compress(good[1]), self.compress(good[0]),
            self.compress({"nope": 1}), self.compress(bad),
            self.compress(good[2]),
        ]
        batched, single = IngestionServer(), IngestionServer()
        batched.receive_many(payloads)
        for payload in payloads:
            single.receive(payload)
        assert batched.summary() == single.summary()
        assert batched.summary()["accepted"] == 3.0
        assert batched.summary()["duplicates"] == 1.0
        assert batched.records == single.records
        assert batched.quarantine == single.quarantine
        assert batched.accepted_keys == single.accepted_keys
        assert batched.checkpoint() == single.checkpoint()

    def test_faulted_batch_commit_accounts_nothing(self):
        """The store commit comes before any accounting, so a batch
        whose commit faults can be retried in any grouping without a
        quarantine or duplicate being counted twice."""

        class FlakyStore:
            def __init__(self):
                self.fail, self.rows = False, []

            def known_keys(self):
                return set()

            def append_many(self, items):
                if self.fail:
                    raise OSError("disk on fire")
                self.rows.extend(items)

        store = FlakyStore()
        server = IngestionServer()
        server.attach_store(store)
        store.fail = True
        payloads = [self.compress(record_dict(device_id=1)), b"junk",
                    self.compress(record_dict(device_id=1)),
                    self.compress(record_dict(device_id=2))]
        with pytest.raises(OSError):
            server.receive_many(payloads)
        assert server.summary() == {
            **IngestionServer().summary(),
            "bytes_received": float(sum(map(len, payloads))),
        }
        assert server.accepted_keys == frozenset()
        assert server.quarantine == []
        store.fail = False
        for payload in payloads:
            server.receive(payload)
        assert (server.accepted, server.duplicates,
                server.quarantined) == (2, 1, 1)
        assert len(store.rows) == 2

    def test_receive_many_refuses_the_whole_batch_while_down(self):
        server = IngestionServer()
        server.take_down()
        with pytest.raises(ServiceUnavailable):
            server.receive_many([self.compress(record_dict()), b"junk"])
        assert server.summary() == IngestionServer().summary()

    def test_summary_keys(self):
        summary = IngestionServer().summary()
        assert set(summary) == {"accepted", "duplicates", "malformed",
                                "quarantined", "quarantine_evicted",
                                "bytes_received"}

    def test_malformed_record_does_not_poison_dedup(self):
        """A malformed-but-complete record must not enter the dedup
        set: its retry is malformed again, not a 'duplicate', and a
        corrected record with overlapping content is accepted."""
        server = IngestionServer()
        bad = record_dict()
        bad["unexpected_field"] = 1  # complete, but fails to parse
        server.ingest_record(dict(bad))
        server.ingest_record(dict(bad))
        assert server.malformed == 2
        assert server.duplicates == 0
        assert server.accepted == 0
        server.ingest_record(record_dict())  # the corrected retry
        assert server.accepted == 1

    def test_malformed_payloads_are_quarantined(self):
        server = IngestionServer()
        server.receive(b"garbage bytes")
        bad = record_dict()
        bad["unexpected_field"] = 1
        server.ingest_record(bad)
        server.ingest_record({"nope": 1})
        assert server.quarantined == 3
        reasons = {entry["reason"] for entry in server.quarantine}
        assert reasons == {"undecodable", "schema-mismatch",
                           "missing-fields"}

    def test_quarantine_is_bounded(self):
        server = IngestionServer()
        for _ in range(QUARANTINE_CAPACITY + 50):
            server.receive(b"junk")
        assert server.quarantined == QUARANTINE_CAPACITY + 50
        assert len(server.quarantine) == QUARANTINE_CAPACITY

    def test_unavailable_server_refuses_uploads(self):
        server = IngestionServer()
        server.take_down()
        with pytest.raises(ServiceUnavailable):
            server.receive(self.compress(record_dict()))
        assert server.bytes_received == 0
        server.bring_up()
        server.receive(self.compress(record_dict()))
        assert server.accepted == 1

    def test_checkpoint_restore_resumes_without_double_count(self):
        """A crashed server restored from a snapshot absorbs the full
        retry storm: pre-snapshot records dedup, post-snapshot records
        are accepted exactly once."""
        server = IngestionServer()
        early = [record_dict(device_id=i, start=float(i))
                 for i in range(6)]
        late = [record_dict(device_id=i, start=float(i))
                for i in range(6, 10)]
        for data in early:
            server.receive(self.compress(data))
        snapshot = json.loads(json.dumps(server.checkpoint()))
        for data in late:
            server.receive(self.compress(data))
        assert server.accepted == 10

        restored = IngestionServer.restore(snapshot)
        assert restored.accepted == 6
        for data in early + late:  # devices retry everything
            restored.receive(self.compress(data))
        assert restored.accepted == 10
        assert restored.duplicates == 6
        stats = restored.duration_stats["DATA_STALL"]
        assert stats.count == 10
        assert stats.mean == pytest.approx(30.0)
        assert restored.duration_median.count == 10

    def test_checkpoint_restore_round_trip_is_exact(self):
        """Restore is lossless for everything the snapshot carries:
        aggregates, the P² median state, the dedup set, availability,
        and the eviction counter — checked field for field."""
        rng = random.Random(41)
        originals = [
            record_dict(
                device_id=index % 8,
                duration=round(1.0 + rng.random() * 300.0, 3),
                failure_type=("DATA_STALL" if index % 3
                              else "DATA_SETUP_ERROR"),
                start=float(index),
            )
            for index in range(40)
        ]
        server = IngestionServer()
        for data in originals:
            server.receive(self.compress(data))
        server.receive(b"junk")  # some quarantine state too
        server.quarantine_evicted = 3
        server.take_down()       # snapshot mid-outage

        snapshot = json.loads(json.dumps(server.checkpoint()))
        restored = IngestionServer.restore(snapshot)

        assert restored.available is False
        assert restored._seen == server._seen
        assert restored.accepted_keys == server.accepted_keys
        assert restored.summary() == server.summary()
        assert restored.quarantine_evicted == 3
        assert set(restored.duration_stats) == set(server.duration_stats)
        for failure_type, stats in server.duration_stats.items():
            mirror = restored.duration_stats[failure_type]
            assert mirror.to_dict() == stats.to_dict()
        assert (restored.duration_median.to_dict()
                == server.duration_median.to_dict())
        assert restored.duration_median.value() == pytest.approx(
            server.duration_median.value()
        )
        assert ([r.to_dict() for r in restored.records]
                == [r.to_dict() for r in server.records])
        # And the restored server *behaves* identically: still down,
        # and once up, pre-snapshot records dedup instead of recount.
        with pytest.raises(ServiceUnavailable):
            restored.receive(self.compress(originals[0]))
        restored.bring_up()
        restored.receive(self.compress(originals[0]))
        assert restored.duplicates == server.duplicates + 1

    def test_quarantine_eviction_is_counted_and_keeps_newest(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        server = IngestionServer()
        with use_registry(registry):
            for index in range(QUARANTINE_CAPACITY + 7):
                server.receive(b"junk-%d" % index)
        assert server.quarantine_evicted == 7
        assert len(server.quarantine) == QUARANTINE_CAPACITY
        # Oldest evicted, newest retained.
        assert server.quarantine[0]["payload"] == b"junk-7"
        assert (server.quarantine[-1]["payload"]
                == b"junk-%d" % (QUARANTINE_CAPACITY + 6))
        assert registry.snapshot()["counters"][
            "ingest_quarantine_evicted_total"
        ] == 7
        assert server.summary()["quarantine_evicted"] == 7.0
