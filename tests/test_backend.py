"""Tests for the backend: upload ingestion, dedup and its checkpoint."""

import json
import random
import zlib

import pytest

from repro.analysis.columnar import compute_analysis_block
from repro.backend.ingest import (
    QUARANTINE_CAPACITY,
    IngestionServer,
    ServiceUnavailable,
)
from repro.dataset.store import Dataset
from repro.monitoring.uploader import UploadBatcher
from repro.obs import SUM_SCALE
from repro.serve.query import STATS_FIELDS, QueryEngine
from repro.store import SegmentStore


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


def stored_server(root) -> IngestionServer:
    """A server whose accepted records go to a segment store at
    ``root``."""
    server = IngestionServer()
    server.attach_store(SegmentStore(root))
    return server


def accepted_records(server) -> list:
    """The records ``server``'s store owns, in acceptance order."""
    return server.store.dataset().failures


class TestIngestionServer:
    def compress(self, data: dict) -> bytes:
        return zlib.compress(json.dumps(data, sort_keys=True,
                                        default=str).encode())

    def test_accepts_valid_uploads(self, tmp_path):
        server = stored_server(tmp_path)
        server.receive(self.compress(record_dict()))
        assert server.accepted == 1
        assert accepted_records(server)[0].duration_s == 30.0

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

    def test_streaming_aggregates_match(self, tmp_path):
        """The server keeps no aggregates of its own: the live answer
        over what it accepted is the offline block, exactly."""
        server = stored_server(tmp_path)
        durations = [10.0, 20.0, 30.0, 40.0]
        for index, duration in enumerate(durations):
            server.receive(self.compress(
                record_dict(device_id=index, duration=duration,
                            start=100.0 + index)
            ))
        stats = QueryEngine(server).answer("stats")["result"]
        hist = stats["duration_hist_by_type"]["DATA_STALL"]
        assert hist["count"] == 4
        assert hist["sum_scaled"] == 100 * SUM_SCALE
        offline = compute_analysis_block(
            Dataset(failures=accepted_records(server)))
        assert stats == {key: offline[key] for key in STATS_FIELDS}

    def test_duration_share_across_types(self, tmp_path):
        server = stored_server(tmp_path)
        server.ingest_record(record_dict(device_id=1, duration=90.0))
        server.ingest_record(record_dict(
            device_id=2, duration=10.0,
            failure_type="DATA_SETUP_ERROR",
        ))
        by_type = QueryEngine(server).answer("stats")["result"][
            "duration_hist_by_type"]
        total = sum(hist["sum_scaled"] for hist in by_type.values())
        assert by_type["DATA_STALL"]["sum_scaled"] / total == 0.9

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

    def test_receive_many_judges_each_payload_on_its_own(self, tmp_path):
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
        batched = stored_server(tmp_path / "batched")
        single = stored_server(tmp_path / "single")
        batched.receive_many(payloads)
        for payload in payloads:
            single.receive(payload)
        assert batched.summary() == single.summary()
        assert batched.summary()["accepted"] == 3.0
        assert batched.summary()["duplicates"] == 1.0
        assert accepted_records(batched) == accepted_records(single)
        assert batched.quarantine == single.quarantine
        assert batched.accepted_keys == single.accepted_keys
        # The two stores differ only in where they live.
        assert ({**batched.checkpoint(), "store": None}
                == {**single.checkpoint(), "store": None})

    def test_faulted_batch_commit_accounts_nothing(self):
        """The store commit comes before any accounting, so a batch
        whose commit faults can be retried in any grouping without a
        quarantine or duplicate being counted twice."""

        class FlakyStore:
            """What the server asks of a store: membership, its
            identities, and a group commit — this one can fault."""

            def __init__(self):
                self.fail, self.rows = False, {}

            def __contains__(self, key):
                return key in self.rows

            def __iter__(self):
                return iter(self.rows)

            def append_many(self, items):
                if self.fail:
                    raise OSError("disk on fire")
                self.rows.update((key, data) for data, key in items)

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
        assert restored.accepted_keys == server.accepted_keys

    def test_checkpoint_restore_round_trip_is_exact(self):
        """Restore is lossless for everything the snapshot carries:
        the dedup set, the counters, availability and the eviction
        counter — checked field for field."""
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
