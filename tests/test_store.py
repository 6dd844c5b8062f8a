"""The durable segment store: sealing, folding, crash recovery, scrub."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.columnar import compute_analysis_block
from repro.backend.ingest import IngestionServer
from repro.chaos import DiskIO
from repro.dataset.records import FailureRecord, record_identity
from repro.dataset.store import Dataset
from repro.obs import MetricsRegistry, use_registry
from repro.serve.harness import synthetic_records
from repro.store import (
    SegmentCorruptError,
    SegmentStore,
    StoreError,
    decode_segment,
    encode_segment,
    segment_digest,
)
from repro.store.journal import _line_crc, _seal_entry, _verify_line
from tests.store_helpers import drop_wal_of


def _records(n_devices=12, per_device=6, seed=7):
    return synthetic_records(n_devices, per_device, seed=seed)


def _direct_block(records):
    return compute_analysis_block(Dataset(failures=[
        FailureRecord.from_dict(r) for r in records
    ]))


def _store(tmp_path, **kwargs):
    kwargs.setdefault("seal_records", 10)
    return SegmentStore(tmp_path / "store", **kwargs)


class TestSegmentCodec:
    def test_round_trip_is_identity_exact(self):
        rows = _records()
        blob = encode_segment(rows)
        decoded, header = decode_segment(blob)
        assert header["n_records"] == len(rows)
        assert "partition" not in header
        assert decoded == rows
        # The partitioned layout's call still encodes the same rows.
        assert decode_segment(encode_segment(rows, (3, 0)))[0] == rows
        assert ([record_identity(r) for r in decoded]
                == [record_identity(r) for r in rows])

    def test_none_error_code_survives(self):
        rows = _records()
        rows[0] = dict(rows[0], error_code=None)
        decoded, _header = decode_segment(encode_segment(rows))
        assert decoded[0]["error_code"] is None

    def test_bit_flip_is_detected(self):
        blob = bytearray(encode_segment(_records()))
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(SegmentCorruptError, match="digest"):
            decode_segment(bytes(blob))

    def test_truncation_is_detected(self):
        blob = encode_segment(_records())
        with pytest.raises(SegmentCorruptError):
            decode_segment(blob[: len(blob) // 2])

    def test_garbage_is_detected(self):
        with pytest.raises(SegmentCorruptError):
            decode_segment(b"not a segment at all\njunk")


class TestSegmentStore:
    def test_append_seal_and_fold_exactly(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records:
            store.append(r)
        store.flush()
        assert store.n_tail_records == 0
        assert store.n_sealed_records == len(records)
        query = store.fold_analysis()
        assert query.complete
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(_direct_block(records), sort_keys=True))

    def test_append_is_idempotent(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records:
            store.append(r)
            store.append(r)  # retry after an ambiguous fault
        assert len(set(store)) == len(records)
        assert store.fold_analysis().block == _direct_block(records)

    def test_restart_restores_tail_from_wal(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records[:7]:  # below the seal threshold
            store.append(r)
        assert store.n_segments == 0
        reloaded = _store(tmp_path)
        assert reloaded.n_tail_records == 7
        assert set(reloaded) == set(store)
        assert reloaded.fold_analysis().block == _direct_block(records[:7])

    def test_scrub_clean_store_reports_clean(self, tmp_path):
        store = _store(tmp_path)
        for r in _records():
            store.append(r)
        store.flush()
        report = store.scrub()
        assert report.clean and report.ok
        assert report.segments_ok == store.n_segments

    def test_fold_skips_corrupt_segment_with_accounting(self, tmp_path):
        store = _store(tmp_path)
        for r in _records():
            store.append(r)
        store.flush()
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0x01
        victim.write_bytes(bytes(blob))
        query = store.fold_analysis()
        assert not query.complete
        assert query.skipped[0]["segment"] == victim.name
        assert "digest" in query.skipped[0]["reason"]

    def test_fold_is_of_call_time_store_while_ingest_seals(self, tmp_path):
        """An append that seals a tail mid-fold used to raise
        ``KeyError``: the fold read ``_live`` / ``_tails``
        outside the mutex.  It now walks one snapshot, so the answer
        is exactly the block of what the store held at call time."""
        records = _records(8, 6)
        held, late = records[:30], records[30:]

        class AppendsOnFirstSegmentRead(DiskIO):
            store = None

            def read_bytes(self, path):
                if self.store is not None and str(path).endswith(".seg"):
                    store, self.store = self.store, None
                    for r in late:
                        store.append(r)
                return super().read_bytes(path)

        io = AppendsOnFirstSegmentRead()
        store = _store(tmp_path, seal_records=4, io=io)
        for r in held:
            store.append(r)
        io.store = store
        query = store.fold_analysis()
        assert io.store is None  # the mid-fold appends did run
        assert len(set(store)) == len(records)
        assert query.complete
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(_direct_block(held), sort_keys=True))
        assert store.fold_analysis().block == _direct_block(records)

    def test_scrub_quarantines_and_recovers_via_wal(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records:
            store.append(r)
        store.flush()
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        damaged_keys = set(store._live[victim.name]["keys"])
        blob = bytearray(victim.read_bytes())
        blob[-5] ^= 0x40
        victim.write_bytes(bytes(blob))

        report = store.scrub(repair=True)
        assert report.ok and not report.clean
        assert len(report.quarantined) == 1
        assert set(report.recovered_keys) == damaged_keys
        assert not report.lost_keys
        assert (store.quarantine_dir / victim.name).exists()
        assert not victim.exists()
        # Recovered rows are back in the tail; the fold is whole again.
        assert store.fold_analysis().block == _direct_block(records)
        # And the repair is durable across a restart.
        reloaded = _store(tmp_path)
        assert reloaded.fold_analysis().block == _direct_block(records)

    def test_scrub_adopts_valid_orphan(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records:
            store.append(r)
        store.flush()
        # Simulate a crash between rename and commit: drop the last
        # commit line from the journal, leaving a valid orphan file.
        lines = store.journal_path.read_bytes().splitlines(keepends=True)
        commit_at = max(
            i for i, line in enumerate(lines)
            if json.loads(line)["op"] == "commit"
        )
        orphan = json.loads(lines[commit_at])["segment"]
        store.journal_path.write_bytes(
            b"".join(lines[:commit_at] + lines[commit_at + 1:])
        )

        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        assert [f["segment"] for f in report.adopted] == [orphan]
        assert report.ok
        assert reloaded.fold_analysis().block == _direct_block(records)

    def test_scrub_removes_superseded_orphan(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        for r in records:
            store.append(r)
        store.flush()
        # A duplicate file of a committed segment: every key covered.
        source = sorted(store.segments_dir.glob("*.seg"))[0]
        copy = source.with_name("seg-999999.seg")
        copy.write_bytes(source.read_bytes())
        report = _store(tmp_path).scrub(repair=True)
        assert copy.name in report.superseded
        assert not copy.exists()

    def test_scrub_truncates_torn_journal_tail(self, tmp_path):
        store = _store(tmp_path)
        for r in _records()[:5]:
            store.append(r)
        with open(store.journal_path, "ab") as handle:
            handle.write(b'{"op":"wal","key":"torn')  # no newline
        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        assert report.journal_truncated_bytes > 0
        assert reloaded.n_tail_records == 5
        # The next reload sees a clean journal.
        assert _store(tmp_path).scrub().clean

    def test_scrub_after_healed_torn_tail_keeps_later_appends(
        self, tmp_path
    ):
        """Appends after loading a torn journal heal the tail; scrub
        must not truncate back to the load-time offset, which would
        destroy every WAL line fsynced since load."""
        records = _records()
        store = _store(tmp_path)
        for r in records[:5]:
            store.append(r)
        with open(store.journal_path, "ab") as handle:
            handle.write(b'{"op":"wal","key":"torn')  # crash mid-append
        reloaded = _store(tmp_path)  # loads with the tail still torn
        for r in records[5:7]:
            reloaded.append(r)  # append_line terminates the fragment
        report = reloaded.scrub(repair=True)
        # The fragment is now its own complete CRC-failing line, not a
        # torn tail: nothing to truncate, one damaged line reported.
        assert report.journal_truncated_bytes == 0
        assert report.journal_damaged_lines == 1
        assert report.ok
        assert reloaded.n_tail_records == 7
        final = _store(tmp_path)
        assert final.n_tail_records == 7
        assert final.fold_analysis().block == _direct_block(records[:7])

    def test_scrub_removes_leftover_temp_files(self, tmp_path):
        store = _store(tmp_path)
        store.append(_records()[0])
        store.segments_dir.mkdir(parents=True, exist_ok=True)
        leftover = store.segments_dir / "seg-x.seg.tmp123"
        leftover.write_bytes(b"half a segment")
        report = store.scrub(repair=True)
        assert report.temp_files_removed == [str(leftover)]
        assert not leftover.exists()

    def test_scrub_without_repair_leaves_store_untouched(self, tmp_path):
        store = _store(tmp_path)
        for r in _records():
            store.append(r)
        store.flush()
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0x02
        victim.write_bytes(bytes(blob))
        report = store.scrub(repair=False)
        assert len(report.quarantined) == 1
        assert victim.exists()
        assert not store.quarantine_dir.exists()

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(StoreError):
            SegmentStore(tmp_path / "s", seal_records=0)
        with pytest.raises(TypeError):  # seals by volume, not bucket
            SegmentStore(tmp_path / "s", device_bucket=4)

    def test_dataset_view_carries_skip_accounting(self, tmp_path):
        store = _store(tmp_path)
        for r in _records():
            store.append(r)
        store.flush()
        dataset = store.dataset()
        assert dataset.n_failures == store.n_sealed_records
        assert dataset.metadata["store"]["skipped_segments"] == []


class TestReopenHeap:
    """Reopen and scrub keep where each WAL line starts, not what it
    holds, and read back only the lines whose rows the tail takes: their
    heap peak does not grow with the records ever written."""

    def test_reopen_and_scrub_peak_under_a_kilobyte_per_record(
        self, tmp_path
    ):
        records = _records(100, 42)
        root = tmp_path / "store"
        store = SegmentStore(root, seal_records=512)
        for at in range(0, len(records), 100):
            store.append_many([(r, None) for r in records[at:at + 100]])
        del store
        # Imports and lazy set-up happen outside the measurement.
        SegmentStore(root, seal_records=512).scrub(repair=False)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reopened = SegmentStore(root, seal_records=512)
            retained, reopen_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = reopened.scrub(repair=False)
            scrub_peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        n = len(records)
        assert report.clean
        assert reopened.n_tail_records == n % 512
        # The whole-journal load peaked at 2.6 KB per record here, and
        # its scrub at 3.0 KB.
        assert (reopen_peak - base) / n <= 1024
        assert (scrub_peak - retained) / n <= 1024
        # What the reopened store keeps: the whole-journal load
        # retained 235 B per record of this store.
        assert (retained - base) / n <= 260


class TestIngestionServerStore:
    def test_append_before_dedup_then_checkpoint_shrinks(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records:
            server.ingest_record(dict(r))
        assert len(set(store)) == len(records)  # the store owns them
        assert server.accepted == len(records)
        snapshot = server.checkpoint()
        assert "records" not in snapshot
        assert snapshot["seen"] == []  # all keys journal-proven
        assert snapshot["store"] == store.describe()

    def test_a_checkpoint_naming_the_wal_option_restores(self, tmp_path):
        """Drain checkpoints written while the store had a ``wal``
        option carry it; a restore ignores it and journals as ever."""
        records = _records()[:12]
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records[:6]:
            server.ingest_record(dict(r))
        snapshot = json.loads(json.dumps(server.checkpoint()))
        assert snapshot["store"] == {"root": str(store.root),
                                     "seal_records": 10}
        snapshot["store"]["wal"] = False
        revived = IngestionServer.restore(snapshot)
        assert revived.store.describe() == store.describe()
        for r in records:
            revived.ingest_record(dict(r))
        assert (revived.accepted, revived.duplicates) == (12, 6)
        reopened = _store(tmp_path)
        assert reopened.tail_rows() == records[10:]
        assert reopened.fold_analysis().block == _direct_block(records)

    def test_restore_reattaches_store_and_dedups(self, tmp_path):
        records = _records()
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records:
            server.ingest_record(dict(r))
        snapshot = server.checkpoint()

        revived = IngestionServer.restore(snapshot)
        assert revived.store is not None
        for r in records:  # full replay: everything dedups
            revived.ingest_record(dict(r))
        assert revived.duplicates == len(records)
        assert revived.store.fold_analysis().block == _direct_block(records)

    def test_a_checkpoint_with_an_empty_records_list_restores(
        self, tmp_path
    ):
        """Store-backed drain checkpoints once carried an empty
        ``"records"`` list; they restore as ever."""
        records = _records()[:12]
        server = IngestionServer()
        server.attach_store(_store(tmp_path))
        for r in records[:6]:
            server.ingest_record(dict(r))
        snapshot = json.loads(json.dumps(
            {**server.checkpoint(), "records": []}))
        revived = IngestionServer.restore(snapshot)
        for r in records:
            revived.ingest_record(dict(r))
        assert (revived.accepted, revived.duplicates) == (12, 6)
        assert revived.store.fold_analysis().block == _direct_block(records)

    def test_a_checkpoint_holding_records_is_refused(self, tmp_path):
        """A store-less serve once kept its acked records in the
        checkpoint's ``"records"``; no store holds them, so restoring
        would drop them silently.  It raises instead."""
        records = _records()[:3]
        snapshot = {
            **IngestionServer().checkpoint(),
            "records": records,
            "accepted": len(records),
            "seen": sorted(record_identity(r) for r in records),
        }
        for store in (None, _store(tmp_path)):
            with pytest.raises(ValueError, match="in-memory records "
                                                 "from a store-less"):
                IngestionServer.restore(snapshot, store=store)

    def test_forget_keys_invites_reupload(self, tmp_path):
        """A key scrub loses leaves the store with its record, so the
        re-upload is accepted without forgetting anything; forget_keys
        reaches only the residue a restored checkpoint can carry."""
        records = _records()
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records:
            server.ingest_record(dict(r))
        store.flush()
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        # No WAL copy: damage is loss.
        lost = set(drop_wal_of(store.journal_path, victim.name))
        victim.write_bytes(victim.read_bytes()[:-9])
        assert set(store.scrub(repair=True).lost_keys) == lost
        assert server.forget_keys(lost) == 0
        for r in records:
            server.ingest_record(dict(r))
        assert server.accepted == len(records) + len(lost)
        assert set(store) == {record_identity(r) for r in records}

        stray = dict(records[0], start_time=1e7)
        snapshot = dict(server.checkpoint(),
                        seen=[record_identity(stray)])
        revived = IngestionServer.restore(snapshot, store=store)
        revived.ingest_record(dict(stray))
        assert (revived.accepted, revived.duplicates) == (
            server.accepted, server.duplicates + 1)
        assert revived.forget_keys([record_identity(stray)]) == 1
        revived.ingest_record(dict(stray))
        assert revived.accepted == server.accepted + 1

    def test_one_owner_across_attach_ingest_and_restore(self, tmp_path):
        """The store is the dedup authority: after attach, ingest and
        checkpoint -> restore the server holds no identity the store
        owns, and the store alone turns every replay into a
        duplicate."""
        records = _records()
        server = IngestionServer()
        store = _store(tmp_path)
        server.attach_store(store)
        for r in records[:5] + records:
            server.ingest_record(dict(r))
        keys = {record_identity(r) for r in records}
        assert server._seen == set()
        assert set(store) == keys == server.accepted_keys
        snapshot = json.loads(json.dumps(server.checkpoint()))
        assert snapshot["seen"] == []
        revived = IngestionServer.restore(snapshot)
        assert revived._seen == set()
        for r in records:
            revived.ingest_record(dict(r))
        assert revived.duplicates == server.duplicates + len(records)
        assert set(revived.store) == keys == revived.accepted_keys

    def test_checkpoint_with_duration_aggregates_still_restores(
        self, tmp_path
    ):
        """A drain checkpoint written when the server kept duration
        aggregates, and copied store-owned keys into ``seen``, restores:
        the aggregates are ignored and the keys the store owns leave
        the dedup set, the rest stay as the residue."""
        records = _records()
        store = _store(tmp_path)
        store.append_many([(dict(r), None) for r in records])
        keys = sorted(record_identity(r) for r in records)
        stray = "f" * 64
        snapshot = {
            "records": [], "accepted": len(records), "duplicates": 2,
            "malformed": 0, "quarantined": 0, "quarantine_evicted": 0,
            "bytes_received": 9_000, "available": True,
            "seen": keys + [stray],
            "duration_stats": {"Data_Stall": {
                "count": 24, "mean": 60.5, "m2": 1.0e4,
                "minimum": 1.0, "maximum": 120.0}},
            "duration_median": {
                "quantile": 0.5, "count": 72, "initial": [],
                "heights": [1.0, 30.0, 60.0, 90.0, 120.0],
                "positions": [1.0, 18.0, 36.0, 54.0, 72.0],
                "desired": [1.0, 18.75, 36.5, 54.25, 72.0],
                "increments": [0.0, 0.25, 0.5, 0.75, 1.0]},
            "store": store.describe(),
        }
        revived = IngestionServer.restore(snapshot)
        assert revived._seen == {stray}
        assert revived.accepted_keys == frozenset(keys + [stray])
        assert revived.summary()["duplicates"] == 2.0
        revived.ingest_record(dict(records[0]))
        assert revived.duplicates == 3
        assert "duration_stats" not in revived.checkpoint()


class TestDrainResumeByteIdentity:
    def test_checkpoint_resume_round_trip_is_byte_identical(
        self, tmp_path
    ):
        """The satellite acceptance check: a drain checkpoint plus the
        on-disk store reproduce the exact analysis of the original."""
        records = _records(16, 8, seed=21)
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records:
            server.ingest_record(dict(r))
        direct = _direct_block(records)
        checkpoint = json.dumps(server.checkpoint(), sort_keys=True)

        revived = IngestionServer.restore(json.loads(checkpoint))
        revived.store.flush()
        query = revived.store.fold_analysis()
        assert query.complete
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(direct, sort_keys=True))

    def test_sigkill_window_between_wal_and_dedup_is_safe(self, tmp_path):
        """A crash after the WAL fsync but before the accounting must
        not drop or double-count the record: the store owns it, so the
        retry is a duplicate — in the same process and after a
        restart — and the store holds one copy."""
        records = _records()
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        data = dict(records[0])
        # The torn window: the WAL line landed, the accounting did not.
        store.append(dict(data), key=record_identity(data))
        server.ingest_record(dict(data))  # the client retry
        assert (server.accepted, server.duplicates) == (0, 1)
        revived = IngestionServer.restore(server.checkpoint(),
                                          store=_store(tmp_path))
        revived.ingest_record(dict(data))
        assert (revived.accepted, revived.duplicates) == (0, 2)
        assert set(revived.store) == {record_identity(data)}
        assert revived.store.n_tail_records == 1


def _on_disk(store):
    """Everything a store leaves behind, byte for byte."""
    return {
        "journal": store.journal_path.read_bytes(),
        "segments": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(store.segments_dir.glob("*"))
        },
        "fold": json.dumps(store.fold_analysis().block, sort_keys=True),
        "tail": store.tail_rows(),
    }


class TestGroupCommit:
    RECORDS = _records(8, 8, seed=5)

    @settings(max_examples=40, deadline=None)
    @given(
        stream=st.lists(st.integers(0, len(RECORDS) - 1), max_size=90),
        cuts=st.lists(st.integers(1, 14), min_size=1, max_size=12),
    )
    def test_any_chunking_matches_one_by_one(self, stream, cuts):
        """However a record stream (duplicates included) is chunked
        through ``append_many``, the journal bytes, the segment files
        and the fold are those of appending one record at a time."""
        rows = [self.RECORDS[i] for i in stream]
        with tempfile.TemporaryDirectory() as scratch:
            single = _store(Path(scratch) / "single")
            for row in rows:
                single.append(dict(row))
            batched = _store(Path(scratch) / "batched")
            at, keys = 0, []
            while at < len(rows):
                size = cuts[len(keys) % len(cuts)]
                keys.append(batched.append_many(
                    [(dict(row), None) for row in rows[at:at + size]]
                ))
                at += size
            assert ([key for chunk in keys for key in chunk]
                    == [record_identity(row) for row in rows])
            if rows:
                assert _on_disk(batched) == _on_disk(single)
            assert batched.summary() == single.summary()

    def test_one_fsynced_write_per_batch(self, tmp_path):
        writes = []

        class Recording(DiskIO):
            def append_lines(self, path, lines):
                writes.append(len(lines))
                super().append_lines(path, lines)

        registry = MetricsRegistry()
        store = _store(tmp_path, io=Recording(), seal_records=100)
        with use_registry(registry):
            store.append_many([(r, None) for r in self.RECORDS[:7]])
            store.append(self.RECORDS[7])
            # Nothing new to write: no commit at all.
            store.append_many([(r, None) for r in self.RECORDS[:8]])
        assert writes == [7, 1]
        counters = registry.snapshot()["counters"]
        assert counters["store_wal_fsyncs_total"] == 2
        assert counters["store_records_appended_total"] == 8

    def test_batch_splits_only_at_a_seal_boundary(self, tmp_path):
        """The record that fills the tail ends the write, so its commit
        line lands where one-by-one appends would put it — whatever
        devices and hours the rows span."""
        records = [dict(self.RECORDS[0], device_id=2_000 * i,
                        start_time=7_200.0 * i)
                   for i in range(25)]
        store = _store(tmp_path, seal_records=10)
        store.append_many([(r, None) for r in records])
        ops = [json.loads(line)["op"] for line
               in store.journal_path.read_text().splitlines()]
        assert ops == (["wal"] * 10 + ["commit"]) * 2 + ["wal"] * 5
        assert store.n_segments == 2 and store.n_tail_records == 5


class TestPartitionedLayout:
    """Stores written by the layout that kept one tail per ``(time
    bucket, device bucket)`` partition — WAL and commit lines carrying
    a ``partition``, segments named ``seg-t<t>-d<d>-<seq>.seg`` — open,
    fold and scrub unchanged, and seal by volume from then on."""

    SEAL = 8

    def _write_partitioned(self, root: Path, rows: list[dict]):
        """The journal and segments that layout wrote for ``rows``
        (time buckets of 240 s, device buckets of four): a partition
        sealed when its own tail reached ``SEAL``.  Returns the rows
        no segment holds, in journal order."""
        segments = root / "segments"
        segments.mkdir(parents=True)
        tails: dict[tuple, list] = {}
        lines, seq = [], 0
        for row in rows:
            key = record_identity(row)
            partition = (int(row["start_time"] // 240.0),
                         row["device_id"] // 4)
            lines.append(_seal_entry({"op": "wal", "key": key,
                                      "partition": list(partition),
                                      "data": row}))
            tail = tails.setdefault(partition, [])
            tail.append((key, row))
            if len(tail) < self.SEAL:
                continue
            blob = encode_segment([data for _key, data in tail],
                                  partition)
            name = f"seg-t{partition[0]}-d{partition[1]}-{seq:06d}.seg"
            (segments / name).write_bytes(blob)
            lines.append(_seal_entry({
                "op": "commit", "segment": name, "seq": seq,
                "sha256": segment_digest(blob),
                "n_records": len(tail), "partition": list(partition),
                "keys": [key for key, _data in tail],
            }))
            seq += 1
            del tails[partition]
        (root / "journal.jsonl").write_bytes(
            b"".join(line + b"\n" for line in lines))
        sealed = set()
        for line in lines:
            entry = json.loads(line)
            if entry["op"] == "commit":
                sealed.update(entry["keys"])
        return [row for row in rows if record_identity(row) not in sealed]

    def test_reopens_folds_scrubs_and_seals_the_restored_tail_whole(
        self, tmp_path
    ):
        records = _records()
        rows, later = records[:40], records[40]
        root = tmp_path / "store"
        uncovered = self._write_partitioned(root, rows)
        store = SegmentStore(root, seal_records=self.SEAL)
        # Three partitions sealed once each; their partial tails
        # together exceed one seal's worth.
        assert store.n_segments == 3
        assert store.tail_rows() == uncovered
        assert store.n_tail_records > self.SEAL
        assert store.fold_analysis().block == _direct_block(rows)
        assert store.scrub(repair=False).clean

        old = set(store.query_snapshot().live)
        store.append(later)
        (name,) = set(store.query_snapshot().live) - old
        assert name == "seg-000003.seg"
        assert store._live[name]["n_records"] == len(uncovered) + 1
        assert store.n_tail_records == 0
        reopened = SegmentStore(root, seal_records=self.SEAL)
        assert reopened.fold_analysis().block == _direct_block(
            rows + [later])
        report = reopened.scrub(repair=False)
        assert report.clean and report.segments_ok == 4

    def test_a_checkpoint_naming_partition_bounds_restores(self,
                                                            tmp_path):
        records = _records()[:20]
        store = _store(tmp_path)
        server = IngestionServer()
        server.attach_store(store)
        for r in records:
            server.ingest_record(dict(r))
        snapshot = json.loads(json.dumps(server.checkpoint()))
        snapshot["store"].update(time_bucket_s=240.0, device_bucket=4)
        revived = IngestionServer.restore(snapshot)
        assert revived.store.describe() == store.describe()
        for r in records:
            revived.ingest_record(dict(r))
        assert revived.duplicates == len(records)
        assert revived.store.fold_analysis().block == _direct_block(
            records)


class TestSealEntry:
    ENTRIES = [
        {"op": "wal", "key": "kéy",
         "data": {"isp": "中国移动", "error_code": None,
                  "duration_s": 1.5, "has_5g": False, "device_id": 7}},
        {"op": "commit", "segment": "seg-000001.seg", "seq": 1,
         "sha256": "ab" * 32, "n_records": 2, "keys": ["a", "b"]},
        {"op": "quarantine", "segment": "seg-000001.seg",
         "reason": "digest mismatch — torn", "keys": []},
    ]

    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=[e["op"] for e in ENTRIES])
    def test_single_dump_is_byte_identical_to_two_dumps(self, entry):
        reference = dict(entry)
        reference["crc"] = _line_crc(reference)
        line = _seal_entry(entry)
        assert line == json.dumps(reference,
                                  sort_keys=True).encode("utf-8")
        loaded = json.loads(line)
        assert loaded["crc"] == _line_crc(loaded)
        assert "crc" not in entry  # the caller's dict is left alone

    @pytest.mark.parametrize("entry", ENTRIES,
                             ids=[e["op"] for e in ENTRIES])
    def test_sealed_line_verifies_from_its_own_bytes(self, entry,
                                                     monkeypatch):
        def no_redump(_entry):
            raise AssertionError("an intact sealed line was re-dumped")

        monkeypatch.setattr("repro.store.journal._line_crc", no_redump)
        assert _verify_line(_seal_entry(entry)) == (json.loads(
            _seal_entry(entry)), None)


def _rule_verdict(raw: bytes):
    """The journal rule, stated directly: parse, re-dump, compare."""
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, "undecodable"
    if not isinstance(entry, dict) or entry.get("crc") != _line_crc(entry):
        return None, "crc-mismatch"
    return entry, None


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner,
                                     max_size=3)),
    max_leaves=10,
)
_ENTRIES = st.builds(
    lambda op, key, data, extra: {**extra, "op": op, "key": key,
                                  "data": data},
    st.sampled_from(["wal", "commit", "quarantine"]),
    # A non-ASCII character in every entry, so the line always carries
    # a \u00XX escape the case-flip mutation can reach.
    st.text(max_size=8).map(lambda text: "é" + text),
    _JSON,
    st.dictionaries(st.text(max_size=5).filter(lambda k: k != "crc"),
                    _JSON, max_size=3),
)


class TestJournalVerdicts:
    """The byte check decides exactly what the parse-and-re-dump rule
    decides, on intact, damaged and differently spelled lines."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(entry=_ENTRIES, data=st.data())
    def test_verdicts_match_the_rule(self, entry, data):
        line = _seal_entry(entry)
        assert _verify_line(line) == _rule_verdict(line)
        assert _verify_line(line)[0] is not None

        offset = data.draw(st.integers(0, len(line) - 1))
        flipped = bytearray(line)
        flipped[offset] ^= 1 << data.draw(st.integers(0, 7))
        assert _verify_line(bytes(flipped)) == _rule_verdict(bytes(flipped))

        cut = line[:data.draw(st.integers(0, len(line) - 1))]
        assert _verify_line(cut) == _rule_verdict(cut)

        # Respelling the escape u00e9 as u00E9 is one bit flip that
        # changes no character: the bytes fail, the entry is intact,
        # the line is accepted.
        escape = line.index(b'"key": "\\u00e9') + len(b'"key": "')
        respelled = line[:escape + 4] + b"E" + line[escape + 5:]
        assert _verify_line(respelled) == _rule_verdict(respelled)
        assert _verify_line(respelled)[0] == json.loads(line)

        # Intact entry, keys in another order (the tag still first or
        # not): accepted by the rule, so by the verifier too.
        keys = list(data.draw(st.permutations(sorted(entry))))
        crc = _line_crc(entry)
        for position in (0, len(keys)):
            ordered = [(k, entry[k]) for k in keys]
            ordered.insert(position, ("crc", crc))
            reordered = json.dumps(dict(ordered)).encode("utf-8")
            assert _verify_line(reordered) == _rule_verdict(reordered)
            assert _verify_line(reordered)[0] is not None


def _whole_journal_load(blob: bytes) -> dict:
    """The reopen rule over the whole journal read at once, as stores
    loaded before the walk was streamed: every WAL line's data held in
    one dict (a repeated key keeps its first position and its latest
    data), the tail being the rows no live segment covers.  A store
    with no segment files numbers its next seal from the commits."""
    wal, live, damage = {}, {}, []
    seq = good = offset = 0
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        if newline < 0:
            damage.append({"reason": "torn-tail"})
            break
        entry, reason = _rule_verdict(blob[offset:newline])
        offset = good = newline + 1
        if entry is None:
            damage.append({"reason": reason})
            continue
        op = entry.get("op")
        if op == "wal":
            wal[entry["key"]] = entry["data"]
        elif op == "commit":
            live[entry["segment"]] = entry
            seq = max(seq, int(entry.get("seq", 0)) + 1)
        elif op == "quarantine":
            live.pop(entry["segment"], None)
    covered = {key for entry in live.values() for key in entry["keys"]}
    tail = [(key, data) for key, data in wal.items()
            if key not in covered]
    return {"wal": wal, "tail": tail, "live": live, "damage": damage,
            "good_bytes": good, "seq": seq,
            "known": covered.union(key for key, _data in tail)}


_KEYS = st.sampled_from(["k0", "k1", "k2", "k3", "ké"])
_SEGMENTS = st.sampled_from(["seg-000000.seg", "seg-000001.seg",
                             "seg-000002.seg"])
_WAL_LINES = st.builds(lambda key, data: _seal_entry(
    {"op": "wal", "key": key, "data": data}), _KEYS, _JSON)
_LINES = st.one_of(
    # WAL lines are drawn most, so keys repeat and the tail has order.
    _WAL_LINES, _WAL_LINES, _WAL_LINES, _WAL_LINES,
    st.builds(lambda segment, seq, keys: _seal_entry(
        {"op": "commit", "segment": segment, "seq": seq,
         "sha256": "ab" * 32, "n_records": len(keys), "keys": keys}),
        _SEGMENTS, st.integers(0, 9), st.lists(_KEYS, max_size=2)),
    st.builds(lambda segment: _seal_entry(
        {"op": "quarantine", "segment": segment, "reason": "digest",
         "keys": []}), _SEGMENTS),
    # A well-formed entry under a wrong tag, and bytes that are no JSON.
    st.builds(lambda key: json.dumps(
        {"crc": "0" * 16, "data": {}, "key": key, "op": "wal"}).encode(),
        _KEYS),
    st.binary(max_size=12).filter(lambda raw: b"\n" not in raw),
)


class TestStreamedReopen:
    """Reopening from the streamed journal and its WAL offsets leaves
    the store exactly as loading the whole journal at once did."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lines=st.lists(_LINES, max_size=20), data=st.data())
    def test_state_matches_the_whole_journal_rule(self, lines, data):
        damaged = []
        for line in lines:
            if line and data.draw(st.integers(0, 3)) == 0:
                flipped = bytearray(line)
                flipped[data.draw(st.integers(0, len(line) - 1))] ^= (
                    1 << data.draw(st.integers(0, 7)))
                line = bytes(flipped)
            damaged.append(line)
        blob = b"".join(line + b"\n" for line in damaged)
        torn = data.draw(_LINES)
        blob += torn[:data.draw(st.integers(0, len(torn)))]
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "store"
            root.mkdir()
            (root / "journal.jsonl").write_bytes(blob)
            store = SegmentStore(root)
            expected = _whole_journal_load(blob)
            assert store._tail == expected["tail"]
            assert store._known == expected["known"]
            assert store._live == expected["live"]
            assert store.journal.scan().damage == expected["damage"]
            assert store.journal.scan().good_bytes == expected["good_bytes"]
            assert store._seq == expected["seq"]

    def test_quarantine_recovers_the_rows_the_whole_journal_holds(
        self, tmp_path
    ):
        """A key whose WAL line was written twice comes back from
        quarantine with its latest data, as the whole-journal rule
        restores it."""
        store = _store(tmp_path)
        store.append_many([(r, None) for r in _records()[:25]])
        victim = min(store._live)
        keys = store._live[victim]["keys"]
        store.io.append_line(store.journal_path, _seal_entry(
            {"op": "wal", "key": keys[3], "data": {"rewritten": True}}))
        path = store.segments_dir / victim
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x40
        path.write_bytes(bytes(blob))

        reopened = _store(tmp_path)
        expected = _whole_journal_load(reopened.journal_path.read_bytes())
        assert reopened._tail == expected["tail"]
        report = reopened.scrub(repair=True)
        assert report.recovered_keys == tuple(keys) and report.ok
        recovered = reopened._tail[len(expected["tail"]):]
        assert recovered == [(key, expected["wal"][key]) for key in keys]
        assert recovered[3][1] == {"rewritten": True}

    def test_a_mixed_orphan_recovers_uncommitted_rows_wal_first(
        self, tmp_path
    ):
        """An orphan file holding committed rows and rows the store
        does not own is retired; its unowned rows join the tail, read
        back from their WAL line where one exists (here, a line a torn
        group commit made durable before the store owned it) and taken
        from the decoded file otherwise."""
        records = _records()
        store = _store(tmp_path)
        store.append_many([(r, None) for r in records[:20]])
        wal_key, row_key = (record_identity(r) for r in records[20:22])
        wal_data = dict(records[20], from_wal=True)
        store.io.append_line(store.journal_path, _seal_entry(
            {"op": "wal", "key": wal_key, "data": wal_data}))
        blob = encode_segment(records[:3] + records[20:22])
        orphan = store.segments_dir / "seg-999999.seg"
        orphan.write_bytes(blob)

        report = store.scrub(repair=True)
        assert report.superseded == [orphan.name] and report.ok
        assert (store.quarantine_dir / orphan.name).exists()
        assert store._tail == [(wal_key, wal_data),
                               (row_key, decode_segment(blob)[0][4])]
        assert wal_key in store and row_key in store

    def test_a_wal_offset_that_no_longer_verifies_raises(self, tmp_path):
        store = _store(tmp_path)
        store.append_many([(r, None) for r in _records()[:3]])
        key = next(iter(store))
        with pytest.raises(StoreError, match=key):
            store.journal.read_wal({key: 1}, [key])
