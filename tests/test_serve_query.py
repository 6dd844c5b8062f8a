"""Tests for the live query plane (protocol, engine, plane, service).

The load-bearing property is *exactness*: a live query answer must be
byte-identical (as sorted JSON) to the offline analysis block computed
over the same records — even though devices span segments and the
fold is carried between answers.  Everything else (shedding,
timeouts, cache invalidation) protects that property under load and
damage.
"""

import json
import socket
import threading
import time

import pytest

from repro.analysis.columnar import (
    SegmentPartial,
    analysis_summary,
    compute_analysis_block,
)
from repro.chaos import DiskIO
from repro.dataset.records import FailureRecord, record_identity
from repro.dataset.store import Dataset
from repro.monitoring.uploader import UploadBatcher
from repro.obs import ThreadSafeRegistry, use_registry
from repro.serve import (
    IngestService,
    QueryClient,
    QueryError,
    ServeConfig,
    SocketTransport,
    protocol,
)
from repro.serve.harness import synthetic_records
from repro.serve.query import (
    ISP_BS_FIELDS,
    QueryEngine,
    QueryPlane,
    STATS_FIELDS,
    TRANSITIONS_FIELDS,
)
from repro.store import FoldState, SegmentStore
from repro.store import segment as segment_module
from repro.store import fold as fold_module
from repro.store import store as store_module


def canonical(block) -> str:
    return json.dumps(block, sort_keys=True)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def pair():
    left, right = socket.socketpair()
    left.settimeout(2.0)
    right.settimeout(2.0)
    return left, right


def store_with_records(tmp_path, records, seal_records=5):
    """A store holding ``records`` across several sealed segments."""
    store = SegmentStore(tmp_path / "store", seal_records=seal_records)
    for record in records:
        store.append(record, key=record_identity(record))
    return store


def mixed_records(n_devices=6, per_device=5):
    """Synthetic records with some OUT_OF_SERVICE failures mixed in,
    so the distinct-device OOS counter is non-trivial."""
    records = synthetic_records(n_devices, per_device)
    for index, record in enumerate(records):
        if index % 4 == 0:
            record["failure_type"] = "OUT_OF_SERVICE"
    return records


class FakeServer:
    """The one attribute of an ``IngestionServer`` the engine reads."""

    def __init__(self, store):
        self.store = store


def tail_store(tmp_path, seal_records=4):
    """A store whose one tail seals at four rows."""
    return SegmentStore(tmp_path / "store", seal_records=seal_records)


def rows_of(device_id, n, seed=1):
    """``n`` distinct rows of one device."""
    rows = mixed_records(n_devices=device_id + 1, per_device=n)
    return [dict(row, start_time=row["start_time"] + seed * 1e6)
            for row in rows if row["device_id"] == device_id]


def assert_exact(engine, store):
    """The engine's answer, a fold from scratch and the offline
    analysis agree byte for byte, and the watermark is the owned
    count."""
    fold = engine.fold()
    offline = compute_analysis_block(store.dataset())
    assert canonical(fold.block) == canonical(offline)
    assert canonical(store.fold_analysis().block) == canonical(offline)
    assert fold.watermark["n_records"] == len(set(store))
    assert not fold.skipped
    return fold


def flip_a_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestQueryProtocol:
    def test_query_frame_round_trips(self):
        client, server = pair()
        try:
            protocol.write_query(client, "stats")
            assert protocol.read_frame(server) == ("query", "stats", {})
        finally:
            client.close()
            server.close()

    def test_query_options_round_trip(self):
        client, server = pair()
        try:
            protocol.write_query(client, "summary", {"window": 60})
            frame = protocol.read_frame(server)
            assert frame == ("query", "summary", {"window": 60})
        finally:
            client.close()
            server.close()

    def test_ingest_frames_pass_through_read_frame(self):
        client, server = pair()
        try:
            protocol.write_request(client, b"payload", sender=9)
            assert protocol.read_frame(server) == (
                "ingest", 9, b"payload"
            )
        finally:
            client.close()
            server.close()

    def test_interleaved_frames_stay_delimited(self):
        client, server = pair()
        try:
            protocol.write_request(client, b"one", sender=1)
            protocol.write_query(client, "isp_bs")
            protocol.write_request(client, b"two", sender=2)
            assert protocol.read_frame(server)[0] == "ingest"
            assert protocol.read_frame(server) == (
                "query", "isp_bs", {}
            )
            assert protocol.read_frame(server)[2] == b"two"
        finally:
            client.close()
            server.close()

    def test_unknown_query_version_is_rejected(self):
        client, server = pair()
        try:
            client.sendall(protocol.QUERY_MAGIC + bytes([2]))
            with pytest.raises(
                protocol.UnsupportedQueryVersion
            ) as excinfo:
                protocol.read_frame(server)
            assert excinfo.value.version == 2
        finally:
            client.close()
            server.close()

    def test_unknown_query_kind_is_a_client_side_error(self):
        client, server = pair()
        try:
            with pytest.raises(ValueError):
                protocol.write_query(client, "bogus")
        finally:
            client.close()
            server.close()

    def test_result_round_trips(self):
        client, server = pair()
        try:
            protocol.write_result(server, protocol.RESULT_OK,
                                  {"answer": [1, 2]})
            assert protocol.read_result(client) == (
                protocol.RESULT_OK, {"answer": [1, 2]}
            )
            protocol.write_result(server, protocol.RESULT_RETRY,
                                  {"retry_after_s": 2.0})
            status, body = protocol.read_result(client)
            assert status == protocol.RESULT_RETRY
            assert body["retry_after_s"] == 2.0
        finally:
            client.close()
            server.close()

    def test_frame_limit_above_magic_is_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_frame_bytes=protocol.MAX_FRAME_LIMIT + 1)


class TestEngineExactness:
    """The fold must be byte-identical to the offline analysis."""

    def test_store_fold_matches_offline_block(self, tmp_path):
        records = mixed_records()
        store = store_with_records(tmp_path, records)
        assert store.n_segments > 1  # devices genuinely span segments

        engine = QueryEngine(FakeServer(store))
        fold = engine.fold()
        offline = compute_analysis_block(store.dataset())
        assert canonical(fold.block) == canonical(offline)
        assert fold.watermark["mode"] == "store"
        assert fold.watermark["n_records"] == len(records)
        # Sanity: the distinct-device fields are actually exercised.
        assert offline["oos_devices"] > 0
        assert offline["failing_devices"] > 0

    def test_second_fold_hits_the_cache(self, tmp_path):
        store = store_with_records(tmp_path, mixed_records())

        engine = QueryEngine(FakeServer(store))
        first = engine.fold()
        assert first.cache_hits == 0
        assert first.cache_misses == store.n_segments
        second = engine.fold()
        assert second.cache_hits == store.n_segments
        assert second.cache_misses == 0
        assert canonical(first.block) == canonical(second.block)

    def test_fold_stays_exact_as_the_store_grows(self, tmp_path):
        records = mixed_records()
        store = SegmentStore(tmp_path / "store", seal_records=4)

        engine = QueryEngine(FakeServer(store))
        for index, record in enumerate(records):
            store.append(record, key=record_identity(record))
            if index % 7 == 0:
                fold = engine.fold()
                offline = compute_analysis_block(store.dataset())
                assert canonical(fold.block) == canonical(offline)
        fold = engine.fold()
        assert canonical(fold.block) == canonical(
            compute_analysis_block(store.dataset())
        )

    def test_memory_fold_matches_offline_block(self):
        from repro.backend.ingest import IngestionServer

        server = IngestionServer()
        for record in mixed_records():
            server.ingest_record(dict(record))
        engine = QueryEngine(server)
        fold = engine.fold()
        from repro.dataset.store import Dataset

        offline = compute_analysis_block(
            Dataset(failures=list(server.records))
        )
        assert canonical(fold.block) == canonical(offline)
        assert fold.watermark["mode"] == "memory"

    def test_summary_answer_matches_offline_summary(self, tmp_path):
        store = store_with_records(tmp_path, mixed_records())

        engine = QueryEngine(FakeServer(store))
        envelope = engine.answer("summary")
        offline = analysis_summary(
            compute_analysis_block(store.dataset())
        )
        assert canonical(envelope["result"]) == canonical(offline)


class TestCacheInvalidation:
    def test_corrupt_segment_is_skipped_with_accounting(self, tmp_path):
        registry = ThreadSafeRegistry()
        store = store_with_records(tmp_path, mixed_records())
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        engine = QueryEngine(FakeServer(store))
        with use_registry(registry):
            fold = engine.fold()
        assert len(fold.skipped) == 1
        # The answer is still exact over the *readable* records.
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            "query_segments_skipped_total"] == 1

    def test_scrub_quarantine_invalidates_cached_partials(
        self, tmp_path
    ):
        registry = ThreadSafeRegistry()
        store = store_with_records(tmp_path, mixed_records())

        engine = QueryEngine(FakeServer(store))
        first = engine.fold()  # populate the cache
        assert first.cache_misses == store.n_segments
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        report = store.scrub(repair=True)
        assert len(report.quarantined) == 1
        assert report.recovered_keys  # WAL had every damaged row
        # A fresh append joins the recovered rows in the tail, so the
        # re-sealed segment cannot reuse the quarantined digest.
        extra = synthetic_records(1, 1, seed=777)[0]
        store.append(extra, key=record_identity(extra))
        store.flush()  # reseal the repaired rows
        with use_registry(registry):
            fold = engine.fold()
        # The quarantined segment's digest left the live set, so its
        # cached partial was evicted with accounting...
        assert engine.cache.invalidations >= 1
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            "query_cache_invalidations_total"] >= 1
        # ...and the repaired store still folds to the exact offline
        # block: nothing was lost, nothing double-counted.
        assert canonical(fold.block) == canonical(
            compute_analysis_block(store.dataset())
        )
        assert not fold.skipped


class TestCarriedFold:
    """The engine carries its fold between answers: an answer costs
    the rows appended since the last one.  Gated on counts, not on a
    clock."""

    def test_an_answer_folds_exactly_the_rows_appended(self, tmp_path):
        registry = ThreadSafeRegistry()
        records = mixed_records(n_devices=8, per_device=6)
        store = SegmentStore(tmp_path / "store", seal_records=1000)
        engine = QueryEngine(FakeServer(store))
        at = 0
        with use_registry(registry):
            for k in (5, 1, 17, 0, 9):
                store.append_many(
                    [(row, None) for row in records[at:at + k]])
                at += k
                fold = engine.fold()
                assert fold.rows_folded == k
                assert fold.cache_misses == 0
                assert fold.watermark["n_tail"] == at
                assert canonical(fold.block) == canonical(
                    compute_analysis_block(store.dataset()))
        counters = registry.snapshot()["counters"]
        assert counters["query_rows_folded_total"] == at
        assert not any(name.startswith("query_fold_rebuilds_total")
                       for name in counters)

    def test_an_unchanged_store_costs_nothing(self, tmp_path):
        store = store_with_records(tmp_path, mixed_records(),
                                   seal_records=4)
        assert store.n_segments > 1 and store.n_tail_records > 0
        engine = QueryEngine(FakeServer(store))
        first = engine.fold()
        assert first.rows_folded == len(set(store))
        again = engine.fold()
        assert again.rows_folded == 0
        assert again.cache_misses == 0  # no segment decoded
        assert again.cache_hits == store.n_segments
        assert canonical(again.block) == canonical(first.block)

    def test_an_answer_across_one_seal_decodes_one_segment(
        self, tmp_path
    ):
        registry = ThreadSafeRegistry()
        store = tail_store(tmp_path)
        rows = rows_of(0, 3) + rows_of(2, 3)
        engine = QueryEngine(FakeServer(store))
        store.append_many([(row, None) for row in rows[:3]])
        engine.fold()
        with use_registry(registry):
            # The fourth row, another device's, seals the tail; two
            # more start the next one.
            store.append_many([(row, None) for row in rows[3:]])
            assert (store.n_segments, store.n_tail_records) == (1, 2)
            fold = assert_exact(engine, store)
        assert fold.cache_misses == 1
        # The segment's four rows, and the tail side from scratch:
        # the two rows of the new tail.
        assert fold.rows_folded == 4 + 2
        counters = registry.snapshot()["counters"]
        assert counters['query_fold_rebuilds_total{side="tail"}'] == 1
        assert 'query_fold_rebuilds_total{side="sealed"}' not in counters
        assert counters["query_rows_folded_total"] == 6
        after = engine.fold()
        assert (after.rows_folded, after.cache_misses) == (0, 0)

    def test_a_tail_that_sealed_and_regrew_is_not_taken_for_itself(
        self, tmp_path
    ):
        """Between two answers a folded tail seals and a new one grows
        to the folded length: the rows differ, so length is no guard."""
        store = tail_store(tmp_path, seal_records=100)
        rows = rows_of(0, 6)
        engine = QueryEngine(FakeServer(store))
        store.append_many([(row, None) for row in rows[:3]])
        assert engine.fold().watermark["n_tail"] == 3
        assert len(store.flush()) == 1
        store.append_many([(row, None) for row in rows[3:]])
        assert store.n_tail_records == 3  # as long as the folded tail
        fold = assert_exact(engine, store)
        assert fold.watermark["n_tail"] == 3
        assert fold.watermark["n_segments"] == 1

    def test_recovered_rows_rejoin_a_folded_tail(self, tmp_path):
        """Scrub quarantines a folded segment and its WAL rows land
        behind a tail the engine has folded too: the sealed side is
        rebuilt without them, the tail side just grows."""
        store = tail_store(tmp_path)
        rows = rows_of(0, 6)
        engine = QueryEngine(FakeServer(store))
        store.append_many([(row, None) for row in rows])
        first = engine.fold()
        assert first.watermark["n_segments"] == 1
        assert first.watermark["n_tail"] == 2
        flip_a_byte(next(store.segments_dir.glob("*.seg")))
        report = store.scrub(repair=True)
        assert len(report.recovered_keys) == 4
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            fold = assert_exact(engine, store)
        assert fold.rows_folded == 4
        assert fold.watermark["n_segments"] == 0
        assert fold.watermark["n_tail"] == 6
        counters = registry.snapshot()["counters"]
        assert counters['query_fold_rebuilds_total{side="sealed"}'] == 1
        assert 'query_fold_rebuilds_total{side="tail"}' not in counters
        assert counters["query_cache_invalidations_total"] == 1

    def test_a_corrupt_segment_is_retried_on_every_answer(
        self, tmp_path
    ):
        store = store_with_records(tmp_path, mixed_records())
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        original = victim.read_bytes()
        flip_a_byte(victim)
        engine = QueryEngine(FakeServer(store))
        for _ in range(2):
            fold = engine.fold()
            assert [s["segment"] for s in fold.skipped] == [victim.name]
            assert fold.cache_misses >= 1
        # Never folded, so nothing to rebuild once it reads again.
        victim.write_bytes(original)
        healed = assert_exact(engine, store)
        assert healed.cache_misses == 1

    def test_folds_stay_exact_while_another_thread_appends(
        self, tmp_path
    ):
        """Snapshots share the store's tail lists with the ingest
        thread.  One writer appends in a fixed order while readers —
        more threads than cores, a short switch interval — keep
        answering, each with its own engine: every answer must be the
        offline fold of exactly its watermark's prefix of that
        order."""
        import sys

        from repro.dataset.records import FailureRecord
        from repro.dataset.store import Dataset

        records = mixed_records(n_devices=40, per_device=10)
        store = SegmentStore(tmp_path / "store", seal_records=16)
        writing = threading.Event()
        written = threading.Event()
        folded = threading.Event()
        answers: list[list] = [[], [], []]

        def writer():
            writing.wait(timeout=5.0)
            for at in range(0, len(records), 3):
                # A writer in a tight loop can keep the interpreter
                # to itself: let some fold finish after each batch.
                folded.clear()
                store.append_many(
                    [(row, None) for row in records[at:at + 3]])
                folded.wait(timeout=0.5)
            written.set()

        def reader(folds):
            engine = QueryEngine(FakeServer(store))
            deadline = time.monotonic() + 20.0
            while not written.is_set() and time.monotonic() < deadline:
                folds.append(engine.fold())
                folded.set()
            folds.append(engine.fold())

        threads = [threading.Thread(target=writer, daemon=True)] + [
            threading.Thread(target=reader, args=(folds,), daemon=True)
            for folds in answers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            writing.set()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        prefixes: dict[int, str] = {}
        for folds in answers:
            assert folds[-1].watermark["n_records"] == len(records)
            for fold in folds:
                n = fold.watermark["n_records"]
                if n not in prefixes:
                    prefixes[n] = canonical(compute_analysis_block(
                        Dataset(failures=[
                            FailureRecord.from_dict(row)
                            for row in records[:n]
                        ])))
                assert canonical(fold.block) == prefixes[n], n
        # The readers really did answer mid-stream.
        assert len(prefixes) > 3


class StalledIO(DiskIO):
    """Blocks once, inside the armed operation — ``"wal"`` (a group
    commit's WAL write), ``"segment"`` (a seal's segment write) or
    ``"commit"`` (a seal's commit line) — until ``release`` is set."""

    def __init__(self):
        self.armed = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def _stall(self, op):
        if self.armed == op:
            self.armed = None
            self.entered.set()
            self.release.wait(timeout=10.0)

    def append_lines(self, path, lines):
        if len(lines) > 1:
            self._stall("wal")
        super().append_lines(path, lines)

    def write_atomic(self, path, data):
        self._stall("segment")
        super().write_atomic(path, data)

    def append_line(self, path, line):
        if b'"op": "commit"' in line:
            self._stall("commit")
        super().append_line(path, line)


class TestReadersNeverWaitOnDisk:
    """A writer holds the store mutex only to publish what its disk
    write made durable.  While an append's WAL write or a seal's
    segment write or commit line is stuck, a snapshot and a fold on
    another thread return at once, and show the store as it was
    before that write; once the write lands, the next snapshot shows
    it."""

    @staticmethod
    def offline(rows):
        return canonical(compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(row) for row in rows])))

    @staticmethod
    def read_within(store, timeout=1.0):
        """A snapshot and its fold from a fresh state, taken on a
        thread of their own; ``None`` if they did not return within
        ``timeout`` seconds."""
        out = {}

        def read():
            snapshot = store.query_snapshot()
            out["fold"] = store.fold_snapshot(snapshot, FoldState())
            out["snapshot"] = snapshot

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=timeout)
        return None if reader.is_alive() else (out["snapshot"],
                                               out["fold"])

    def stall(self, io, op, call):
        """Run ``call`` on a writer thread until it blocks in ``op``;
        returns the thread."""
        io.armed = op
        writer = threading.Thread(target=call, daemon=True)
        writer.start()
        assert io.entered.wait(timeout=5.0)
        return writer

    def test_a_wal_write_in_flight_does_not_block_a_reader(
        self, tmp_path
    ):
        io = StalledIO()
        store = SegmentStore(tmp_path / "store", seal_records=100, io=io)
        rows = mixed_records()[:6]
        store.append_many([(row, None) for row in rows[:3]])
        writer = self.stall(io, "wal", lambda: store.append_many(
            [(row, None) for row in rows[3:]]))
        try:
            read = self.read_within(store)
        finally:
            io.release.set()
            writer.join(timeout=5.0)
        assert read is not None, "a reader waited on a WAL fsync"
        snapshot, fold = read
        assert (snapshot.n_records, snapshot.n_tail) == (3, 3)
        assert canonical(fold.block) == self.offline(rows[:3])
        assert not writer.is_alive()
        snapshot, fold = self.read_within(store)
        assert (snapshot.n_records, snapshot.n_tail) == (6, 6)
        assert canonical(fold.block) == self.offline(rows)

    @pytest.mark.parametrize("op", ["segment", "commit"])
    def test_a_seal_in_flight_does_not_block_a_reader(self, tmp_path,
                                                      op):
        io = StalledIO()
        store = SegmentStore(tmp_path / "store", seal_records=4, io=io)
        rows = mixed_records()[:4]
        store.append_many([(row, None) for row in rows[:3]])
        # The fourth row's WAL line lands, then its seal stalls.
        writer = self.stall(io, op, lambda: store.append(rows[3]))
        try:
            read = self.read_within(store)
        finally:
            io.release.set()
            writer.join(timeout=5.0)
        assert read is not None, f"a reader waited on a seal's {op}"
        snapshot, fold = read
        # The rows are in the tail and the segment is not live yet.
        assert (len(snapshot.live), snapshot.n_tail) == (0, 4)
        assert (fold.n_segments, fold.n_tail_records) == (0, 4)
        assert canonical(fold.block) == self.offline(rows)
        assert not writer.is_alive()
        snapshot, fold = self.read_within(store)
        assert (len(snapshot.live), snapshot.n_tail) == (1, 0)
        assert (fold.n_segments, fold.n_tail_records) == (1, 0)
        assert canonical(fold.block) == self.offline(rows)


class TestColumnarColdFold:
    """A cold fold reads sealed segments as typed columns and reduces
    them in one batch per chunk of rows: no row dict, no per-segment
    partial.  Gated on calls and counts, not on a clock."""

    @staticmethod
    def sealed_store(tmp_path):
        """Four full segments of four rows, of two devices."""
        store = tail_store(tmp_path)
        store.append_many([(row, None)
                           for row in rows_of(0, 8) + rows_of(2, 8)])
        assert (store.n_segments, store.n_tail_records) == (4, 0)
        return store

    @staticmethod
    def forbid_row_decoding(monkeypatch):
        def refuse(*_args):
            raise AssertionError("the row decoder ran")

        monkeypatch.setattr(segment_module, "decode_rows", refuse)
        monkeypatch.setattr(store_module, "decode_rows", refuse)

    @staticmethod
    def count_reductions(monkeypatch) -> list[int]:
        """The row count of every ``SegmentPartial.from_columns``."""
        calls: list[int] = []
        reduce = SegmentPartial.from_columns.__func__

        def counted(cls, columns):
            calls.append(len(columns))
            return reduce(cls, columns)

        monkeypatch.setattr(SegmentPartial, "from_columns",
                            classmethod(counted))
        return calls

    def test_cold_fold_and_scrub_never_build_rows(self, tmp_path,
                                                  monkeypatch):
        store = self.sealed_store(tmp_path)
        offline = canonical(compute_analysis_block(store.dataset()))
        self.forbid_row_decoding(monkeypatch)
        engine = QueryEngine(FakeServer(store))
        fold = engine.fold()
        assert canonical(fold.block) == offline
        assert (fold.cache_hits, fold.cache_misses) == (0, 4)
        assert fold.rows_folded == 16
        report = store.scrub(repair=False)
        assert report.clean and report.segments_ok == 4

    @pytest.mark.parametrize("chunk_rows, reductions", [
        (65_536, [16]), (8, [8, 8]), (9, [8, 8]), (1, [4, 4, 4, 4]),
    ])
    def test_a_cold_fold_reduces_once_per_chunk(
        self, tmp_path, monkeypatch, chunk_rows, reductions
    ):
        store = self.sealed_store(tmp_path)
        offline = canonical(compute_analysis_block(store.dataset()))
        monkeypatch.setattr(fold_module, "FOLD_CHUNK_ROWS", chunk_rows)
        calls = self.count_reductions(monkeypatch)
        fold = QueryEngine(FakeServer(store)).fold()
        assert calls == reductions
        assert canonical(fold.block) == offline

    def test_a_refold_reads_the_survivors_in_one_batch(
        self, tmp_path, monkeypatch
    ):
        """A folded segment leaves the live set: the survivors are
        read again, as misses, and reduced together."""
        store = self.sealed_store(tmp_path)
        engine = QueryEngine(FakeServer(store))
        engine.fold()
        flip_a_byte(sorted(store.segments_dir.glob("*.seg"))[0])
        assert len(store.scrub(repair=True).quarantined) == 1
        calls = self.count_reductions(monkeypatch)
        fold = assert_exact(engine, store)
        # The three survivors in one batch, then (in the fold from
        # scratch ``assert_exact`` checks against) the same again,
        # and the recovered rows once per fold as the tail.
        assert calls == [12, 4, 12, 4]
        assert (fold.cache_hits, fold.cache_misses) == (0, 3)
        assert engine.cache.invalidations == 1
        assert engine.cache.digests == {
            entry["sha256"]
            for entry in store.query_snapshot().live.values()}

class BlockingEngine:
    """Engine stub whose answers gate on an event (plane tests)."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()

    def answer(self, kind):
        self.entered.set()
        self.release.wait(timeout=10.0)
        return {"query": kind, "result": {}}


class TestQueryPlane:
    def test_full_queue_sheds_with_accounting(self):
        registry = ThreadSafeRegistry()
        engine = BlockingEngine()
        plane = QueryPlane(engine, capacity=2, timeout_s=5.0)
        with use_registry(registry):
            plane.start()
            try:
                first = plane.submit("stats")
                assert first is not None
                assert engine.entered.wait(timeout=5.0)
                # The worker holds the first; two more fill the queue.
                assert plane.submit("stats") is not None
                assert plane.submit("stats") is not None
                assert plane.submit("stats") is None  # shed
                assert plane.shed == 1
            finally:
                engine.release.set()
                plane.stop()
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            'query_shed_total{reason="queue-full"}'] == 1
        assert snapshot["counters"][
            'query_requests_total{kind="stats"}'] == 3

    def test_slow_fold_times_out_with_retry_signal(self):
        registry = ThreadSafeRegistry()
        engine = BlockingEngine()
        plane = QueryPlane(engine, capacity=4, timeout_s=0.05,
                           retry_after_s=2.5)
        with use_registry(registry):
            plane.start()
            try:
                ticket = plane.submit("summary")
                status, body = plane.wait(ticket)
                assert status == protocol.RESULT_RETRY
                assert body["retry_after_s"] == 2.5
                assert ticket.abandoned
            finally:
                engine.release.set()
                plane.stop()
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            'query_shed_total{reason="timeout"}'] == 1
        # The worker was mid-fold when the handler gave up: the query
        # is shed, once — not also an answer with stage samples.
        assert plane.shed == 1
        assert plane.answered == 0
        assert not any(name.startswith("query_stage_seconds")
                       for name in snapshot["histograms"])

    def test_engine_fault_answers_result_error(self):
        class FaultyEngine:
            def answer(self, kind):
                raise RuntimeError("fold exploded")

        registry = ThreadSafeRegistry()
        plane = QueryPlane(FaultyEngine(), capacity=4, timeout_s=5.0)
        with use_registry(registry):
            plane.start()
            try:
                ticket = plane.submit("stats")
                status, body = plane.wait(ticket)
            finally:
                plane.stop()
        assert status == protocol.RESULT_ERROR
        assert "fold exploded" in body["error"]
        assert plane.errors == 1
        snapshot = registry.snapshot()
        assert snapshot["counters"]["query_errors_total"] == 1


class TestServiceQueries:
    """End-to-end over real sockets, ingest and queries interleaved."""

    def _ingest(self, service, records):
        batcher = UploadBatcher(
            transport=SocketTransport(*service.address, sender=1)
        )
        for record in records:
            batcher.enqueue(record)
        batcher.maybe_flush(True)
        return batcher

    def test_live_answers_match_offline_analysis(self, tmp_path):
        records = mixed_records()
        config = ServeConfig(store_dir=str(tmp_path / "store"),
                             store_seal_records=5)
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            service = IngestService(config=config).start()
            try:
                batcher = self._ingest(service, records)
                assert wait_until(
                    lambda: service.server.accepted == len(records)
                )
                offline = compute_analysis_block(
                    service.server.store.dataset()
                )
                with QueryClient(*service.address) as client:
                    stats = client.stats()
                    isp_bs = client.isp_bs()
                    transitions = client.transitions()
                    summary = client.summary()
                batcher.transport.close()
            finally:
                service.stop(drain=False)
        assert canonical(stats["result"]) == canonical(
            {key: offline[key] for key in STATS_FIELDS}
        )
        assert canonical(isp_bs["result"]) == canonical(
            {key: offline[key] for key in ISP_BS_FIELDS}
        )
        assert canonical(transitions["result"]) == canonical(
            {key: offline[key] for key in TRANSITIONS_FIELDS}
        )
        assert canonical(summary["result"]) == canonical(
            analysis_summary(offline)
        )
        assert stats["watermark"]["n_records"] == len(records)

    def test_repeated_queries_hit_the_cache(self, tmp_path):
        records = mixed_records()
        config = ServeConfig(store_dir=str(tmp_path / "store"),
                             store_seal_records=5)
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            service = IngestService(config=config).start()
            try:
                batcher = self._ingest(service, records)
                assert wait_until(
                    lambda: service.server.accepted == len(records)
                )
                with QueryClient(*service.address) as client:
                    first = client.stats()
                    second = client.stats()
                batcher.transport.close()
            finally:
                service.stop(drain=False)
        assert first["cache"]["misses"] > 0
        assert second["cache"]["hits"] == first["cache"]["misses"]
        assert second["cache"]["misses"] == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"]["query_cache_hits_total"] > 0

    def test_oversized_result_answers_error_not_a_dead_handler(
        self, monkeypatch
    ):
        """An answer too large to frame is the worker's error to
        report: the client reads ``RESULT_ERROR`` and the connection
        — its handler thread — keeps serving."""

        class Engine:
            size = 8192

            def answer(self, kind):
                return {"query": kind, "result": "x" * self.size}

        monkeypatch.setattr(protocol, "MAX_RESULT_BYTES", 4096)
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            service = IngestService().start()
            engine = service.query_plane.engine = Engine()
            try:
                with QueryClient(*service.address) as client:
                    with pytest.raises(QueryError, match="FrameTooLarge"):
                        client.stats()
                    engine.size = 16
                    assert client.stats()["result"] == "x" * 16
            finally:
                service.stop(drain=False)
        assert service.query_plane.errors == 1
        assert service.query_plane.answered == 1
        assert registry.snapshot()["counters"][
            "query_errors_total"] == 1

    def test_queries_answer_while_ingest_continues(self, tmp_path):
        """A query must not wait for ingest to go idle: with the
        ingest worker wedged mid-payload, answers still flow and the
        watermark advances once ingest resumes."""
        records = mixed_records(n_devices=4, per_device=3)
        config = ServeConfig(store_dir=str(tmp_path / "store"),
                             store_seal_records=4)
        with use_registry(ThreadSafeRegistry()):
            service = IngestService(config=config).start()
            try:
                first_half = records[:6]
                batcher = self._ingest(service, first_half)
                assert wait_until(
                    lambda: service.server.accepted == 6
                )
                entered = threading.Event()
                release = threading.Event()
                real = service.server.receive_many

                def gated(payloads):
                    entered.set()
                    release.wait(timeout=10.0)
                    real(payloads)

                service.server.receive_many = gated
                try:
                    batcher2 = self._ingest(service, records[6:])
                    assert entered.wait(timeout=5.0)
                    with QueryClient(*service.address) as client:
                        mid = client.stats()
                finally:
                    release.set()
                    service.server.receive_many = real
                assert mid["watermark"]["n_records"] == 6
                assert wait_until(
                    lambda: service.server.accepted == len(records)
                )
                with QueryClient(*service.address) as client:
                    final = client.stats()
                offline = compute_analysis_block(
                    service.server.store.dataset()
                )
                batcher.transport.close()
                batcher2.transport.close()
            finally:
                service.stop(drain=False)
        assert final["watermark"]["n_records"] == len(records)
        assert canonical(final["result"]) == canonical(
            {key: offline[key] for key in STATS_FIELDS}
        )

    def test_draining_service_answers_unavailable(self):
        registry = ThreadSafeRegistry()
        with use_registry(registry):
            service = IngestService().start()
            try:
                # Connect while the service still accepts, then flip
                # it into drain: the handler is already blocked in its
                # frame read, so the query reaches the unavailable
                # branch instead of a closed socket.
                sock = socket.create_connection(service.address,
                                                timeout=2.0)
                sock.settimeout(2.0)
                assert wait_until(
                    lambda: service.connections_accepted == 1
                )
                service._draining.set()
                try:
                    protocol.write_query(sock, "stats")
                    status, _body = protocol.read_result(sock)
                finally:
                    sock.close()
            finally:
                service._draining.clear()
                service.stop(drain=False)
        assert status == protocol.RESULT_UNAVAILABLE
        snapshot = registry.snapshot()
        assert snapshot["counters"][
            'query_unavailable_total{reason="draining"}'] == 1
