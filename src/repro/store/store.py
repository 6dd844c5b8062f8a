"""The durable segment store: the tail, the locks, appends and seals.

``SegmentStore`` is the crash-safe home of ingested failure records:
every one is journaled (WAL, fsynced) before the store owns it, and
its unsealed tail is sealed every ``seal_records`` rows into a
checksummed segment (:mod:`repro.store.segment`) that is committed to
the journal only once its file is durable.  The journal's format is
:mod:`repro.store.journal`'s, the fold :mod:`repro.store.fold`'s, and
damage and its repair :mod:`repro.store.scrub`'s.

The store is single-writer (the serve ingest worker); scrubbing a
store that another *process* is actively writing is not supported.
Within one process, concurrent readers are supported through
:meth:`SegmentStore.query_snapshot`.  A writer lock serializes appends,
seals and scrub; the mutex a snapshot takes is held by an append or a
seal only to publish what its disk write made durable, so a reader on
another thread (the serve query plane) never waits on a writer's fsync
and folds over a frozen, consistent view while appends continue.
Stores of the partitioned layout open unchanged; their partitions are
ignored.
"""

from __future__ import annotations

import errno as errno_module
import os
import re
import threading
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.chaos.disk import DiskIO
from repro.dataset.records import FailureRecord, record_identity
from repro.obs import get_registry
from repro.store.fold import FoldState, QueryResult, fold_snapshot
from repro.store.journal import Journal, StoreError
from repro.store.scrub import ScrubReport, scrub
from repro.store.segment import (SegmentCorruptError, decode_columns,
                                 decode_rows, encode_segment)

_JOURNAL = "journal.jsonl"

#: The partitioned layout's bucket sizes, read only by
#: :meth:`SegmentStore.partition_of`.
_PARTITION_TIME_S = 3600.0
_PARTITION_DEVICES = 1024

#: The seq of a segment (or temp) file name, either layout's.
_SEGMENT_SEQ = re.compile(r"seg-(?:t-?\d+-d\d+-)?(\d+)\.seg")


@dataclass(frozen=True)
class StoreSnapshot:
    """A consistent point-in-time view for concurrent readers.

    Sealed segments are immutable once committed, so the snapshot only
    copies *references*: the live commit-entry map, the store's own
    tail list, and the owned identity count.  The tail list is shared,
    not copied — the store only ever appends to it (see
    ``SegmentStore._tail``), so the list plus the length it had under
    the mutex *is* its state at the snapshot instant.  A reader
    folding over the snapshot sees exactly the store as of that
    instant no matter how far ingest has advanced since.
    """

    #: Segment name -> journal commit entry (immutable once written).
    live: dict
    #: The store's own append-only list of ``(key, data)`` tail rows.
    #: Shared: read no further than ``n_tail``.
    tail: list
    #: Rows the tail held at the snapshot instant.
    n_tail: int
    #: Identities the store owned at snapshot time (the watermark).
    n_records: int

    @property
    def tails(self) -> tuple:
        """The unsealed tails, zero or one of them: the count the
        layer replay in ``benchmarks/e2e/bench_layers.py`` divides a
        drain's wall by, and its only reader."""
        return (self.tail,) if self.n_tail else ()

    def tail_rows(self) -> list[dict]:
        """Tail records, in append order."""
        return [data for _key, data in islice(self.tail, self.n_tail)]


class SegmentStore:
    """One durable, append-only failure-record store."""

    def __init__(self, root: str | Path, *, seal_records: int = 512,
                 io: DiskIO | None = None) -> None:
        if seal_records < 1:
            raise StoreError("seal_records must be >= 1")
        self.root = Path(root)
        self.io = io if io is not None else DiskIO()
        self.journal = Journal(self.root / _JOURNAL, self.io)
        self.seal_records = seal_records
        #: Unsealed records, ``(key, data)`` in append order.  The list
        #: is only ever appended to, or replaced whole by a new list
        #: (seal, orphan adoption) — never cleared in place: snapshots
        #: share it and :class:`FoldState` marks it by identity on the
        #: strength of that.
        self._tail: list[tuple[str, dict]] = []
        #: Live commit entries by segment file name.
        self._live: dict[str, dict] = {}
        #: Every identity the store owns (sealed or tail).
        self._known: set[str] = set()
        self._seq = 0
        #: Serializes the mutations: appends, seals and scrub.
        #: Reentrant, so a seal can run inside an append.
        self._writer = threading.RLock()
        #: Guards the in-memory state :meth:`query_snapshot` copies.
        #: An append or a seal holds it only to publish what its disk
        #: write made durable, never across the write itself.
        self._mutex = threading.Lock()
        self._load_journal()

    # -- paths ---------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.journal.path

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- descriptive ---------------------------------------------------------

    def describe(self) -> dict:
        """JSON-able config block for drain checkpoints."""
        return {"root": str(self.root), "seal_records": self.seal_records}

    @classmethod
    def from_description(cls, description: dict,
                         io: DiskIO | None = None) -> "SegmentStore":
        """The store :meth:`describe` wrote; keys of older layouts
        (``wal``, the partition bounds) are ignored."""
        return cls(description["root"], io=io, seal_records=int(
            description.get("seal_records", 512)))

    @property
    def n_segments(self) -> int:
        return len(self._live)

    @property
    def n_sealed_records(self) -> int:
        return sum(entry["n_records"] for entry in self._live.values())

    @property
    def n_tail_records(self) -> int:
        return len(self._tail)

    def __contains__(self, key: str) -> bool:
        """Whether the store owns record identity ``key`` — the ingest
        server's dedup check: one set lookup, nothing copied."""
        return key in self._known

    def __iter__(self):
        """Every record identity the store currently owns (not safe
        against a concurrent append: iterate a quiescent store)."""
        return iter(self._known)

    def tail_rows(self) -> list[dict]:
        """Unsealed records, in append order."""
        return self.query_snapshot().tail_rows()

    def summary(self) -> dict[str, int]:
        return {
            "segments": self.n_segments,
            "sealed_records": self.n_sealed_records,
            "tail_records": self.n_tail_records,
            "known_keys": len(self._known),
        }

    # -- journal loading -----------------------------------------------------

    def _load_journal(self) -> None:
        scan = self.journal.scan()
        for entry in scan.entries:
            if entry["op"] == "commit":
                self._live[entry["segment"]] = entry
                self._seq = max(self._seq, int(entry.get("seq", 0)) + 1)
            else:
                self._live.pop(entry["segment"], None)
        covered: set[str] = set()
        for entry in self._live.values():
            covered.update(entry["keys"])
        # WAL rows no live segment covers go back to the unsealed
        # tail, in journal order — this is both normal tail
        # restoration after a clean restart and record recovery after
        # a segment quarantine.  Only these lines are read back.
        self._tail = self.journal.read_wal(
            scan.wal_offsets,
            [key for key in scan.wal_offsets if key not in covered])
        self._known = covered.union(key for key, _data in self._tail)
        self._seq = max(self._seq, self._last_file_seq() + 1)

    def _last_file_seq(self) -> int:
        """The highest seq of any file in ``segments/`` or
        ``quarantine/`` (-1 if none): a seal that crashed before its
        commit line used a seq no journal line records."""
        seqs = [-1]
        for directory in (self.segments_dir, self.quarantine_dir):
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            for name in names:
                match = _SEGMENT_SEQ.match(name)
                if match:
                    seqs.append(int(match.group(1)))
        return max(seqs)

    # -- appends -------------------------------------------------------------

    def partition_of(self, data: dict) -> tuple[int, int]:
        """``data``'s ``(hour, device range)`` bucket in the
        partitioned layout.  The store no longer reads it; the layer
        replay in ``benchmarks/e2e/bench_layers.py`` is its only
        caller."""
        return (
            int(float(data["start_time"]) // _PARTITION_TIME_S),
            int(data["device_id"]) // _PARTITION_DEVICES,
        )

    def append(self, data: dict, key: str | None = None) -> str:
        """Durably accept one failure-record dict; returns its key."""
        return self.append_many([(data, key)])[0]

    def append_many(self, items) -> list[str]:
        """Durably accept ``(data, key | None)`` pairs as one group
        commit; returns every item's key, in order.

        Idempotent: an identity the store already owns — or that
        appears earlier in the batch — is a no-op (the retry path
        after a mid-commit fault).  The new records' WAL lines go down
        in **one** write and one fsync, and only then do the records
        join the tail, so an accepted record survives a SIGKILL at any
        later instant and a fault in the write leaves none of them
        owned.  The commit is split only where the tail reaches
        ``seal_records``: that record's seal (and its ``commit`` line)
        lands before the rest of the batch is written, which keeps the
        journal byte-identical to appending one record at a time.
        """
        with self._writer:
            keys: list[str] = []
            pending: list[tuple[str, dict]] = []
            batch_keys: set[str] = set()
            size = len(self._tail)
            for data, key in items:
                key = key if key is not None else record_identity(data)
                keys.append(key)
                if key in self._known or key in batch_keys:
                    continue
                pending.append((key, data))
                batch_keys.add(key)
                size += 1
                if size >= self.seal_records:
                    self._commit(pending)
                    pending, size = [], len(self._tail)
            self._commit(pending)
            return keys

    def _commit(self, rows: list[tuple[str, dict]]) -> None:
        """WAL-write ``(key, data)`` rows in one fsynced append, then
        own them; seal the tail if that filled it."""
        if not rows:
            return
        registry = get_registry()
        self.journal.append_wal(rows)
        registry.inc("store_wal_fsyncs_total")
        registry.inc("store_records_appended_total", len(rows))
        with self._mutex:
            self._tail.extend(rows)
            self._known.update(key for key, _data in rows)
        if len(self._tail) >= self.seal_records:
            self._seal()

    def _seal(self) -> str | None:
        """Seal the whole tail, in append order, into one committed
        segment.

        Returns the new segment name, or ``None`` when the tail was
        empty or the filesystem refused the write (``OSError`` —
        ENOSPC and friends — is absorbed: the tail is retained, the
        failure counted, and a later seal retries).  Any other fault
        (e.g. a simulated crash) propagates with the tail intact.
        Encoding and both writes run outside the mutex, so readers
        see the tail until the segment's commit line is durable.
        """
        with self._writer:
            tail = self._tail
            if not tail:
                return None
            registry = get_registry()
            blob = encode_segment([data for _key, data in tail])
            digest = blob.split(b"\n", 1)[0].split()[-1].decode("ascii")
            # The seq is consumed per *attempt*, not per commit: a
            # retry after a failed write or a torn commit append must
            # never reuse the name an earlier — possibly fault-damaged
            # — attempt already wrote, or the overwrite would erase
            # the evidence scrub and reconciliation classify.  The
            # abandoned file stays behind as an orphan that scrub
            # adopts or supersedes (and that a reopened store numbers
            # past, see :meth:`_last_file_seq`).
            seq = self._seq
            self._seq += 1
            name = f"seg-{seq:06d}.seg"
            try:
                self.io.write_atomic(self.segments_dir / name, blob)
            except OSError as exc:
                reason = (errno_module.errorcode.get(exc.errno,
                                                     "OSERROR")
                          if exc.errno else "OSERROR").lower()
                registry.inc("store_seal_failures_total", reason=reason)
                return None
            entry = self.journal.commit(name, seq, digest,
                                        [key for key, _data in tail])
            # Only now — digest durable in the journal — does the
            # store stop owning these rows in memory.
            with self._mutex:
                self._live[name] = entry
                self._tail = []
            registry.inc("store_segments_sealed_total")
            registry.inc("store_records_sealed_total", len(tail))
            registry.inc("store_bytes_written_total", len(blob))
            return name

    def flush(self) -> list[str]:
        """Seal whatever the tail holds (the drain path); returns the
        new segment's name in a list, empty if nothing sealed."""
        name = self._seal()
        return [] if name is None else [name]

    def query_snapshot(self) -> StoreSnapshot:
        """A consistent view for a reader on another thread.

        Taken under the mutex, which a writer holds only to publish,
        so a fold never observes a half-applied seal (tail replaced
        but segment not yet live) and never waits on a writer's disk
        I/O.  Cheap: reference copies only, and the tail list is
        shared with its length, not copied.
        """
        with self._mutex:
            return StoreSnapshot(
                live=dict(self._live),
                tail=self._tail,
                n_tail=len(self._tail),
                n_records=len(self._known),
            )

    # -- reads ---------------------------------------------------------------

    def _read_columns(self, name: str,
                      entry: dict) -> tuple[dict, dict]:
        """Read and verify one segment against its commit entry:
        ``(columns, header)``, or :class:`SegmentCorruptError`."""
        try:
            blob = self.io.read_bytes(self.segments_dir / name)
        except FileNotFoundError:
            raise SegmentCorruptError("segment file missing") from None
        except OSError as exc:
            raise SegmentCorruptError(f"unreadable: {exc}") from exc
        columns, header = decode_columns(blob)
        if header["n_records"] != entry["n_records"]:
            raise SegmentCorruptError(
                f"segment holds {header['n_records']} records, journal "
                f"committed {entry['n_records']}"
            )
        return columns, header

    def _columns_or_skip(self, name: str, entry: dict,
                         skipped: list[dict]) -> tuple[dict, dict] | None:
        """Read one snapshot segment; a corrupt one is counted,
        recorded in ``skipped`` and answered with ``None``."""
        registry = get_registry()
        try:
            decoded = self._read_columns(name, entry)
        except SegmentCorruptError as exc:
            registry.inc("store_query_segments_skipped_total")
            skipped.append({"segment": name, "reason": exc.reason})
            return None
        registry.inc("store_query_segments_total")
        return decoded

    def iter_rows(self, skipped: list[dict] | None = None):
        """Yield every owned record dict, sealed segments first.

        Walks one :meth:`query_snapshot`, so ingest may keep appending
        while the rows are consumed.  Corrupt segments are skipped;
        each skip appends ``{"segment", "reason"}`` to ``skipped`` when
        provided (and is always counted in the metrics registry).
        """
        if skipped is None:
            skipped = []
        snapshot = self.query_snapshot()
        for name in sorted(snapshot.live):
            decoded = self._columns_or_skip(name, snapshot.live[name],
                                            skipped)
            if decoded is not None:
                yield from decode_rows(*decoded)
        yield from snapshot.tail_rows()

    def fold_snapshot(self, snapshot: StoreSnapshot,
                      state: FoldState) -> QueryResult:
        """Fold the analysis block of ``snapshot``, exactly, doing
        only the work ``state`` has not done already
        (:func:`repro.store.fold.fold_snapshot`)."""
        return fold_snapshot(snapshot, state, self._columns_or_skip)

    def fold_analysis(self) -> QueryResult:
        """:meth:`fold_snapshot` of the store as of call time, from a
        fresh state; ingest may keep appending while this runs."""
        return self.fold_snapshot(self.query_snapshot(), FoldState())

    def dataset(self):
        """All owned records as a :class:`~repro.dataset.store.Dataset`.

        Corrupt segments are skipped with accounting in
        ``metadata["store"]["skipped_segments"]``.
        """
        from repro.dataset.store import Dataset

        skipped: list[dict] = []
        failures = [FailureRecord.from_dict(row)
                    for row in self.iter_rows(skipped)]
        return Dataset(failures=failures, metadata={
            "store": {
                "root": str(self.root),
                "segments": self.n_segments,
                "skipped_segments": skipped,
            },
        })

    def scrub(self, repair: bool = True) -> ScrubReport:
        """Verify everything, classify all damage, repair what's possible.

        With ``repair=True`` (the default): damaged segments move to
        ``quarantine/``, their WAL-covered records return to the
        unsealed tail, valid orphan files are re-committed, leftover
        temp files are deleted, and a torn journal tail is truncated.
        With ``repair=False`` the same findings are reported but the
        store is left untouched (read-only audit).  Scrub holds the
        writer lock and the mutex throughout: readers wait for it.
        """
        with self._writer, self._mutex:
            return scrub(self, repair)
