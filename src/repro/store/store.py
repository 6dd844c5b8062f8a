"""The durable segment store and its scrub/repair pass.

``SegmentStore`` is the crash-safe home of ingested failure records:

* **appends are journaled first** — every accepted record lands as a
  WAL line in ``journal.jsonl`` (fsynced) before the store owns it, so
  a SIGKILL at any instant loses nothing the store accepted.  Appends
  are group commits (:meth:`SegmentStore.append_many`): a batch's WAL
  lines share one write and one fsync;
* **sealing is by volume, and atomic** — the store keeps one unsealed
  tail in append order; once it reaches ``seal_records`` rows, whatever
  their devices or times, it is encoded into a checksummed columnar
  segment (:mod:`repro.store.segment`), written temp + fsync + rename,
  and *then* committed to the journal with its digest and record
  identities.  The tail is only replaced after the commit line is
  durable; any fault before that leaves the records in the tail (and
  in the WAL), never half-owned;
* **queries fold, never crash** — :meth:`SegmentStore.fold_snapshot`
  reads the live segments it has not folded yet as typed columns,
  concatenates them and reduces them as one
  :class:`~repro.analysis.columnar.SegmentPartial` per chunk of rows,
  beside a running fold of the tail rows (the per-device evidence
  makes the fold byte-identical to computing over all records at
  once, however devices spread across segments); a reader that keeps
  its :class:`FoldState` pays only for what was appended since its
  last fold, and corrupt segments are skipped *with accounting*,
  never silently;
* **scrub classifies and repairs** — :meth:`SegmentStore.scrub`
  verifies every live segment digest, quarantines damaged files,
  re-adopts valid orphans (a crash between rename and commit),
  removes leftover temp files, truncates a torn journal tail, and
  recovers quarantined records from their WAL lines back into the
  unsealed tail.  Every finding is classified; record identities that
  no channel can recover are reported as ``lost_keys`` and leave the
  store's identity set, so a device's re-upload is accepted as new.

The store is single-writer (the serve ingest worker); scrubbing a
store that another *process* is actively writing is not supported.
Within one process, concurrent readers are supported through
:meth:`SegmentStore.query_snapshot`.  A writer lock serializes appends,
seals and scrub; the mutex a snapshot takes is held by an append or a
seal only to publish what its disk write made durable, so a reader on
another thread (the serve query plane) never waits on a writer's fsync
and folds over a frozen, consistent view while appends continue.
Stores of the partitioned layout (one tail per hour and device range,
``seg-t<t>-d<d>-<seq>.seg``) open unchanged; their partitions are
ignored.
"""

from __future__ import annotations

import errno as errno_module
import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from repro.analysis.columnar import SegmentPartial, _Fold
from repro.chaos.disk import DiskIO
from repro.dataset.records import FailureRecord, record_identity
from repro.obs import get_registry
from repro.store.segment import (
    SegmentCorruptError,
    decode_columns,
    decode_rows,
    decode_segment,
    encode_segment,
    failure_columns,
    segment_digest,
)

#: Bumped when the journal schema changes incompatibly.
JOURNAL_VERSION = 1

_JOURNAL = "journal.jsonl"
_CRC_BYTES = 16

#: Most committed rows a fold concatenates into one batch before
#: reducing it, so transient memory stays bounded however large the
#: store; a single larger segment is a batch of its own.
FOLD_CHUNK_ROWS = 65_536

#: The partitioned layout's bucket sizes, read only by
#: :meth:`SegmentStore.partition_of`.
_PARTITION_TIME_S = 3600.0
_PARTITION_DEVICES = 1024

#: The seq of a segment (or temp) file name, either layout's.
_SEGMENT_SEQ = re.compile(r"seg-(?:t-?\d+-d\d+-)?(\d+)\.seg")


class StoreError(RuntimeError):
    """The segment store could not complete an operation."""


def _crc(canonical: str) -> str:
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return digest[:_CRC_BYTES]


def _line_crc(entry: dict) -> str:
    """Integrity tag of one journal entry (sans its own ``crc``)."""
    return _crc(json.dumps(
        {k: v for k, v in entry.items() if k != "crc"}, sort_keys=True
    ))


def _seal_entry(entry: dict) -> bytes:
    """The journal line for ``entry`` (which carries no ``crc`` yet).

    ``"crc"`` sorts before every other journal key, so the sealed line
    is the canonical dump with the tag spliced in front — one dump per
    entry, not one for the tag and another for the line.
    """
    canonical = json.dumps(entry, sort_keys=True)
    line = f'{{"crc": "{_crc(canonical)}", {canonical[1:]}'
    return line.encode("utf-8")


#: Byte layout of a :func:`_seal_entry` line: ``{"crc": "`` + tag +
#: ``", `` + the canonical dump without its opening brace.
_TAG_START = len(b'{"crc": "')
_TAG_END = _TAG_START + _CRC_BYTES
_BODY_START = _TAG_END + len(b'", ')


def _verify_line(raw: bytes) -> tuple[dict | None, str | None]:
    """``(entry, None)`` for an intact journal line, else ``(None,
    "undecodable" | "crc-mismatch")``.

    The rule is the entry's: its ``crc`` must equal :func:`_line_crc`
    of the parsed entry.  A line :func:`_seal_entry` wrote carries the
    canonical dump as its own bytes after the tag, so hashing those
    bytes proves the rule without re-dumping the entry; only a line
    that fails that byte check (damage, or an intact entry spelled
    differently, e.g. ``\\u00E9`` for ``\\u00e9``) is re-dumped and
    judged by the rule itself.  Every verdict is the rule's.
    """
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, "undecodable"
    if (raw.startswith(b'{"crc": "')
            and raw[_TAG_END:_BODY_START] == b'", '
            and hashlib.sha256(b"{" + raw[_BODY_START:]).hexdigest()
            [:_CRC_BYTES].encode() == raw[_TAG_START:_TAG_END]):
        return entry, None
    if not isinstance(entry, dict) or entry.get("crc") != _line_crc(entry):
        return None, "crc-mismatch"
    return entry, None


@dataclass
class QueryResult:
    """One streaming fold over the store, damage accounted."""

    block: dict
    n_segments: int
    n_tail_records: int
    #: Segments that failed verification mid-query, with reasons —
    #: the fold continued without them (skip-with-accounting).
    skipped: list[dict] = field(default_factory=list)
    #: Rows this fold reduced (decoded segments + new tail rows).
    rows_folded: int = 0
    #: Live segments answered without decoding / that it had to read.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Folded segments that had left the live set.
    invalidations: int = 0
    #: Sides of the :class:`FoldState` rebuilt: "sealed" and/or "tail".
    rebuilt: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.skipped


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


class PartialCache:
    """The sealed segments a :class:`FoldState` has folded, by
    committed sha256 digest, and the accounting of its folds.

    Sealed segments are immutable, so a digest fully identifies the
    batch: while its segment stays live, a digest in ``digests`` is in
    the state's sealed fold and is never read again.  ``hits`` counts
    live segments a fold answered without reading them, ``misses``
    the ones it had to read, ``invalidations`` folded segments that
    left the live set (quarantine or supersede).
    """

    def __init__(self) -> None:
        self.digests: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def prune(self, live_digests) -> int:
        """If folded digests left ``live_digests``, count them and
        forget every digest — a running fold cannot subtract one, so
        the sealed side must be refolded from the survivors; returns
        how many left."""
        dead = len(self.digests.difference(live_digests))
        if dead:
            self.digests.clear()
            self.invalidations += dead
        return dead


class FoldState:
    """What a reader carries between folds, so that an answer costs
    the rows appended since its previous one.

    Two running folds.  ``sealed`` holds exactly the segments whose
    digests ``cache`` lists, and is refolded from the surviving
    segments when one of them leaves the live set (a running fold
    cannot subtract).  ``tail`` holds the first ``done`` rows of the
    tail list ``marked``, and is rebuilt from the snapshot when
    :func:`_tail_delta` finds that list replaced.  A segment that
    fails verification never enters the state, so it is retried and
    reported on every fold.

    Nothing here refers to the store by name or position — sealed
    content is keyed by digest, the tail by object identity — so a
    state that outlives what it folded (scrub, a swapped store)
    rebuilds instead of answering wrongly.  One thread owns a state.
    """

    def __init__(self) -> None:
        self.cache = PartialCache()
        self.sealed = _Fold()
        self.tail = _Fold()
        #: The tail list folded so far (``None`` before the first
        #: fold) and how many of its rows: the mark.
        self.marked: list | None = None
        self.done = 0


def _chunks(names: list[str], live: dict):
    """``names`` in runs of at most :data:`FOLD_CHUNK_ROWS` committed
    rows; a larger segment is a run of its own."""
    chunk: list[str] = []
    rows = 0
    for name in names:
        n = live[name]["n_records"]
        if chunk and rows + n > FOLD_CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(name)
        rows += n
    if chunk:
        yield chunk


def _tail_delta(snapshot: StoreSnapshot,
                state: FoldState) -> list[dict] | None:
    """The tail rows appended since ``state`` last folded, moving its
    mark past them — or ``None``, state untouched, if the mark no
    longer holds.

    The mark is the tail list *itself* and the rows of it folded; it
    holds while the snapshot still has that very list.  Length is no
    guard — a tail that sealed and regrew past its old length between
    two folds holds other rows — and identity is one: the store only
    ever appends to its tail list, and a seal or a scrub that takes
    rows out puts a new list in its place (see ``SegmentStore._tail``),
    so the same list has the same prefix.
    """
    if state.marked is not None and state.marked is not snapshot.tail:
        return None
    fresh = [data for _key, data
             in islice(snapshot.tail, state.done, snapshot.n_tail)]
    state.marked, state.done = snapshot.tail, snapshot.n_tail
    return fresh


@dataclass
class ScrubReport:
    """Everything one scrub pass found, classified."""

    root: str
    repair: bool
    #: Live segments whose files verified clean.
    segments_ok: int = 0
    #: Damaged live segments: {segment, reason, keys, recovered, lost}.
    quarantined: list[dict] = field(default_factory=list)
    #: Valid segment files with no journal commit (crash between
    #: rename and commit), re-adopted into the journal.
    adopted: list[dict] = field(default_factory=list)
    #: Orphan files whose records were already covered elsewhere.
    superseded: list[str] = field(default_factory=list)
    #: Leftover atomic-write temp files removed (crash-in-rename).
    temp_files_removed: list[str] = field(default_factory=list)
    #: Journal lines that failed their CRC (bit flip / merged tear).
    journal_damaged_lines: int = 0
    #: Bytes cut off a torn journal tail (crash mid-append).
    journal_truncated_bytes: int = 0
    #: Record identities recovered from WAL lines back into the tail.
    recovered_keys: tuple[str, ...] = ()
    #: Record identities no channel could recover.  With ``repair``
    #: they leave the store, so devices' re-uploads are accepted.
    lost_keys: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """No damage of any kind was found."""
        return not (self.quarantined or self.adopted or self.superseded
                    or self.temp_files_removed
                    or self.journal_damaged_lines
                    or self.journal_truncated_bytes)

    @property
    def ok(self) -> bool:
        """Every finding was classified and no records were lost."""
        return not self.lost_keys

    @classmethod
    def from_dict(cls, data: dict) -> "ScrubReport":
        """Rebuild a report from :meth:`to_dict` output (e.g. the
        ``repro scrub --json`` artifact, for offline reconciliation)."""
        return cls(
            root=data["root"],
            repair=bool(data["repair"]),
            segments_ok=int(data["segments_ok"]),
            quarantined=list(data["quarantined"]),
            adopted=list(data["adopted"]),
            superseded=list(data["superseded"]),
            temp_files_removed=list(data["temp_files_removed"]),
            journal_damaged_lines=int(data["journal_damaged_lines"]),
            journal_truncated_bytes=int(data["journal_truncated_bytes"]),
            recovered_keys=tuple(data["recovered_keys"]),
            lost_keys=tuple(data["lost_keys"]),
        )

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "segments_ok": self.segments_ok,
            "quarantined": list(self.quarantined),
            "adopted": list(self.adopted),
            "superseded": list(self.superseded),
            "temp_files_removed": list(self.temp_files_removed),
            "journal_damaged_lines": self.journal_damaged_lines,
            "journal_truncated_bytes": self.journal_truncated_bytes,
            "recovered_keys": list(self.recovered_keys),
            "lost_keys": list(self.lost_keys),
        }

    def render(self) -> str:
        lines = [
            f"{'segments verified':<26} {self.segments_ok:>8}",
            f"{'quarantined':<26} {len(self.quarantined):>8}",
            f"{'orphans adopted':<26} {len(self.adopted):>8}",
            f"{'orphans superseded':<26} {len(self.superseded):>8}",
            f"{'temp files removed':<26} {len(self.temp_files_removed):>8}",
            f"{'journal lines damaged':<26} {self.journal_damaged_lines:>8}",
            f"{'journal bytes truncated':<26} "
            f"{self.journal_truncated_bytes:>8}",
            f"{'records recovered (WAL)':<26} "
            f"{len(self.recovered_keys):>8}",
            f"{'RECORDS LOST':<26} {len(self.lost_keys):>8}",
        ]
        for finding in self.quarantined:
            lines.append(f"  quarantined {finding['segment']}: "
                         f"{finding['reason']} "
                         f"(recovered {finding['recovered']}, "
                         f"lost {finding['lost']})")
        for finding in self.adopted:
            lines.append(f"  adopted {finding['segment']}: "
                         f"{finding['n_records']} records")
        return "\n".join(lines)


class SegmentStore:
    """One durable, append-only failure-record store."""

    def __init__(self, root: str | Path, *, seal_records: int = 512,
                 wal: bool = True,
                 io: DiskIO | None = None) -> None:
        if seal_records < 1:
            raise StoreError("seal_records must be >= 1")
        self.root = Path(root)
        self.io = io if io is not None else DiskIO()
        self.seal_records = seal_records
        self.wal = wal
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
        #: Journal damage observed while loading (scrub classifies it).
        self.journal_damage: list[dict] = []
        self._journal_good_bytes = 0
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
        return self.root / _JOURNAL

    @property
    def segments_dir(self) -> Path:
        return self.root / "segments"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- descriptive ---------------------------------------------------------

    def describe(self) -> dict:
        """JSON-able config block for drain checkpoints."""
        return {
            "root": str(self.root),
            "seal_records": self.seal_records,
            "wal": self.wal,
        }

    @classmethod
    def from_description(cls, description: dict,
                         io: DiskIO | None = None) -> "SegmentStore":
        return cls(
            description["root"],
            seal_records=int(description.get("seal_records", 512)),
            wal=bool(description.get("wal", True)),
            io=io,
        )

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

    def _iter_journal_lines(self):
        """Yield ``(offset, entry | None, reason)`` per physical line,
        where ``offset`` is the byte at which the line starts.

        The journal is streamed through a buffered file, one line at a
        time, so a walk holds one line, never the whole journal.
        Tolerant by construction: a line that is not valid JSON or
        fails its CRC yields ``(offset, None, reason)`` and the walk
        continues.  A final line without a newline (torn append) is
        reported with reason ``"torn-tail"`` and not parsed.
        ``_journal_good_bytes`` tracks the byte offset just past the
        last intact line, for tail truncation during scrub.
        """
        try:
            with open(self.journal_path, "rb") as handle:
                offset = 0
                self._journal_good_bytes = 0
                for line in handle:
                    if not line.endswith(b"\n"):
                        yield offset, None, "torn-tail"
                        return
                    start, offset = offset, offset + len(line)
                    self._journal_good_bytes = offset
                    yield start, *_verify_line(line[:-1])
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StoreError(
                f"cannot read journal {self.journal_path}: {exc}"
            ) from exc

    def _read_wal(self, offsets: dict[str, int],
                  keys: list[str]) -> list[tuple[str, dict]]:
        """``(key, data)`` for each of ``keys``, in order, read back
        from the WAL line that starts at its byte in ``offsets`` and
        verified again.

        An offset that no longer starts that key's intact WAL line
        raises :class:`StoreError`: the journal changed under the
        store, and its row must not be dropped in silence.
        """
        rows: list[tuple[str, dict]] = []
        if not keys:
            return rows
        try:
            with open(self.journal_path, "rb") as handle:
                for key in keys:
                    handle.seek(offsets[key])
                    entry, _reason = _verify_line(
                        handle.readline().rstrip(b"\n"))
                    if (entry is None or entry.get("op") != "wal"
                            or entry.get("key") != key):
                        raise StoreError(
                            f"WAL line of {key} at journal byte "
                            f"{offsets[key]} no longer verifies")
                    rows.append((key, entry["data"]))
        except OSError as exc:
            raise StoreError(
                f"cannot read journal {self.journal_path}: {exc}"
            ) from exc
        return rows

    def _load_journal(self) -> None:
        # Per WAL line, where it starts, not what it holds: a repeated
        # key keeps its first position and its latest line's offset.
        wal_offsets: dict[str, int] = {}
        for offset, entry, reason in self._iter_journal_lines():
            if entry is None:
                self.journal_damage.append({"reason": reason})
                continue
            op = entry.get("op")
            if op == "wal":
                wal_offsets[entry["key"]] = offset
            elif op == "commit":
                self._live[entry["segment"]] = entry
                self._seq = max(self._seq, int(entry.get("seq", 0)) + 1)
            elif op == "quarantine":
                self._live.pop(entry["segment"], None)
        covered: set[str] = set()
        for entry in self._live.values():
            covered.update(entry["keys"])
        # WAL rows no live segment covers go back to the unsealed
        # tail, in journal order — this is both normal tail
        # restoration after a clean restart and record recovery after
        # a segment quarantine.  Only these lines are read back.
        self._tail = self._read_wal(
            wal_offsets,
            [key for key in wal_offsets if key not in covered])
        self._known = covered.union(key for key, _data in self._tail)
        # Tail keys without WAL (wal=False stores) cannot be restored;
        # _known covers what the journal proves.
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
        if self.wal:
            self.io.append_lines(self.journal_path, [
                _seal_entry({"op": "wal", "key": key, "data": data})
                for key, data in rows
            ])
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
            entry = {
                "op": "commit",
                "segment": name,
                "seq": seq,
                "sha256": digest,
                "n_records": len(tail),
                "keys": [key for key, _data in tail],
            }
            self.io.append_line(self.journal_path, _seal_entry(entry))
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

    def _verified(self, names: list[str], live: dict,
                  skipped: list[dict], digests: list[str]):
        """Each named segment's verified columns, read one at a time
        as the consumer asks; a corrupt one is skipped with
        accounting, an intact one's digest appended to ``digests``."""
        for name in names:
            decoded = self._columns_or_skip(name, live[name], skipped)
            if decoded is not None:
                digests.append(live[name]["sha256"])
                yield decoded

    def _fold_segments(self, names: list[str], live: dict,
                       state: FoldState, skipped: list[dict]) -> int:
        """Fold the named segments into ``state.sealed`` as columns:
        one concatenated batch per :func:`_chunks` run, each blob let
        go once its columns are copied out.  Returns the rows folded."""
        folded = 0
        for chunk in _chunks(names, live):
            digests: list[str] = []
            batch = failure_columns(
                self._verified(chunk, live, skipped, digests))
            if len(batch):
                state.sealed.add(SegmentPartial.from_columns(batch))
            state.cache.digests.update(digests)
            folded += len(batch)
        return folded

    def fold_snapshot(self, snapshot: StoreSnapshot,
                      state: FoldState) -> QueryResult:
        """Fold the analysis block of ``snapshot``, exactly, doing
        only the work ``state`` has not done already.

        The block is that of two running folds of
        :class:`~repro.analysis.columnar.SegmentPartial` batches — the
        sealed segments and the tail rows — whose per-device evidence
        makes it byte-identical to analyzing all records at once even
        though devices span segments.  A segment is read as typed
        columns the first time a state sees its digest, and every
        segment read in one fold is reduced in one batch (per
        :data:`FOLD_CHUNK_ROWS`); a tail row is reduced the first time
        a state sees it.  With a fresh :class:`FoldState` that is
        everything (:meth:`fold_analysis`), with one kept between
        calls it is what was appended since the last one.
        """
        cache = state.cache
        by_digest = {entry["sha256"]: name
                     for name, entry in snapshot.live.items()}
        rebuilt = []
        invalidated = cache.prune(by_digest)
        if invalidated:
            state.sealed = _Fold()
            rebuilt.append("sealed")
        unseen = by_digest.keys() - cache.digests
        skipped: list[dict] = []
        rows_folded = self._fold_segments(
            sorted(by_digest[digest] for digest in unseen),
            snapshot.live, state, skipped,
        )
        fresh = _tail_delta(snapshot, state)
        if fresh is None:
            state.tail, state.marked, state.done = _Fold(), None, 0
            fresh = _tail_delta(snapshot, state)
            rebuilt.append("tail")
        if fresh:
            state.tail.add(SegmentPartial.from_rows(fresh))
        hits = len(by_digest) - len(unseen)
        cache.hits += hits
        cache.misses += len(unseen)
        return QueryResult(
            block=state.sealed.block(state.tail),
            n_segments=len(by_digest) - len(skipped),
            n_tail_records=state.tail.partial.n_failures,
            skipped=skipped,
            rows_folded=rows_folded + len(fresh),
            cache_hits=hits,
            cache_misses=len(unseen),
            invalidations=invalidated,
            rebuilt=tuple(rebuilt),
        )

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

    # -- scrub / repair ------------------------------------------------------

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
            return self._scrub(repair)

    def _scrub(self, repair: bool) -> ScrubReport:
        registry = get_registry()
        report = ScrubReport(root=str(self.root), repair=repair)
        recovered: list[str] = []
        lost: list[str] = []

        # Re-walk the journal *now* rather than trusting load-time
        # state: ``append_line`` heals a torn tail (terminating the
        # fragment as its own CRC-failing line) and the store keeps
        # appending after load, so the load-time good-bytes offset can
        # sit far behind WAL/commit lines written since — truncating
        # to it would destroy acknowledged records.  One fresh walk
        # yields the WAL coverage map for recovery decisions, the
        # current damage census, and an up-to-date truncation offset
        # (``_iter_journal_lines`` advances ``_journal_good_bytes``
        # past every complete line; only a still-torn tail fragment
        # lies beyond it).  The map holds where each WAL line starts,
        # and recovery reads back only the rows it restores.  Every
        # offset stays valid through the repairs below: truncation
        # cuts only bytes past ``_journal_good_bytes``, which is past
        # every indexed line, and quarantine and commit lines are
        # appended after them.
        wal_offsets: dict[str, int] = {}
        fresh_damage: list[dict] = []
        for offset, entry, reason in self._iter_journal_lines():
            if entry is None:
                fresh_damage.append({"reason": reason})
                continue
            if entry.get("op") == "wal":
                wal_offsets[entry["key"]] = offset
        torn = [d for d in fresh_damage if d["reason"] == "torn-tail"]
        report.journal_damaged_lines = len(fresh_damage) - len(torn)
        if torn:
            try:
                size = os.path.getsize(self.journal_path)
            except OSError:
                size = self._journal_good_bytes
            report.journal_truncated_bytes = max(
                0, size - self._journal_good_bytes
            )
            if repair and report.journal_truncated_bytes:
                with open(self.journal_path, "r+b") as handle:
                    handle.truncate(self._journal_good_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
                fresh_damage = [
                    d for d in fresh_damage if d not in torn
                ]
        self.journal_damage = fresh_damage
        registry.inc("scrub_journal_damaged_lines_total",
                     report.journal_damaged_lines)

        # Verify every live segment.
        for name in sorted(self._live):
            entry = self._live[name]
            registry.inc("scrub_segments_checked_total")
            try:
                self._read_columns(name, entry)
            except SegmentCorruptError as exc:
                finding = self._classify_damaged(
                    name, entry, exc.reason, wal_offsets,
                    recovered, lost, repair,
                )
                report.quarantined.append(finding)
                registry.inc("scrub_segments_quarantined_total",
                             reason=exc.reason.split(" ")[0])
                continue
            report.segments_ok += 1

        # Orphan segment files: valid data with no journal commit
        # (crash between rename and commit, or the commit line was
        # itself damaged).  Re-adopt unless already covered.
        report_adopted, report_superseded = self._scan_orphans(
            wal_offsets, repair
        )
        report.adopted = report_adopted
        report.superseded = report_superseded
        for finding in report_adopted:
            registry.inc("scrub_segments_adopted_total")

        # Leftover atomic-write temp files (crash in the rename window).
        for directory in (self.segments_dir, self.root):
            if not directory.is_dir():
                continue
            for temp in sorted(directory.glob("*.tmp*")):
                report.temp_files_removed.append(str(temp))
                registry.inc("scrub_temp_files_removed_total")
                if repair:
                    try:
                        temp.unlink()
                    except OSError:
                        pass

        report.recovered_keys = tuple(recovered)
        report.lost_keys = tuple(lost)
        registry.inc("scrub_records_recovered_total", len(recovered))
        registry.inc("scrub_records_lost_total", len(lost))
        return report

    def _classify_damaged(self, name: str, entry: dict, reason: str,
                          wal_offsets: dict, recovered: list[str],
                          lost: list[str], repair: bool) -> dict:
        """Quarantine one damaged live segment; recover via WAL."""
        keys = list(entry["keys"])
        recoverable = [k for k in keys if k in wal_offsets]
        unrecoverable = [k for k in keys if k not in wal_offsets]
        if repair:
            rows = self._read_wal(wal_offsets, recoverable)
            path = self.segments_dir / name
            if path.exists():
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                try:
                    os.replace(path, self.quarantine_dir / name)
                except OSError:
                    pass
            quarantine_entry = {
                "op": "quarantine",
                "segment": name,
                "reason": reason,
                "keys": keys,
            }
            self.io.append_line(self.journal_path,
                                _seal_entry(quarantine_entry))
            self._live.pop(name, None)
            # WAL-covered records return to the unsealed tail; the
            # next seal takes them into a fresh segment.
            self._tail.extend(rows)
            for key in unrecoverable:
                self._known.discard(key)
            recovered.extend(recoverable)
            lost.extend(unrecoverable)
        else:
            recovered.extend(recoverable)
            lost.extend(unrecoverable)
        return {
            "segment": name,
            "reason": reason,
            "keys": len(keys),
            "recovered": len(recoverable),
            "lost": len(unrecoverable),
        }

    def _scan_orphans(self, wal_offsets: dict,
                      repair: bool) -> tuple[list[dict], list[str]]:
        adopted: list[dict] = []
        superseded: list[str] = []
        if not self.segments_dir.is_dir():
            return adopted, superseded
        # Built once and kept in step with every repair below, so a
        # later orphan sees the keys an earlier one's adoption or
        # recovery moved (without repair the store, and so the sets,
        # never change).
        tail_keys = {key for key, _data in self._tail}
        live_keys = {key for live in self._live.values()
                     for key in live["keys"]}
        for path in sorted(self.segments_dir.glob("seg-*.seg")):
            if path.name in self._live:
                continue
            blob = path.read_bytes()
            try:
                rows, _header = decode_segment(blob)
            except SegmentCorruptError:
                # A corrupt orphan proves nothing was lost: its rows
                # were never committed, so they are still in the tail
                # or the WAL.  Quarantine the junk file.
                superseded.append(path.name)
                if repair:
                    self.quarantine_dir.mkdir(parents=True,
                                              exist_ok=True)
                    try:
                        os.replace(path, self.quarantine_dir / path.name)
                    except OSError:
                        pass
                continue
            keys = [record_identity(row) for row in rows]
            in_live = [k for k in keys if k in live_keys]
            if len(in_live) == len(keys):
                # Every row already lives in a committed segment: a
                # stale duplicate, safe to delete.
                superseded.append(path.name)
                if repair:
                    try:
                        path.unlink()
                    except OSError:
                        pass
                continue
            if in_live:
                # Mixed live coverage: adopting would double-own the
                # committed rows.  Recover the uncommitted ones into
                # the tail (WAL line preferred, decoded row as the
                # fallback), then retire the file.
                superseded.append(path.name)
                if repair:
                    fresh = [k for k in dict.fromkeys(keys)
                             if k not in live_keys and k not in tail_keys]
                    tail_keys.update(fresh)
                    by_key = dict(zip(keys, rows))
                    by_key.update(self._read_wal(
                        wal_offsets, [k for k in fresh if k in wal_offsets]))
                    self._tail.extend((key, by_key[key]) for key in fresh)
                    self._known.update(fresh)
                    self.quarantine_dir.mkdir(parents=True,
                                              exist_ok=True)
                    try:
                        os.replace(path, self.quarantine_dir / path.name)
                    except OSError:
                        pass
                continue
            # No live coverage: this is the crash-between-rename-and-
            # commit window (or a damaged commit line).  Adopt the
            # file — the verified bytes already on disk — and drop the
            # tail copies its WAL lines restored, so the rows have
            # exactly one owner again.
            new_keys = len([k for k in keys if k not in tail_keys])
            if repair:
                entry = {
                    "op": "commit",
                    "segment": path.name,
                    "seq": self._seq,
                    "sha256": segment_digest(blob),
                    "n_records": len(rows),
                    "keys": keys,
                }
                self.io.append_line(self.journal_path,
                                    _seal_entry(entry))
                self._seq += 1
                self._live[path.name] = entry
                self._known.update(keys)
                keyset = set(keys)
                self._tail = [(k, d) for k, d in self._tail
                              if k not in keyset]
                live_keys.update(keyset)
                tail_keys -= keyset
            adopted.append({
                "segment": path.name,
                "n_records": len(rows),
                "new_keys": new_keys,
            })
        return adopted, superseded
