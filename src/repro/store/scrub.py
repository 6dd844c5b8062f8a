"""Scrub: verify a segment store, classify every finding, repair.

:func:`scrub` runs under both of the store's locks
(:meth:`~repro.store.SegmentStore.scrub`).  With the store itself, it
is the only code that changes the store's ``_live``, ``_tail``,
``_known`` and ``_seq``.  Every journal read and write it makes goes
through the store's :class:`~repro.store.journal.Journal`, and every
file it moves, removes or truncates through the store's ``io``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, get_origin, get_type_hints

from repro.dataset.records import record_identity
from repro.obs import get_registry
from repro.store.segment import (SegmentCorruptError, decode_segment,
                                 segment_digest)

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import SegmentStore


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
        return cls(**{
            name: (get_origin(kind) or kind)(data[name])
            for name, kind in get_type_hints(cls).items()
        })

    def to_dict(self) -> dict:
        """Every field in declaration order; lists and tuples as new
        lists."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = (list(value) if isinstance(value, (list, tuple))
                            else value)
        return data

    def render(self) -> str:
        counts = [
            ("segments verified", self.segments_ok),
            ("quarantined", len(self.quarantined)),
            ("orphans adopted", len(self.adopted)),
            ("orphans superseded", len(self.superseded)),
            ("temp files removed", len(self.temp_files_removed)),
            ("journal lines damaged", self.journal_damaged_lines),
            ("journal bytes truncated", self.journal_truncated_bytes),
            ("records recovered (WAL)", len(self.recovered_keys)),
            ("RECORDS LOST", len(self.lost_keys)),
        ]
        lines = [f"{label:<26} {count:>8}" for label, count in counts]
        for finding in self.quarantined:
            lines.append(f"  quarantined {finding['segment']}: "
                         f"{finding['reason']} "
                         f"(recovered {finding['recovered']}, "
                         f"lost {finding['lost']})")
        for finding in self.adopted:
            lines.append(f"  adopted {finding['segment']}: "
                         f"{finding['n_records']} records")
        return "\n".join(lines)


def scrub(store: SegmentStore, repair: bool) -> ScrubReport:
    """:meth:`SegmentStore.scrub <repro.store.SegmentStore.scrub>`,
    under the store's locks."""
    registry = get_registry()
    report = ScrubReport(root=str(store.root), repair=repair)
    recovered: list[str] = []
    lost: list[str] = []

    # Re-walk the journal *now* rather than trusting load-time state:
    # ``append_line`` heals a torn tail (terminating the fragment as
    # its own CRC-failing line) and the store keeps appending after
    # load, so the load-time good-bytes offset can sit far behind
    # WAL/commit lines written since — truncating to it would destroy
    # acknowledged records.  One fresh walk yields the WAL coverage
    # map for recovery decisions, the current damage census, and an
    # up-to-date truncation offset (only a still-torn tail fragment
    # lies beyond it).  The map holds where each WAL line starts, and
    # recovery reads back only the rows it restores.  Every offset
    # stays valid through the repairs below: truncation cuts only
    # bytes past ``good_bytes``, which is past every indexed line, and
    # quarantine and commit lines are appended after them.
    scan = store.journal.scan(entries=False)
    torn = [d for d in scan.damage if d["reason"] == "torn-tail"]
    report.journal_damaged_lines = len(scan.damage) - len(torn)
    if torn:
        report.journal_truncated_bytes = store.journal.cut_torn_tail(
            scan.good_bytes, repair)
    registry.inc("scrub_journal_damaged_lines_total",
                 report.journal_damaged_lines)

    # Verify every live segment.
    for name in sorted(store._live):
        entry = store._live[name]
        registry.inc("scrub_segments_checked_total")
        try:
            store._read_columns(name, entry)
        except SegmentCorruptError as exc:
            report.quarantined.append(_classify_damaged(
                store, name, entry, exc.reason, scan.wal_offsets,
                recovered, lost, repair,
            ))
            registry.inc("scrub_segments_quarantined_total",
                         reason=exc.reason.split(" ")[0])
            continue
        report.segments_ok += 1

    # Orphan segment files: valid data with no journal commit (crash
    # between rename and commit, or the commit line was itself
    # damaged).  Re-adopt unless already covered.
    report.adopted, report.superseded = _scan_orphans(
        store, scan.wal_offsets, repair)
    if report.adopted:
        registry.inc("scrub_segments_adopted_total", len(report.adopted))

    # Leftover atomic-write temp files (crash in the rename window).
    for directory in (store.segments_dir, store.root):
        if not directory.is_dir():
            continue
        for temp in sorted(directory.glob("*.tmp*")):
            report.temp_files_removed.append(str(temp))
            registry.inc("scrub_temp_files_removed_total")
            if repair:
                store.io.remove(temp)

    report.recovered_keys = tuple(recovered)
    report.lost_keys = tuple(lost)
    registry.inc("scrub_records_recovered_total", len(recovered))
    registry.inc("scrub_records_lost_total", len(lost))
    return report


def _classify_damaged(store: SegmentStore, name: str, entry: dict,
                      reason: str, wal_offsets: dict,
                      recovered: list[str], lost: list[str],
                      repair: bool) -> dict:
    """Quarantine one damaged live segment; recover via WAL."""
    keys = list(entry["keys"])
    recoverable = [k for k in keys if k in wal_offsets]
    unrecoverable = [k for k in keys if k not in wal_offsets]
    recovered.extend(recoverable)
    lost.extend(unrecoverable)
    if repair:
        rows = store.journal.read_wal(wal_offsets, recoverable)
        store.io.move(store.segments_dir / name, store.quarantine_dir)
        store.journal.quarantine(name, reason, keys)
        store._live.pop(name, None)
        # WAL-covered records return to the unsealed tail; the next
        # seal takes them into a fresh segment.
        store._tail.extend(rows)
        for key in unrecoverable:
            store._known.discard(key)
    return {"segment": name, "reason": reason, "keys": len(keys),
            "recovered": len(recoverable), "lost": len(unrecoverable)}


def _scan_orphans(store: SegmentStore, wal_offsets: dict,
                  repair: bool) -> tuple[list[dict], list[str]]:
    """``(adopted, superseded)``: each segment file no live commit
    entry names, classified."""
    adopted: list[dict] = []
    superseded: list[str] = []
    if not store.segments_dir.is_dir():
        return adopted, superseded
    # Built once and kept in step with every repair below, so a later
    # orphan sees the keys an earlier one's adoption or recovery moved
    # (without repair the store, and so the sets, never change).
    tail_keys = {key for key, _data in store._tail}
    live_keys = {key for live in store._live.values()
                 for key in live["keys"]}
    for path in sorted(store.segments_dir.glob("seg-*.seg")):
        if path.name in store._live:
            continue
        blob = path.read_bytes()
        try:
            rows, _header = decode_segment(blob)
        except SegmentCorruptError:
            # A corrupt orphan proves nothing was lost: its rows were
            # never committed, so they are still in the tail or the
            # WAL.  Quarantine the junk file.
            superseded.append(path.name)
            if repair:
                store.io.move(path, store.quarantine_dir)
            continue
        keys = [record_identity(row) for row in rows]
        in_live = [k for k in keys if k in live_keys]
        if len(in_live) == len(keys):
            # Every row already lives in a committed segment: a stale
            # duplicate, safe to delete.
            superseded.append(path.name)
            if repair:
                store.io.remove(path)
            continue
        if in_live:
            # Mixed live coverage: adopting would double-own the
            # committed rows.  Recover the uncommitted ones into the
            # tail (WAL line preferred, decoded row as the fallback),
            # then retire the file.
            superseded.append(path.name)
            if repair:
                fresh = [k for k in dict.fromkeys(keys)
                         if k not in live_keys and k not in tail_keys]
                tail_keys.update(fresh)
                by_key = dict(zip(keys, rows))
                by_key.update(store.journal.read_wal(
                    wal_offsets, [k for k in fresh if k in wal_offsets]))
                store._tail.extend((key, by_key[key]) for key in fresh)
                store._known.update(fresh)
                store.io.move(path, store.quarantine_dir)
            continue
        # No live coverage: this is the crash-between-rename-and-commit
        # window (or a damaged commit line).  Adopt the file — the
        # verified bytes already on disk — and drop the tail copies its
        # WAL lines restored, so the rows have exactly one owner again.
        new_keys = len([k for k in keys if k not in tail_keys])
        if repair:
            store._live[path.name] = store.journal.commit(
                path.name, store._seq, segment_digest(blob), keys)
            store._seq += 1
            store._known.update(keys)
            keyset = set(keys)
            store._tail = [(k, d) for k, d in store._tail
                           if k not in keyset]
            live_keys.update(keyset)
            tail_keys -= keyset
        adopted.append({"segment": path.name, "n_records": len(rows),
                        "new_keys": new_keys})
    return adopted, superseded
