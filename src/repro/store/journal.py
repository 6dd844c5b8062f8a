"""The store's journal: ``journal.jsonl``, its line format, its walk.

One JSON entry per line, sealed by a ``crc`` tag over its canonical
dump: ``wal`` ``{key, data}`` (an accepted record, written before the
store owns it), ``commit`` ``{segment, seq, sha256, n_records, keys}``
(a sealed segment, written once its file is durable) and
``quarantine`` ``{segment, reason, keys}`` (a segment scrub retired).
The partitioned layout's lines also carry a ``partition``, which
nothing reads.  :class:`Journal` is the only code that knows this
format; it writes through :class:`~repro.chaos.DiskIO`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.disk import DiskIO

#: Bumped when the journal schema changes incompatibly.
JOURNAL_VERSION = 1

_CRC_BYTES = 16


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
class JournalScan:
    """What one walk of the journal found."""

    #: Where each WAL line starts, not what it holds: a repeated key
    #: keeps its first position and its latest line's offset.
    wal_offsets: dict[str, int] = field(default_factory=dict)
    #: Commit and quarantine entries, in journal order.
    entries: list[dict] = field(default_factory=list)
    #: ``{"reason": ...}`` per line that failed verification; a final
    #: line without its newline (a torn append) is ``"torn-tail"``.
    damage: list[dict] = field(default_factory=list)
    #: The byte just past the last intact line, where a torn tail is cut.
    good_bytes: int = 0


class Journal:
    """The ``journal.jsonl`` at ``path``, written through ``io``."""

    def __init__(self, path: Path, io: DiskIO) -> None:
        self.path = path
        self.io = io

    def scan(self, entries: bool = True) -> JournalScan:
        """One streamed walk: the journal is read a line at a time, so
        a walk holds one line, never the whole journal, and keeps one
        offset per WAL line.  Tolerant by construction: a line that is
        not valid JSON or fails its CRC is counted as damage and the
        walk goes on.  With ``entries=False`` (scrub, whose store holds
        the live entries already) no entry is kept."""
        scan = JournalScan()
        try:
            with open(self.path, "rb") as handle:
                offset = 0
                for line in handle:
                    if not line.endswith(b"\n"):
                        scan.damage.append({"reason": "torn-tail"})
                        break
                    start, offset = offset, offset + len(line)
                    scan.good_bytes = offset
                    entry, reason = _verify_line(line[:-1])
                    if entry is None:
                        scan.damage.append({"reason": reason})
                        continue
                    op = entry.get("op")
                    if op == "wal":
                        scan.wal_offsets[entry["key"]] = start
                    elif entries and op in ("commit", "quarantine"):
                        scan.entries.append(entry)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise StoreError(
                f"cannot read journal {self.path}: {exc}") from exc
        return scan

    def read_wal(self, offsets: dict[str, int],
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
            with open(self.path, "rb") as handle:
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
                f"cannot read journal {self.path}: {exc}") from exc
        return rows

    def append_wal(self, rows: list[tuple[str, dict]]) -> None:
        """The WAL lines of ``(key, data)`` rows as one group commit:
        one write and one fsync."""
        self.io.append_lines(self.path, [
            _seal_entry({"op": "wal", "key": key, "data": data})
            for key, data in rows
        ])

    def commit(self, segment: str, seq: int, digest: str,
               keys: list[str]) -> dict:
        """Append the commit line of ``segment`` (``keys`` one per
        row, in row order) and return its entry."""
        entry = {"op": "commit", "segment": segment, "seq": seq,
                 "sha256": digest, "n_records": len(keys), "keys": keys}
        self.io.append_line(self.path, _seal_entry(entry))
        return entry

    def quarantine(self, segment: str, reason: str,
                   keys: list[str]) -> None:
        """Append the line that retires live ``segment``."""
        self.io.append_line(self.path, _seal_entry({
            "op": "quarantine", "segment": segment, "reason": reason,
            "keys": keys}))

    def cut_torn_tail(self, good_bytes: int, cut: bool) -> int:
        """The bytes past ``good_bytes`` (a torn final line's
        fragment), truncated off the journal when ``cut``."""
        try:
            torn = max(0, os.path.getsize(self.path) - good_bytes)
        except OSError:
            return 0
        if cut and torn:
            self.io.truncate(self.path, good_bytes)
        return torn
