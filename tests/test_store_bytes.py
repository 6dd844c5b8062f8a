"""The store's bytes and its disk traffic, pinned.

A fixed workload runs through a :class:`DiskIO` that records every
call: ``(method, path relative to the store root, sha256 of the
bytes)``.  The first leg pins what appends, seals and a drain leave on
disk; the second damages that store four ways (a flipped bit in a
committed segment, a copied-in orphan, a leftover temp file, a torn
final journal line), reopens it and pins what ``scrub(repair=True)``
leaves — the quarantine, the WAL read-back of the quarantined rows,
the adoption of the segment whose commit line was torn, and the
report.  That is the quarantine-then-WAL-recovery path the SIGKILL
smoke may never reach, here on every run.

Any refactor of the store must leave these values as they are.
Changes that set out to alter the formats — a bounded ``_known`` whose
commit lines carry a membership summary, a segment v2 codec — re-pin
them on purpose, in the same change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.chaos import DiskIO
from repro.serve.harness import synthetic_records
from repro.store import SegmentStore


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RecordingIO(DiskIO):
    """The real :class:`DiskIO`, logging every call it serves."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.calls: list[tuple[str, str, str]] = []

    def _log(self, method: str, path, data: bytes) -> None:
        self.calls.append((method, Path(path).relative_to(self.root)
                           .as_posix(), _sha(data)[:16]))

    def write_atomic(self, path, data: bytes) -> None:
        self._log("write_atomic", path, data)
        super().write_atomic(path, data)

    def append_line(self, path, line: bytes) -> None:
        self._log("append_line", path, line)
        super().append_line(path, line)

    def append_lines(self, path, lines: list[bytes]) -> None:
        self._log("append_lines", path, b"".join(
            line + b"\n" for line in lines))
        super().append_lines(path, lines)

    def read_bytes(self, path) -> bytes:
        data = super().read_bytes(path)
        self._log("read_bytes", path, data)
        return data


def _files(root: Path) -> dict[str, str]:
    """Every file under ``root``: relative path -> sha256 prefix."""
    return {path.relative_to(root).as_posix(): _sha(path.read_bytes())[:16]
            for path in sorted(root.rglob("*")) if path.is_file()}


#: Batch sizes cycled through ``append_many``; 4 and 9 straddle a seal.
BATCHES = (1, 3, 5, 2, 9, 1, 4)
SEAL_RECORDS = 7


def _written_store(root: Path) -> tuple[SegmentStore, RecordingIO]:
    """36 records, three of them sent twice, in mixed group commits,
    sealed every seven rows, then drained."""
    records = synthetic_records(6, 6, seed=11)
    stream = records[:20] + records[5:8] + records[20:]
    io = RecordingIO(root)
    store = SegmentStore(root, seal_records=SEAL_RECORDS, io=io)
    at = turn = 0
    while at < len(stream):
        size = BATCHES[turn % len(BATCHES)]
        store.append_many([(dict(row), None)
                           for row in stream[at:at + size]])
        at, turn = at + size, turn + 1
    assert store.flush() == ["seg-000005.seg"]
    return store, io


class TestPinnedStoreBytes:
    def test_appends_seals_and_drain_write_these_bytes(self, tmp_path):
        root = tmp_path / "store"
        store, io = _written_store(root)
        assert (store.n_segments, store.n_sealed_records) == (6, 36)
        assert _files(root) == {
            "journal.jsonl": "4734bfd19493e455",
            "segments/seg-000000.seg": "5ec74608a5c1f304",
            "segments/seg-000001.seg": "607458760a11c3bb",
            "segments/seg-000002.seg": "093b9857f95b8276",
            "segments/seg-000003.seg": "701d2cf5029dc636",
            "segments/seg-000004.seg": "b0cf571774f202cc",
            "segments/seg-000005.seg": "fe8c059f9092fabc",
        }
        journal, lines = "journal.jsonl", "append_lines"
        assert io.calls == [
            (lines, journal, "7e1c8c7aa2ee274a"),
            # A one-line group commit goes through append_line.
            ("append_line", journal, "5751e458ccad630d"),
            (lines, journal, "07ad79f4a9ba0b18"),
            (lines, journal, "6df8b844e103f5f6"),
            ("write_atomic", "segments/seg-000000.seg", "5ec74608a5c1f304"),
            ("append_line", journal, "45315f245512592b"),
            (lines, journal, "2f32a0f5f02be48b"),
            (lines, journal, "833695c18a983021"),
            (lines, journal, "88ce186666f25a4c"),
            ("write_atomic", "segments/seg-000001.seg", "607458760a11c3bb"),
            ("append_line", journal, "4d34cfd90fc2bdbf"),
            (lines, journal, "468ae1d55c7cb498"),
            (lines, journal, "5861428dbfb16304"),
            ("append_line", journal, "263f972b2f8905e3"),
            ("write_atomic", "segments/seg-000002.seg", "093b9857f95b8276"),
            ("append_line", journal, "252f85044089fa00"),
            (lines, journal, "e1231bc02901cb7b"),
            ("append_line", journal, "f4914b26e203a6e6"),
            (lines, journal, "530df4a4f802562b"),
            ("append_line", journal, "0d6bb88e795a5d20"),
            (lines, journal, "5173c5118c4991fe"),
            (lines, journal, "4d707796ad35b696"),
            ("write_atomic", "segments/seg-000003.seg", "701d2cf5029dc636"),
            ("append_line", journal, "2b147da90c5f8a85"),
            (lines, journal, "bd2ed95838bad72e"),
            (lines, journal, "c88224779a2fbc8e"),
            (lines, journal, "d24f97e22f3980a0"),
            ("write_atomic", "segments/seg-000004.seg", "b0cf571774f202cc"),
            ("append_line", journal, "4355b0b5e0ff6bd2"),
            (lines, journal, "f2068dce5939cc00"),
            ("append_line", journal, "5ec5f7914a6f3104"),
            ("write_atomic", "segments/seg-000005.seg", "fe8c059f9092fabc"),
            ("append_line", journal, "01408c1bcea8bf04"),
        ]

    def test_a_repairing_scrub_leaves_these_bytes(self, tmp_path):
        root = tmp_path / "store"
        _written_store(root)
        segments = root / "segments"
        # A flipped bit in a committed segment: quarantined, its rows
        # read back from their WAL lines.
        victim = segments / "seg-000001.seg"
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0x10
        victim.write_bytes(bytes(blob))
        # A live segment's copy under an unused name: superseded.
        (segments / "seg-000009.seg").write_bytes(
            (segments / "seg-000003.seg").read_bytes())
        # A crash in the rename window.
        (segments / "seg-000010.seg.tmpab12").write_bytes(b"partial")
        # The last commit line torn: its segment reopens as an orphan,
        # and its one row as the tail, from its WAL line.
        journal = root / "journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-40])

        io = RecordingIO(root)
        store = SegmentStore(root, seal_records=SEAL_RECORDS, io=io)
        assert (store.n_segments, store.n_tail_records) == (5, 1)
        report = store.scrub(repair=True)
        assert report.ok and not report.clean
        dumped = json.dumps(report.to_dict()).replace(str(root), "<root>")
        assert _sha(dumped.encode())[:16] == "87f8de0137733ca9"
        summary = json.loads(dumped)
        assert len(summary.pop("recovered_keys")) == 7
        assert summary == {
            "root": "<root>",
            "repair": True,
            "segments_ok": 4,
            "quarantined": [{
                "segment": "seg-000001.seg",
                "reason": "digest mismatch (torn write, bit flip, or "
                          "truncation)",
                "keys": 7, "recovered": 7, "lost": 0,
            }],
            "adopted": [{"segment": "seg-000005.seg", "n_records": 1,
                         "new_keys": 0}],
            "superseded": ["seg-000009.seg"],
            "temp_files_removed": [
                "<root>/segments/seg-000010.seg.tmpab12"],
            "journal_damaged_lines": 0,
            "journal_truncated_bytes": 215,
            "lost_keys": [],
        }
        assert _files(root) == {
            "journal.jsonl": "31ffc97a8248874b",
            "quarantine/seg-000001.seg": "584196557b7a8660",
            "segments/seg-000000.seg": "5ec74608a5c1f304",
            "segments/seg-000002.seg": "093b9857f95b8276",
            "segments/seg-000003.seg": "701d2cf5029dc636",
            "segments/seg-000004.seg": "b0cf571774f202cc",
            "segments/seg-000005.seg": "fe8c059f9092fabc",
        }
        assert io.calls == [
            ("read_bytes", "segments/seg-000000.seg", "5ec74608a5c1f304"),
            ("read_bytes", "segments/seg-000001.seg", "584196557b7a8660"),
            # The quarantine line, then the verdict on the rest.
            ("append_line", "journal.jsonl", "8419b21dbafe2873"),
            ("read_bytes", "segments/seg-000002.seg", "093b9857f95b8276"),
            ("read_bytes", "segments/seg-000003.seg", "701d2cf5029dc636"),
            ("read_bytes", "segments/seg-000004.seg", "b0cf571774f202cc"),
            # The orphan's adoption commit.
            ("append_line", "journal.jsonl", "fbee2bd987d3127a"),
        ]
        # Seven rows recovered into the tail; the adopted segment's
        # row left it.
        assert (store.n_segments, store.n_tail_records) == (5, 7)
