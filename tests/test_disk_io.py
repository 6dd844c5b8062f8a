"""``DiskIO`` is the one place the program changes a durable file.

Four guards:

* a source scan: no module under ``src/repro`` but ``chaos/disk.py``
  renames, deletes, truncates, fsyncs or makes a temp file itself;
* a recorded repairing scrub of ``test_store_bytes.py``'s damaged
  store: its quarantine move, its removals and its torn-tail truncate
  each reach the store's ``DiskIO``, in the order scrub makes them;
* the fault ledger's append ends a torn final line before it writes,
  so a crash mid-append cannot swallow the next fault;
* ``DiskChaos.write_atomic`` killed at each step of a damaged segment
  write — before the temp file, after it, after the rename — leaves a
  store whose repairing scrub and drain explain every ledger line.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.chaos import DiskChaos, DiskChaosConfig, DiskIO, reconcile_disk
from repro.serve.harness import synthetic_records
from repro.store import SegmentStore
from tests.test_store_bytes import SEAL_RECORDS, RecordingIO, _written_store

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CHOKE_POINT = SRC / "chaos" / "disk.py"

#: Calls that change a file behind ``DiskIO``'s back.  A ``truncate``
#: reached through a ``DiskIO`` (``self.io.truncate(``) is the choke
#: point itself, not a way round it.
FORBIDDEN = {
    "os.replace": r"\bos\.replace\(",
    "os.unlink": r"\bos\.unlink\(",
    ".unlink(": r"\.unlink\(",
    ".truncate(": r"(?<!\bio)\.truncate\(",
    "os.fsync": r"\bos\.fsync\(",
    "mkstemp": r"\bmkstemp\(",
}


class TestOneChokePoint:
    def test_no_module_but_disk_io_mutates_files(self):
        found = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in sorted(SRC.rglob("*.py")) if path != CHOKE_POINT
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if any(re.search(rule, line) for rule in FORBIDDEN.values())
        ]
        assert found == []

    def test_the_scan_sees_every_call_it_forbids(self):
        """Each pattern matches the call as ``DiskIO`` itself makes it,
        so the scan above cannot pass by matching nothing."""
        source = CHOKE_POINT.read_text(encoding="utf-8")
        assert [name for name, rule in FORBIDDEN.items()
                if not re.search(rule, source)] == []
        assert not re.search(FORBIDDEN[".truncate("],
                             "self.io.truncate(self.path, 0)")


class MutationRecordingIO(RecordingIO):
    """:class:`RecordingIO`, also logging moves, removals and
    truncations: ``(method, relative path, what became of it)``."""

    def _rel(self, path) -> str:
        return Path(path).relative_to(self.root).as_posix()

    def move(self, path, directory):
        moved = super().move(path, directory)
        self.calls.append(("move", self._rel(path),
                           moved and self._rel(moved)))
        return moved

    def remove(self, path) -> None:
        super().remove(path)
        self.calls.append(("remove", self._rel(path), ""))

    def truncate(self, path, size: int) -> None:
        super().truncate(path, size)
        self.calls.append(("truncate", self._rel(path), str(size)))


class TestRecordedScrub:
    def test_repairing_scrub_mutates_only_through_disk_io(self, tmp_path):
        """The damage ``test_store_bytes.py`` pins the outcome of: a
        flipped committed segment, a superseded copy, a leftover temp
        file and a torn last commit line.  The torn tail is cut first
        — before scrub appends its own journal lines, which a later
        cut would take with it — then the flipped segment moves to
        quarantine, and the superseded copy and the temp go."""
        root = tmp_path / "store"
        _written_store(root)
        segments = root / "segments"
        victim = segments / "seg-000001.seg"
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0x10
        victim.write_bytes(bytes(blob))
        (segments / "seg-000009.seg").write_bytes(
            (segments / "seg-000003.seg").read_bytes())
        (segments / "seg-000010.seg.tmpab12").write_bytes(b"partial")
        journal = root / "journal.jsonl"
        kept = len(journal.read_bytes()) - 40
        journal.write_bytes(journal.read_bytes()[:kept])

        io = MutationRecordingIO(root)
        store = SegmentStore(root, seal_records=SEAL_RECORDS, io=io)
        report = store.scrub(repair=True)
        assert report.ok and report.journal_truncated_bytes == 215
        assert [call for call in io.calls if call[0] != "read_bytes"] == [
            ("truncate", "journal.jsonl", str(kept - 215)),
            ("move", "segments/seg-000001.seg",
             "quarantine/seg-000001.seg"),
            ("append_line", "journal.jsonl", "8419b21dbafe2873"),
            ("append_line", "journal.jsonl", "fbee2bd987d3127a"),
            ("remove", "segments/seg-000009.seg", ""),
            ("remove", "segments/seg-000010.seg.tmpab12", ""),
        ]

    def test_move_reports_where_the_file_went(self, tmp_path):
        io = DiskIO()
        (tmp_path / "a").write_bytes(b"x")
        assert io.move(tmp_path / "a", tmp_path / "q") == tmp_path / "q" / "a"
        assert (tmp_path / "q" / "a").read_bytes() == b"x"
        assert io.move(tmp_path / "a", tmp_path / "q") is None
        io.remove(tmp_path / "a")  # already gone: no error
        assert not (tmp_path / "a").exists()


class TestLedgerAppend:
    def test_a_torn_ledger_line_does_not_swallow_the_next_fault(
        self, tmp_path
    ):
        ledger = tmp_path / "chaos-ledger.jsonl"
        first = {"fault": "enospc", "path": "seg-000000.seg"}
        # The first fault's line, then a crash mid-way through the
        # second's.
        ledger.write_bytes(json.dumps(first).encode() + b"\n"
                           + b'{"fault": "bit-fl')
        chaos = DiskChaos(DiskChaosConfig(seed=1), ledger=ledger)
        chaos.force_next("enospc")
        with pytest.raises(OSError):
            chaos.write_atomic(tmp_path / "seg-000001.seg", b"payload")
        assert DiskChaos.read_ledger(ledger) == [
            first, {"fault": "enospc",
                    "path": str(tmp_path / "seg-000001.seg")}]


class Died(BaseException):
    """The process died: no handler or clean-up of its runs after."""


def _die(*_args, **_kwargs):
    raise Died


def _rename_then_die(source, target, _replace=os.replace):
    _replace(source, target)
    raise Died


class TestCrashInsideWriteAtomic:
    """A damaged segment write killed at each step.  Its ledger line
    lands only once the damaged bytes are in the temp file, so a death
    before that leaves no fault to explain, one before the rename
    leaves a temp that scrub removes (*never-landed*), and one after
    it an uncommitted damaged file (*superseded*).  Only where no file
    is left does the drain reuse the segment's name."""

    @pytest.mark.parametrize("kind", ["torn-write", "bit-flip"])
    @pytest.mark.parametrize("patches, verdicts, drained", [
        pytest.param([(tempfile, "mkstemp", _die)], [], "seg-000000.seg",
                     id="before-temp"),
        pytest.param([(os, "replace", _die)], ["never-landed"],
                     "seg-000001.seg", id="after-temp"),
        pytest.param([(os, "replace", _rename_then_die)], ["superseded"],
                     "seg-000001.seg", id="after-rename"),
    ])
    def test_every_ledger_line_is_explained(self, tmp_path, monkeypatch,
                                            kind, patches, verdicts,
                                            drained):
        root, ledger = tmp_path / "store", tmp_path / "ledger.jsonl"
        chaos = DiskChaos(DiskChaosConfig(seed=5), ledger=ledger)
        store = SegmentStore(root, seal_records=4, io=chaos)
        records = synthetic_records(2, 2, seed=3)
        for row in records[:3]:
            store.append(row)
        chaos.force_next(kind)
        with monkeypatch.context() as dying:
            # A dead process removes none of what it left behind.
            dying.setattr(os, "unlink", lambda *_args: None)
            for module, name, fake in patches:
                dying.setattr(module, name, fake)
            with pytest.raises(Died):
                store.append(records[3])  # the fourth row seals

        reopened = SegmentStore(root, seal_records=4)
        report = reopened.scrub(repair=True)
        assert reopened.flush() == [drained]
        disk = reconcile_disk(DiskChaos.read_ledger(ledger), report)
        assert disk.ok, disk.render()
        assert [f["classified_as"] for f in disk.faults] == verdicts
        assert report.ok and reopened.n_sealed_records == 4
