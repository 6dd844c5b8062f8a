"""Model-based exactness of the carried fold (ROADMAP item 7, first
slice).

A hypothesis state machine drives one :class:`SegmentStore` through
appends (which seal by volume), flushes, segment damage, scrub repair,
a flush that crashes before its commit line, and reopening — while
two long-lived
:class:`QueryEngine` instances answer over it.  The *eager* engine answers
after every rule (the invariant); the *lazy* one only when the
``answer`` rule fires, so any number of rules — a seal and a regrowth,
a quarantine and a recovery — fall between two of its answers.

The model is a dict of every row the store was handed.  The WAL is
on, so no rule can lose one: an answer must be the offline analysis of
the model minus exactly the rows of the segments the answer itself
reports as skipped, and without damage it must also equal a fold from
scratch and the analysis of ``store.dataset()``.

Derandomised, so tier-1 runs the same cases every time.  A build
whose tail guard compares lengths only fails it (``append_many([0]);
append_many([1, 2, 3, 4])`` — a folded tail of one seals inside the
batch and regrows to one).  The orphan adoption such a guard also gets
wrong is kept below as a named example; its two siblings —
seal-then-regrow, recovered rows rejoining a folded tail — sit with
the engine's other tests in ``test_serve_query.py``.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.columnar import compute_analysis_block
from repro.chaos import DiskIO
from repro.dataset.records import FailureRecord, record_identity
from repro.dataset.store import Dataset
from repro.serve.harness import synthetic_records
from repro.serve.query import QueryEngine
from repro.store import SegmentStore


def canonical(block) -> str:
    return json.dumps(block, sort_keys=True)


def offline(rows) -> str:
    return canonical(compute_analysis_block(Dataset(failures=[
        FailureRecord.from_dict(row) for row in rows
    ])))


def _pool() -> list[dict]:
    """48 rows of four devices, so the tail reaches ``seal_records``
    and regrows many times, every segment holding several devices;
    a quarter of the rows are OUT_OF_SERVICE."""
    rows = synthetic_records(4, 12, seed=20)
    for index, row in enumerate(rows):
        if index % 4 == 0:
            row["failure_type"] = "OUT_OF_SERVICE"
    return rows


POOL = _pool()
SEAL = 4
PICKS = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=9)


class CrashBeforeCommit(DiskIO):
    """Armed, the next ``commit`` line raises instead of landing: the
    segment file is renamed into place and nothing owns it."""

    armed = False

    def append_line(self, path, line):
        if self.armed and b'"op": "commit"' in line:
            self.armed = False
            raise RuntimeError("crash between rename and commit")
        super().append_line(path, line)


class _Server:
    def __init__(self, store):
        self.store = store


class CarriedFoldMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-model-")
        self.io = CrashBeforeCommit()
        #: key -> row, everything the store was ever handed.
        self.model: dict[str, dict] = {}
        #: Live segment files damaged and not yet scrubbed.
        self.damaged: set[str] = set()
        self._open()

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _open(self):
        self.store = SegmentStore(self.root, seal_records=SEAL,
                                  io=self.io)
        self.eager = QueryEngine(_Server(self.store))
        self.lazy = QueryEngine(_Server(self.store))

    def _intact_segment(self, index):
        names = sorted(set(self.store.query_snapshot().live)
                       - self.damaged)
        return names[index % len(names)]

    def _check(self, engine):
        fold = engine.fold()
        live = self.store.query_snapshot().live
        skipped = {segment["segment"] for segment in fold.skipped}
        assert skipped <= self.damaged
        unread = {key for name in skipped for key in live[name]["keys"]}
        # The sealed side holds exactly the segments that read clean.
        assert engine.cache.digests == {
            entry["sha256"] for name, entry in live.items()
            if name not in skipped}
        assert canonical(fold.block) == offline(
            row for key, row in self.model.items() if key not in unread)
        assert fold.watermark["n_records"] == len(self.model)
        assert len(set(self.store)) == len(self.model)
        if not self.damaged:
            assert canonical(fold.block) == canonical(
                self.store.fold_analysis().block)
            assert canonical(fold.block) == canonical(
                compute_analysis_block(self.store.dataset()))

    # -- rules ---------------------------------------------------------------

    @rule(picks=PICKS)
    def append_many(self, picks):
        """Shared devices, duplicates within the batch and of rows
        already owned.  Seals by volume: a tail below ``SEAL`` rows
        stays below it, sealing exactly ``SEAL`` rows at a time; a
        tail recovery left over-full seals whole at the first new
        row."""
        rows = [dict(POOL[pick]) for pick in picks]
        before = self.store.n_tail_records
        live = set(self.store.query_snapshot().live)
        keys = self.store.append_many([(row, None) for row in rows])
        assert keys == [record_identity(row) for row in rows]
        new = set(keys) - self.model.keys()
        self.model.update(zip(keys, rows))
        sealed = self.store.query_snapshot().live
        sizes = [sealed[name]["n_records"]
                 for name in sorted(sealed.keys() - live)]
        if before >= SEAL and new:
            # Only recovery overfills the tail: it sealed whole.
            assert sizes and sizes[0] == before + 1
            sizes = sizes[1:]
        if before < SEAL or new:
            assert self.store.n_tail_records < SEAL
        assert all(size == SEAL for size in sizes)

    @rule()
    def flush(self):
        before = self.store.n_tail_records
        assert len(self.store.flush()) == (1 if before else 0)
        assert self.store.n_tail_records == 0

    @precondition(lambda self: self.store.n_tail_records)
    @rule()
    def flush_crashes_before_commit(self):
        """Leaves an orphan segment file and the rows in the tail;
        the next scrub adopts it, or supersedes it if they sealed
        again meanwhile."""
        self.io.armed = True
        try:
            self.store.flush()
        except RuntimeError:
            pass
        assert not self.io.armed

    @precondition(
        lambda self: set(self.store.query_snapshot().live) - self.damaged)
    @rule(index=st.integers(0, 63), unlink=st.booleans())
    def damage_a_segment(self, index, unlink):
        name = self._intact_segment(index)
        path = self.store.segments_dir / name
        if unlink:
            path.unlink()
        else:
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
        self.damaged.add(name)

    @rule()
    def scrub(self):
        report = self.store.scrub(repair=True)
        assert report.ok  # every damaged row came back from its WAL line
        assert ({finding["segment"] for finding in report.quarantined}
                == self.damaged)
        self.damaged.clear()

    @rule()
    def reopen(self):
        self._open()

    @rule()
    def answer(self):
        self._check(self.lazy)

    @invariant()
    def the_eager_engine_is_exact(self):
        self._check(self.eager)


CarriedFoldMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    derandomize=True,
)
TestCarriedFoldModel = CarriedFoldMachine.TestCase


def test_orphan_adoption_filters_a_folded_tail(tmp_path):
    """A seal crashes between rename and commit, the tail keeps its
    rows and the engine folds them; scrub then adopts the file and
    filters those rows out of a tail that has meanwhile grown, so it
    is still at least as long as the engine's mark."""
    io = CrashBeforeCommit()
    store = SegmentStore(tmp_path / "store", seal_records=100, io=io)
    engine = QueryEngine(_Server(store))
    store.append_many([(row, None) for row in POOL[:3]])
    io.armed = True
    with pytest.raises(RuntimeError):
        store.flush()
    assert engine.fold().watermark["n_tail"] == 3
    store.append_many([(row, None) for row in POOL[3:7]])
    assert len(store.scrub(repair=True).adopted) == 1
    assert store.n_tail_records == 4  # >= the mark of three
    fold = engine.fold()
    assert canonical(fold.block) == offline(POOL[:7])
    assert fold.watermark["n_segments"] == 1
    assert fold.watermark["n_tail"] == 4


def test_an_orphan_covered_by_an_adopted_one_is_superseded(tmp_path):
    """Two seals of one tail crash before their commit lines, leaving
    two orphan files of the same rows.  Scrub adopts the first; the
    second's rows are then live, so it is superseded, not adopted as
    a second owner."""
    io = CrashBeforeCommit()
    root = tmp_path / "store"
    store = SegmentStore(root, seal_records=100, io=io)
    store.append_many([(row, None) for row in POOL[:3]])
    for _ in range(2):
        io.armed = True
        with pytest.raises(RuntimeError):
            store.flush()
    first, second = sorted(path.name
                           for path in store.segments_dir.glob("*.seg"))
    report = store.scrub(repair=True)
    assert [finding["segment"] for finding in report.adopted] == [first]
    assert report.superseded == [second]
    assert report.ok
    for view in (store, SegmentStore(root)):
        assert (view.n_segments, view.n_tail_records) == (1, 0)
        assert len(set(view)) == 3
        assert canonical(view.fold_analysis().block) == offline(POOL[:3])
