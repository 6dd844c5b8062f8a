"""Model-based check of the ingest server over its segment store.

A hypothesis state machine drives one :class:`IngestionServer` with a
:class:`SegmentStore` attached through group commits that mix fresh
records, duplicates within the batch, duplicates of records the store
already owns, undecodable payloads and schema mismatches; drains and
restores it through a JSON checkpoint (the current format, and the old
one that carried duration aggregates and copied the store's keys into
``seen``); loses a damaged segment to scrub; forgets keys; and restarts
it on the reopened store.

The model is the set of identities the store must own, the residue of
accepted identities no store proves, and the counters.  After every
rule: the server's dedup set is exactly the residue and shares no key
with the store; ``accepted_keys`` is everything accepted minus what
scrub lost (plus the residue); the store's fold counts exactly the
owned records; and the counters are the model's.

A segment is damaged only after its records' WAL lines are dropped
from the journal, so its records are lost rather than recovered — the
case the re-upload rules exist for.
Derandomised, so tier-1 runs the same cases every time.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import zlib

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backend.ingest import IngestionServer
from repro.dataset.records import record_identity
from repro.serve.harness import synthetic_records
from repro.store import SegmentStore
from tests.store_helpers import drop_wal_of

#: 36 rows of three devices.
POOL = synthetic_records(3, 12, seed=27)
KEYS = [record_identity(row) for row in POOL]
ROW_OF = dict(zip(KEYS, POOL))


def compress(data) -> bytes:
    return zlib.compress(json.dumps(data, sort_keys=True).encode())


#: One payload: a pool row, or one of the three malformed kinds.
PAYLOADS = st.tuples(
    st.sampled_from(["record"] * 6 + ["undecodable", "schema",
                                      "missing-fields"]),
    st.integers(0, len(POOL) - 1),
)
BATCHES = st.lists(PAYLOADS, min_size=1, max_size=8)


class IngestStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="ingest-model-")
        self.server = IngestionServer()
        self.server.attach_store(self._store())
        #: Identities the store must own.
        self.owned: set[str] = set()
        #: Identities scrub lost that no upload has brought back.
        self.lost: set[str] = set()
        #: Accepted identities the server keeps because no store does.
        self.residue: set[str] = set()
        self.counts = {"accepted": 0, "duplicates": 0, "quarantined": 0}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _store(self):
        return SegmentStore(self.root, seal_records=4)

    def _send(self, batch):
        """Send ``batch`` as one group commit; the model judges it."""
        payloads, in_batch = [], set()
        for kind, index in batch:
            row = POOL[index]
            if kind == "undecodable":
                payloads.append(b"junk-%d" % index)
            elif kind == "schema":
                payloads.append(compress(dict(row, unexpected_field=1)))
            elif kind == "missing-fields":
                payloads.append(compress({"device_id": index}))
            else:
                payloads.append(compress(row))
            if kind != "record":
                self.counts["quarantined"] += 1
                continue
            key = KEYS[index]
            if key in self.owned or key in self.residue or key in in_batch:
                self.counts["duplicates"] += 1
            else:
                in_batch.add(key)
                self.counts["accepted"] += 1
        self.server.receive_many(payloads)
        self.owned |= in_batch
        self.lost -= in_batch

    def _drained_snapshot(self) -> dict:
        """What a SIGTERM drain writes: tails sealed, then the
        checkpoint, through JSON."""
        self.server.store.flush()
        return json.loads(json.dumps(self.server.checkpoint()))

    def _replay_owned(self):
        """A full retry storm of every owned record: all duplicates."""
        self._send([("record", KEYS.index(key))
                    for key in sorted(self.owned)])

    # -- rules ---------------------------------------------------------------

    @rule(batch=BATCHES)
    def receive_many(self, batch):
        self._send(batch)

    @rule()
    def checkpoint_and_restore(self):
        snapshot = self._drained_snapshot()
        assert snapshot["seen"] == sorted(self.residue)
        self.server = IngestionServer.restore(snapshot)
        self._replay_owned()

    @rule()
    def restore_a_checkpoint_with_duration_aggregates(self):
        """The old format: duration aggregates beside the counters,
        and ``seen`` holding every identity ever accepted — the store's
        own and the ones scrub lost, which the old server remembered."""
        snapshot = self._drained_snapshot()
        snapshot["seen"] = sorted(self.owned | self.lost | self.residue)
        snapshot["duration_stats"] = {"Data_Stall": {
            "count": 1, "mean": 5.0, "m2": 0.0,
            "minimum": 5.0, "maximum": 5.0}}
        snapshot["duration_median"] = {
            "quantile": 0.5, "count": 1, "initial": [5.0], "heights": [],
            "positions": [], "desired": [], "increments": []}
        self.server = IngestionServer.restore(snapshot)
        self.residue |= self.lost
        self._replay_owned()

    @precondition(lambda self: self.server.store.n_segments)
    @rule(index=st.integers(0, 63))
    def damage_a_segment_and_scrub(self, index):
        store = self.server.store
        live = store.query_snapshot().live
        name = sorted(live)[index % len(live)]
        path = store.segments_dir / name
        # No WAL copy: damage is loss.
        drop_wal_of(store.journal_path, name)
        path.write_bytes(path.read_bytes()[:-7])
        report = store.scrub(repair=True)
        lost = set(live[name]["keys"])
        assert set(report.lost_keys) == lost
        self.owned -= lost
        self.lost |= lost

    @rule()
    def forget_the_lost_keys(self):
        forgotten = self.server.forget_keys(sorted(self.lost))
        assert forgotten == len(self.residue & self.lost)
        self.residue -= self.lost

    @rule()
    def restart_on_the_reopened_store(self):
        """A restart without ``--resume``: a fresh server, counters at
        zero, attached to the store as it reopens from disk."""
        self.server.store.flush()
        self.server = IngestionServer()
        self.server.attach_store(self._store())
        self.residue = set()
        self.counts = dict.fromkeys(self.counts, 0)
        self._replay_owned()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def one_owner_per_identity(self):
        store = self.server.store
        assert self.server._seen == self.residue
        assert not any(key in store for key in self.server._seen)
        assert set(store) == self.owned
        assert self.server.accepted_keys == self.owned | self.residue

    @invariant()
    def the_fold_counts_the_owned_records(self):
        block = self.server.store.fold_analysis().block
        assert block["n_failures"] == len(self.owned)

    @invariant()
    def the_counters_are_the_models(self):
        summary = self.server.summary()
        assert {name: int(summary[name]) for name in self.counts} == (
            self.counts)


IngestStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None,
    derandomize=True,
)
TestIngestStoreModel = IngestStoreMachine.TestCase
