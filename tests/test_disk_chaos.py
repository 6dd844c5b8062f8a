"""Disk-fault injection, scrub classification, and reconciliation."""

from __future__ import annotations

import json

import pytest

from repro.analysis.columnar import compute_analysis_block
from repro.chaos import (
    DiskChaos,
    DiskChaosConfig,
    SimulatedCrash,
    reconcile_disk,
)
from repro.dataset.records import FailureRecord, record_identity
from repro.dataset.store import Dataset
from repro.serve.harness import synthetic_records
from repro.store import SegmentStore

ALL_FAULTS = ("torn-write", "bit-flip", "enospc", "crash-rename",
              "journal-torn", "journal-flip")


def _store(tmp_path, io=None):
    return SegmentStore(tmp_path / "store", seal_records=10, io=io)


def _append_with_retries(store, record, attempts=5):
    for _ in range(attempts):
        try:
            store.append(record)
            return
        except (SimulatedCrash, OSError):
            continue
    raise AssertionError("append never succeeded")


class TestDiskChaosInjector:
    def test_disabled_config_injects_nothing(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=1))
        store = _store(tmp_path, io=chaos)
        for r in synthetic_records(6, 4, seed=2):
            store.append(r)
        store.flush()
        assert chaos.injected == []
        assert store.scrub().clean

    def test_forced_faults_fire_in_order(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=1))
        chaos.force_next("enospc", "journal-flip")
        with pytest.raises(OSError):
            chaos.write_atomic(tmp_path / "f", b"payload")
        chaos.append_line(tmp_path / "j", b"line")
        assert [e["fault"] for e in chaos.injected] == [
            "enospc", "journal-flip",
        ]

    def test_unknown_forced_kind_rejected(self):
        chaos = DiskChaos(DiskChaosConfig(seed=1))
        with pytest.raises(ValueError):
            chaos.force_next("meteor-strike")

    def test_bit_flip_lands_on_disk(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=3))
        chaos.force_next("bit-flip")
        chaos.write_atomic(tmp_path / "f", b"\x00" * 64)
        written = (tmp_path / "f").read_bytes()
        assert written != b"\x00" * 64
        assert sum(bin(b).count("1") for b in written) == 1

    def test_torn_write_is_a_prefix(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=3))
        chaos.force_next("torn-write")
        payload = bytes(range(256))
        chaos.write_atomic(tmp_path / "f", payload)
        written = (tmp_path / "f").read_bytes()
        assert 0 < len(written) < len(payload)
        assert payload.startswith(written)

    def test_crash_rename_leaves_orphan_temp(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=3))
        chaos.force_next("crash-rename")
        with pytest.raises(SimulatedCrash):
            chaos.write_atomic(tmp_path / "f", b"payload")
        assert not (tmp_path / "f").exists()
        temp = chaos.injected[0]["temp"]
        assert (tmp_path / temp).name.startswith("f.tmp")

    def test_torn_journal_line_heals_on_next_append(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=3))
        journal = tmp_path / "j"
        chaos.append_line(journal, b"first")
        chaos.force_next("journal-torn")
        with pytest.raises(SimulatedCrash):
            chaos.append_line(journal, b"second-torn-away")
        assert not journal.read_bytes().endswith(b"\n")
        # The retry must not merge into the torn fragment.
        chaos.append_line(journal, b"third")
        lines = journal.read_bytes().splitlines()
        assert lines[0] == b"first"
        assert lines[-1] == b"third"


class TestScrubUnderChaos:
    def test_every_fault_classified_and_rebuild_is_exact(self, tmp_path):
        """The acceptance loop: one of each fault kind, then scrub +
        reconcile + re-upload must rebuild the exact analysis."""
        records = synthetic_records(16, 8, seed=5)
        direct = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(r) for r in records
        ]))
        chaos = DiskChaos(DiskChaosConfig(seed=11))
        store = _store(tmp_path, io=chaos)
        fault_at = iter(range(4, len(records), 9))
        next_fault = next(fault_at)
        kinds = iter(ALL_FAULTS)
        for i, record in enumerate(records):
            if i == next_fault:
                kind = next(kinds, None)
                if kind is not None:
                    chaos.force_next(kind)
                    next_fault = next(fault_at, -1)
            _append_with_retries(store, record)
        assert chaos.summary() == {kind: 1 for kind in ALL_FAULTS}

        # "Restart" after the chaotic run: reload from disk, scrub.
        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        assert {f["fault"] for f in disk.faults} == set(ALL_FAULTS)

        # A flipped WAL line can lose an unsealed record's only copy;
        # the dedup layer invites re-uploads, modeled here by the
        # idempotent re-append of the full set.
        for record in records:
            reloaded.append(record)
        reloaded.flush()
        query = reloaded.fold_analysis()
        assert query.complete, query.skipped
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(direct, sort_keys=True))
        # Repair converged: a further scrub finds no new damage.
        final = reloaded.scrub()
        assert final.ok and not final.quarantined

    def test_reconcile_flags_unexplained_faults(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=7))
        store = _store(tmp_path, io=chaos)
        for r in synthetic_records(6, 4, seed=2):
            store.append(r)
        store.flush()
        clean_report = store.scrub()
        # A fabricated fault the scrub never saw must be flagged.
        chaos.injected.append({
            "fault": "bit-flip",
            "path": str(store.segments_dir / "seg-000000.seg"),
            "bit": 12,
        })
        disk = reconcile_disk(chaos.injected, clean_report)
        assert not disk.ok
        assert len(disk.unexplained) == 1

    def test_enospc_retains_tail_and_retries(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=9))
        store = _store(tmp_path, io=chaos)
        records = synthetic_records(4, 5, seed=3)
        chaos.force_next("enospc")
        for r in records:
            _append_with_retries(store, r)
        store.flush()  # the retried seal succeeds
        assert store.n_sealed_records + store.n_tail_records == len(records)
        report = store.scrub()
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok
        assert disk.by_class.get("retained") == 1

    def test_commit_fault_retry_never_reuses_segment_name(self, tmp_path):
        """A seal whose segment write was torn and whose commit append
        then crashed leaves a damaged file behind; the retried seal
        must write under a fresh name so the orphan survives for scrub
        to classify — overwriting it in place would leave the injected
        fault unexplained."""
        records = synthetic_records(4, 5, seed=3)
        direct = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(r) for r in records
        ]))
        chaos = DiskChaos(DiskChaosConfig(seed=19))
        store = _store(tmp_path, io=chaos)
        # The queued torn-write waits for the next segment write (the
        # first seal), the journal-torn behind it then hits that
        # seal's commit append: torn segment + crash mid-commit.
        chaos.force_next("torn-write", "journal-torn")
        for r in records:
            _append_with_retries(store, r)
        for _ in range(5):
            try:
                store.flush()
                break
            except SimulatedCrash:
                continue
        assert chaos.summary() == {"torn-write": 1, "journal-torn": 1}

        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        # The torn first attempt is a corrupt uncommitted orphan.
        assert disk.by_class.get("superseded") == 1
        query = reloaded.fold_analysis()
        assert query.complete, query.skipped
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(direct, sort_keys=True))
        # Repair converged: only the healed torn-commit fragment (a
        # complete CRC-failing line) remains, no new damage.
        final = reloaded.scrub()
        assert final.ok and not final.quarantined and not final.superseded

    def test_a_reopened_store_never_reuses_a_crashed_seal_name(
        self, tmp_path
    ):
        """A seal torn on disk whose commit append then crashed leaves
        an uncommitted file that no journal line numbers.  A store
        reopened without scrubbing must seal past it rather than
        overwrite it, or the injected torn write would go
        unexplained."""
        records = [dict(r, device_id=1)
                   for r in synthetic_records(4, 5, seed=3)]
        direct = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(r) for r in records
        ]))
        chaos = DiskChaos(DiskChaosConfig(seed=19))
        store = _store(tmp_path, io=chaos)
        for r in records[:5]:
            store.append(r)
        chaos.force_next("torn-write", "journal-torn")
        with pytest.raises(SimulatedCrash):
            store.flush()
        (torn,) = store.segments_dir.glob("*.seg")
        evidence = torn.read_bytes()

        reopened = _store(tmp_path)
        for r in records[5:]:
            reopened.append(r)
        assert reopened.n_segments == 2
        assert torn.name not in reopened.query_snapshot().live
        assert torn.read_bytes() == evidence
        report = reopened.scrub(repair=True)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        # The reopened store's first append healed the torn commit
        # fragment into a damaged line of its own.
        assert disk.by_class == {"superseded": 1,
                                 "journal-damage-detected": 1}
        query = reopened.fold_analysis()
        assert query.complete, query.skipped
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(direct, sort_keys=True))

    def test_uniform_rate_soak_never_loses_acked_records(self, tmp_path):
        """Random faults at a high rate: after scrub + re-upload the
        store owns every record exactly once."""
        records = synthetic_records(12, 6, seed=13)
        chaos = DiskChaos(DiskChaosConfig.uniform(0.08, seed=17))
        store = _store(tmp_path, io=chaos)
        for r in records:
            _append_with_retries(store, r, attempts=10)
        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        for r in records:
            reloaded.append(r)
        reloaded.flush()
        assert len(set(reloaded)) == len(records)
        query = reloaded.fold_analysis()
        assert query.complete
        assert query.block["n_failures"] == len(records)


class TestBatchJournalFaults:
    """One fault draw per group commit: a torn batch is N records."""

    def _batch(self, n=6, seed=4):
        # Fewer rows than a seal holds, so the whole batch is one
        # ``append_lines``.
        return [(dict(r, device_id=1, start_time=float(i)), None)
                for i, r in enumerate(synthetic_records(n, 1, seed=seed))]

    def test_one_line_batch_goes_through_append_line(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=1))
        chaos.force_next("journal-flip")
        chaos.append_lines(tmp_path / "j", [b"only-line"])
        assert chaos.injected == [{
            "fault": "journal-flip", "path": str(tmp_path / "j"),
            "bit": chaos.injected[0]["bit"],
        }]
        chaos.append_lines(tmp_path / "j", [])
        assert len((tmp_path / "j").read_bytes().splitlines()) == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_torn_batch_owns_nothing_and_retry_is_idempotent(
        self, tmp_path, seed
    ):
        chaos = DiskChaos(DiskChaosConfig(seed=seed))
        store = _store(tmp_path, io=chaos)
        batch = self._batch()
        keys = [record_identity(data) for data, _key in batch]
        chaos.force_next("journal-torn")
        with pytest.raises(SimulatedCrash):
            store.append_many(batch)
        assert set(store) == set()
        assert store.n_tail_records == 0
        (fault,) = chaos.injected
        assert fault["fault"] == "journal-torn"
        assert fault["records"] == len(batch)
        assert 0 <= fault["records_landed"] < len(batch)
        assert 0 < fault["kept_bytes"] < fault["full_bytes"]
        torn = store.journal_path.read_bytes()
        assert not torn.endswith(b"\n")
        assert torn.count(b"\n") == fault["records_landed"]

        # A crash-restart right there recovers exactly the records
        # whose lines landed whole, and scrub explains the fault.
        crashed = _store(tmp_path)
        assert set(crashed) == set(
            keys[:fault["records_landed"]]
        )
        report = crashed.scrub(repair=False)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        assert disk.by_class == {"journal-truncated": 1}

        # The in-process retry instead: same batch again, idempotent.
        assert store.append_many(batch) == keys
        assert store.append_many(batch) == keys
        assert store.n_tail_records == len(batch)
        reopened = _store(tmp_path)
        assert set(reopened) == set(keys)
        assert reopened.n_tail_records == len(batch)
        disk = reconcile_disk(chaos.injected, reopened.scrub())
        assert disk.ok, disk.render()

    def test_flipped_batch_line_is_detected_and_reuploaded(self, tmp_path):
        chaos = DiskChaos(DiskChaosConfig(seed=23))
        store = _store(tmp_path, io=chaos)
        batch = self._batch()
        keys = [record_identity(data) for data, _key in batch]
        chaos.force_next("journal-flip")
        assert store.append_many(batch) == keys
        (fault,) = chaos.injected
        assert fault["records"] == len(batch)
        assert 0 <= fault["line"] < len(batch)
        # In memory the store owns all of them; on disk one line is
        # damaged, so a restart proves one record fewer.
        assert set(store) == set(keys)
        reopened = _store(tmp_path)
        assert set(reopened) == set(keys) - {keys[fault["line"]]}
        report = reopened.scrub()
        assert report.journal_damaged_lines == 1
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        assert disk.by_class == {"journal-damage-detected": 1}
        # The re-upload invitation: the lost line's record comes back.
        reopened.append_many(batch)
        assert set(reopened) == set(keys)

    def test_batched_soak_never_loses_acked_records(self, tmp_path):
        """The uniform-rate soak of the single-append path, driven in
        batches of seven with whole-batch retries."""
        records = synthetic_records(12, 6, seed=13)
        direct = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(r) for r in records
        ]))
        chaos = DiskChaos(DiskChaosConfig.uniform(0.08, seed=29))
        store = _store(tmp_path, io=chaos)
        for at in range(0, len(records), 7):
            batch = [(r, None) for r in records[at:at + 7]]
            for _ in range(10):
                try:
                    store.append_many(batch)
                    break
                except (SimulatedCrash, OSError):
                    continue
            else:
                raise AssertionError("batch never committed")
        assert {"journal-torn", "journal-flip"} & set(chaos.summary())
        reloaded = _store(tmp_path)
        report = reloaded.scrub(repair=True)
        disk = reconcile_disk(chaos.injected, report)
        assert disk.ok, disk.render()
        reloaded.append_many([(r, None) for r in records])
        reloaded.flush()
        query = reloaded.fold_analysis()
        assert query.complete, query.skipped
        assert (json.dumps(query.block, sort_keys=True)
                == json.dumps(direct, sort_keys=True))
