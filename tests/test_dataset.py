"""Unit tests for dataset records, storage, and aggregation helpers."""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.dataset.aggregate import (
    cdf,
    fraction_below,
    group_by,
    quantile,
    safe_mean,
)
from repro.dataset.records import (
    ARM_PATCHED,
    ARM_VANILLA,
    BaseStationRecord,
    DeviceRecord,
    FailureRecord,
    TransitionRecord,
)
from repro.dataset.store import Dataset, load_dataset, save_dataset


def device(device_id=1, **kwargs) -> DeviceRecord:
    defaults = dict(
        device_id=device_id, model=3, android_version="9.0",
        has_5g=False, isp="ISP-A",
        exposure_s={("4G", 3): 1_000.0, ("4G", 4): 2_000.0},
    )
    defaults.update(kwargs)
    return DeviceRecord(**defaults)


def failure(device_id=1, **kwargs) -> FailureRecord:
    defaults = dict(
        device_id=device_id, model=3, android_version="9.0",
        has_5g=False, isp="ISP-A", failure_type="DATA_STALL",
        start_time=100.0, duration_s=30.0, bs_id=7, rat="4G",
        signal_level=3, deployment="URBAN",
    )
    defaults.update(kwargs)
    return FailureRecord(**defaults)


class TestRecords:
    def test_device_roundtrip(self):
        original = device()
        restored = DeviceRecord.from_dict(original.to_dict())
        assert restored == original

    def test_device_exposure_total(self):
        assert device().total_connected_s == 3_000.0

    def test_failure_roundtrip(self):
        original = failure(error_code="SIGNAL_LOST", resolved_by=1,
                           stages_executed=1, post_transition=True)
        restored = FailureRecord.from_dict(original.to_dict())
        assert restored == original

    def test_transition_roundtrip(self):
        original = TransitionRecord(
            device_id=1, from_rat="4G", from_level=3, to_rat="5G",
            to_level=0, executed=True, failed_after=True,
            arm=ARM_PATCHED,
        )
        assert TransitionRecord.from_dict(original.to_dict()) == original

    def test_bs_record_roundtrip(self):
        original = BaseStationRecord(bs_id=1, isp="ISP-B",
                                     rats=("2G", "4G"),
                                     deployment="URBAN")
        assert BaseStationRecord.from_dict(original.to_dict()) == original

    @pytest.mark.parametrize("record", [
        failure(),
        failure(error_code="SIGNAL_LOST", resolved_by=2,
                stages_executed=3, post_transition=True,
                arm=ARM_PATCHED),
        TransitionRecord(device_id=1, from_rat="4G", from_level=3,
                         to_rat="5G", to_level=0, executed=False,
                         failed_after=True),
    ], ids=["failure-defaults", "failure-full", "transition"])
    def test_flat_to_dict_matches_asdict_in_keys_order_and_values(
        self, record
    ):
        data = record.to_dict()
        assert list(data.items()) == list(asdict(record).items())
        data["device_id"] = -1  # a fresh dict, not a view
        assert record.device_id == 1

    def test_arms_are_distinct(self):
        assert ARM_VANILLA != ARM_PATCHED


class TestDataset:
    def make(self) -> Dataset:
        return Dataset(
            devices=[device(1), device(2, model=4)],
            failures=[failure(1), failure(1, failure_type="DATA_SETUP_ERROR"),
                      failure(2, model=4)],
            metadata={"seed": 1},
        )

    def test_counts(self):
        dataset = self.make()
        assert dataset.n_devices == 2
        assert dataset.n_failures == 3

    def test_failures_of_type(self):
        dataset = self.make()
        assert len(dataset.failures_of_type("DATA_STALL")) == 2

    def test_grouping_helpers(self):
        dataset = self.make()
        assert set(dataset.devices_by_model()) == {3, 4}
        assert set(dataset.failures_by_device()) == {1, 2}

    def test_record_digest_covers_records_not_metadata(self):
        """The one independent reference for ``record_digest``: every
        record of all four groups, in the order devices, base
        stations, failures, transitions, each in list order."""
        dataset = self.make()
        dataset.base_stations = [
            BaseStationRecord(bs_id=7, isp="ISP-A", rats=("4G", "5G"),
                              deployment="URBAN"),
            BaseStationRecord(bs_id=3, isp="ISP-B", rats=("4G",),
                              deployment="RURAL"),
        ]
        dataset.transitions = [
            TransitionRecord(device_id=1, from_rat="4G", from_level=3,
                             to_rat="5G", to_level=0, executed=True,
                             failed_after=True),
            TransitionRecord(device_id=2, from_rat="5G", from_level=1,
                             to_rat="4G", to_level=2, executed=False,
                             failed_after=False),
        ]
        hasher = hashlib.sha256()
        for record in (dataset.devices + dataset.base_stations
                       + dataset.failures + dataset.transitions):
            hasher.update(
                json.dumps(record.to_dict(), sort_keys=True).encode())
        assert dataset.record_digest() == hasher.hexdigest()
        dataset.metadata["seed"] = 2
        assert dataset.record_digest() == hasher.hexdigest()
        for group in ("base_stations", "failures", "transitions"):
            records = getattr(dataset, group)
            records.reverse()
            assert dataset.record_digest() != hasher.hexdigest(), group
            records.reverse()
        assert dataset.record_digest() == hasher.hexdigest()
        # Group order counts: transitions before failures is another
        # digest.
        dataset.failures, dataset.transitions = [], (
            dataset.transitions + dataset.failures)
        assert dataset.record_digest() != hasher.hexdigest()

    def test_merge(self):
        merged = self.make().merge(self.make())
        assert merged.n_devices == 4
        assert merged.n_failures == 6

    def test_merge_keeps_both_arms_base_stations(self):
        a = self.make()
        a.base_stations = [
            BaseStationRecord(bs_id=1, isp="ISP-A", rats=("4G",),
                              deployment="URBAN"),
            BaseStationRecord(bs_id=2, isp="ISP-A", rats=("4G",),
                              deployment="RURAL"),
        ]
        b = self.make()
        b.base_stations = [
            BaseStationRecord(bs_id=2, isp="ISP-A", rats=("4G",),
                              deployment="RURAL"),
            BaseStationRecord(bs_id=3, isp="ISP-B", rats=("5G",),
                              deployment="URBAN"),
        ]
        merged = a.merge(b)
        assert sorted(bs.bs_id for bs in merged.base_stations) == [1, 2, 3]

    def test_merge_with_one_empty_inventory(self):
        a = self.make()
        b = self.make()
        b.base_stations = [
            BaseStationRecord(bs_id=9, isp="ISP-B", rats=("4G",),
                              deployment="URBAN")
        ]
        assert len(a.merge(b).base_stations) == 1
        assert len(b.merge(a).base_stations) == 1

    def test_merge_preserves_arm_metadata(self):
        a = self.make()
        b = self.make()
        b.metadata = {"seed": 2}
        merged = a.merge(b)
        assert merged.metadata["merged_from"] == [{"seed": 1},
                                                  {"seed": 2}]

    def test_merge_re_merges_analysis_blocks(self):
        from repro.analysis.columnar import compute_analysis_block

        a = self.make()
        # Disjoint device populations (the shard-merge contract): the
        # re-merged block then equals a recompute over merged records.
        b = Dataset(
            devices=[device(3), device(4, model=4)],
            failures=[failure(3), failure(4, model=4)],
            metadata={"seed": 2},
        )
        a.metadata["analysis"] = compute_analysis_block(a)
        b.metadata["analysis"] = compute_analysis_block(b)
        merged = a.merge(b)
        assert (merged.metadata["analysis"]
                == compute_analysis_block(merged))

    def test_save_load_roundtrip(self, tmp_path):
        dataset = self.make()
        dataset.base_stations = [
            BaseStationRecord(bs_id=7, isp="ISP-A", rats=("4G",),
                              deployment="URBAN")
        ]
        dataset.transitions = [TransitionRecord(
            device_id=1, from_rat="4G", from_level=3, to_rat="5G",
            to_level=1, executed=True, failed_after=False,
        )]
        path = tmp_path / "study.jsonl.gz"
        save_dataset(dataset, path)
        restored = load_dataset(path)
        assert restored.devices == dataset.devices
        assert restored.failures == dataset.failures
        assert restored.transitions == dataset.transitions
        assert restored.base_stations == dataset.base_stations
        assert restored.metadata == dataset.metadata


class TestAggregate:
    def test_group_by(self):
        groups = group_by(range(10), key=lambda x: x % 2)
        assert groups[0] == [0, 2, 4, 6, 8]

    def test_cdf_is_monotone(self):
        xs, ps = cdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_cdf_of_empty(self):
        xs, ps = cdf([])
        assert len(xs) == 0 and len(ps) == 0

    def test_cdf_of_single_value(self):
        xs, ps = cdf([42.0])
        assert list(xs) == [42.0]
        assert list(ps) == [1.0]

    def test_quantile(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_fraction_below(self):
        assert fraction_below([1.0, 2.0, 3.0, 4.0], 2.5) == 0.5

    def test_fraction_below_empty_rejected(self):
        with pytest.raises(ValueError):
            fraction_below([], 1.0)

    def test_safe_mean(self):
        assert safe_mean([]) == 0.0
        assert safe_mean([1.0, 3.0]) == 2.0

    def test_cdf_handles_numpy_input(self):
        xs, ps = cdf(np.array([5.0, 1.0]))
        assert xs[0] == 1.0


class TestDurablePersistence:
    """Atomic saves and damage-tolerant loads (the robustness pass)."""

    def make(self) -> Dataset:
        return Dataset(
            devices=[device(1), device(2, model=4)],
            failures=[failure(1), failure(2, model=4)],
            metadata={"seed": 1},
        )

    def test_save_is_atomic_and_reproducible(self, tmp_path):
        path = tmp_path / "study.jsonl.gz"
        save_dataset(self.make(), path)
        first = path.read_bytes()
        save_dataset(self.make(), path)
        # gzip mtime pinned to 0: identical datasets, identical bytes.
        assert path.read_bytes() == first
        # No stray temp files survive a successful save.
        assert list(tmp_path.iterdir()) == [path]

    def test_save_writes_these_bytes(self, tmp_path):
        """The saved file's bytes, pinned: a change to how the file is
        staged and renamed must not change what lands (the benchmark's
        ``study_offline/disk_bytes_per_record`` is measured on it)."""
        path = tmp_path / "study.jsonl.gz"
        save_dataset(self.make(), path)
        blob = path.read_bytes()
        assert len(blob) == 326
        assert hashlib.sha256(blob).hexdigest() == (
            "c3a52ab4d43414995e12ea4537cc9801a1a121bda2b45ec11e4ba0241cfb5a93")

    def test_failed_save_leaves_previous_file_intact(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "study.jsonl.gz"
        save_dataset(self.make(), path)
        good = path.read_bytes()
        bad = self.make()
        boom = RuntimeError("simulated serialization fault")

        class Unserializable:
            def to_dict(self):
                raise boom

        bad.devices = [Unserializable()]
        with pytest.raises(RuntimeError):
            save_dataset(bad, path)
        assert path.read_bytes() == good
        assert list(tmp_path.iterdir()) == [path]

    def test_unknown_kind_is_skipped_with_count(self, tmp_path):
        import gzip
        import json

        path = tmp_path / "future.jsonl.gz"
        save_dataset(self.make(), path)
        lines = gzip.decompress(path.read_bytes()).splitlines()
        lines.append(json.dumps(
            {"kind": "hologram", "data": {"x": 1}}
        ).encode())
        lines.append(json.dumps(
            {"kind": "hologram", "data": {"x": 2}}
        ).encode())
        path.write_bytes(gzip.compress(b"\n".join(lines) + b"\n"))
        restored = load_dataset(path)
        assert restored.n_devices == 2
        assert restored.metadata["skipped_records"] == 2

    def test_truncated_gzip_raises_corrupt_error(self, tmp_path):
        from repro.dataset.store import DatasetCorruptError

        path = tmp_path / "study.jsonl.gz"
        save_dataset(self.make(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DatasetCorruptError):
            load_dataset(path)

    def test_bit_flipped_payload_raises_corrupt_error(self, tmp_path):
        from repro.dataset.store import DatasetCorruptError

        path = tmp_path / "study.jsonl.gz"
        save_dataset(self.make(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x20
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetCorruptError):
            load_dataset(path)

    def test_not_gzip_raises_corrupt_error(self, tmp_path):
        from repro.dataset.store import DatasetCorruptError

        path = tmp_path / "study.jsonl.gz"
        path.write_bytes(b"plain text, not gzip at all")
        with pytest.raises(DatasetCorruptError):
            load_dataset(path)

    def test_missing_file_still_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.jsonl.gz")
