"""Tests for the columnar view and streaming analysis partials.

Two load-bearing guarantees:

* the columnar view is a faithful, cached projection of the record
  lists — same values, rebuilt exactly when the records change, never
  pickled along with the dataset;
* ``AnalysisPartial`` merges are exact, so the sharded run's
  ``metadata["analysis"]`` block is byte-identical to the serial one.
"""

import dataclasses
import json
import pickle
from operator import itemgetter

import numpy as np
import pytest

from repro.analysis.columnar import (
    RESOLVED_BY_NONE,
    AnalysisMergeError,
    AnalysisPartial,
    _build_failures,
    analysis_summary,
    columnar,
    compute_analysis_block,
    invalidate_columnar,
    merge_analysis_blocks,
)
from repro.analysis.stats import compute_general_stats
from repro.dataset.records import (
    DeviceRecord,
    FailureRecord,
    TransitionRecord,
)
from repro.dataset.store import Dataset
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel import run_sharded


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


def transition(device_id=1, **kwargs) -> TransitionRecord:
    defaults = dict(
        device_id=device_id, from_rat="4G", from_level=3, to_rat="5G",
        to_level=1, executed=True, failed_after=False,
    )
    defaults.update(kwargs)
    return TransitionRecord(**defaults)


def small_dataset() -> Dataset:
    return Dataset(
        devices=[device(1), device(2, isp="ISP-B"), device(3)],
        failures=[
            failure(1, duration_s=10.0, resolved_by=1),
            failure(1, failure_type="OUT_OF_SERVICE", duration_s=40.0,
                    isp="ISP-A", signal_level=1),
            failure(2, isp="ISP-B", rat="5G", duration_s=5.5,
                    resolved_by=None),
        ],
        transitions=[
            transition(1, executed=True, failed_after=True),
            transition(2, executed=False, failed_after=False),
        ],
        metadata={"seed": 1},
    )


class TestColumnarView:
    def test_failure_columns_match_records(self):
        dataset = small_dataset()
        f = columnar(dataset).failures
        assert f.device_id.tolist() == [1, 1, 2]
        assert f.duration_s.tolist() == [10.0, 40.0, 5.5]
        decoded = [f.failure_types[c] for c in f.failure_type_codes]
        assert decoded == ["DATA_STALL", "OUT_OF_SERVICE", "DATA_STALL"]
        decoded_isps = [f.isps[c] for c in f.isp_codes]
        assert decoded_isps == ["ISP-A", "ISP-A", "ISP-B"]

    def test_resolved_by_none_uses_sentinel(self):
        f = columnar(small_dataset()).failures
        assert f.resolved_by[0] == 1
        assert f.resolved_by[2] == RESOLVED_BY_NONE

    def test_type_mask(self):
        f = columnar(small_dataset()).failures
        assert f.type_mask("OUT_OF_SERVICE").tolist() == [False, True,
                                                          False]
        assert f.type_mask("NO_SUCH_TYPE").tolist() == [False] * 3

    def test_device_exposure_flattened(self):
        d = columnar(small_dataset()).devices
        assert len(d.exp_seconds) == 6  # 3 devices x 2 exposure rows
        assert float(d.exp_seconds.sum()) == 9_000.0

    def test_transition_columns(self):
        t = columnar(small_dataset()).transitions
        assert t.executed.tolist() == [True, False]
        assert t.failed_after.tolist() == [True, False]

    def test_view_is_cached(self):
        dataset = small_dataset()
        assert columnar(dataset) is columnar(dataset)

    def test_append_invalidates(self):
        dataset = small_dataset()
        before = columnar(dataset)
        dataset.failures.append(failure(3))
        after = columnar(dataset)
        assert after is not before
        assert len(after.failures) == 4

    def test_explicit_invalidation(self):
        dataset = small_dataset()
        before = columnar(dataset)
        invalidate_columnar(dataset)
        assert columnar(dataset) is not before

    def test_pickle_strips_cache(self):
        dataset = small_dataset()
        columnar(dataset)
        restored = pickle.loads(pickle.dumps(dataset))
        assert "_columnar" not in restored.__dict__
        assert restored.failures == dataset.failures

    def test_dict_rows_build_the_same_columns_as_records(self):
        """The segment store folds ``to_dict()`` rows without building
        the records: same arrays, same dtypes, same category tables."""
        records = small_dataset().failures + [
            failure(7, has_5g=True, resolved_by=-2, stages_executed=3,
                    rat="5G", isp="ISP-C", bs_id=9, model=2),
        ]
        rows = [record.to_dict() for record in records]
        from_rows = _build_failures(rows, itemgetter)
        from_records = _build_failures(records)
        for column in dataclasses.fields(from_records):
            got = getattr(from_rows, column.name)
            want = getattr(from_records, column.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, column.name
                assert got.tolist() == want.tolist(), column.name
            else:
                assert got == want, column.name
        assert len(_build_failures([], itemgetter)) == 0

    def test_empty_dataset_builds(self):
        view = columnar(Dataset())
        assert len(view.failures) == 0
        assert len(view.devices) == 0
        assert len(view.transitions) == 0


class TestAnalysisPartial:
    def test_from_columns_is_the_reducer_behind_from_dataset(self):
        dataset = small_dataset()
        view = columnar(dataset)
        assert (AnalysisPartial.from_columns(
                    view.failures, view.transitions, len(view.devices))
                == AnalysisPartial.from_dataset(dataset))
        # Failures alone: what a store batch knows.
        assert (AnalysisPartial.from_columns(view.failures)
                == AnalysisPartial.from_dataset(
                    Dataset(failures=dataset.failures)))

    def test_counts_match_records(self):
        dataset = small_dataset()
        block = compute_analysis_block(dataset)
        assert block["n_devices"] == 3
        assert block["n_failures"] == 3
        assert block["n_transitions"] == 2
        assert block["failing_devices"] == 2
        assert block["oos_devices"] == 1
        assert block["transitions_executed"] == 1
        assert block["transitions_failed_after"] == 1
        assert block["max_failures_single_device"] == 2
        assert block["failures_by_type"] == {"DATA_STALL": 2,
                                             "OUT_OF_SERVICE": 1}
        assert block["failures_by_isp"] == {"ISP-A": 2, "ISP-B": 1}
        assert block["failures_per_device"] == {"1": 1, "2": 1}
        assert block["duration_hist"]["count"] == 3
        assert block["duration_hist"]["sum_scaled"] == 55_500_000

    def test_merge_commutes(self):
        a = AnalysisPartial.from_dataset(small_dataset())
        other = small_dataset()
        other.failures.append(failure(3, duration_s=120.0))
        b = AnalysisPartial.from_dataset(other)
        assert a.merge(b).to_block() == b.merge(a).to_block()

    def test_merge_associates(self):
        partials = []
        for seed in range(3):
            dataset = small_dataset()
            dataset.failures.append(
                failure(3, duration_s=10.0 * (seed + 1))
            )
            partials.append(AnalysisPartial.from_dataset(dataset))
        a, b, c = partials
        assert (a.merge(b).merge(c).to_block()
                == a.merge(b.merge(c)).to_block())

    def test_merge_with_empty_is_identity_on_counts(self):
        a = AnalysisPartial.from_dataset(small_dataset())
        merged = a.merge(AnalysisPartial.from_dataset(Dataset()))
        assert merged.to_block() == a.to_block()

    def test_merge_blocks_round_trips(self):
        block = compute_analysis_block(small_dataset())
        assert merge_analysis_blocks([block]) == block

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_analysis_blocks([])

    def test_incompatible_hist_bounds_rejected(self):
        a = AnalysisPartial.from_dataset(small_dataset())
        b = AnalysisPartial.from_dataset(small_dataset())
        b.duration_hist["bounds"] = [1.0, 2.0]
        with pytest.raises(AnalysisMergeError):
            a.merge(b)

    def test_summary_matches_general_stats(self, vanilla_dataset):
        block = (vanilla_dataset.metadata.get("analysis")
                 or compute_analysis_block(vanilla_dataset))
        summary = analysis_summary(block)
        general = compute_general_stats(vanilla_dataset)
        assert summary["prevalence"] == general.prevalence
        assert summary["frequency"] == general.frequency
        assert (summary["max_failures_single_device"]
                == general.max_failures_single_device)
        assert (summary["fraction_devices_without_oos"]
                == general.fraction_devices_without_oos)
        # Durations go through scaled-integer sums: exact to 1 us.
        assert summary["mean_duration_s"] == pytest.approx(
            general.mean_duration_s, abs=1e-6
        )
        assert summary["count_share_by_type"] == pytest.approx(
            general.count_share_by_type
        )


class TestShardedIdentity:
    def test_sharded_analysis_block_is_byte_identical(self):
        config = ScenarioConfig(
            n_devices=60, seed=11,
            topology=TopologyConfig(n_base_stations=120, seed=12),
        )
        serial = FleetSimulator(config).run()
        sharded = run_sharded(config, workers=2, n_shards=5,
                              mode="inline")
        assert (json.dumps(serial.metadata["analysis"], sort_keys=True)
                == json.dumps(sharded.metadata["analysis"],
                              sort_keys=True))

    def test_serial_run_attaches_analysis(self, vanilla_dataset):
        block = vanilla_dataset.metadata.get("analysis")
        assert block is not None
        assert block["n_devices"] == vanilla_dataset.n_devices
        assert block["n_failures"] == vanilla_dataset.n_failures


class TestPortedEquivalence:
    """The ported stat functions agree with a record-walking oracle."""

    def test_failures_per_phone(self, vanilla_dataset):
        from repro.analysis.stats import failures_per_phone

        counts = {d.device_id: 0 for d in vanilla_dataset.devices}
        for f in vanilla_dataset.failures:
            counts[f.device_id] += 1
        expected = sorted(counts.values())
        assert failures_per_phone(vanilla_dataset).tolist() == expected

    def test_prevalence_by_level(self, vanilla_dataset):
        from repro.analysis.isp_bs import prevalence_by_level

        failing = {level: set() for level in range(6)}
        for f in vanilla_dataset.failures:
            failing[f.signal_level].add(f.device_id)
        n = vanilla_dataset.n_devices
        expected = {level: len(ids) / n
                    for level, ids in failing.items()}
        assert prevalence_by_level(vanilla_dataset) == expected

    def test_stall_autofix_durations(self, vanilla_dataset):
        from repro.analysis.stats import stall_autofix_durations
        from repro.android.recovery import AUTO_RECOVERED

        expected = sorted(
            f.duration_s for f in vanilla_dataset.failures
            if f.failure_type == "DATA_STALL"
            and f.resolved_by == AUTO_RECOVERED
        )
        got = stall_autofix_durations(vanilla_dataset)
        assert got.tolist() == expected
