"""Cross-component property-based tests.

These pin down invariants that span modules: the fast episode resolver
agrees with the integration-grade engine, the prober's error bound
holds for arbitrary stall lengths, the cause sampler never emits
filterable codes, saved datasets always round-trip, and the store's
one fold is exact however records are batched.
"""

import json
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.columnar import (
    SegmentPartial,
    _build_failures,
    _Fold,
    compute_analysis_block,
)
from repro.android.data_stall import VanillaDataStallDetector
from repro.android.recovery import (
    AUTO_RECOVERED,
    RecoveryEngine,
    RecoveryPolicy,
    StageParameters,
    UNRESOLVED,
    resolve_stall,
)
from repro.core.errorcodes import ERROR_CODE_REGISTRY
from repro.core.signal import SignalLevel
from repro.dataset.records import FailureRecord
from repro.dataset.store import Dataset
from repro.monitoring.prober import NetworkStateProber
from repro.netstack.faults import ActiveFault, FaultKind
from repro.netstack.stack import DeviceNetStack
from repro.network.bearer import DEFAULT_CAUSE_SAMPLER
from repro.radio.rat import RAT
from repro.simtime import SimClock
from repro.store.segment import (
    decode_columns,
    decode_rows,
    decode_segment,
    encode_segment,
    failure_columns,
)


class TestResolverEngineAgreement:
    """The fast resolver and the live engine implement one mechanism."""

    def run_engine(self, policy, natural, seed):
        clock = SimClock()
        stack = DeviceNetStack()
        stack.inject_fault(
            ActiveFault(FaultKind.NETWORK_STALL, 0.0, natural)
        )
        detector = VanillaDataStallDetector(clock, stack.counters)
        engine = RecoveryEngine(clock, stack, detector, policy,
                                random.Random(seed),
                                poll_interval_s=0.25)
        return engine.run()

    @settings(max_examples=40, deadline=None)
    @given(
        natural=st.floats(min_value=0.5, max_value=600.0),
        seed=st.integers(min_value=0, max_value=500),
        pro0=st.floats(min_value=1.0, max_value=90.0),
    )
    def test_deterministic_policies_agree(self, natural, seed, pro0):
        """With all-or-nothing stages the two code paths must end the
        episode the same way at (nearly) the same time."""
        policy = RecoveryPolicy(
            probations_s=(pro0, 30.0, 30.0),
            stages=(
                StageParameters(2.0, 1.0),
                StageParameters(6.0, 1.0),
                StageParameters(15.0, 1.0),
            ),
        )
        fast = resolve_stall(policy, natural, random.Random(seed))
        live = self.run_engine(policy, natural, seed)
        assert fast.resolved_by in (AUTO_RECOVERED, 1)
        if fast.resolved_by == live.resolved_by:
            # Engine polling granularity is 0.25 s.
            assert abs(fast.duration_s - live.duration_s) <= 1.0
        else:
            # Divergence is only legitimate when the natural fix lands
            # inside the stage-execution window (probation start to
            # probation + overhead, padded by the poll granularity):
            # there the two schedulers race and either outcome is valid.
            assert pro0 - 0.5 <= natural <= pro0 + 2.0 + 0.5

    @settings(max_examples=30, deadline=None)
    @given(natural=st.floats(min_value=0.5, max_value=400.0),
           seed=st.integers(min_value=0, max_value=200))
    def test_hopeless_stalls_always_run_natural_course(self, natural,
                                                       seed):
        policy = RecoveryPolicy(
            probations_s=(10.0, 10.0, 10.0),
            stages=(
                StageParameters(2.0, 0.0),
                StageParameters(6.0, 0.0),
                StageParameters(15.0, 0.0),
            ),
        )
        fast = resolve_stall(policy, natural, random.Random(seed))
        assert fast.resolved_by in (AUTO_RECOVERED, UNRESOLVED)
        assert fast.duration_s == pytest.approx(natural)


class TestProberErrorBound:
    @settings(max_examples=25, deadline=None)
    @given(stall=st.floats(min_value=1.0, max_value=1_000.0))
    def test_error_is_at_most_one_volley(self, stall):
        """Sec. 2.2's guarantee below the backoff threshold."""
        clock = SimClock()
        stack = DeviceNetStack()
        stack.inject_fault(
            ActiveFault(FaultKind.NETWORK_STALL, 0.0, stall)
        )
        measurement = NetworkStateProber(clock).measure(stack)
        assert stall <= measurement.duration_s <= stall + 5.1

    @settings(max_examples=20, deadline=None)
    @given(stall=st.floats(min_value=1.0, max_value=300.0),
           kind=st.sampled_from([FaultKind.FIREWALL_MISCONFIG,
                                 FaultKind.PROXY_MISCONFIG,
                                 FaultKind.MODEM_DRIVER_FAILURE,
                                 FaultKind.DNS_OUTAGE]))
    def test_false_positives_resolve_in_one_round(self, stall, kind):
        clock = SimClock()
        stack = DeviceNetStack()
        stack.inject_fault(ActiveFault(kind, 0.0, stall))
        measurement = NetworkStateProber(clock).measure(stack)
        assert measurement.rounds == 1
        assert measurement.verdict is kind.expected_verdict


class TestCauseSamplerInvariants:
    @settings(max_examples=60)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rat=st.sampled_from(list(RAT)),
        level=st.sampled_from(list(SignalLevel)),
        density=st.floats(min_value=0.0, max_value=1.0),
        handover=st.booleans(),
    )
    def test_sampled_causes_are_registered_and_not_filterable(
        self, seed, rat, level, density, handover
    ):
        cause = DEFAULT_CAUSE_SAMPLER.sample(
            random.Random(seed), rat=rat, signal_level=level,
            deployment_density=density, during_handover=handover,
        )
        assert cause in ERROR_CODE_REGISTRY
        assert not ERROR_CODE_REGISTRY.get(cause).rational_rejection


class TestDatasetRoundTripProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=1e5),
            min_size=1, max_size=30,
        )
    )
    def test_arbitrary_failure_records_round_trip(self, durations,
                                                  tmp_path_factory):
        from repro.dataset.records import FailureRecord
        from repro.dataset.store import Dataset, load_dataset, save_dataset

        dataset = Dataset(failures=[
            FailureRecord(
                device_id=index, model=1, android_version="10.0",
                has_5g=False, isp="ISP-A",
                failure_type="DATA_STALL",
                start_time=float(index), duration_s=duration,
                bs_id=index, rat="4G", signal_level=index % 6,
                deployment="URBAN",
            )
            for index, duration in enumerate(durations)
        ])
        path = tmp_path_factory.mktemp("roundtrip") / "data.jsonl.gz"
        save_dataset(dataset, path)
        assert load_dataset(path).failures == dataset.failures


#: Six devices over up to 60 records: every batch shares devices with
#: the others, which is what the evidence maps exist for.
_ROW = st.fixed_dictionaries({
    "device_id": st.integers(0, 5),
    "model": st.integers(0, 6),
    "android_version": st.sampled_from(["9", "10"]),
    "has_5g": st.booleans(),
    "isp": st.sampled_from(["ISP-A", "ISP-B", "ISP-C"]),
    "failure_type": st.sampled_from(
        ["DATA_STALL", "OUT_OF_SERVICE", "DATA_SETUP_ERROR"]),
    "start_time": st.floats(0.0, 1e6),
    "duration_s": st.floats(0.0, 1e5),
    "bs_id": st.integers(0, 400),
    "rat": st.sampled_from(["3G", "4G", "5G"]),
    "signal_level": st.integers(0, 5),
    "deployment": st.sampled_from(["urban", "rural"]),
    "error_code": st.none() | st.just("E-33"),
    "resolved_by": st.none() | st.integers(-2, 3),
    "stages_executed": st.integers(0, 3),
    "post_transition": st.booleans(),
    "arm": st.sampled_from(["vanilla", "patched"]),
})


class TestSharedDeviceFoldProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(_ROW, max_size=60),
        sizes=st.lists(st.integers(0, 12), max_size=10),
    )
    def test_any_batching_folds_to_the_offline_block(self, rows, sizes):
        """Split a record list anywhere (empty batches included):
        ``_Fold`` over the batches' ``SegmentPartial``s is the one-shot
        offline block of all the records, byte for byte."""
        fold = _Fold()
        at = 0
        for size in sizes + [len(rows)]:
            fold.add(SegmentPartial.from_rows(rows[at:at + size]))
            at += size
        offline = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(row) for row in rows
        ]))
        assert (json.dumps(fold.block(), sort_keys=True)
                == json.dumps(offline, sort_keys=True))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(_ROW, max_size=60), cut=st.integers(0, 60))
    def test_two_folds_answer_as_one_and_carry_on(self, rows, cut):
        """``left.block(right)`` is the offline block of both folds'
        records, whichever side asks, and mutates neither — the two
        running folds of a store reader stay usable."""
        left, right = _Fold(), _Fold()
        left.add(SegmentPartial.from_rows(rows[:cut]))
        right.add(SegmentPartial.from_rows(rows[cut:]))
        alone = [json.dumps(fold.block(), sort_keys=True)
                 for fold in (left, right)]
        offline = json.dumps(compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(row) for row in rows
        ])), sort_keys=True)
        assert json.dumps(left.block(right), sort_keys=True) == offline
        assert json.dumps(right.block(left), sort_keys=True) == offline
        assert alone == [json.dumps(fold.block(), sort_keys=True)
                         for fold in (left, right)]


class TestBatchedSegmentFoldProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(_ROW, max_size=60),
        sizes=st.lists(st.integers(1, 12), max_size=10),
    )
    def test_segments_fold_as_one_column_batch(self, rows, sizes):
        """Split records into segments of any size (each with its own
        category tables, ``None`` error codes and resolvers included),
        encode each, and concatenate their decoded columns: the batch
        is the columns of all the records, its fold the offline block
        byte for byte, and every segment's rows are what went in."""
        segments, at = [], 0
        for size in sizes + [len(rows)]:
            if at < len(rows):
                segments.append(rows[at:at + size])
                at += size
        blobs = [encode_segment(segment, (0, 0)) for segment in segments]
        decoded = [decode_columns(blob) for blob in blobs]
        for segment, blob, (columns, header) in zip(segments, blobs,
                                                    decoded):
            assert decode_rows(columns, header) == segment
            assert decode_segment(blob) == (segment, header)
        batch = failure_columns(iter(decoded))
        expected = _build_failures(rows, itemgetter)
        for name in expected.__dataclass_fields__:
            got, want = getattr(batch, name), getattr(expected, name)
            if isinstance(want, tuple):
                assert got == want, name
            else:
                assert got.dtype == want.dtype, name
                assert got.tolist() == want.tolist(), name
        fold = _Fold()
        fold.add(SegmentPartial.from_columns(batch))
        offline = compute_analysis_block(Dataset(failures=[
            FailureRecord.from_dict(row) for row in rows
        ]))
        assert (json.dumps(fold.block(), sort_keys=True)
                == json.dumps(offline, sort_keys=True))
