"""Columnar dataset views and streaming analysis partials.

Two pieces that together let the analysis layer scale past walking
Python-object record lists:

**The columnar view.**  :func:`columnar` turns a
:class:`~repro.dataset.store.Dataset` into typed numpy column arrays —
one array per record field, with string fields encoded as integer
codes over a sorted category table.  The view is cached on the dataset
instance and fingerprinted by the record-list lengths, so repeated
analyses over the same dataset (a full ``NationwideStudy.analyze`` runs
a dozen of them) pay the record walk once.  Appending records
invalidates the cache automatically; mutating a record *in place* does
not — call :func:`invalidate_columnar` after in-place edits.  The cache
never travels through pickle (``Dataset.__getstate__`` drops it), so
checkpoints and worker result pipes stay record-sized.

**The analysis partial.**  :class:`AnalysisPartial` is the per-shard
streaming aggregate of the study-level statistics: failure counts by
type / signal level / ISP, exact duration histograms (integer bucket
counts and scaled-integer sums, the same discipline as
:mod:`repro.obs`), distinct-failing-device counts, and the
failures-per-device count-of-counts distribution.  Every field merges
commutatively and associatively with integer arithmetic, and shards
partition the device population, so the merge of per-shard partials is
*byte-identical* to the partial of the serial run — the parent process
can report study-level statistics without materializing a single
record.  The JSON-able form lands in ``Dataset.metadata["analysis"]``
on every run (serial and sharded alike).

Batches that *share* devices (the segment store's sealed segments and
WAL tail) fold through :class:`SegmentPartial`: the same partial plus
the per-device evidence that lets :class:`_Fold` re-derive the
distinct-device fields exactly.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import DURATION_BUCKETS_S, SUM_SCALE

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataset.store import Dataset

#: ``resolved_by`` code for "no resolver recorded" (``None`` in the
#: record).  Distinct from every real resolver id (AUTO_RECOVERED=0,
#: USER_RESET=-1, UNRESOLVED=-2, stages 1-3).
RESOLVED_BY_NONE = -(1 << 30)

#: Signal levels span 0..5 everywhere in the reproduction.
N_SIGNAL_LEVELS = 6


class AnalysisMergeError(RuntimeError):
    """Analysis partials with incompatible shapes cannot be merged."""


def _encode(values: list) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes over the sorted category table of ``values``."""
    if not values:
        return np.zeros(0, dtype=np.int64), ()
    cats = sorted(set(values))
    lookup = {cat: code for code, cat in enumerate(cats)}
    codes = np.fromiter(map(lookup.__getitem__, values), np.int64,
                        len(values))
    return codes, tuple(cats)


def _rows(records: list, getter, *fields: str) -> np.ndarray:
    """``(len(records), len(fields))`` float matrix of numeric fields.

    One C-level pass (``map`` over a multi-field ``getter`` —
    ``attrgetter`` for record objects, ``itemgetter`` for dict rows)
    instead of one list comprehension per column — the difference
    between an O(fields) and an O(1) number of Python-loop walks over
    the record list.
    """
    n = len(records)
    flat = np.fromiter(
        chain.from_iterable(map(getter(*fields), records)),
        np.float64, n * len(fields),
    )
    return flat.reshape(n, len(fields))


@dataclass(frozen=True)
class FailureColumns:
    """Typed column arrays over ``dataset.failures``."""

    device_id: np.ndarray
    model: np.ndarray
    has_5g: np.ndarray
    duration_s: np.ndarray
    bs_id: np.ndarray
    signal_level: np.ndarray
    stages_executed: np.ndarray
    #: Resolver ids with ``None`` encoded as :data:`RESOLVED_BY_NONE`.
    resolved_by: np.ndarray
    failure_type_codes: np.ndarray
    failure_types: tuple[str, ...]
    isp_codes: np.ndarray
    isps: tuple[str, ...]
    rat_codes: np.ndarray
    rats: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.device_id)

    def type_code(self, failure_type: str) -> int | None:
        """The category code of ``failure_type``, or None if absent."""
        try:
            return self.failure_types.index(failure_type)
        except ValueError:
            return None

    def type_mask(self, failure_type: str) -> np.ndarray:
        code = self.type_code(failure_type)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self.failure_type_codes == code


@dataclass(frozen=True)
class DeviceColumns:
    """Typed column arrays over ``dataset.devices``.

    Exposure dictionaries are flattened into parallel ``exp_*`` arrays
    (one row per ``(device, rat, level)`` entry, in device order) so
    exposure totals reduce to weighted bincounts.
    """

    device_id: np.ndarray
    model: np.ndarray
    has_5g: np.ndarray
    isp_codes: np.ndarray
    isps: tuple[str, ...]
    android_codes: np.ndarray
    android_versions: tuple[str, ...]
    exp_rat_codes: np.ndarray
    exp_rats: tuple[str, ...]
    exp_level: np.ndarray
    exp_seconds: np.ndarray

    def __len__(self) -> int:
        return len(self.device_id)


@dataclass(frozen=True)
class TransitionColumns:
    """Typed column arrays over ``dataset.transitions``."""

    device_id: np.ndarray
    from_rat_codes: np.ndarray
    from_rats: tuple[str, ...]
    from_level: np.ndarray
    to_rat_codes: np.ndarray
    to_rats: tuple[str, ...]
    to_level: np.ndarray
    executed: np.ndarray
    failed_after: np.ndarray

    def __len__(self) -> int:
        return len(self.device_id)


@dataclass(frozen=True)
class ColumnarView:
    """The cached columnar face of one dataset."""

    fingerprint: tuple[int, int, int, int]
    devices: DeviceColumns
    failures: FailureColumns
    transitions: TransitionColumns

    @staticmethod
    def build(dataset: "Dataset",
              fingerprint: tuple[int, int, int, int]) -> "ColumnarView":
        # The attrgetter sweeps allocate large temporary lists that trip
        # the generational collector several times per build; nothing
        # built here can form a reference cycle, so pause collection.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return ColumnarView(
                fingerprint=fingerprint,
                devices=_build_devices(dataset.devices),
                failures=_build_failures(dataset.failures),
                transitions=_build_transitions(dataset.transitions),
            )
        finally:
            if gc_was_enabled:
                gc.enable()


def _build_failures(failures: list, getter=attrgetter) -> FailureColumns:
    """Failure columns of ``FailureRecord`` objects, or — with
    ``getter=itemgetter`` — of their ``to_dict()`` rows (what the
    segment store holds), without building the objects."""
    type_codes, types = _encode(
        list(map(getter("failure_type"), failures))
    )
    isp_codes, isps = _encode(list(map(getter("isp"), failures)))
    rat_codes, rats = _encode(list(map(getter("rat"), failures)))
    numeric = _rows(failures, getter, "device_id", "model", "has_5g",
                    "duration_s", "bs_id", "signal_level",
                    "stages_executed")
    resolved = list(map(getter("resolved_by"), failures))
    resolved_by = np.fromiter(
        (RESOLVED_BY_NONE if r is None else r for r in resolved),
        np.int64, len(failures),
    )
    return FailureColumns(
        device_id=numeric[:, 0].astype(np.int64),
        model=numeric[:, 1].astype(np.int64),
        has_5g=numeric[:, 2].astype(bool),
        duration_s=numeric[:, 3].copy(),
        bs_id=numeric[:, 4].astype(np.int64),
        signal_level=numeric[:, 5].astype(np.int64),
        stages_executed=numeric[:, 6].astype(np.int64),
        resolved_by=resolved_by,
        failure_type_codes=type_codes,
        failure_types=types,
        isp_codes=isp_codes,
        isps=isps,
        rat_codes=rat_codes,
        rats=rats,
    )


def _build_devices(devices: list) -> DeviceColumns:
    isp_codes, isps = _encode(list(map(attrgetter("isp"), devices)))
    android_codes, versions = _encode(
        list(map(attrgetter("android_version"), devices))
    )
    exposure = [
        (rat, level, seconds)
        for device in devices
        for (rat, level), seconds in device.exposure_s.items()
    ]
    exp_rat_codes, exp_rats = _encode([row[0] for row in exposure])
    numeric = _rows(devices, attrgetter, "device_id", "model", "has_5g")
    return DeviceColumns(
        device_id=numeric[:, 0].astype(np.int64),
        model=numeric[:, 1].astype(np.int64),
        has_5g=numeric[:, 2].astype(bool),
        isp_codes=isp_codes,
        isps=isps,
        android_codes=android_codes,
        android_versions=versions,
        exp_rat_codes=exp_rat_codes,
        exp_rats=exp_rats,
        exp_level=np.fromiter((row[1] for row in exposure), np.int64,
                              len(exposure)),
        exp_seconds=np.fromiter((row[2] for row in exposure),
                                np.float64, len(exposure)),
    )


def _build_transitions(transitions: list) -> TransitionColumns:
    from_codes, from_rats = _encode(
        list(map(attrgetter("from_rat"), transitions))
    )
    to_codes, to_rats = _encode(
        list(map(attrgetter("to_rat"), transitions))
    )
    numeric = _rows(transitions, attrgetter, "device_id", "from_level",
                    "to_level", "executed", "failed_after")
    return TransitionColumns(
        device_id=numeric[:, 0].astype(np.int64),
        from_rat_codes=from_codes,
        from_rats=from_rats,
        from_level=numeric[:, 1].astype(np.int64),
        to_rat_codes=to_codes,
        to_rats=to_rats,
        to_level=numeric[:, 2].astype(np.int64),
        executed=numeric[:, 3].astype(bool),
        failed_after=numeric[:, 4].astype(bool),
    )


_CACHE_ATTR = "_columnar"


def columnar(dataset: "Dataset") -> ColumnarView:
    """The columnar view of ``dataset``, built once and cached.

    The cache key is the tuple of record-list lengths, so appending
    records (the only mutation the record pipeline performs) rebuilds
    the view on next access.  In-place edits of existing records are
    invisible to the fingerprint — call :func:`invalidate_columnar`
    after those.
    """
    fingerprint = (len(dataset.devices), len(dataset.base_stations),
                   len(dataset.failures), len(dataset.transitions))
    cached = dataset.__dict__.get(_CACHE_ATTR)
    if cached is not None and cached.fingerprint == fingerprint:
        return cached
    view = ColumnarView.build(dataset, fingerprint)
    dataset.__dict__[_CACHE_ATTR] = view
    return view


def invalidate_columnar(dataset: "Dataset") -> None:
    """Drop the cached view (needed after in-place record edits)."""
    dataset.__dict__.pop(_CACHE_ATTR, None)


def distinct_pair_counts(codes: np.ndarray, ids: np.ndarray,
                         n_codes: int) -> np.ndarray:
    """Distinct ``id`` count per code over parallel (code, id) arrays.

    The vectorized form of "how many distinct devices/BSes appear under
    each group" — packs each pair into one integer key, uniques, and
    bincounts the surviving codes.  ``ids`` must be non-negative.
    """
    if len(codes) == 0:
        return np.zeros(n_codes, dtype=np.int64)
    span = int(ids.max()) + 1
    keys = codes.astype(np.int64) * span + ids
    unique = np.unique(keys)
    return np.bincount(unique // span, minlength=n_codes)


# ---------------------------------------------------------------------------
# Streaming analysis partials
# ---------------------------------------------------------------------------


def _duration_bounds() -> list[float]:
    return [float(b) for b in DURATION_BUCKETS_S]


def _empty_hist() -> dict:
    return {
        "bounds": _duration_bounds(),
        "counts": [0] * (len(DURATION_BUCKETS_S) + 1),
        "count": 0,
        "sum_scaled": 0,
    }


def _hist_of(values: np.ndarray) -> dict:
    """Exact histogram of ``values`` over the duration buckets.

    Bucket ``i`` covers ``bounds[i-1] < v <= bounds[i]`` (the final
    slot is +Inf), and the value sum accumulates in scaled integers —
    both choices mirror :class:`repro.obs` histograms so per-shard
    merges are exact regardless of order.
    """
    hist = _empty_hist()
    if values.size == 0:
        return hist
    bounds = np.asarray(hist["bounds"])
    idx = np.searchsorted(bounds, values, side="left")
    counts = np.bincount(idx, minlength=len(bounds) + 1)
    hist["counts"] = [int(c) for c in counts]
    hist["count"] = int(values.size)
    hist["sum_scaled"] = int(
        np.rint(values * SUM_SCALE).astype(np.int64).sum()
    )
    return hist


def _merge_hists(a: dict, b: dict) -> dict:
    if list(a["bounds"]) != list(b["bounds"]):
        raise AnalysisMergeError(
            "duration histogram bucket bounds differ across partials"
        )
    return {
        "bounds": list(a["bounds"]),
        "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
        "count": a["count"] + b["count"],
        "sum_scaled": a["sum_scaled"] + b["sum_scaled"],
    }


def _sum_dicts(a: dict, b: dict) -> dict:
    merged = dict(a)
    for key, value in b.items():
        merged[key] = merged.get(key, 0) + value
    return {key: merged[key] for key in sorted(merged)}


@dataclass
class AnalysisPartial:
    """Mergeable study-level aggregate of one dataset (or shard).

    Every field is either an integer count, a max, or a dict/histogram
    of integer counts, and shards partition the device population —
    so :meth:`merge` is commutative, associative, and *exact*: the
    merge of per-shard partials equals the serial run's partial,
    byte for byte in JSON form.
    """

    n_devices: int = 0
    n_failures: int = 0
    n_transitions: int = 0
    #: Distinct devices with >= 1 failure (shards are device-disjoint,
    #: so per-shard distinct counts sum exactly).
    failing_devices: int = 0
    #: Distinct devices with >= 1 OUT_OF_SERVICE failure.
    oos_devices: int = 0
    transitions_executed: int = 0
    transitions_failed_after: int = 0
    max_failures_single_device: int = 0
    failures_by_type: dict = field(default_factory=dict)
    #: Keys "0".."5", always all present.
    failures_by_level: dict = field(default_factory=dict)
    failures_by_isp: dict = field(default_factory=dict)
    failing_devices_by_isp: dict = field(default_factory=dict)
    #: Count-of-counts: ``{"k": number of devices with exactly k
    #: failures}`` for k >= 1 (zero-failure devices are implied by
    #: ``n_devices - failing_devices``).  This is the scalable form of
    #: per-device failure counts: it merges exactly and reconstructs
    #: prevalence, frequency, the max, and the Fig. 3 distribution.
    failures_per_device: dict = field(default_factory=dict)
    duration_hist: dict = field(default_factory=_empty_hist)
    duration_hist_by_type: dict = field(default_factory=dict)

    @classmethod
    def from_dataset(cls, dataset: "Dataset") -> "AnalysisPartial":
        """Compute the partial from a dataset's records (columnar)."""
        view = columnar(dataset)
        return cls.from_columns(view.failures, view.transitions,
                                len(view.devices))

    @classmethod
    def from_columns(cls, failures: FailureColumns,
                     transitions: TransitionColumns | None = None,
                     n_devices: int = 0) -> "AnalysisPartial":
        """Compute the partial from column arrays — the one place the
        study statistics are computed."""
        f = failures
        t = transitions if transitions is not None else ()

        failing_ids, per_device = np.unique(f.device_id,
                                            return_counts=True)
        count_values, count_freq = (
            np.unique(per_device, return_counts=True)
            if per_device.size else (np.array([], dtype=np.int64),) * 2
        )
        type_counts = np.bincount(f.failure_type_codes,
                                  minlength=len(f.failure_types))
        level_counts = np.bincount(f.signal_level,
                                   minlength=N_SIGNAL_LEVELS)
        isp_counts = np.bincount(f.isp_codes, minlength=len(f.isps))
        failing_by_isp = distinct_pair_counts(
            f.isp_codes, f.device_id, len(f.isps)
        )
        oos_mask = f.type_mask("OUT_OF_SERVICE")
        hist_by_type = {
            ftype: _hist_of(f.duration_s[f.failure_type_codes == code])
            for code, ftype in enumerate(f.failure_types)
        }
        executed = int(t.executed.sum()) if len(t) else 0
        failed_after = (
            int((t.executed & t.failed_after).sum()) if len(t) else 0
        )
        return cls(
            n_devices=n_devices,
            n_failures=len(f),
            n_transitions=len(t),
            failing_devices=int(failing_ids.size),
            oos_devices=int(np.unique(f.device_id[oos_mask]).size),
            transitions_executed=executed,
            transitions_failed_after=failed_after,
            max_failures_single_device=(
                int(per_device.max()) if per_device.size else 0
            ),
            failures_by_type={
                ftype: int(count)
                for ftype, count in zip(f.failure_types, type_counts)
            },
            failures_by_level={
                str(level): int(count)
                for level, count in enumerate(level_counts)
            },
            failures_by_isp={
                isp: int(count)
                for isp, count in zip(f.isps, isp_counts)
            },
            failing_devices_by_isp={
                isp: int(count)
                for isp, count in zip(f.isps, failing_by_isp)
            },
            failures_per_device={
                str(int(k)): int(n)
                for k, n in zip(count_values, count_freq)
            },
            duration_hist=_hist_of(f.duration_s),
            duration_hist_by_type=hist_by_type,
        )

    @classmethod
    def from_block(cls, block: dict) -> "AnalysisPartial":
        """Rehydrate from the JSON-able ``metadata["analysis"]`` form."""
        return cls(**{key: block[key] for key in _BLOCK_FIELDS})

    def merge(self, other: "AnalysisPartial") -> "AnalysisPartial":
        """The exact commutative merge of two partials."""
        hist_types = sorted(
            set(self.duration_hist_by_type) | set(other.duration_hist_by_type)
        )
        merged_type_hists = {}
        for ftype in hist_types:
            a = self.duration_hist_by_type.get(ftype)
            b = other.duration_hist_by_type.get(ftype)
            if a is None:
                merged_type_hists[ftype] = _merge_hists(_empty_hist(), b)
            elif b is None:
                merged_type_hists[ftype] = _merge_hists(a, _empty_hist())
            else:
                merged_type_hists[ftype] = _merge_hists(a, b)
        return AnalysisPartial(
            n_devices=self.n_devices + other.n_devices,
            n_failures=self.n_failures + other.n_failures,
            n_transitions=self.n_transitions + other.n_transitions,
            failing_devices=self.failing_devices + other.failing_devices,
            oos_devices=self.oos_devices + other.oos_devices,
            transitions_executed=(
                self.transitions_executed + other.transitions_executed
            ),
            transitions_failed_after=(
                self.transitions_failed_after
                + other.transitions_failed_after
            ),
            max_failures_single_device=max(
                self.max_failures_single_device,
                other.max_failures_single_device,
            ),
            failures_by_type=_sum_dicts(self.failures_by_type,
                                        other.failures_by_type),
            failures_by_level=_sum_dicts(self.failures_by_level,
                                         other.failures_by_level),
            failures_by_isp=_sum_dicts(self.failures_by_isp,
                                       other.failures_by_isp),
            failing_devices_by_isp=_sum_dicts(
                self.failing_devices_by_isp,
                other.failing_devices_by_isp,
            ),
            failures_per_device=_sum_dicts(self.failures_per_device,
                                           other.failures_per_device),
            duration_hist=_merge_hists(self.duration_hist,
                                       other.duration_hist),
            duration_hist_by_type=merged_type_hists,
        )

    def to_block(self) -> dict:
        """The JSON-able, deterministically ordered metadata block."""
        return {
            "duration_hist": dict(self.duration_hist),
            "duration_hist_by_type": {
                ftype: dict(self.duration_hist_by_type[ftype])
                for ftype in sorted(self.duration_hist_by_type)
            },
            "failing_devices": self.failing_devices,
            "failing_devices_by_isp": {
                k: self.failing_devices_by_isp[k]
                for k in sorted(self.failing_devices_by_isp)
            },
            "failures_by_isp": {
                k: self.failures_by_isp[k]
                for k in sorted(self.failures_by_isp)
            },
            "failures_by_level": {
                k: self.failures_by_level[k]
                for k in sorted(self.failures_by_level)
            },
            "failures_by_type": {
                k: self.failures_by_type[k]
                for k in sorted(self.failures_by_type)
            },
            "failures_per_device": {
                k: self.failures_per_device[k]
                for k in sorted(self.failures_per_device, key=int)
            },
            "max_failures_single_device": self.max_failures_single_device,
            "n_devices": self.n_devices,
            "n_failures": self.n_failures,
            "n_transitions": self.n_transitions,
            "oos_devices": self.oos_devices,
            "transitions_executed": self.transitions_executed,
            "transitions_failed_after": self.transitions_failed_after,
        }


_BLOCK_FIELDS = (
    "n_devices", "n_failures", "n_transitions", "failing_devices",
    "oos_devices", "transitions_executed", "transitions_failed_after",
    "max_failures_single_device", "failures_by_type",
    "failures_by_level", "failures_by_isp", "failing_devices_by_isp",
    "failures_per_device", "duration_hist", "duration_hist_by_type",
)


@dataclass(frozen=True)
class SegmentPartial:
    """One record batch reduced to exactly-mergeable evidence.

    ``partial`` holds the fields that sum exactly across *any* record
    partition (counts, count dicts, integer histograms).  The three
    evidence maps carry what the distinct-device fields need when the
    same device appears in several batches: :class:`_Fold` unions them
    and re-derives ``failing_devices`` / ``oos_devices`` /
    ``max_failures_single_device`` / ``failures_per_device`` /
    ``failing_devices_by_isp`` — making the whole fold exact without
    requiring device-disjoint batches.  The maps are O(devices), which
    is why they ride beside the partial instead of inside it: the
    blocks persisted in shard checkpoints and ``metadata["analysis"]``
    stay O(1) and merge device-disjoint.
    """

    partial: AnalysisPartial
    #: device_id -> number of failures in this batch.
    device_failures: dict
    #: device_ids with >= 1 OUT_OF_SERVICE failure in this batch.
    oos_devices: frozenset
    #: isp -> frozenset of device_ids with >= 1 failure on that ISP.
    isp_devices: dict

    @classmethod
    def from_rows(cls, rows: list) -> "SegmentPartial":
        """Reduce store rows (record dicts) to a partial."""
        return cls.from_columns(_build_failures(rows, itemgetter))

    @classmethod
    def from_columns(cls, f: FailureColumns) -> "SegmentPartial":
        """Reduce failure columns (any number of segments' worth) to
        one partial."""
        devices, counts = np.unique(f.device_id, return_counts=True)
        return cls(
            partial=AnalysisPartial.from_columns(f),
            device_failures=dict(zip(devices.tolist(), counts.tolist())),
            oos_devices=frozenset(
                f.device_id[f.type_mask("OUT_OF_SERVICE")].tolist()
            ),
            isp_devices={
                isp: frozenset(f.device_id[f.isp_codes == code].tolist())
                for code, isp in enumerate(f.isps)
            },
        )


class _Fold:
    """Accumulates :class:`SegmentPartial` batches into one block."""

    def __init__(self) -> None:
        self.partial = AnalysisPartial.from_columns(_build_failures([]))
        self.device_failures: dict = {}
        self.oos: set = set()
        self.isp_devices: dict = {}

    def add(self, batch: SegmentPartial) -> None:
        self.partial = self.partial.merge(batch.partial)
        for device, count in batch.device_failures.items():
            self.device_failures[device] = (
                self.device_failures.get(device, 0) + count
            )
        self.oos |= batch.oos_devices
        for isp, devices in batch.isp_devices.items():
            self.isp_devices.setdefault(isp, set()).update(devices)

    def block(self, other: "_Fold | None" = None) -> dict:
        """The exact analysis block of everything added so far — and,
        given ``other``, of everything added to either fold.  Neither
        is mutated, so two running folds (a store reader's sealed and
        tail sides) answer as one and both carry on afterwards."""
        partial = self.partial
        per_device = self.device_failures
        oos = self.oos
        isp_devices = self.isp_devices
        if other is not None:
            partial = partial.merge(other.partial)
            # Copy the larger map at C speed, walk only the smaller.
            small, large = per_device, other.device_failures
            if len(small) > len(large):
                small, large = large, small
            per_device = dict(large)
            for device, count in small.items():
                per_device[device] = per_device.get(device, 0) + count
            oos = oos | other.oos
            isp_devices = {
                isp: isp_devices.get(isp, frozenset())
                | other.isp_devices.get(isp, frozenset())
                for isp in isp_devices.keys() | other.isp_devices.keys()
            }
        corrected = replace(
            partial,
            failing_devices=len(per_device),
            oos_devices=len(oos),
            max_failures_single_device=max(per_device.values(),
                                           default=0),
            failures_per_device=dict(
                Counter(map(str, per_device.values()))
            ),
            failing_devices_by_isp={
                isp: len(devices)
                for isp, devices in isp_devices.items()
            },
        )
        return corrected.to_block()


def compute_analysis_block(dataset: "Dataset") -> dict:
    """The ``metadata["analysis"]`` block of one dataset (or shard)."""
    return AnalysisPartial.from_dataset(dataset).to_block()


def merge_analysis_blocks(blocks: list[dict]) -> dict:
    """Fold per-shard analysis blocks into the run-level block.

    Commutative and exact: when the blocks cover disjoint device
    populations (shards always do), the result is byte-identical (in
    sorted JSON form) to :func:`compute_analysis_block` over the merged
    records.  For overlapping populations (the two arms of an A/B run)
    the distinct-device counters sum per block instead.
    """
    if not blocks:
        raise ValueError("nothing to merge")
    merged = AnalysisPartial.from_block(blocks[0])
    for block in blocks[1:]:
        merged = merged.merge(AnalysisPartial.from_block(block))
    return merged.to_block()


def analysis_summary(block: dict) -> dict:
    """Derived headline statistics of an analysis block.

    Pure arithmetic over the exact integer aggregates — the same
    numbers :func:`repro.analysis.stats.compute_general_stats` reports,
    available without any records in memory.
    """
    n_devices = block["n_devices"]
    n_failures = block["n_failures"]
    hist = block["duration_hist"]
    executed = block["transitions_executed"]
    return {
        "prevalence": (
            block["failing_devices"] / n_devices if n_devices else 0.0
        ),
        "frequency": n_failures / n_devices if n_devices else 0.0,
        "mean_duration_s": (
            hist["sum_scaled"] / SUM_SCALE / hist["count"]
            if hist["count"] else 0.0
        ),
        "total_duration_s": hist["sum_scaled"] / SUM_SCALE,
        "max_failures_single_device": block["max_failures_single_device"],
        "fraction_devices_without_oos": (
            1.0 - block["oos_devices"] / n_devices if n_devices else 1.0
        ),
        "transition_failure_rate": (
            block["transitions_failed_after"] / executed
            if executed else 0.0
        ),
        "count_share_by_type": {
            ftype: count / n_failures
            for ftype, count in sorted(block["failures_by_type"].items())
        } if n_failures else {},
    }
