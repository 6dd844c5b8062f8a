"""The in-memory dataset and its gzip-JSONL persistence.

The backend of the study is, analytically speaking, three record streams
plus metadata; this module gives them a home.  Persistence uses one
gzip-compressed JSON-lines file with a type tag per line, mirroring the
compressed uploads of Sec. 2.2 at the container level.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.disk import DiskIO
from repro.dataset.records import (
    BaseStationRecord,
    DeviceRecord,
    FailureRecord,
    TransitionRecord,
)


@dataclass
class Dataset:
    """Everything a study run collected."""

    devices: list[DeviceRecord] = field(default_factory=list)
    base_stations: list[BaseStationRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    transitions: list[TransitionRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # -- convenience -------------------------------------------------------

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def failures_of_type(self, failure_type: str) -> list[FailureRecord]:
        return [f for f in self.failures
                if f.failure_type == failure_type]

    def devices_by_model(self) -> dict[int, list[DeviceRecord]]:
        grouped: dict[int, list[DeviceRecord]] = {}
        for device in self.devices:
            grouped.setdefault(device.model, []).append(device)
        return grouped

    def failures_by_device(self) -> dict[int, list[FailureRecord]]:
        grouped: dict[int, list[FailureRecord]] = {}
        for failure in self.failures:
            grouped.setdefault(failure.device_id, []).append(failure)
        return grouped

    def record_digest(self) -> str:
        """SHA-256 over every record's canonical JSON, in list order
        (metadata excluded) — the byte-identity check of sharded,
        resumed and swept runs, and what ``golden_digests.json`` pins."""
        hasher = hashlib.sha256()
        for group in (self.devices, self.base_stations,
                      self.failures, self.transitions):
            for record in group:
                hasher.update(
                    json.dumps(record.to_dict(), sort_keys=True).encode()
                )
        return hasher.hexdigest()

    def merge(self, other: "Dataset") -> "Dataset":
        """A new dataset containing both runs' records (A/B analysis).

        Base stations are deduplicated by id (both arms usually share
        one topology, but arms with disjoint inventories keep every
        station).  Each arm's full metadata survives under
        ``merged_from``, and the exact-merge blocks (``metrics``,
        ``analysis``) are re-merged to the top level so a merged
        dataset stays exportable like a single run.
        """
        seen_stations = {bs.bs_id for bs in self.base_stations}
        base_stations = self.base_stations + [
            bs for bs in other.base_stations
            if bs.bs_id not in seen_stations
        ]
        metadata: dict = {
            "merged_from": [self.metadata, other.metadata],
        }
        metrics = [arm.get("metrics") for arm in (self.metadata,
                                                  other.metadata)]
        metrics = [block for block in metrics if block]
        if metrics:
            from repro.obs import deterministic_view, merge_snapshots

            metadata["metrics"] = deterministic_view(
                merge_snapshots(metrics)
            )
        analysis = [arm.get("analysis") for arm in (self.metadata,
                                                    other.metadata)]
        analysis = [block for block in analysis if block]
        if analysis:
            from repro.analysis.columnar import merge_analysis_blocks

            metadata["analysis"] = merge_analysis_blocks(analysis)
        return Dataset(
            devices=self.devices + other.devices,
            base_stations=base_stations,
            failures=self.failures + other.failures,
            transitions=self.transitions + other.transitions,
            metadata=metadata,
        )

    # -- pickling ----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop the cached columnar view: it is rebuildable on demand
        and would otherwise bloat checkpoints and worker result pipes
        (see :mod:`repro.analysis.columnar`)."""
        state = dict(self.__dict__)
        state.pop("_columnar", None)
        return state


class DatasetCorruptError(RuntimeError):
    """A dataset file is unreadable (truncated or damaged container)."""


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write ``dataset`` as gzip JSON-lines to ``path``, atomically.

    The gzip stream goes into a temp file beside ``path``, renamed into
    place once complete and fsynced (:meth:`DiskIO.writing
    <repro.chaos.disk.DiskIO.writing>`): a crash or a full disk
    mid-save leaves any previous ``path`` intact, and the dataset is
    never held as one blob, which would double a run's peak memory.
    """
    with DiskIO().writing(path) as raw:
        # mtime=0 keeps the byte stream a pure function of the
        # dataset (reproducible artifacts digest-compare equal).
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            def emit(kind: str, data: dict) -> None:
                handle.write(
                    (json.dumps({"kind": kind, "data": data})
                     + "\n").encode("utf-8")
                )

            emit("metadata", dataset.metadata)
            for device in dataset.devices:
                emit("device", device.to_dict())
            for station in dataset.base_stations:
                emit("base_station", station.to_dict())
            for failure in dataset.failures:
                emit("failure", failure.to_dict())
            for transition in dataset.transitions:
                emit("transition", transition.to_dict())


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Records with an unknown ``kind`` tag (written by a newer schema)
    are skipped, not fatal; the skip count lands in
    ``metadata["skipped_records"]`` so the loss is visible.  A damaged
    container — truncated gzip, undecodable line — raises
    :class:`DatasetCorruptError` rather than a codec internal error.
    """
    dataset = Dataset()
    parsers = {
        "device": (dataset.devices, DeviceRecord.from_dict),
        "base_station": (dataset.base_stations,
                         BaseStationRecord.from_dict),
        "failure": (dataset.failures, FailureRecord.from_dict),
        "transition": (dataset.transitions, TransitionRecord.from_dict),
    }
    skipped = 0
    try:
        with gzip.open(Path(path), "rt", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                kind = entry["kind"]
                if kind == "metadata":
                    dataset.metadata = entry["data"]
                    continue
                if kind not in parsers:
                    skipped += 1
                    continue
                target, parser = parsers[kind]
                target.append(parser(entry["data"]))
    except FileNotFoundError:
        raise
    except (OSError, EOFError, gzip.BadGzipFile, json.JSONDecodeError,
            UnicodeDecodeError, KeyError, ValueError, TypeError) as exc:
        raise DatasetCorruptError(
            f"dataset file {path} is damaged: {exc}"
        ) from exc
    if skipped:
        dataset.metadata["skipped_records"] = skipped
    return dataset
