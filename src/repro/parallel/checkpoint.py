"""Durable per-shard checkpoints for resumable runs.

A killed run should not cost the shards it already finished.  The
engine streams every completed ``ShardResult`` into a
:class:`CheckpointStore`; a later run pointed at the same directory
with ``resume=True`` reloads the completed shards and simulates only
the rest — producing a dataset byte-identical to an uninterrupted run,
because shard results are self-contained and merge order is fixed by
shard index.

Layout of a checkpoint directory::

    <dir>/manifest.json          completion tracker (atomic rewrite)
    <dir>/shards/shard-00003.pkl one artifact per completed shard
    <dir>/quarantine/...         artifacts that failed verification

Every artifact is written atomically
(:meth:`repro.chaos.disk.DiskIO.write_atomic`: temp file + fsync +
rename) and carries a header with a SHA-256 over its pickle payload;
the manifest records the same digest.  On resume, an artifact whose
digest, pickle,
or device coverage does not check out is **quarantined** — moved aside
and dropped from the manifest — and its shard is simply re-run; a
truncated or bit-flipped file can cost recomputation, never
correctness.

The manifest also records a **scenario fingerprint** — a SHA-256 over
the canonical JSON of the scenario config, the shard partition, and the
format version.  Resuming against a directory whose fingerprint does
not match the requested run raises :class:`CheckpointMismatchError`:
mixing shards of different scenarios (or different partitions of the
same scenario) would silently break the byte-identity guarantee.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
from pathlib import Path

from repro.chaos.disk import DiskIO
from repro.parallel.sharding import ShardSpec
from repro.parallel.supervisor import (
    ShardResultInvalid,
    validate_shard_result,
)

#: Bumped when the artifact or manifest layout changes incompatibly.
FORMAT_VERSION = 1

_MAGIC = b"repro-shard-checkpoint"
_MANIFEST = "manifest.json"


class CheckpointError(RuntimeError):
    """A checkpoint directory could not be used."""


class CheckpointMismatchError(CheckpointError):
    """Resume refused: the store belongs to a different scenario."""


def scenario_fingerprint(config, n_shards: int) -> str:
    """Identity of one (scenario, partition) pair, stable across runs.

    Built from the canonical JSON of the full ``ScenarioConfig``
    (topology and chaos blocks included), the shard count, and the
    checkpoint format version — everything that determines what a
    shard artifact contains.
    """
    payload = {
        "format": FORMAT_VERSION,
        "n_shards": n_shards,
        "scenario": dataclasses.asdict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CheckpointStore:
    """One run's durable shard spool under ``root``."""

    def __init__(self, root: str | Path, fingerprint: str,
                 n_shards: int, io: DiskIO | None = None) -> None:
        self.root = Path(root)
        #: Test seam: a :class:`~repro.chaos.disk.DiskChaos` here puts
        #: shard artifacts and the manifest under disk-fault injection.
        self.io = io if io is not None else DiskIO()
        self.fingerprint = fingerprint
        self.n_shards = n_shards
        self.quarantined: list[dict] = []
        self._manifest_shards: dict[str, dict] = {}

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def artifact_path(self, index: int) -> Path:
        return self.shards_dir / f"shard-{index:05d}.pkl"

    # -- lifecycle -----------------------------------------------------------

    def initialize(self, *, resume: bool,
                   specs: list[ShardSpec]) -> dict[int, object]:
        """Prepare the store; returns the shard results carried over.

        With ``resume=False`` any previous contents are forgotten (the
        manifest is reset; stale artifacts get overwritten as shards
        complete).  With ``resume=True`` the manifest is read, its
        fingerprint checked against this run's, and every completed
        artifact loaded and verified; damaged artifacts are quarantined
        and their shards returned to the pending set.
        """
        loaded: dict[int, object] = {}
        if resume:
            manifest = self._read_manifest()
            if manifest is not None:
                recorded = manifest.get("fingerprint")
                if recorded != self.fingerprint:
                    raise CheckpointMismatchError(
                        f"checkpoint directory {self.root} belongs to a "
                        f"different scenario/partition (stored "
                        f"fingerprint {str(recorded)[:12]}…, this run "
                        f"is {self.fingerprint[:12]}…); refusing to "
                        "resume"
                    )
                by_index = {spec.index: spec for spec in specs}
                for key, entry in manifest.get("shards", {}).items():
                    index = int(key)
                    spec = by_index.get(index)
                    if spec is None:
                        self._quarantine(index, "unknown shard index")
                        continue
                    result = self._load_artifact(index, spec, entry)
                    if result is not None:
                        loaded[index] = result
                        self._manifest_shards[str(index)] = entry
        self._write_manifest()
        return loaded

    def save(self, result) -> None:
        """Atomically persist one completed shard and update the manifest."""
        index = result.spec.index
        payload = pickle.dumps(result,
                               protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        header = b"%s v%d %s\n" % (_MAGIC, FORMAT_VERSION,
                                   digest.encode("ascii"))
        self.io.write_atomic(self.artifact_path(index), header + payload)
        self._manifest_shards[str(index)] = {
            "file": self.artifact_path(index).name,
            "sha256": digest,
            "n_devices": result.spec.n_devices,
        }
        self._write_manifest()

    # -- internals -----------------------------------------------------------

    def _read_manifest(self) -> dict | None:
        try:
            raw = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(
                f"cannot read manifest {self.manifest_path}: {exc}"
            ) from exc
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointError(
                f"manifest {self.manifest_path} is not valid JSON "
                f"({exc}); delete the directory to start over"
            ) from exc
        if manifest.get("format") != FORMAT_VERSION:
            raise CheckpointMismatchError(
                f"checkpoint format {manifest.get('format')!r} is not "
                f"supported (this build writes v{FORMAT_VERSION})"
            )
        return manifest

    def _write_manifest(self) -> None:
        manifest = {
            "format": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
            "shards": dict(sorted(self._manifest_shards.items(),
                                  key=lambda item: int(item[0]))),
        }
        self.io.write_atomic(
            self.manifest_path,
            json.dumps(manifest, indent=2).encode("utf-8"),
        )

    def _load_artifact(self, index: int, spec: ShardSpec,
                       entry: dict):
        """One verified ShardResult, or None after quarantining."""
        path = self.artifact_path(index)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._quarantine(index, "artifact missing")
            return None
        except OSError as exc:
            self._quarantine(index, f"unreadable: {exc}")
            return None
        newline = blob.find(b"\n")
        header = blob[:newline].split() if newline >= 0 else []
        if (newline < 0 or len(header) != 3 or header[0] != _MAGIC
                or header[1] != b"v%d" % FORMAT_VERSION):
            self._quarantine(index, "bad artifact header")
            return None
        payload = blob[newline + 1:]
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header[2].decode("ascii", "replace"):
            self._quarantine(index, "payload digest mismatch "
                                    "(truncated or corrupted)")
            return None
        if digest != entry.get("sha256"):
            self._quarantine(index, "artifact does not match manifest")
            return None
        try:
            result = pickle.loads(payload)
        except Exception as exc:  # corrupt pickle: any error shape
            self._quarantine(index, f"unpicklable payload "
                                    f"({type(exc).__name__}: {exc})")
            return None
        try:
            validate_shard_result(spec, result)
        except ShardResultInvalid as exc:
            self._quarantine(index, f"invalid shard content: {exc}")
            return None
        return result

    def _quarantine(self, index: int, reason: str) -> None:
        moved = self.io.move(self.artifact_path(index),
                             self.quarantine_dir)
        self.quarantined.append({
            "shard": index,
            "reason": reason,
            "moved_to": str(moved) if moved else None,
        })
