"""Backend ingestion of device uploads.

Devices ship zlib-compressed JSON records through
:class:`repro.monitoring.uploader.UploadBatcher`; this server is the
receiving end: decompress, parse, validate, deduplicate (uploads may be
retried after connectivity loss), and keep streaming aggregates per
failure type — the "compressed and uploaded to our backend server for
centralized analysis" sentence of Sec. 2.3, made concrete.

Hardening for lossy transports (see :mod:`repro.chaos`):

* malformed payloads land in a bounded **quarantine** instead of being
  silently counted away, so corrupted-in-transit uploads stay
  inspectable;
* an ``available`` flag simulates transient backend outages — while
  down, :meth:`IngestionServer.receive` raises
  :class:`ServiceUnavailable` and the device spooler keeps the payload;
* :meth:`IngestionServer.checkpoint` / :meth:`IngestionServer.restore`
  snapshot the full dedup + aggregate state, so a "crashed" server can
  resume and absorb the ensuing retry storm without double-counting.

With a :class:`repro.store.SegmentStore` attached
(:meth:`IngestionServer.attach_store`), accepted records go to the
durable store *before* they enter the dedup set — a crash between the
two re-runs an idempotent append, never drops an acked record — and
checkpoints shrink to the dedup keys the store does not already prove
(``seen`` minus ``store.known_keys()``) plus the store description.
After a scrub reports unrecoverable identities,
:meth:`IngestionServer.forget_keys` drops them from the dedup set so
devices can re-upload exactly those records.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

from repro.backend.streaming import P2Quantile, StreamingStats
from repro.dataset.records import FailureRecord, record_identity
from repro.obs import get_registry

#: Fields a record must carry to be accepted.
_REQUIRED_FIELDS = frozenset({
    "device_id", "failure_type", "start_time", "duration_s",
})

#: How many malformed payloads the quarantine retains for inspection.
QUARANTINE_CAPACITY = 256


class ServiceUnavailable(RuntimeError):
    """The backend is down; the upload was not received (no ack)."""


@dataclass
class IngestionServer:
    """Receives, validates, and aggregates device uploads."""

    #: In-memory records (legacy mode).  With a segment store attached
    #: this stays empty — the store owns the records.
    records: list[FailureRecord] = field(default_factory=list)
    #: Optional durable :class:`repro.store.SegmentStore`; attach with
    #: :meth:`attach_store`, never by assignment (the dedup set must
    #: absorb the store's known keys at the same moment).
    store: object | None = field(default=None, repr=False)
    accepted: int = 0
    duplicates: int = 0
    malformed: int = 0
    quarantined: int = 0
    #: Quarantine entries evicted once capacity was hit — forensic
    #: payloads lost to the bound, counted so the loss is explicit.
    quarantine_evicted: int = 0
    bytes_received: int = 0
    #: Whether the server answers at all (transient-outage simulation).
    available: bool = True
    #: Retained malformed payloads, oldest first, capped at
    #: :data:`QUARANTINE_CAPACITY` entries.
    quarantine: list[dict] = field(default_factory=list, repr=False)
    #: Per-failure-type duration statistics, streaming.
    duration_stats: dict[str, StreamingStats] = field(
        default_factory=dict
    )
    #: Streaming median of all failure durations.
    duration_median: P2Quantile = field(
        default_factory=lambda: P2Quantile(0.5)
    )
    _seen: set[str] = field(default_factory=set, repr=False)

    # -- the transport callable given to UploadBatcher -----------------------

    def receive(self, payload: bytes) -> None:
        """Accept one compressed upload (the UploadBatcher transport)."""
        self.receive_many([payload])

    def receive_many(self, payloads: list[bytes]) -> None:
        """Accept a batch of compressed uploads as one store commit.

        Each payload is decoded, validated and deduplicated on its
        own; the accepted records then go to the store in a single
        :meth:`~repro.store.SegmentStore.append_many`, and only once
        that is durable is any payload accounted (accepted, duplicate
        or quarantined).  A fault in the commit therefore leaves the
        server as it was, and the caller may retry the payloads in any
        grouping.
        """
        if not self.available:
            get_registry().inc("ingest_unavailable_total")
            raise ServiceUnavailable("ingestion backend is down")
        registry = get_registry()
        verdicts = []
        batch_keys: set[str] = set()
        for payload in payloads:
            self.bytes_received += len(payload)
            registry.inc("ingest_bytes_received_total", len(payload))
            try:
                data = json.loads(zlib.decompress(payload))
            except (zlib.error, json.JSONDecodeError, UnicodeDecodeError):
                verdicts.append(("undecodable", None, payload))
                continue
            verdicts.append(self._judge(data, batch_keys))
        self._settle(verdicts)

    def ingest_record(self, data: dict) -> None:
        """Validate and store one decoded record."""
        self._settle([self._judge(data, set())])

    def _judge(self, data, batch_keys: set[str]) -> tuple:
        """Classify one decoded record without touching any state but
        ``batch_keys``: ``(None, key, record)`` to accept it, else
        ``(reason, key, data)``."""
        if not isinstance(data, dict) or not (
            _REQUIRED_FIELDS <= set(data)
        ):
            return "missing-fields", None, data
        key = self._identity(data)
        if key in self._seen or key in batch_keys:
            return "duplicate", key, data
        try:
            record = FailureRecord.from_dict(data)
        except TypeError:
            return "schema-mismatch", None, data
        batch_keys.add(key)
        return None, key, record

    def _settle(self, verdicts: list[tuple]) -> None:
        """Commit the accepted records, then account every verdict."""
        accepted = [(key, record) for reason, key, record in verdicts
                    if reason is None]
        # With a store attached, durability comes first: the append
        # (WAL fsync) must succeed before a key enters the dedup set,
        # or a crash between the two would ack-then-drop.  The append
        # is idempotent, so the retry after a mid-append crash is safe
        # even when the WAL lines did land.
        if self.store is not None:
            self.store.append_many([(record.to_dict(), key)
                                    for key, record in accepted])
        else:
            self.records.extend(record for _key, record in accepted)
        registry = get_registry()
        for reason, key, subject in verdicts:
            if reason is None:
                # The dedup key is recorded only after a successful
                # parse: a malformed-but-complete record must not
                # poison the dedup set, or a corrected retry would be
                # miscounted as a duplicate.
                self._seen.add(key)
                self.accepted += 1
                registry.inc("ingest_accepted_total")
                stats = self.duration_stats.setdefault(
                    subject.failure_type, StreamingStats()
                )
                stats.add(subject.duration_s)
                self.duration_median.add(subject.duration_s)
            elif reason == "duplicate":
                self.duplicates += 1
                registry.inc("ingest_duplicates_total")
            elif reason == "undecodable":
                self._quarantine(reason, payload=subject)
            else:
                self._quarantine(reason, data=subject)

    # -- durable store --------------------------------------------------------

    def attach_store(self, store) -> None:
        """Make a :class:`~repro.store.SegmentStore` the record home.

        The store's known identities join the dedup set (replays of
        store-owned records dedup cleanly), and any in-memory records
        migrate into the store so there is exactly one owner.
        """
        self.store = store
        store.append_many([(record.to_dict(), None)
                           for record in self.records])
        self.records = []
        self._seen |= store.known_keys()

    def forget_keys(self, keys) -> int:
        """Drop identities from the dedup set (scrub ``lost_keys``).

        Returns how many were actually forgotten.  Devices retrying
        these records are accepted as new instead of miscounted as
        duplicates — the re-upload invitation after data loss.
        """
        dropped = self._seen & set(keys)
        self._seen -= dropped
        if dropped:
            get_registry().inc("ingest_keys_forgotten_total",
                               len(dropped))
        return len(dropped)

    # -- outage simulation ----------------------------------------------------

    def take_down(self) -> None:
        """Begin a transient outage; uploads raise until bring_up()."""
        self.available = False

    def bring_up(self) -> None:
        self.available = True

    # -- checkpoint / restore -------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-able snapshot of every ingest state that matters.

        The quarantine is diagnostic and deliberately not part of the
        snapshot; everything dedup or aggregation depends on is.  With
        a store attached the snapshot shrinks to the dedup keys the
        store cannot prove (its own keys are re-derived from the
        journal on restore) plus the store description — the
        checkpoint no longer grows with the record count.
        """
        seen = self._seen
        if self.store is not None:
            seen = seen - self.store.known_keys()
        snapshot = {
            "records": [record.to_dict() for record in self.records],
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "malformed": self.malformed,
            "quarantined": self.quarantined,
            "quarantine_evicted": self.quarantine_evicted,
            "bytes_received": self.bytes_received,
            "available": self.available,
            "seen": sorted(seen),
            "duration_stats": {
                failure_type: stats.to_dict()
                for failure_type, stats in self.duration_stats.items()
            },
            "duration_median": self.duration_median.to_dict(),
        }
        if self.store is not None:
            snapshot["store"] = self.store.describe()
        return snapshot

    @classmethod
    def restore(cls, snapshot: dict,
                store=None) -> "IngestionServer":
        """Rebuild a server from :meth:`checkpoint` output.

        Uploads that arrived after the snapshot are gone from state, but
        because the dedup set is part of it, devices may simply retry
        everything — replays of pre-snapshot records dedup cleanly.

        When the snapshot carries a store description (or ``store`` is
        passed), the segment store is reattached: its journal-proven
        identities rejoin the dedup set, so a WAL-fsynced record is
        never double-counted after a SIGKILL.
        """
        server = cls(
            records=[
                FailureRecord.from_dict(data)
                for data in snapshot["records"]
            ],
            accepted=int(snapshot["accepted"]),
            duplicates=int(snapshot["duplicates"]),
            malformed=int(snapshot["malformed"]),
            quarantined=int(snapshot.get("quarantined", 0)),
            quarantine_evicted=int(
                snapshot.get("quarantine_evicted", 0)
            ),
            bytes_received=int(snapshot["bytes_received"]),
            available=bool(snapshot.get("available", True)),
            duration_stats={
                failure_type: StreamingStats.from_dict(data)
                for failure_type, data
                in snapshot["duration_stats"].items()
            },
            duration_median=P2Quantile.from_dict(
                snapshot["duration_median"]
            ),
        )
        server._seen = set(snapshot["seen"])
        if store is None and "store" in snapshot:
            from repro.store import SegmentStore
            store = SegmentStore.from_description(snapshot["store"])
        if store is not None:
            server.attach_store(store)
        return server

    # -- queries -----------------------------------------------------------

    @property
    def accepted_keys(self) -> frozenset[str]:
        """Identities of every accepted record (for reconciliation)."""
        return frozenset(self._seen)

    def duration_share(self) -> dict[str, float]:
        """Per-type share of total failure duration (streaming)."""
        total = sum(s.total for s in self.duration_stats.values())
        if total == 0:
            return {}
        return {
            failure_type: stats.total / total
            for failure_type, stats in self.duration_stats.items()
        }

    def summary(self) -> dict[str, float]:
        return {
            "accepted": float(self.accepted),
            "duplicates": float(self.duplicates),
            "malformed": float(self.malformed),
            "quarantined": float(self.quarantined),
            "quarantine_evicted": float(self.quarantine_evicted),
            "bytes_received": float(self.bytes_received),
        }

    # -- internals -----------------------------------------------------------

    def _quarantine(
        self, reason: str, *, payload: bytes | None = None,
        data: dict | None = None,
    ) -> None:
        self.malformed += 1
        self.quarantined += 1
        get_registry().inc("ingest_quarantined_total", reason=reason)
        self.quarantine.append({
            "reason": reason, "payload": payload, "data": data,
        })
        # Bounded retention keeps the *newest* payloads: fresh
        # corruption is what an operator inspects first, and every
        # eviction is counted rather than silently discarded.
        while len(self.quarantine) > QUARANTINE_CAPACITY:
            self.quarantine.pop(0)
            self.quarantine_evicted += 1
            get_registry().inc("ingest_quarantine_evicted_total")

    @staticmethod
    def _identity(data: dict) -> str:
        """Content hash for retry deduplication."""
        return record_identity(data)
