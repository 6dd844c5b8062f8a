"""Backend ingestion of device uploads.

Devices ship zlib-compressed JSON records through
:class:`repro.monitoring.uploader.UploadBatcher`; this server is the
receiving end: decompress, parse, validate, deduplicate (uploads may be
retried after connectivity loss), and count what it did — the
"compressed and uploaded to our backend server for centralized
analysis" sentence of Sec. 2.3, made concrete.  The analysis itself is
the query plane's (:mod:`repro.serve.query`), folded exactly from the
records the server keeps.

Hardening for lossy transports (see :mod:`repro.chaos`):

* malformed payloads land in a bounded **quarantine** instead of being
  silently counted away, so corrupted-in-transit uploads stay
  inspectable;
* an ``available`` flag simulates transient backend outages — while
  down, :meth:`IngestionServer.receive` raises
  :class:`ServiceUnavailable` and the device spooler keeps the payload;
* :meth:`IngestionServer.checkpoint` / :meth:`IngestionServer.restore`
  snapshot the dedup state and the counters, so a "crashed" server can
  resume and absorb the ensuing retry storm without double-counting.

With a :class:`repro.store.SegmentStore` attached
(:meth:`IngestionServer.attach_store`) the store is the one owner of
record identity: a record is a duplicate when the store owns its key
(``key in store``), and accepted records go to its WAL only.  The
server's own dedup set keeps just the residue no store proves (keys a
restored checkpoint carried), and a key a scrub loses leaves the store,
so its re-upload is accepted as new.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from itertools import chain

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
    """Receives, validates, deduplicates and counts device uploads."""

    #: In-memory records (legacy mode).  With a segment store attached
    #: this stays empty — the store owns the records.
    records: list[FailureRecord] = field(default_factory=list)
    #: Optional durable :class:`repro.store.SegmentStore`; attach with
    #: :meth:`attach_store`, never by assignment (the in-memory records
    #: and the dedup set must hand over to it at the same moment).
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
    #: Accepted identities no store proves: every accepted key in
    #: memory mode; with a store attached, only keys a restore carried
    #: over that the store does not own.
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
        if (key in batch_keys or key in self._seen
                or (self.store is not None and key in self.store)):
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
        # Only accepted keys are recorded — a malformed-but-complete
        # record must not poison the dedup set, or a corrected retry
        # would be miscounted as a duplicate.  With a store attached,
        # the WAL fsync is what records them: a fault before it leaves
        # nothing owned, and a retry after a fault past it finds the
        # keys in the store.
        if self.store is not None:
            self.store.append_many([(record.to_dict(), key)
                                    for key, record in accepted])
        else:
            self.records.extend(record for _key, record in accepted)
            self._seen.update(key for key, _record in accepted)
        registry = get_registry()
        for reason, _key, subject in verdicts:
            if reason is None:
                self.accepted += 1
                registry.inc("ingest_accepted_total")
            elif reason == "duplicate":
                self.duplicates += 1
                registry.inc("ingest_duplicates_total")
            elif reason == "undecodable":
                self._quarantine(reason, payload=subject)
            else:
                self._quarantine(reason, data=subject)

    # -- durable store --------------------------------------------------------

    def attach_store(self, store) -> None:
        """Make a :class:`~repro.store.SegmentStore` the record home
        and the dedup authority.

        Any in-memory records migrate into the store so there is
        exactly one owner, and the dedup set sheds every identity the
        store owns: from here on it holds only what no store proves.
        """
        self.store = store
        store.append_many([(record.to_dict(), None)
                           for record in self.records])
        self.records = []
        self._seen = {key for key in self._seen if key not in store}

    def forget_keys(self, keys) -> int:
        """Drop identities from the dedup set.

        Returns how many were actually forgotten.  Devices retrying
        these records are accepted as new instead of miscounted as
        duplicates — the re-upload invitation after data loss.  A key
        a store scrub reports lost has already left the store, so with
        a store attached this only reaches the residue no store proves.
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
        snapshot; everything dedup or the counters depend on is.  With
        a store attached the dedup keys are only those the store
        cannot prove (its own are re-derived from the journal on
        restore) plus the store description — the checkpoint does not
        grow with the record count.
        """
        snapshot = {
            "records": [record.to_dict() for record in self.records],
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "malformed": self.malformed,
            "quarantined": self.quarantined,
            "quarantine_evicted": self.quarantine_evicted,
            "bytes_received": self.bytes_received,
            "available": self.available,
            "seen": sorted(self._seen),
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
        passed), the segment store is reattached: it proves its
        journal's identities itself, so a WAL-fsynced record is never
        double-counted after a SIGKILL.  Snapshots written before the
        duration aggregates were dropped restore too; their
        ``duration_stats`` / ``duration_median`` fields are ignored.
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
        """Identities of every accepted record (for reconciliation):
        the store's and those no store proves.  Built anew on every
        access, so read it once per use."""
        owned = self.store if self.store is not None else ()
        return frozenset(chain(self._seen, owned))

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
