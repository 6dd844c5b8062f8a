"""End-to-end reconciliation: emitted records vs accepted records.

The closing argument of a chaos run.  Devices emitted a known set of
record identities; the backend accepted some subset; every missing
identity must be *explained* by an explicit loss channel — shed from a
bounded spool, dropped after the retry budget, quarantined after
corruption, or still in flight.  Anything else is an unexplained
discrepancy, i.e. a pipeline bug.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.dataset.records import record_identity

if TYPE_CHECKING:  # pragma: no cover
    from repro.store import ScrubReport


@dataclass(frozen=True)
class ReconciliationReport:
    """Classified diff between emitted and accepted record sets."""

    #: Distinct record identities devices emitted.
    emitted: int
    #: Distinct identities the backend accepted.
    accepted: int
    #: Duplicate deliveries the backend absorbed (dedup hits).
    duplicates: int
    #: Losses by channel (distinct identities).
    shed: int
    budget_exhausted: int
    quarantined: int
    in_flight: int
    #: Missing identities no loss channel accounts for.
    unexplained: tuple[str, ...]
    #: attempts-before-success -> payload count across all devices.
    retry_histogram: dict = field(default_factory=dict)
    #: Transport-side fault counters (see ChaosTransport.summary).
    transport: dict = field(default_factory=dict)
    #: Payloads the server refused permanently (sender dropped them
    #: after an explicit rejection ack, e.g. frame too large).
    rejected: int = 0
    #: Payloads shed *server-side* from the admission queue after the
    #: ack (shed-oldest / fair-share overload policies).
    server_shed: int = 0
    #: Backpressure retry-after signals devices honoured (not a loss
    #: channel — the payloads stayed spooled — but overload forensics).
    retry_signals: int = 0

    @property
    def ok(self) -> bool:
        return not self.unexplained

    @property
    def explained_losses(self) -> int:
        return (self.shed + self.budget_exhausted + self.quarantined
                + self.in_flight + self.rejected + self.server_shed)

    def to_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "accepted": self.accepted,
            "duplicates": self.duplicates,
            "shed": self.shed,
            "budget_exhausted": self.budget_exhausted,
            "quarantined": self.quarantined,
            "in_flight": self.in_flight,
            "rejected": self.rejected,
            "server_shed": self.server_shed,
            "retry_signals": self.retry_signals,
            "unexplained": list(self.unexplained),
            "retry_histogram": {
                str(attempts): count
                for attempts, count in sorted(
                    self.retry_histogram.items()
                )
            },
            "transport": dict(self.transport),
        }

    def render(self) -> str:
        lines = [
            f"{'emitted':<22} {self.emitted:>10}",
            f"{'accepted':<22} {self.accepted:>10}",
            f"{'duplicates absorbed':<22} {self.duplicates:>10}",
            f"{'shed (spool bound)':<22} {self.shed:>10}",
            f"{'budget exhausted':<22} {self.budget_exhausted:>10}",
            f"{'quarantined':<22} {self.quarantined:>10}",
            f"{'in flight':<22} {self.in_flight:>10}",
            f"{'rejected (permanent)':<22} {self.rejected:>10}",
            f"{'shed (server queue)':<22} {self.server_shed:>10}",
            f"{'retry signals':<22} {self.retry_signals:>10}",
            f"{'UNEXPLAINED':<22} {len(self.unexplained):>10}",
        ]
        if self.retry_histogram:
            lines.append("retry histogram (attempts before ack):")
            for attempts, count in sorted(self.retry_histogram.items()):
                lines.append(f"  {attempts:>3} retries  {count:>8}")
        if self.transport:
            lines.append("transport: " + "  ".join(
                f"{name}={int(value)}"
                for name, value in sorted(self.transport.items())
            ))
        return "\n".join(lines)


@dataclass(frozen=True)
class DiskReconciliationReport:
    """Every injected disk fault matched to what scrub did about it."""

    #: Injected faults with their classification appended:
    #: ``{"fault", "path", ..., "classified_as"}``.
    faults: tuple[dict, ...]
    #: Faults no scrub finding accounts for (an injector/scrub bug).
    unexplained: tuple[dict, ...]
    #: Classification totals, e.g. {"quarantined": 2, "retained": 1}.
    by_class: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unexplained

    def to_dict(self) -> dict:
        return {
            "faults": [dict(fault) for fault in self.faults],
            "unexplained": [dict(fault) for fault in self.unexplained],
            "by_class": dict(self.by_class),
        }

    def render(self) -> str:
        lines = [f"{len(self.faults)} injected disk faults"]
        for name, count in sorted(self.by_class.items()):
            lines.append(f"  {name:<24} {count:>6}")
        lines.append(f"  {'UNEXPLAINED':<24} {len(self.unexplained):>6}")
        for fault in self.unexplained:
            lines.append(f"    {fault['fault']} on {fault['path']}")
        return "\n".join(lines)


def reconcile_disk(injected: list[dict],
                   scrub: "ScrubReport") -> DiskReconciliationReport:
    """Classify every injected disk fault against a scrub report.

    ``injected`` is :attr:`repro.chaos.disk.DiskChaos.injected`;
    ``scrub`` is a :class:`repro.store.ScrubReport`.  Each fault must
    map to an explicit scrub outcome:

    * ``enospc`` → *retained*: the write never happened, the store
      kept the records in its tail (no scrub finding expected);
    * ``crash-rename`` → *temp-removed*: scrub deleted the orphan
      temp file (or it was already gone);
    * ``torn-write`` / ``bit-flip`` → *never-landed* (the process
      died between the damaged temp file and its rename, and scrub
      removed the temp), *quarantined* (the damaged segment was
      caught by its digest) or *superseded* (the file was never
      committed, so its rows stayed tail/WAL-owned);
    * ``journal-torn`` → *journal-truncated*;
    * ``journal-flip`` → *journal-damage-detected* (damaged lines are
      CRC-skipped; a flipped commit line surfaces as an adopted or
      superseded orphan, a flipped WAL line only narrows recovery).

    Journal faults can merge (a torn line swallows the next append),
    so they are matched against the *aggregate* journal damage scrub
    found, not line-by-line.
    """
    temp_removed = {Path(p).name for p in scrub.temp_files_removed}
    quarantined = {f["segment"] for f in scrub.quarantined}
    adopted = {f["segment"] for f in scrub.adopted}
    superseded = set(scrub.superseded)
    journal_damage_seen = bool(
        scrub.journal_damaged_lines or scrub.journal_truncated_bytes
    )

    classified: list[dict] = []
    unexplained: list[dict] = []
    by_class: dict[str, int] = {}

    def settle(fault: dict, classification: str | None) -> None:
        entry = dict(fault)
        entry["classified_as"] = classification or "unexplained"
        classified.append(entry)
        if classification is None:
            unexplained.append(entry)
        else:
            by_class[classification] = by_class.get(classification, 0) + 1

    for fault in injected:
        kind = fault["fault"]
        name = Path(fault["path"]).name
        temp = Path(fault.get("temp", ""))
        if kind == "enospc":
            settle(fault, "retained")
        elif kind == "crash-rename":
            if temp.name in temp_removed or not temp.exists():
                settle(fault, "temp-removed")
            else:
                settle(fault, None)
        elif kind in ("torn-write", "bit-flip"):
            if temp.name in temp_removed:
                settle(fault, "never-landed")
            elif name in quarantined:
                settle(fault, "quarantined")
            elif name in superseded or name in adopted:
                # The damaged write was never committed (a later fault
                # killed the commit), so its rows stayed WAL-owned.
                settle(fault, "superseded")
            elif not Path(fault["path"]).exists():
                settle(fault, "overwritten")
            else:
                settle(fault, None)
        elif kind in ("journal-torn", "journal-flip"):
            if kind == "journal-torn" and scrub.journal_truncated_bytes:
                settle(fault, "journal-truncated")
            elif journal_damage_seen or adopted or superseded:
                settle(fault, "journal-damage-detected")
            else:
                settle(fault, None)
        else:
            settle(fault, None)

    return DiskReconciliationReport(
        faults=tuple(classified),
        unexplained=tuple(unexplained),
        by_class=by_class,
    )


def payload_key(payload: bytes) -> str | None:
    """Recover a record identity from pristine payload bytes."""
    try:
        data = json.loads(zlib.decompress(payload))
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(data, dict):
        return None
    return record_identity(data)


def service_shed_keys(service) -> set[str]:
    """Server-side admission-shed identities from ``service``.

    Accepts either a live object exposing ``shed_keys`` (an
    :class:`~repro.serve.admission.AdmissionQueue` or the
    :class:`~repro.serve.service.IngestService` wrapping one) or a
    drain-checkpoint ``dict`` — so reconciliation works identically
    against an in-process service and a resumed checkpoint.
    """
    if service is None:
        return set()
    if isinstance(service, dict):
        admission = service.get("admission", {})
        return set(admission.get("shed_keys",
                                 service.get("shed_keys", ())))
    return set(getattr(service, "shed_keys", ()))


def service_queued_keys(service) -> set[str]:
    """Identities acked but still inside the service's admission queue.

    These payloads are owned by the server and will be ingested (or
    carried across a drain checkpoint), so the reconciler classifies
    them as in flight, exactly like a client-side spool.
    """
    if service is None:
        return set()
    if isinstance(service, dict):
        keys = set()
        for entry in service.get("queue", ()):
            key = payload_key(base64.b64decode(entry["payload"]))
            if key is not None:
                keys.add(key)
        return keys
    return set(getattr(service, "queued_keys", ()))


def reconcile(emitted_keys, server, batchers,
              transport=None, service=None) -> ReconciliationReport:
    """Diff emitted identities against the backend's accepted set.

    ``batchers`` are the device-side spoolers (their shed / budget /
    rejected / pending accounting explains sender-side losses);
    ``transport`` is the optional
    :class:`~repro.chaos.transport.ChaosTransport` (corruption and
    reorder-hold explain path-side losses); ``service`` is the
    optional live ingest service (or its drain checkpoint), whose
    admission queue explains server-side shedding of already-acked
    payloads.
    """
    emitted = set(emitted_keys)
    accepted = server.accepted_keys

    shed_keys: set[str] = set()
    budget_keys: set[str] = set()
    rejected_keys: set[str] = set()
    pending_keys: set[str] = set()
    retry_histogram: dict[int, int] = {}
    retry_signals = 0
    for batcher in batchers:
        shed_keys.update(batcher.shed_keys)
        budget_keys.update(batcher.budget_exhausted_keys)
        rejected_keys.update(getattr(batcher, "rejected_keys", ()))
        pending_keys.update(batcher.pending_keys)
        retry_signals += getattr(batcher, "retry_signals", 0)
        for attempts, count in batcher.retry_histogram.items():
            retry_histogram[attempts] = (
                retry_histogram.get(attempts, 0) + count
            )
    server_shed = service_shed_keys(service)
    pending_keys |= service_queued_keys(service)

    corrupted_keys: set[str] = set()
    held_keys: set[str] = set()
    transport_summary: dict = {}
    if transport is not None:
        for payload in transport.corrupted_payloads:
            key = payload_key(payload)
            if key is not None:
                corrupted_keys.add(key)
        for payload in transport.held_payloads:
            key = payload_key(payload)
            if key is not None:
                held_keys.add(key)
        transport_summary = transport.summary()

    missing = emitted - accepted
    shed = missing & shed_keys
    budget = (missing - shed) & budget_keys
    rejected = (missing - shed - budget) & rejected_keys
    explained = shed | budget | rejected
    queue_shed = (missing - explained) & server_shed
    explained |= queue_shed
    quarantined = (missing - explained) & corrupted_keys
    explained |= quarantined
    in_flight = (missing - explained) & (pending_keys | held_keys)
    unexplained = missing - explained - in_flight

    return ReconciliationReport(
        emitted=len(emitted),
        accepted=len(accepted & emitted),
        duplicates=server.duplicates,
        shed=len(shed),
        budget_exhausted=len(budget),
        quarantined=len(quarantined),
        in_flight=len(in_flight),
        rejected=len(rejected),
        server_shed=len(queue_shed),
        retry_signals=retry_signals,
        unexplained=tuple(sorted(unexplained)),
        retry_histogram=retry_histogram,
        transport=transport_summary,
    )
