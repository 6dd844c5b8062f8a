"""Drive a fleet's failure records through the chaos telemetry path.

The lossless reproduction hands records straight from batcher to
backend; this module replays the same records the way 70M real devices
would have shipped them (Sec. 2.2) — one durable spooler per device,
WiFi coming and going, a fault-injecting transport in the middle, and
an ingestion server deduplicating retries — then reconciles both ends.

:class:`FleetDrive` is that replay, over a *channel factory*
(``device_id -> transport callable``).  :func:`run_telemetry_pipeline`
gives every device the in-process server's ``receive``; the serve
harness gives each device its own socket
(:class:`repro.serve.harness.SocketChannels`).

Every stochastic choice (WiFi availability, backoff jitter, transport
faults) is drawn from streams seeded by ``(chaos seed, device id,
purpose)``, mirroring the fleet simulator's common-random-numbers
pairing: two runs of the same scenario see the same chaos.  Transport
faults use per-sender streams (``ChaosTransport.for_sender``), so a
device's uploads meet the same drops/duplicates/corruption no matter
how its sends interleave with other devices' — the property that keeps
per-shard pipelines consistent under :mod:`repro.parallel` sharding.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.backend.ingest import IngestionServer, NotAcked
from repro.chaos.config import ChaosConfig
from repro.chaos.reconcile import ReconciliationReport, reconcile
from repro.chaos.transport import ChaosTransport
from repro.dataset.records import record_identity
from repro.dataset.store import Dataset
from repro.monitoring.uploader import UploadBatcher
from repro.obs import get_registry, span


class FleetDrive:
    """Per-device spoolers over one channel factory, in virtual time.

    Each record's start time is the virtual clock and each emission
    its device's flush opportunity, WiFi sampled per device; drain
    rounds then flush with WiFi up everywhere.  With ``chaos.enabled``
    a :class:`ChaosTransport` sits between spoolers and channels.
    """

    def __init__(self, channels, chaos: ChaosConfig,
                 settle_s: float = 0.0) -> None:
        #: ``device_id -> transport callable``; :meth:`close` calls its
        #: ``close()`` when it has one.
        self.channels = channels
        self.chaos = chaos
        #: Real seconds slept per drain round, so a service on the far
        #: side of a socket can work off its queue.
        self.settle_s = settle_s
        self.transport = (ChaosTransport(None, chaos)
                          if chaos.enabled else None)
        self.batchers: dict[int, UploadBatcher] = {}
        self._wifi: dict[int, random.Random] = {}
        #: Identities of every record emitted so far.
        self.emitted: set[str] = set()
        #: Virtual time: the latest emission or drain round.
        self.now = 0.0

    @property
    def pending_payloads(self) -> int:
        return sum(b.pending_payloads for b in self.batchers.values())

    def emit(self, records) -> None:
        """Spool ``records`` (dicts, in emission order)."""
        for data in records:
            device_id = int(data["device_id"])
            self.emitted.add(record_identity(data))
            batcher = self.batchers.get(device_id)
            if batcher is None:
                batcher = self._add(device_id)
            when = float(data["start_time"])
            self._advance(when)
            batcher.enqueue(data)
            wifi = (self._wifi[device_id].random()
                    < self.chaos.wifi_availability)
            batcher.maybe_flush(wifi, now=when)

    def drain(self, rounds: int | None = None) -> int:
        """Flush, one round per ``chaos.drain_interval_s`` of virtual
        time, until every spool is empty or ``rounds`` (default
        ``chaos.max_drain_rounds``) have run; returns the rounds used.

        Reorder-held payloads are released last.  Those a channel does
        not ack stay held, in flight; any other error propagates.
        """
        budget = self.chaos.max_drain_rounds if rounds is None else rounds
        used = 0
        while used < budget and self.pending_payloads:
            self._advance(self.now + self.chaos.drain_interval_s)
            for batcher in self.batchers.values():
                if batcher.pending_payloads:
                    batcher.maybe_flush(True, now=self.now)
            used += 1
            time.sleep(self.settle_s)
        if self.transport is not None:
            try:
                self.transport.flush_held()
            except NotAcked:
                pass
        return used

    def rebind(self, channels) -> None:
        """Continue over fresh channels (a restarted service, say):
        spooled and held payloads and the emitted identities carry
        over, and the old channels are closed."""
        self.close()
        self.channels = channels
        for device_id, batcher in self.batchers.items():
            batcher.transport = self._channel(device_id)

    def reconcile(self, server, service=None) -> ReconciliationReport:
        """Classify every emitted record against ``server`` (and a live
        ``service`` or its drain checkpoint, see
        :func:`repro.chaos.reconcile.reconcile`)."""
        return reconcile(self.emitted, server, self.batchers.values(),
                         transport=self.transport, service=service)

    def close(self) -> None:
        close = getattr(self.channels, "close", None)
        if close is not None:
            close()

    def _advance(self, now: float) -> None:
        self.now = max(self.now, now)
        if self.transport is not None:
            self.transport.advance(now)

    def _channel(self, device_id: int):
        channel = self.channels(device_id)
        if self.transport is None:
            return channel
        return self.transport.for_sender(device_id, channel)

    def _add(self, device_id: int) -> UploadBatcher:
        chaos = self.chaos
        batcher = UploadBatcher(
            transport=self._channel(device_id),
            max_attempts=chaos.max_attempts,
            base_backoff_s=chaos.base_backoff_s,
            backoff_multiplier=chaos.backoff_multiplier,
            max_backoff_s=chaos.max_backoff_s,
            jitter=chaos.jitter,
            max_spool_bytes=chaos.max_spool_bytes,
            rng=random.Random(f"{chaos.seed}:{device_id}:backoff"),
        )
        self.batchers[device_id] = batcher
        self._wifi[device_id] = random.Random(
            f"{chaos.seed}:{device_id}:wifi"
        )
        return batcher


@dataclass
class TelemetryRunResult:
    """Everything a chaos telemetry run produced."""

    report: ReconciliationReport
    server: IngestionServer
    #: ``None`` when ``chaos.enabled`` is false.
    transport: ChaosTransport | None
    n_devices: int
    drain_rounds: int

    def summary(self) -> dict:
        """JSON-able digest (stored in ``Dataset.metadata``)."""
        return {
            "reconciliation": self.report.to_dict(),
            "server": self.server.summary(),
            "n_devices": self.n_devices,
            "drain_rounds": self.drain_rounds,
        }


def run_telemetry_pipeline(
    dataset: Dataset,
    chaos: ChaosConfig,
    server: IngestionServer | None = None,
) -> TelemetryRunResult:
    """Ship every failure record through the lossy path, in emission
    order, and reconcile; whatever is still queued after the drain is
    reported as in flight."""
    if server is None:
        server = IngestionServer()
    with span("chaos.pipeline"):
        drive = FleetDrive(lambda _device_id: server.receive, chaos)
        drive.emit(record.to_dict() for record in sorted(
            dataset.failures, key=lambda r: (r.start_time, r.device_id)
        ))
        rounds = drive.drain()
        registry = get_registry()
        if registry.enabled:
            registry.inc("chaos_pipeline_records_total",
                         len(drive.emitted))
            registry.inc("chaos_pipeline_devices_total",
                         len(drive.batchers))
            # Drain rounds are shard-local under parallel execution
            # (each shard drains its own pipeline), hence a
            # high-watermark gauge rather than a counter.
            registry.gauge_set("chaos_pipeline_drain_rounds", rounds)
        return TelemetryRunResult(
            report=drive.reconcile(server),
            server=server,
            transport=drive.transport,
            n_devices=len(drive.batchers),
            drain_rounds=rounds,
        )
