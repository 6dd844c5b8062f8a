"""A fault-injecting transport between device spoolers and the backend.

Sits exactly where the network would: each
:class:`repro.monitoring.uploader.UploadBatcher` calls its
:meth:`ChaosTransport.for_sender` channel like any transport, and the
transport forwards (or mangles, drops, duplicates, reorders, or
refuses) payloads to the real backend callable.

Fault draws come from seeded per-sender streams: each sender's
payloads draw from ``(chaos seed, sender)``, so a chaos run is
bit-reproducible and two arms of a paired experiment see the same
fault sequence.  A device's fault fate depends only on its own send
sequence — not on how other devices' sends interleave — which is what
lets sharded runs (one transport per shard) injure a given device's
uploads identically regardless of worker count.

Fault semantics match real uplinks:

* **drop** — payload lost in transit; the sender gets no ack
  (:class:`PayloadDropped`) and will retry.
* **outage** — backend down for a configured window of virtual time;
  every send raises :class:`BackendUnavailable`.
* **duplicate** — payload delivered twice under one ack; the backend's
  dedup must absorb it.
* **reorder** — payload acked but held back, delivered only after a
  later payload (or at :meth:`ChaosTransport.flush_held`), on its own
  sender's channel.
* **corrupt** — payload delivered with a broken header under a normal
  ack; the backend quarantines it and the record is lost unless
  another copy got through.  The pristine bytes are retained so the
  reconciler can classify the loss.
"""

from __future__ import annotations

import random

from repro.backend.ingest import NotAcked
from repro.chaos.config import ChaosConfig
from repro.obs import get_registry


class ChaosTransportError(NotAcked):
    """Base class for injected transport failures (the missing ack)."""


class PayloadDropped(ChaosTransportError):
    """The payload vanished in transit; no ack reaches the sender."""


class BackendUnavailable(ChaosTransportError):
    """The backend is inside an injected outage window."""


def mangle(payload: bytes) -> bytes:
    """Corrupt a compressed payload so decompression must fail."""
    if not payload:
        return b"\xff"
    # Flipping the first byte breaks the zlib header, guaranteeing the
    # backend sees ``zlib.error`` rather than a silently-wrong record.
    return bytes([payload[0] ^ 0xFF]) + payload[1:]


class ChaosTransport:
    """Wraps a backend callable with seeded fault injection."""

    def __init__(self, inner, config: ChaosConfig,
                 now: float = 0.0) -> None:
        self.inner = inner
        self.config = config
        #: Current virtual time; outage windows are judged against it.
        self.now = now
        self._sender_rngs: dict[object, random.Random] = {}
        self._channels: dict[object, object] = {}
        self.sends = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.corrupted = 0
        self.outage_rejections = 0
        #: Pristine bytes of payloads whose delivery was corrupted.
        self.corrupted_payloads: list[bytes] = []
        #: ``(sender, payload)`` pairs acked but held back.
        self._held: list[tuple[object, bytes]] = []

    # -- time ----------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Move virtual time forward (never backward)."""
        if now > self.now:
            self.now = now

    def in_outage(self, now: float | None = None) -> bool:
        at = self.now if now is None else now
        return any(start <= at < end
                   for start, end in self.config.outages)

    # -- the transport protocol ----------------------------------------------

    def send(self, payload: bytes, sender: object) -> None:
        """Send one payload, drawing faults from ``sender``'s stream;
        raising means the sender saw no ack."""
        self.sends += 1
        registry = get_registry()
        if registry.enabled:
            registry.inc("chaos_transport_sends_total")
        if self.in_outage():
            self.outage_rejections += 1
            registry.inc("chaos_transport_faults_total", fault="outage")
            raise BackendUnavailable(
                f"backend outage at t={self.now:.0f}s"
            )
        rng = self._rng_for(sender)
        if rng.random() < self.config.drop_rate:
            self.dropped += 1
            registry.inc("chaos_transport_faults_total", fault="drop")
            raise PayloadDropped("payload lost in transit")
        if rng.random() < self.config.reorder_rate:
            self.reordered += 1
            registry.inc("chaos_transport_faults_total", fault="reorder")
            self._held.append((sender, payload))
            return  # acked now, delivered after a later payload
        self._deliver(payload, rng, self._channels.get(sender, self.inner))
        try:
            self.flush_held()
        except NotAcked:
            pass  # this payload is acked; the refused stay held

    def for_sender(self, sender: object, channel=None):
        """A transport callable bound to ``sender``'s fault stream.

        Hand this to an :class:`~repro.monitoring.uploader.UploadBatcher`
        so every flush of that device draws from its own stream.
        ``channel`` carries the sender's payloads, held ones included,
        in place of :attr:`inner`; binding the sender again replaces it.
        """
        if channel is not None:
            self._channels[sender] = channel

        def send(payload: bytes) -> None:
            self.send(payload, sender=sender)

        return send

    def flush_held(self) -> int:
        """Deliver the reorder-held payloads, each on its own sender's
        channel; re-hold the rest if one is refused (they stay
        accounted as in flight, never lost) and raise."""
        held, self._held = self._held, []
        registry = get_registry()
        for index, (sender, late) in enumerate(held):
            try:
                self._channels.get(sender, self.inner)(late)
            except Exception:
                self._held = held[index:] + self._held
                raise
            self.delivered += 1
            registry.inc("chaos_transport_delivered_total")
        return len(held)

    # -- queries -------------------------------------------------------------

    @property
    def held_payloads(self) -> tuple[bytes, ...]:
        """Acked payloads still in the reorder buffer (in flight)."""
        return tuple(payload for _sender, payload in self._held)

    def summary(self) -> dict[str, float]:
        return {
            "sends": float(self.sends),
            "delivered": float(self.delivered),
            "dropped": float(self.dropped),
            "duplicated": float(self.duplicated),
            "reordered": float(self.reordered),
            "corrupted": float(self.corrupted),
            "outage_rejections": float(self.outage_rejections),
        }

    # -- internals -----------------------------------------------------------

    def _rng_for(self, sender: object) -> random.Random:
        rng = self._sender_rngs.get(sender)
        if rng is None:
            rng = random.Random(
                f"chaos-transport:{self.config.seed}:sender:{sender}"
            )
            self._sender_rngs[sender] = rng
        return rng

    def _deliver(self, payload: bytes, rng: random.Random,
                 channel) -> None:
        registry = get_registry()
        if rng.random() < self.config.corrupt_rate:
            self.corrupted += 1
            registry.inc("chaos_transport_faults_total", fault="corrupt")
            self.corrupted_payloads.append(payload)
            channel(mangle(payload))
            return
        channel(payload)
        self.delivered += 1
        registry.inc("chaos_transport_delivered_total")
        if rng.random() < self.config.duplicate_rate:
            self.duplicated += 1
            registry.inc("chaos_transport_faults_total",
                         fault="duplicate")
            channel(payload)
