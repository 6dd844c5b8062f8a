"""Bounded admission queue with explicit overload policies.

The queue sits between the socket front end and the single ingest
worker.  Its one invariant: **an admitted payload is owned** — it is
either ingested, or shed *with its record identity accounted* so
:func:`repro.chaos.reconcile.reconcile` can classify the loss, or
carried across a drain checkpoint.  Nothing admitted ever vanishes.

Overload is a policy decision, made per offered payload while full:

* ``reject-newest`` — refuse the newcomer with a retry-after signal.
  Nothing already acked is lost; the sender keeps the payload spooled.
* ``shed-oldest`` — evict the oldest queued payload to admit the new
  one (freshest data is worth most — the same bias as the uploader's
  spool).  The evicted payload was already acked, so its identity goes
  into :attr:`AdmissionQueue.shed_keys` as an explicit server-side
  loss.
* ``fair-share`` — the queue looks for the sender hogging the largest
  share.  If the newcomer's own sender is the hog (or ties for it),
  the newcomer is rejected with retry-after; otherwise the hog's
  oldest payload is shed to make room.  Heavy producers throttle
  themselves; light producers keep flowing.

The suggested retry delay scales linearly with how far past capacity
demand is, between ``retry_after_s`` and ``4 * retry_after_s`` —
deterministic, so tests and paired runs see stable signals.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.chaos.reconcile import payload_key
from repro.obs import get_registry

POLICIES = ("reject-newest", "shed-oldest", "fair-share")


@dataclass(slots=True)
class QueuedPayload:
    """One admitted payload waiting for the ingest worker."""

    payload: bytes
    sender: int
    #: ``time.monotonic()`` at admission (queue-latency accounting);
    #: zero for payloads restored from a drain checkpoint.
    admitted_at: float = 0.0
    #: Downstream ingest attempts that faulted on this payload (the
    #: per-payload retry budget; transient outages do not count).
    attempts: int = 0


@dataclass
class Decision:
    """Outcome of one :meth:`AdmissionQueue.offer`."""

    admitted: bool
    #: Suggested client delay (seconds) when not admitted.
    retry_after_s: float = 0.0
    #: Payloads evicted to make room (already acked; accounted).
    shed: list[QueuedPayload] = field(default_factory=list)


class AdmissionQueue:
    """Bounded FIFO between the front end and the ingest worker.

    Thread-safe: handler threads :meth:`offer`, the ingest worker
    :meth:`pop_many` (blocking) and may :meth:`requeue_front` payloads
    the downstream refused.  ``requeue_front`` is exempt from the bound —
    the payload is already owned and must not be lost.
    """

    def __init__(self, capacity: int = 1024,
                 policy: str = "reject-newest",
                 retry_after_s: float = 5.0) -> None:
        if capacity < 1:
            raise ValueError("admission queue needs capacity >= 1")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        if retry_after_s <= 0:
            raise ValueError("retry_after_s must be positive")
        self.capacity = capacity
        self.policy = policy
        self.retry_after_s = retry_after_s
        self._entries: deque[QueuedPayload] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        # -- accounting (all under the lock) --
        self.admitted = 0
        self.rejected = 0
        self.shed = 0
        self.shed_bytes = 0
        #: Record identities of shed payloads (server-side losses).
        self.shed_keys: list[str] = []
        #: Rejections since the queue was last below capacity — drives
        #: the escalating retry-after suggestion.
        self._pressure = 0
        self.depth_high_watermark = 0

    # -- front-end side ------------------------------------------------------

    def offer(self, payload: bytes, sender: int = 0,
              admitted_at: float = 0.0) -> Decision:
        """Try to admit one payload under the configured policy."""
        registry = get_registry()
        with self._lock:
            if len(self._entries) < self.capacity:
                self._pressure = 0
                return self._admit(payload, sender, admitted_at)
            if self.policy == "reject-newest":
                return self._reject(registry)
            if self.policy == "shed-oldest":
                victim = self._entries.popleft()
                self._account_shed(victim, registry)
                decision = self._admit(payload, sender, admitted_at)
                decision.shed.append(victim)
                return decision
            # fair-share: shed from the hog, unless the hog is us.
            hog = self._largest_sender()
            if hog == sender:
                return self._reject(registry)
            victim = self._pop_oldest_from(hog)
            self._account_shed(victim, registry)
            decision = self._admit(payload, sender, admitted_at)
            decision.shed.append(victim)
            return decision

    # -- worker side ---------------------------------------------------------

    def pop(self, timeout: float | None = None) -> QueuedPayload | None:
        """Blocking pop; ``None`` on timeout."""
        entries = self.pop_many(1, timeout=timeout)
        return entries[0] if entries else None

    def pop_many(self, limit: int,
                 timeout: float | None = None) -> list[QueuedPayload]:
        """Block for the first entry, then take whatever else is
        already queued, up to ``limit``, in order; ``[]`` on timeout.

        Never waits to fill the batch: what it returns is what piled
        up while the worker was busy with the previous one.
        """
        with self._not_empty:
            if not self._entries and not self._not_empty.wait_for(
                lambda: bool(self._entries), timeout=timeout
            ):
                return []
            return [self._entries.popleft()
                    for _ in range(min(limit, len(self._entries)))]

    def requeue_front(self, *entries: QueuedPayload) -> None:
        """Put owned payloads back at the head, keeping their order
        (downstream refused)."""
        with self._not_empty:
            self._entries.extendleft(reversed(entries))
            self._not_empty.notify()

    def shed_entry(self, entry: QueuedPayload, policy: str) -> None:
        """Shed one owned payload that is *not* queued, with identity
        accounting (the worker's poison-quarantine path).

        ``policy`` labels the ``serve_shed_total`` increment so these
        losses stay distinguishable from overload sheds.
        """
        with self._lock:
            self._account_shed(entry, get_registry(), policy=policy)

    # -- drain / restore -----------------------------------------------------

    def drain_all(self) -> list[QueuedPayload]:
        """Take every queued payload (drain-to-checkpoint path)."""
        with self._lock:
            entries = list(self._entries)
            self._entries.clear()
            return entries

    def restore(self, payloads: list[tuple[bytes, int]]) -> None:
        """Refill from a checkpoint (bound-exempt: already owned)."""
        with self._not_empty:
            for payload, sender in payloads:
                self._entries.append(QueuedPayload(payload, sender))
            if self._entries:
                self._not_empty.notify_all()

    def restore_accounting(self, admission: dict) -> None:
        """Adopt checkpointed accounting across a drain/resume hop.

        The checkpoint's ``admission`` block carries the counters
        :meth:`summary` exported plus the shed identities; without
        them a resumed service would report pre-restart server-side
        sheds as unexplained losses during reconciliation.
        """
        with self._lock:
            self.admitted = int(admission.get("admitted",
                                              self.admitted))
            self.rejected = int(admission.get("rejected",
                                              self.rejected))
            self.shed = int(admission.get("shed", self.shed))
            self.shed_bytes = int(admission.get("shed_bytes",
                                                self.shed_bytes))
            self.depth_high_watermark = max(
                self.depth_high_watermark,
                int(admission.get("depth_high_watermark", 0)),
                len(self._entries),
            )
            self.shed_keys.extend(
                str(key) for key in admission.get("shed_keys", ())
            )

    def discard_remaining(self, policy: str = "drain-discard") -> int:
        """Shed everything still queued, identities accounted.

        The no-checkpoint drain path: the queue owns these payloads
        and has nowhere to carry them, so they become explicit
        server-side losses (``shed_keys``) instead of vanishing.
        Returns how many payloads were discarded.
        """
        registry = get_registry()
        with self._lock:
            victims = list(self._entries)
            self._entries.clear()
            for victim in victims:
                self._account_shed(victim, registry, policy=policy)
            return len(victims)

    # -- queries -------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._entries)

    def payload_keys(self) -> set[str]:
        """Record identities of everything currently queued."""
        with self._lock:
            payloads = [entry.payload for entry in self._entries]
        keys = set()
        for payload in payloads:
            key = payload_key(payload)
            if key is not None:
                keys.add(key)
        return keys

    def summary(self) -> dict[str, float]:
        with self._lock:
            return {
                "depth": float(len(self._entries)),
                "depth_high_watermark": float(self.depth_high_watermark),
                "admitted": float(self.admitted),
                "rejected": float(self.rejected),
                "shed": float(self.shed),
                "shed_bytes": float(self.shed_bytes),
            }

    # -- internals (call with the lock held) ---------------------------------

    def _admit(self, payload: bytes, sender: int,
               admitted_at: float) -> Decision:
        self._entries.append(QueuedPayload(payload, sender, admitted_at))
        self.admitted += 1
        depth = len(self._entries)
        if depth > self.depth_high_watermark:
            self.depth_high_watermark = depth
        registry = get_registry()
        if registry.enabled:
            registry.inc("serve_admitted_total")
            registry.gauge_set("serve_queue_depth", depth)
        self._not_empty.notify()
        return Decision(admitted=True)

    def _reject(self, registry) -> Decision:
        self.rejected += 1
        self._pressure += 1
        registry.inc("serve_rejected_total", policy=self.policy)
        # Escalate the suggestion with sustained pressure, capped at 4x.
        scale = 1.0 + min(3.0, self._pressure / self.capacity)
        return Decision(admitted=False,
                        retry_after_s=self.retry_after_s * scale)

    def _account_shed(self, victim: QueuedPayload, registry,
                      policy: str | None = None) -> None:
        self.shed += 1
        self.shed_bytes += len(victim.payload)
        registry.inc("serve_shed_total", policy=policy or self.policy)
        key = payload_key(victim.payload)
        if key is not None:
            self.shed_keys.append(key)

    def _largest_sender(self) -> int:
        counts: dict[int, int] = {}
        for entry in self._entries:
            counts[entry.sender] = counts.get(entry.sender, 0) + 1
        # Deterministic tie-break: smallest sender id among the hogs.
        top = max(counts.values())
        return min(s for s, c in counts.items() if c == top)

    def _pop_oldest_from(self, sender: int) -> QueuedPayload:
        for index, entry in enumerate(self._entries):
            if entry.sender == sender:
                del self._entries[index]
                return entry
        raise RuntimeError(
            f"no queued payload from sender {sender}"
        )  # pragma: no cover - guarded by _largest_sender
