"""The long-lived socket ingest service.

``IngestService`` wraps one :class:`repro.backend.ingest.IngestionServer`
behind a threaded TCP front end and keeps its promises under overload:

* **accept thread** — accepts connections up to ``max_connections``;
  beyond that, newcomers are closed immediately (counted) rather than
  queued invisibly.
* **handler threads** (one per connection) — speak the
  :mod:`repro.serve.protocol` framing under a per-connection read
  deadline, so a stalled sender (slow loris) costs one timeout, not a
  thread forever.  Each complete frame is offered to the admission
  queue and acked ``OK`` / ``RETRY_AFTER`` / ``UNAVAILABLE`` /
  ``TOO_LARGE``.
* **one ingest worker thread** — drains the admission queue into
  ``IngestionServer.receive_many`` through a
  :class:`~repro.serve.breaker.CircuitBreaker`, one group commit
  (one WAL write, one fsync) per batch; the batch is whatever queued
  while the previous commit ran, capped at ``INGEST_BATCH_MAX``.  The
  :class:`IngestionServer` itself is single-threaded by construction:
  only this worker (and drain, after the worker has stopped) touches
  it.  A transient downstream fault requeues the batch at the head; a
  faulted batch is retried one payload at a time, and a payload that
  keeps faulting exhausts its per-payload retry budget
  (``ingest_retry_limit``) and is quarantined *with identity
  accounting* — admitted payloads are owned and never dropped
  silently, and one poison payload cannot wedge the queue behind it.
* **one query worker thread** — answers ``stats`` / ``isp_bs`` /
  ``transitions`` / ``summary`` frames from a snapshot-consistent
  fold over the segment store (see :mod:`repro.serve.query`)
  while ingest continues; query load beyond ``query_queue_capacity``
  is shed with a retry signal instead of competing with ingest.
* **graceful drain** — :meth:`IngestService.stop` stops accepting,
  lets the worker flush the queue (bounded by ``drain_timeout_s``),
  then writes a checkpoint containing the ingestion state, the
  admission accounting (shed identities included), *and* any payloads
  still queued (e.g. the breaker was open through the whole drain
  window).  :meth:`IngestService.resume` restores all three, so a
  SIGTERM'd service picks up exactly where it stopped.  A drain
  *without* a checkpoint path sheds the leftovers explicitly
  (``serve_drain_discarded_total`` + ``shed_keys``) rather than
  letting them vanish.

Metric recording happens on handler threads and the worker thread
concurrently — run the service under a
:class:`repro.obs.ThreadSafeRegistry` (the ``repro serve`` CLI and the
overload harness both do).
"""

from __future__ import annotations

import base64
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend.ingest import IngestionServer, ServiceUnavailable
from repro.chaos.disk import DiskIO
from repro.obs import LATENCY_BUCKETS_S, get_registry
from repro.serve import protocol
from repro.serve.admission import AdmissionQueue
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.query import QueryEngine, QueryPlane

#: Drain-checkpoint format version (for forward-compatible readers).
CHECKPOINT_FORMAT = 1

#: Most payloads one group commit takes.  Not a knob: the worker never
#: waits to fill a batch, and the cap only bounds how long it runs
#: between fsyncs (~3 ms at 32) — the fsync is where it releases the
#: GIL to the query thread, and a 256 cap made sparse answers bimodal.
INGEST_BATCH_MAX = 32
#: ``serve_ingest_batch_records`` histogram bounds (payloads/commit).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs to run; one frozen block."""

    #: Root of the durable segment store (``repro.store``) that keeps
    #: every accepted record.
    store_dir: str
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the bound port is on the service).
    port: int = 0
    queue_capacity: int = 1024
    #: Admission policy: reject-newest | shed-oldest | fair-share.
    policy: str = "reject-newest"
    #: Base retry-after suggestion (seconds) for rejected offers.
    retry_after_s: float = 5.0
    #: Per-connection read deadline (slow-loris bound), seconds.
    read_deadline_s: float = 30.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    max_connections: int = 256
    #: Circuit breaker: consecutive downstream faults before tripping,
    #: and the open-state hold before a half-open probe.
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    #: How long :meth:`IngestService.stop` waits for the queue to
    #: drain before checkpointing whatever is left.
    drain_timeout_s: float = 30.0
    #: Rows the store's one unsealed tail holds before it seals.
    store_seal_records: int = 512
    #: Disk-fault injection rate for the store's I/O (0 disables; see
    #: :class:`repro.chaos.DiskChaosConfig.uniform`).
    disk_chaos_rate: float = 0.0
    disk_chaos_seed: int = 0
    #: Bounded query-work queue (the query plane sheds beyond this).
    query_queue_capacity: int = 16
    #: How long a handler waits for its queued query before answering
    #: RESULT_RETRY (the query-side shed path).
    query_timeout_s: float = 10.0
    #: Faulting ingest attempts per payload before it is quarantined
    #: as poison (transient-outage faults are exempt).
    ingest_retry_limit: int = 5

    def __post_init__(self) -> None:
        if self.read_deadline_s <= 0:
            raise ValueError("read deadline must be positive")
        if not 1 <= self.max_frame_bytes <= protocol.MAX_FRAME_LIMIT:
            raise ValueError(
                "frame limit must be in [1, "
                f"{protocol.MAX_FRAME_LIMIT}] (the cap keeps request "
                "frames distinguishable from query frames)"
            )
        if self.max_connections < 1:
            raise ValueError("need at least one connection slot")
        if self.drain_timeout_s < 0:
            raise ValueError("drain timeout cannot be negative")
        if self.store_seal_records < 1:
            raise ValueError("store_seal_records must be >= 1")
        if not 0.0 <= self.disk_chaos_rate <= 1.0:
            raise ValueError("disk chaos rate must be in [0, 1]")
        if self.query_queue_capacity < 1:
            raise ValueError("query queue needs capacity >= 1")
        if self.query_timeout_s <= 0:
            raise ValueError("query timeout must be positive")
        if self.ingest_retry_limit < 1:
            raise ValueError("ingest retry limit must be >= 1")

    def build_store(self):
        """The configured :class:`~repro.store.SegmentStore`."""
        from repro.chaos.disk import DiskChaos, DiskChaosConfig
        from repro.store import SegmentStore

        io = None
        if self.disk_chaos_rate > 0:
            # The fault ledger lands next to the store data, fsynced
            # per fault, so a post-SIGKILL scrub can still reconcile
            # its findings against what was actually injected.
            io = DiskChaos(
                DiskChaosConfig.uniform(self.disk_chaos_rate,
                                        seed=self.disk_chaos_seed),
                ledger=Path(self.store_dir) / "chaos-ledger.jsonl",
            )
        return SegmentStore(
            self.store_dir,
            seal_records=self.store_seal_records,
            io=io,
        )


@dataclass
class DrainResult:
    """What :meth:`IngestService.stop` accomplished."""

    drained: bool
    #: Payloads still queued when the drain window closed (these went
    #: into the checkpoint, not into the void).
    leftover: int
    checkpoint_path: str | None = None
    summary: dict = field(default_factory=dict)


class IngestService:
    """A threaded TCP ingest front end over one IngestionServer."""

    def __init__(self, config: ServeConfig,
                 server: IngestionServer | None = None) -> None:
        self.config = config
        self.server = server if server is not None else IngestionServer()
        # The configured store attaches here unless the server already
        # brought one (the resume path reattaches before we run).
        if self.server.store is None:
            self.server.attach_store(config.build_store())
        self.queue = AdmissionQueue(
            capacity=self.config.queue_capacity,
            policy=self.config.policy,
            retry_after_s=self.config.retry_after_s,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
        )
        self.query_plane = QueryPlane(
            QueryEngine(self.server),
            capacity=self.config.query_queue_capacity,
            timeout_s=self.config.query_timeout_s,
            retry_after_s=self.config.retry_after_s,
        )
        #: Checkpoint writes go through this — never the store's
        #: ``io``, whose injected faults only scrub can explain.
        self.io = DiskIO()
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._worker_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._draining = threading.Event()
        self._stop_worker = threading.Event()
        self._worker_idle = threading.Event()
        self._worker_idle.set()
        # -- accounting --
        self.connections_accepted = 0
        self.connections_refused = 0
        self.deadline_closes = 0
        self.oversized_frames = 0
        self.unavailable_acks = 0
        self.ingest_faults = 0
        #: Payloads quarantined after exhausting their retry budget.
        self.poisoned = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "IngestService":
        if self._listener is not None:
            raise RuntimeError("service already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._worker_thread = threading.Thread(
            target=self._worker_loop, name="serve-ingest", daemon=True
        )
        self._accept_thread.start()
        self._worker_thread.start()
        self.query_plane.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError("service not started")
        return (self.config.host, self.port)

    def stop(self, checkpoint_path: str | os.PathLike | None = None,
             drain: bool = True) -> DrainResult:
        """Stop accepting, drain the queue, checkpoint, shut down.

        With ``drain=False`` (a simulated crash) the queue is *not*
        flushed and no checkpoint is written — clients recover by
        retrying against a restarted service, exactly as they would
        after a SIGKILL.
        """
        self._draining.set()
        if self._listener is not None:
            # shutdown() actually wakes a thread blocked in accept();
            # close() alone leaves it stuck until the next connection.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._close_silently(self._listener)
        deadline = time.monotonic() + (
            self.config.drain_timeout_s if drain else 0.0
        )
        while (drain and self.queue.depth
               and time.monotonic() < deadline):
            time.sleep(0.005)
        # Give the worker a moment to finish the in-hand payload.
        self._stop_worker.set()
        if self._worker_thread is not None:
            self._worker_thread.join(timeout=5.0)
        with self._conn_lock:
            pending_conns = list(self._connections)
        for conn in pending_conns:
            self._close_silently(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if drain:
            # Seal every tail so the on-disk store is compact.  A
            # fault here is safe to absorb: the WAL already owns the
            # tail rows, so a failed seal only defers compaction.
            try:
                self.server.store.flush()
            except Exception:
                get_registry().inc("store_seal_failures_total",
                                   reason="drain-flush")
        self.query_plane.stop()
        leftover = self.queue.depth
        result = DrainResult(
            drained=(leftover == 0),
            leftover=leftover,
            summary=self.summary(),
        )
        registry = get_registry()
        if drain and checkpoint_path is not None:
            result.checkpoint_path = str(
                self.write_checkpoint(checkpoint_path)
            )
        elif drain and leftover:
            # No checkpoint to carry them: the queue still owns these
            # acked payloads, so they become explicit server-side
            # sheds (identity-accounted) rather than vanishing.
            discarded = self.queue.discard_remaining()
            registry.inc("serve_drain_discarded_total", discarded)
            result.summary = self.summary()
        if registry.enabled and drain:
            registry.inc("serve_drains_total")
            registry.gauge_set("serve_drain_leftover", leftover)
        return result

    # -- checkpoint / resume -------------------------------------------------

    def checkpoint(self) -> dict:
        """JSON-able snapshot: ingest state + owned-but-unprocessed
        payloads + admission accounting.

        Only call once the worker has stopped (``stop()`` does).
        """
        queued = self.queue.drain_all()
        return {
            "format": CHECKPOINT_FORMAT,
            "server": self.server.checkpoint(),
            "queue": [
                {
                    "payload": base64.b64encode(e.payload).decode(),
                    "sender": e.sender,
                }
                for e in queued
            ],
            "admission": {
                **self.queue.summary(),
                "shed_keys": list(self.queue.shed_keys),
            },
            "breaker": self.breaker.summary(),
        }

    def write_checkpoint(self, path: str | os.PathLike) -> Path:
        """Write :meth:`checkpoint` durably (temp + fsync + rename):
        the queued payloads in it were acked, so a power loss after a
        "successful" drain must not find an empty file."""
        target = Path(path)
        self.io.write_atomic(
            target,
            json.dumps(self.checkpoint(), sort_keys=True).encode("utf-8"),
        )
        return target

    @classmethod
    def resume(cls, path: str | os.PathLike,
               config: ServeConfig) -> "IngestService":
        """Rebuild a service from a drain checkpoint (not started).

        The store configured for this process is reattached (it may
        carry disk chaos), so the journal-proven records survive the
        hop.
        """
        snapshot = json.loads(Path(path).read_text())
        service = cls(
            config,
            server=IngestionServer.restore(snapshot["server"],
                                           store=config.build_store()),
        )
        service.queue.restore([
            (base64.b64decode(entry["payload"]), entry["sender"])
            for entry in snapshot["queue"]
        ])
        # The checkpoint's admission block (counters + shed
        # identities) survives the hop too — without it, pre-restart
        # server-side sheds would reconcile as unexplained losses.
        service.queue.restore_accounting(
            snapshot.get("admission") or {}
        )
        return service

    # -- reconciliation surface ----------------------------------------------

    @property
    def shed_keys(self) -> list[str]:
        """Identities shed from the admission queue (server losses)."""
        return list(self.queue.shed_keys)

    @property
    def queued_keys(self) -> set[str]:
        """Identities admitted but not yet ingested (in flight)."""
        return self.queue.payload_keys()

    def summary(self) -> dict:
        return {
            "connections_accepted": self.connections_accepted,
            "connections_refused": self.connections_refused,
            "deadline_closes": self.deadline_closes,
            "oversized_frames": self.oversized_frames,
            "unavailable_acks": self.unavailable_acks,
            "ingest_faults": self.ingest_faults,
            "poisoned": self.poisoned,
            "query": {
                "answered": self.query_plane.answered,
                "shed": self.query_plane.shed,
                "errors": self.query_plane.errors,
            },
            "admission": self.queue.summary(),
            "breaker": self.breaker.summary(),
            "server": self.server.summary(),
        }

    # -- accept / handler threads --------------------------------------------

    def _accept_loop(self) -> None:
        registry = get_registry()
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed: drain began
                return
            with self._conn_lock:
                active = len(self._connections)
                if active >= self.config.max_connections:
                    self.connections_refused += 1
                    registry.inc("serve_connections_refused_total")
                    self._close_silently(conn)
                    continue
                self._connections.add(conn)
                if registry.enabled:
                    # Level gauge (falls on disconnect); written under
                    # the connection lock so accept/close updates
                    # cannot land out of order.
                    registry.gauge_level("serve_connections_active",
                                         len(self._connections))
            self.connections_accepted += 1
            if registry.enabled:
                registry.inc("serve_connections_total")
            threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="serve-conn", daemon=True,
            ).start()

    def _handle_connection(self, conn: socket.socket) -> None:
        registry = get_registry()
        conn.settimeout(self.config.read_deadline_s)
        try:
            # Runs until the peer hangs up or ``stop()`` force-closes
            # the socket — not until drain begins: a frame in flight
            # when the drain flag flips deserves the polite
            # UNAVAILABLE answer, not a reset.
            while True:
                try:
                    frame = protocol.read_frame(
                        conn, self.config.max_frame_bytes
                    )
                except protocol.FrameTimeout:
                    self.deadline_closes += 1
                    registry.inc("serve_conn_deadline_total")
                    return
                except protocol.FrameTooLarge:
                    self.oversized_frames += 1
                    registry.inc("serve_frames_rejected_total",
                                 reason="too-large")
                    # The stream beyond the header can't be trusted:
                    # ack the permanent rejection, then hang up.
                    protocol.write_ack(conn, protocol.ACK_TOO_LARGE)
                    return
                except protocol.UnsupportedQueryVersion as exc:
                    registry.inc("serve_frames_rejected_total",
                                 reason="query-version")
                    protocol.write_result(conn, protocol.RESULT_ERROR,
                                          {"error": str(exc)})
                    return
                except protocol.ConnectionClosed:
                    return
                except protocol.ProtocolError as exc:
                    # Malformed query body: the stream may be out of
                    # sync, so answer and hang up.
                    registry.inc("serve_frames_rejected_total",
                                 reason="malformed")
                    protocol.write_result(conn, protocol.RESULT_ERROR,
                                          {"error": str(exc)})
                    return
                registry.inc("serve_frames_total")
                if frame[0] == "query":
                    self._answer_query(conn, frame[1], registry)
                else:
                    self._answer_frame(conn, frame[1], frame[2],
                                       registry)
        except OSError:
            return  # peer reset / socket closed under us
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
                if registry.enabled:
                    registry.gauge_level("serve_connections_active",
                                         len(self._connections))
            self._close_silently(conn)

    def _answer_frame(self, conn, sender: int, payload: bytes,
                      registry) -> None:
        if self._draining.is_set():
            self.unavailable_acks += 1
            registry.inc("serve_unavailable_acks_total",
                         reason="draining")
            protocol.write_ack(conn, protocol.ACK_UNAVAILABLE)
            return
        if self.breaker.state == OPEN:
            # Downstream is tripped: refuse up front with the time
            # left on the breaker timer as the retry hint.
            self.unavailable_acks += 1
            registry.inc("serve_unavailable_acks_total",
                         reason="breaker")
            protocol.write_ack(conn, protocol.ACK_UNAVAILABLE,
                               self.breaker.retry_in_s())
            return
        decision = self.queue.offer(
            payload, sender, admitted_at=time.monotonic()
        )
        if decision.admitted:
            protocol.write_ack(conn, protocol.ACK_OK)
        else:
            protocol.write_ack(conn, protocol.ACK_RETRY_AFTER,
                               decision.retry_after_s)

    def _answer_query(self, conn, kind: str, registry) -> None:
        """Route one query through the bounded query plane."""
        if self._draining.is_set():
            registry.inc("query_unavailable_total", reason="draining")
            protocol.write_result(conn, protocol.RESULT_UNAVAILABLE,
                                  {"error": "service draining"})
            return
        ticket = self.query_plane.submit(kind)
        if ticket is None:
            protocol.write_result(
                conn, protocol.RESULT_RETRY,
                {"retry_after_s": self.query_plane.retry_after_s},
            )
            return
        status, body = self.query_plane.wait(ticket)
        protocol.write_result(conn, status, body)

    # -- the ingest worker ---------------------------------------------------

    def _worker_loop(self) -> None:
        """The commit loop: drain what queued while the last commit
        ran, hand it downstream as one batch, repeat.

        The worker never waits to fill a batch, so a lone payload is
        committed at once and batches grow only under load.  A batch
        that faults cannot blame a payload, so it goes back to the
        head in order and its payloads are retried one at a time —
        the retry budget, poison quarantine and the outage exemption
        then apply per payload.
        """
        registry = get_registry()
        #: Payloads of a faulted batch still owed a solo attempt.
        solo = 0
        while True:
            entries = self.queue.pop_many(
                1 if solo else INGEST_BATCH_MAX, timeout=0.02
            )
            if not entries:
                self._worker_idle.set()
                if self._stop_worker.is_set():
                    return
                continue
            self._worker_idle.clear()
            if not self.breaker.allow():
                # Owned payloads, tripped downstream: put them back
                # and wait out (a slice of) the breaker timer.
                self.queue.requeue_front(*entries)
                if self._stop_worker.is_set():
                    return
                time.sleep(min(0.02, max(0.001,
                                         self.breaker.retry_in_s())))
                continue
            started = time.monotonic()
            try:
                self.server.receive_many([e.payload for e in entries])
            except Exception as exc:
                self.ingest_faults += 1
                self.breaker.record_failure()
                registry.inc("serve_ingest_faults_total")
                if isinstance(exc, ServiceUnavailable):
                    # A transient downstream outage says nothing about
                    # the payloads themselves, so it does not consume
                    # retry budget — an outage longer than the budget
                    # must not turn owned payloads into poison.
                    self.queue.requeue_front(*entries)
                elif len(entries) > 1:
                    # Nobody to blame yet: each payload of the batch
                    # gets a solo attempt, budgets untouched.
                    self.queue.requeue_front(*entries)
                    solo = len(entries)
                else:
                    entry = entries[0]
                    entry.attempts += 1
                    if entry.attempts >= self.config.ingest_retry_limit:
                        # Head-of-line poison: requeuing forever would
                        # wedge every payload behind this one.
                        # Quarantine it with identity accounting so
                        # reconciliation classifies the loss as a
                        # server-side shed.
                        self.poisoned += 1
                        self.queue.shed_entry(entry, policy="poison")
                        registry.inc("serve_poison_quarantined_total")
                        solo = max(0, solo - 1)
                    else:
                        self.queue.requeue_front(entry)
                if self._stop_worker.is_set():
                    return
                continue
            self.breaker.record_success()
            solo = max(0, solo - 1)
            if registry.enabled:
                # One observation per record, so the ingest sum stays
                # the worker's busy time and the counts stay records.
                share = (time.monotonic() - started) / len(entries)
                registry.observe("serve_ingest_batch_records",
                                 len(entries), buckets=BATCH_BUCKETS)
                for entry in entries:
                    registry.observe("serve_stage_seconds", share,
                                     buckets=LATENCY_BUCKETS_S,
                                     stage="ingest")
                    if entry.admitted_at:
                        registry.observe("serve_stage_seconds",
                                         started - entry.admitted_at,
                                         buckets=LATENCY_BUCKETS_S,
                                         stage="queue")

    @staticmethod
    def _close_silently(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass
