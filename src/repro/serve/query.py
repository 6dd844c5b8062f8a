"""The live query plane: streaming answers while ingest continues.

The service's other half.  Ingest makes the store grow; this module
answers ``stats`` / ``isp_bs`` / ``transitions`` / ``summary``
requests over it *live*, with three guarantees:

* **Exactness** — a query answer is byte-identical (in sorted-JSON
  form) to the offline ``analysis`` block computed over the same
  records: the fold is the store's own
  :meth:`~repro.store.SegmentStore.fold_snapshot` over
  :class:`~repro.analysis.columnar.SegmentPartial` batches, whose
  per-device evidence keeps the distinct-device counters exact while
  one device's records spread across many segments.
* **Snapshot consistency** — a fold runs over
  :meth:`~repro.store.SegmentStore.query_snapshot` (taken under a
  mutex writers hold only to publish, never across an fsync), so it
  never observes a half-applied seal even though the ingest worker
  keeps appending underneath it.
* **Incrementality** — the engine keeps one
  :class:`~repro.store.fold.FoldState` for its lifetime: a running
  fold of the sealed segments it has decoded (by committed sha256)
  and a running fold of the tail rows it has reduced, with a mark on
  the store's one tail.  An answer decodes only segments it has not
  seen, reduces only rows appended since the previous answer, and
  returns the two folds merged, so it costs the new rows — not the
  tail, not the segment count.  The sealed side is rebuilt (by
  reading the surviving segments again, with accounting) when a
  folded digest leaves the live set — scrub quarantined the segment,
  or a re-seal superseded it; the tail side when the mark no longer
  holds — the tail sealed or was filtered by scrub.  The mark is
  the tail list itself, checked by *identity*, not by length: a tail
  that sealed and regrew past its old length between two answers is
  another list holding other rows.

The :class:`QueryPlane` puts a bounded work queue and a single worker
thread in front of the engine so query load degrades by *shedding
queries* (``RESULT_RETRY`` + ``query_shed_total``), never by starving
the ingest worker — the two planes share nothing but the store mutex,
which folds hold only for the snapshot copy.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from repro.analysis.columnar import (
    SegmentPartial,
    _Fold,
    analysis_summary,
)
from repro.obs import LATENCY_BUCKETS_S, get_registry
from repro.store.fold import FoldState

#: The queries the plane answers, in wire-code order.
QUERY_KINDS = ("stats", "isp_bs", "transitions", "summary")

#: Analysis-block fields each projection query returns.  ``summary``
#: is derived (see :func:`repro.analysis.columnar.analysis_summary`),
#: not a projection.
STATS_FIELDS = (
    "duration_hist", "duration_hist_by_type", "failing_devices",
    "failures_by_level", "failures_by_type", "failures_per_device",
    "max_failures_single_device", "n_devices", "n_failures",
    "oos_devices",
)
ISP_BS_FIELDS = ("failing_devices_by_isp", "failures_by_isp")
TRANSITIONS_FIELDS = (
    "n_transitions", "transitions_executed", "transitions_failed_after",
)


class QueryPlaneError(RuntimeError):
    """The query plane could not answer (bad kind, engine fault)."""


@dataclass
class FoldResult:
    """One snapshot-consistent fold, with its provenance."""

    block: dict
    watermark: dict
    skipped: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Rows this fold had to reduce (0 on an unchanged store).
    rows_folded: int = 0


class QueryEngine:
    """Folds analysis blocks over a live :class:`IngestionServer`.

    Store-backed servers fold through one :class:`FoldState` the
    engine keeps for its lifetime; legacy in-memory servers fold
    ``server.records`` directly.  Single-threaded by contract: only
    the query worker calls :meth:`fold`.
    """

    def __init__(self, server) -> None:
        self.server = server
        self.state = FoldState()

    @property
    def cache(self):
        """The state's folded segment digests and their per-segment
        hit / miss / invalidation accounting."""
        return self.state.cache

    def fold(self) -> FoldResult:
        store = self.server.store
        if store is None:
            return self._fold_memory()
        snapshot = store.query_snapshot()
        folded = store.fold_snapshot(snapshot, self.state)
        registry = get_registry()
        if registry.enabled:
            for name, amount in (
                ("query_rows_folded_total", folded.rows_folded),
                ("query_segments_skipped_total", len(folded.skipped)),
                ("query_cache_hits_total", folded.cache_hits),
                ("query_cache_misses_total", folded.cache_misses),
                ("query_cache_invalidations_total",
                 folded.invalidations),
            ):
                if amount:
                    registry.inc(name, amount)
            for side in folded.rebuilt:
                registry.inc("query_fold_rebuilds_total", side=side)
        return FoldResult(
            block=folded.block,
            watermark={
                "mode": "store",
                "n_records": snapshot.n_records,
                "folded_records": folded.block["n_failures"],
                "n_segments": folded.n_segments,
                "n_tail": folded.n_tail_records,
            },
            skipped=folded.skipped,
            cache_hits=folded.cache_hits,
            cache_misses=folded.cache_misses,
            rows_folded=folded.rows_folded,
        )

    def _fold_memory(self) -> FoldResult:
        # list() takes a consistent prefix snapshot: the worker only
        # ever appends, so records beyond the copy are simply "after
        # the watermark".
        records = list(self.server.records)
        fold = _Fold()
        fold.add(SegmentPartial.from_rows(records, attrgetter))
        return FoldResult(
            block=fold.block(),
            watermark={
                "mode": "memory",
                "n_records": len(records),
                "folded_records": len(records),
                "n_segments": 0,
                "n_tail": 0,
            },
            rows_folded=len(records),
        )

    def answer(self, kind: str) -> dict:
        """The full response envelope for one query kind."""
        if kind not in QUERY_KINDS:
            raise QueryPlaneError(
                f"unknown query kind {kind!r}; "
                f"expected one of {', '.join(QUERY_KINDS)}"
            )
        fold = self.fold()
        if kind == "stats":
            result = {key: fold.block[key] for key in STATS_FIELDS}
        elif kind == "isp_bs":
            result = {key: fold.block[key] for key in ISP_BS_FIELDS}
        elif kind == "transitions":
            result = {key: fold.block[key]
                      for key in TRANSITIONS_FIELDS}
        else:  # summary
            result = analysis_summary(fold.block)
        return {
            "query": kind,
            "watermark": fold.watermark,
            "result": result,
            "skipped_segments": fold.skipped,
            "cache": {"hits": fold.cache_hits,
                      "misses": fold.cache_misses},
        }


class _Ticket:
    """One queued query: the handler thread waits, the worker fills."""

    __slots__ = ("kind", "done", "status", "body", "abandoned",
                 "enqueued_at")

    def __init__(self, kind: str, enqueued_at: float) -> None:
        self.kind = kind
        self.done = threading.Event()
        self.status: int | None = None
        #: Encoded wire bytes for ``RESULT_OK``, else a diagnostic dict.
        self.body: bytes | dict | None = None
        #: Set by the handler when it gave up waiting; the worker
        #: skips the fold — or, already mid-fold, drops the answer
        #: uncounted — instead of answering nobody.
        self.abandoned = False
        self.enqueued_at = enqueued_at


class QueryPlane:
    """Bounded query-work queue + one worker, with shedding.

    Handler threads :meth:`submit` and wait on the returned ticket;
    ``None`` means the queue was full and the query was shed (the
    caller answers ``RESULT_RETRY``).  The single worker serializes
    folds, which keeps the engine's fold state lock-free and bounds
    the query plane's CPU share to one core regardless of client
    count.
    """

    def __init__(self, engine: QueryEngine, capacity: int = 16,
                 timeout_s: float = 10.0,
                 retry_after_s: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError("query queue needs capacity >= 1")
        if timeout_s <= 0:
            raise ValueError("query timeout must be positive")
        self.engine = engine
        self.capacity = capacity
        self.timeout_s = timeout_s
        self.retry_after_s = retry_after_s
        self._pending: deque[_Ticket] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # -- accounting --
        self.answered = 0
        self.shed = 0
        self.errors = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("query plane already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._worker_loop, name="serve-query", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        with self._not_empty:
            self._not_empty.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- handler side --------------------------------------------------------

    def submit(self, kind: str) -> _Ticket | None:
        """Enqueue one query; ``None`` when shed (queue full)."""
        registry = get_registry()
        with self._lock:
            if len(self._pending) >= self.capacity:
                self.shed += 1
                registry.inc("query_shed_total", reason="queue-full")
                return None
            ticket = _Ticket(kind, time.monotonic())
            self._pending.append(ticket)
            if registry.enabled:
                registry.inc("query_requests_total", kind=kind)
                registry.gauge_set("query_queue_depth",
                                   len(self._pending))
            self._not_empty.notify()
            return ticket

    def wait(self, ticket: _Ticket) -> tuple[int, bytes | dict]:
        """Block until the ticket is answered or the wait times out.

        The body of a ``RESULT_OK`` is the encoded wire bytes; every
        other status carries its diagnostic dict.
        """
        from repro.serve import protocol

        ticket.done.wait(self.timeout_s)
        # Under the lock the worker settles tickets with: a query is
        # either answered or shed, never both, however the timeout
        # races the fold.
        with self._lock:
            if ticket.status is not None:
                return ticket.status, ticket.body
            ticket.abandoned = True
            self.shed += 1
        get_registry().inc("query_shed_total", reason="timeout")
        return (protocol.RESULT_RETRY,
                {"retry_after_s": self.retry_after_s})

    # -- the query worker ----------------------------------------------------

    def _worker_loop(self) -> None:
        from repro.serve import protocol

        registry = get_registry()
        while True:
            with self._not_empty:
                while not self._pending and not self._stop.is_set():
                    self._not_empty.wait(timeout=0.1)
                if self._stop.is_set() and not self._pending:
                    return
                ticket = self._pending.popleft()
            if ticket.abandoned:
                continue
            started = time.monotonic()
            try:
                envelope = self.engine.answer(ticket.kind)
                folded = time.monotonic()
                # Encoded once, here: the handler sends these bytes,
                # and an oversized / unserializable result is this
                # worker's error to report, not the handler's to die of.
                body = protocol.encode_result(envelope)
                status = protocol.RESULT_OK
            except Exception as exc:
                status = protocol.RESULT_ERROR
                body = {"error": f"{type(exc).__name__}: {exc}"}
            encoded = time.monotonic()
            with self._lock:
                if ticket.abandoned:
                    # Timed out mid-fold: wait() counted it as shed.
                    continue
                ticket.status, ticket.body = status, body
                if status == protocol.RESULT_OK:
                    self.answered += 1
                else:
                    self.errors += 1
            if status != protocol.RESULT_OK:
                registry.inc("query_errors_total")
            elif registry.enabled:
                registry.observe("query_stage_seconds",
                                 started - ticket.enqueued_at,
                                 buckets=LATENCY_BUCKETS_S,
                                 stage="queue")
                registry.observe("query_stage_seconds",
                                 folded - started,
                                 buckets=LATENCY_BUCKETS_S,
                                 stage="fold")
                registry.observe("query_stage_seconds",
                                 encoded - folded,
                                 buckets=LATENCY_BUCKETS_S,
                                 stage="encode")
            ticket.done.set()
