"""Device-side socket transport for the live ingest service.

:class:`SocketTransport` is an :class:`~repro.monitoring.uploader.UploadBatcher`
transport callable: returning means *acked and owned by the server*;
raising means the payload stays spooled.  The exceptions carry the
server's advice as attributes the batcher understands:

* ``retry_after_s`` — fold this delay into the backoff gate
  (:class:`RetryAfter`, and :class:`ServeUnavailable` when the server
  hinted at its breaker timer);
* ``permanent`` — drop the payload with explicit accounting, retrying
  is futile (:class:`PayloadTooLarge`).

The connection is persistent and lazily (re)established, so a server
restart mid-run costs the client one :class:`ServeConnectionError`
per flush attempt until the service is back — which the batcher's
exponential backoff already paces.

It composes with :class:`~repro.chaos.transport.ChaosTransport` in
either direction; the overload harness wraps chaos *around* the socket
so injected faults and real socket behaviour stack.
"""

from __future__ import annotations

import socket

from repro.backend.ingest import NotAcked
from repro.serve import protocol


class TransportSignal(NotAcked):
    """Base class for non-ack outcomes of a socket send."""

    #: The batcher drops the payload when True (no retry can succeed).
    permanent = False
    #: Suggested delay before the next flush attempt (seconds).
    retry_after_s: float | None = None


class ServeConnectionError(TransportSignal):
    """Could not reach the service (down, restarting, or mid-crash)."""


class RetryAfter(TransportSignal):
    """Backpressure: the admission queue refused the payload."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"server asked to retry in {retry_after_s:.3f}s")
        self.retry_after_s = retry_after_s


class ServeUnavailable(TransportSignal):
    """The service is draining or its circuit breaker is open."""

    def __init__(self, retry_after_s: float = 0.0) -> None:
        super().__init__("service unavailable")
        # A zero hint means "none given"; leave the batcher's own
        # backoff schedule in charge.
        self.retry_after_s = retry_after_s or None


class PayloadTooLarge(TransportSignal):
    """The frame exceeds the server's limit; never retryable."""

    permanent = True


class QueryError(TransportSignal):
    """The server rejected or failed the query itself (RESULT_ERROR)."""

    permanent = True


class SocketTransport:
    """A persistent framed-TCP channel to one ingest service."""

    def __init__(self, host: str, port: int, sender: int = 0,
                 timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.sender = sender
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        # -- accounting --
        self.sends = 0
        self.acked = 0
        self.connect_failures = 0

    def __call__(self, payload: bytes) -> None:
        """Send one payload; returning means the server owns it."""
        self.sends += 1
        sock = self._connected()
        try:
            protocol.write_request(sock, payload, self.sender)
            status, retry_after_s = protocol.read_ack(sock)
        except (OSError, protocol.ProtocolError) as exc:
            # The ack never arrived: the send is indeterminate, which
            # the ack protocol resolves as "not acked, retry" — the
            # server's dedup absorbs the replay if it did land.
            self.close()
            raise ServeConnectionError(
                f"lost connection mid-send: {exc!r}"
            ) from None
        if status == protocol.ACK_OK:
            self.acked += 1
            return
        if status == protocol.ACK_RETRY_AFTER:
            raise RetryAfter(retry_after_s)
        if status == protocol.ACK_UNAVAILABLE:
            raise ServeUnavailable(retry_after_s)
        # ACK_TOO_LARGE: the server hangs up after this ack.
        self.close()
        raise PayloadTooLarge(
            f"payload of {len(payload)} bytes exceeds the server limit"
        )

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _connected(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
        except OSError as exc:
            self.connect_failures += 1
            raise ServeConnectionError(
                f"cannot reach {self.host}:{self.port}: {exc!r}"
            ) from None
        sock.settimeout(self.timeout_s)
        self._sock = sock
        return sock


class QueryClient(SocketTransport):
    """A framed-TCP client for the service's live query plane.

    Shares the persistent-connection discipline of
    :class:`SocketTransport` (lazy reconnect, one
    :class:`ServeConnectionError` per attempt while the service is
    down) but speaks QUERY/RESULT frames.  :meth:`query` returns the
    full response envelope — ``result`` (the analysis sub-block),
    ``watermark``, ``skipped_segments``, and ``cache`` counters — and
    maps the non-OK statuses onto the transport-signal hierarchy:
    :class:`RetryAfter` (plane shed the query),
    :class:`ServeUnavailable` (draining), :class:`QueryError`
    (unknown kind / engine fault; permanent).
    """

    def query(self, kind: str, options: dict | None = None) -> dict:
        """Run one query; returns the response envelope."""
        sock = self._connected()
        try:
            protocol.write_query(sock, kind, options)
            status, body = protocol.read_result(sock)
        except (OSError, protocol.ProtocolError) as exc:
            self.close()
            raise ServeConnectionError(
                f"lost connection mid-query: {exc!r}"
            ) from None
        if status == protocol.RESULT_OK:
            return body
        if status == protocol.RESULT_RETRY:
            raise RetryAfter(float(body.get("retry_after_s", 0.0)
                                   or 1.0))
        if status == protocol.RESULT_UNAVAILABLE:
            raise ServeUnavailable()
        raise QueryError(body.get("error", "query failed"))

    def stats(self) -> dict:
        return self.query("stats")

    def isp_bs(self) -> dict:
        return self.query("isp_bs")

    def transitions(self) -> dict:
        return self.query("transitions")

    def summary(self) -> dict:
        return self.query("summary")
