"""Wire protocol between device uploaders and the live ingest service.

A deliberately tiny binary framing — the payloads themselves are the
zlib-compressed JSON records :class:`repro.monitoring.uploader.UploadBatcher`
already produces, so the service adds only what a socket needs:

* **request frame** — ``!IQ`` header (payload length, sender id)
  followed by the payload bytes.  The sender id lets the server apply
  per-device admission policy (fair share) without decompressing the
  payload on the accept path; ``0`` means anonymous.
* **ack frame** — ``!BI`` (status byte, argument).  The argument is
  the suggested retry delay in **milliseconds** for
  :data:`ACK_RETRY_AFTER` and zero otherwise.
* **query frame** — a 4-byte magic (``b"QRY"`` + a version byte)
  followed by ``!BI`` (query code, options length) and an optional
  JSON options blob.  The magic doubles as the frame discriminator:
  request frames start with their payload length, which
  :data:`MAX_FRAME_LIMIT` keeps strictly below the magic's integer
  value, so one 4-byte read tells the server which frame it is
  reading.  The version byte lets the wire format evolve without a
  second port — a server that does not speak the client's version
  answers with an explanatory :data:`RESULT_ERROR` instead of
  misparsing the stream.
* **result frame** — ``!BI`` (status byte, body length) followed by a
  JSON body: the query answer for :data:`RESULT_OK`, and a diagnostic
  object (``retry_after_s`` / ``error``) otherwise.

Ack semantics mirror the uploader's exception-based ack protocol:

* :data:`ACK_OK` — the payload is durably admitted; the server now owns
  it (it will be ingested, quarantined, or carried across a drain
  checkpoint — never silently lost).
* :data:`ACK_RETRY_AFTER` — backpressure: the admission queue refused
  the payload.  The sender keeps it spooled and folds the suggested
  delay into its backoff gate.
* :data:`ACK_UNAVAILABLE` — the service is draining or its downstream
  circuit breaker is open; retry later (no suggested delay).
* :data:`ACK_TOO_LARGE` — the frame exceeded the server's limit; the
  payload can never be accepted and the sender should drop it with
  explicit accounting (a *permanent* rejection).

Frame reads honour a deadline via socket timeouts — a sender that
stalls mid-frame (slow loris) hits :class:`FrameTimeout` server-side
and the connection is closed, never holding a handler thread hostage.
"""

from __future__ import annotations

import json
import socket
import struct

#: Request frame header: payload length (u32), sender id (u64).
REQUEST_HEADER = struct.Struct("!IQ")
#: Ack frame: status (u8), argument (u32; retry-after millis).
ACK_FRAME = struct.Struct("!BI")

#: Default cap on a single payload (bytes); frames declaring more are
#: refused with :data:`ACK_TOO_LARGE` and the connection is dropped.
MAX_FRAME_BYTES = 1 << 20

#: Hard ceiling on any configured frame limit.  Keeping every legal
#: payload length strictly below the query magic's integer value
#: (``b"QRY\\x01"`` is 0x51525901) makes the first four bytes of a
#: frame an unambiguous discriminator between request and query
#: frames.
MAX_FRAME_LIMIT = 1 << 30

ACK_OK = 0x00
ACK_RETRY_AFTER = 0x01
ACK_UNAVAILABLE = 0x02
ACK_TOO_LARGE = 0x03

ACK_NAMES = {
    ACK_OK: "ok",
    ACK_RETRY_AFTER: "retry-after",
    ACK_UNAVAILABLE: "unavailable",
    ACK_TOO_LARGE: "too-large",
}

# -- query plane (QUERY / RESULT frames) ------------------------------------

#: First three bytes of every query frame, any version.
QUERY_MAGIC = b"QRY"
#: Current query wire-format version (the magic's fourth byte).
QUERY_VERSION = 1

#: Query frame body after the magic: query code (u8), options length
#: (u32; a JSON object, ``{}`` encoded as zero bytes).
QUERY_HEADER = struct.Struct("!BI")
#: Result frame: status (u8), JSON body length (u32).
RESULT_HEADER = struct.Struct("!BI")

#: Cap on a result body — analysis blocks are small; anything larger
#: is a framing error, not a legitimate answer.
MAX_RESULT_BYTES = 1 << 24
#: Cap on a query options blob.
MAX_QUERY_OPTIONS_BYTES = 1 << 16

RESULT_OK = 0x00
#: The query work queue refused the request (shed / timed out); the
#: body carries ``retry_after_s``.
RESULT_RETRY = 0x01
#: The service is draining.
RESULT_UNAVAILABLE = 0x02
#: The request itself failed (unknown kind, unsupported version,
#: engine fault); the body carries ``error``.
RESULT_ERROR = 0x03

RESULT_NAMES = {
    RESULT_OK: "ok",
    RESULT_RETRY: "retry",
    RESULT_UNAVAILABLE: "unavailable",
    RESULT_ERROR: "error",
}

#: Wire codes for the supported query kinds.
QUERY_CODES = {
    "stats": 0x01,
    "isp_bs": 0x02,
    "transitions": 0x03,
    "summary": 0x04,
}
QUERY_KINDS = {code: kind for kind, code in QUERY_CODES.items()}


class ProtocolError(RuntimeError):
    """The byte stream violated the framing contract."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (mid-frame or between frames)."""

    def __init__(self, message: str, *, clean: bool = False) -> None:
        super().__init__(message)
        #: True when the close fell exactly on a frame boundary.
        self.clean = clean


class FrameTimeout(ProtocolError):
    """The peer stalled past the read deadline mid-frame."""


class FrameTooLarge(ProtocolError):
    """A frame header declared a payload above the size limit."""

    def __init__(self, declared: int, limit: int) -> None:
        super().__init__(
            f"frame declares {declared} bytes, limit is {limit}"
        )
        self.declared = declared
        self.limit = limit


class UnsupportedQueryVersion(ProtocolError):
    """A query frame spoke a wire-format version we do not."""

    def __init__(self, version: int) -> None:
        super().__init__(
            f"query wire version {version} unsupported "
            f"(this end speaks {QUERY_VERSION})"
        )
        self.version = version


def recv_exact(sock: socket.socket, n: int, *,
               at_boundary: bool = False) -> bytes:
    """Read exactly ``n`` bytes or raise.

    ``at_boundary`` marks the read as the start of a frame, so an EOF
    with zero bytes buffered is a *clean* close (the peer simply hung
    up between frames) rather than a truncation.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (socket.timeout, TimeoutError):
            raise FrameTimeout(
                f"peer stalled with {remaining} of {n} bytes unread"
            ) from None
        if not chunk:
            clean = at_boundary and not chunks
            raise ConnectionClosed(
                "peer closed the connection"
                + ("" if clean else " mid-frame"),
                clean=clean,
            )
        chunks.append(chunk)
        remaining -= len(chunk)
        at_boundary = False
    return b"".join(chunks)


def read_request(sock: socket.socket,
                 max_frame_bytes: int = MAX_FRAME_BYTES
                 ) -> tuple[int, bytes]:
    """Read one request frame; returns ``(sender_id, payload)``.

    The size check happens on the header alone, *before* any payload
    bytes are read, so an oversized frame costs the server 12 bytes of
    input — the body is never buffered.
    """
    header = recv_exact(sock, REQUEST_HEADER.size, at_boundary=True)
    length, sender = REQUEST_HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLarge(length, max_frame_bytes)
    payload = recv_exact(sock, length)
    return sender, payload


def write_request(sock: socket.socket, payload: bytes,
                  sender: int = 0) -> None:
    sock.sendall(REQUEST_HEADER.pack(len(payload), sender) + payload)


def read_ack(sock: socket.socket) -> tuple[int, float]:
    """Read one ack; returns ``(status, retry_after_s)``."""
    status, arg = ACK_FRAME.unpack(
        recv_exact(sock, ACK_FRAME.size, at_boundary=True)
    )
    if status not in ACK_NAMES:
        raise ProtocolError(f"unknown ack status {status:#x}")
    return status, arg / 1000.0


def write_ack(sock: socket.socket, status: int,
              retry_after_s: float = 0.0) -> None:
    millis = max(0, min(0xFFFFFFFF, int(round(retry_after_s * 1000))))
    sock.sendall(ACK_FRAME.pack(status, millis))


# -- query plane frames -----------------------------------------------------


def read_frame(sock: socket.socket,
               max_frame_bytes: int = MAX_FRAME_BYTES):
    """Read one frame of either kind off a server-side connection.

    Returns ``("ingest", sender_id, payload)`` for a request frame or
    ``("query", kind, options)`` for a query frame.  The first four
    bytes decide: request frames lead with their payload length, which
    is capped below the query magic's integer value, so the prefixes
    cannot collide.
    """
    prefix = recv_exact(sock, 4, at_boundary=True)
    if prefix[:3] == QUERY_MAGIC:
        version = prefix[3]
        if version != QUERY_VERSION:
            raise UnsupportedQueryVersion(version)
        code, options_len = QUERY_HEADER.unpack(
            recv_exact(sock, QUERY_HEADER.size)
        )
        if options_len > MAX_QUERY_OPTIONS_BYTES:
            raise FrameTooLarge(options_len, MAX_QUERY_OPTIONS_BYTES)
        options = {}
        if options_len:
            blob = recv_exact(sock, options_len)
            try:
                options = json.loads(blob.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ProtocolError(
                    f"query options are not valid JSON: {exc}"
                ) from None
        kind = QUERY_KINDS.get(code)
        if kind is None:
            raise ProtocolError(f"unknown query code {code:#x}")
        return ("query", kind, options)
    rest = recv_exact(sock, REQUEST_HEADER.size - 4)
    length, sender = REQUEST_HEADER.unpack(prefix + rest)
    if length > max_frame_bytes:
        raise FrameTooLarge(length, max_frame_bytes)
    return ("ingest", sender, recv_exact(sock, length))


def write_query(sock: socket.socket, kind: str,
                options: dict | None = None) -> None:
    """Send one query frame (client side)."""
    code = QUERY_CODES.get(kind)
    if code is None:
        raise ValueError(
            f"unknown query kind {kind!r}; "
            f"expected one of {', '.join(sorted(QUERY_CODES))}"
        )
    blob = b""
    if options:
        blob = json.dumps(options, sort_keys=True).encode("utf-8")
    if len(blob) > MAX_QUERY_OPTIONS_BYTES:
        raise FrameTooLarge(len(blob), MAX_QUERY_OPTIONS_BYTES)
    sock.sendall(
        QUERY_MAGIC + bytes([QUERY_VERSION])
        + QUERY_HEADER.pack(code, len(blob)) + blob
    )


def read_result(sock: socket.socket) -> tuple[int, dict]:
    """Read one result frame; returns ``(status, body)``."""
    status, length = RESULT_HEADER.unpack(
        recv_exact(sock, RESULT_HEADER.size, at_boundary=True)
    )
    if status not in RESULT_NAMES:
        raise ProtocolError(f"unknown result status {status:#x}")
    if length > MAX_RESULT_BYTES:
        raise FrameTooLarge(length, MAX_RESULT_BYTES)
    body = {}
    if length:
        blob = recv_exact(sock, length)
        try:
            body = json.loads(blob.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(
                f"result body is not valid JSON: {exc}"
            ) from None
    return status, body


def encode_result(body: dict | None) -> bytes:
    """The wire bytes of a result body: sorted JSON, size-checked.

    Raises :class:`FrameTooLarge` past :data:`MAX_RESULT_BYTES` — the
    query worker encodes there, so an answer that cannot be framed is
    an error it reports, not one that kills a handler mid-write.
    """
    blob = b""
    if body:
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
    if len(blob) > MAX_RESULT_BYTES:
        raise FrameTooLarge(len(blob), MAX_RESULT_BYTES)
    return blob


def write_result(sock: socket.socket, status: int,
                 body: dict | bytes | None = None) -> None:
    """Send one result frame (server side); ``bytes`` are a body
    :func:`encode_result` already produced."""
    blob = body if isinstance(body, bytes) else encode_result(body)
    sock.sendall(RESULT_HEADER.pack(status, len(blob)) + blob)
