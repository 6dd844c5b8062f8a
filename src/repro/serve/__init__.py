"""``repro.serve`` — the overload-resilient live ingest service.

Promotes the in-process :class:`repro.backend.ingest.IngestionServer`
to a long-lived TCP service in the probe-fleet → central-collection
shape of the paper's 70M-user platform: framed uploads with explicit
acks, a bounded admission queue with pluggable overload policies,
a circuit breaker around the ingest path, slow-loris read deadlines,
graceful drain to a resumable checkpoint, and a live **query plane**
(:mod:`repro.serve.query`) answering ``stats`` / ``isp_bs`` /
``transitions`` / ``summary`` over a snapshot-consistent fold while
ingest continues.  See ``docs/architecture.md`` ("Live ingest
service") for the design and ``docs/api.md`` for the protocol table.
"""

from repro.serve.admission import AdmissionQueue, Decision, POLICIES
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpen,
)
from repro.serve.client import (
    PayloadTooLarge,
    QueryClient,
    QueryError,
    RetryAfter,
    ServeConnectionError,
    ServeUnavailable,
    SocketTransport,
    TransportSignal,
)
from repro.serve.protocol import (
    ACK_NAMES,
    ACK_OK,
    ACK_RETRY_AFTER,
    ACK_TOO_LARGE,
    ACK_UNAVAILABLE,
    MAX_FRAME_BYTES,
    QUERY_VERSION,
    RESULT_NAMES,
)
from repro.serve.query import (
    QUERY_KINDS,
    QueryEngine,
    QueryPlane,
)
from repro.serve.service import (
    CHECKPOINT_FORMAT,
    DrainResult,
    IngestService,
    ServeConfig,
)

__all__ = [
    "ACK_NAMES",
    "ACK_OK",
    "ACK_RETRY_AFTER",
    "ACK_TOO_LARGE",
    "ACK_UNAVAILABLE",
    "AdmissionQueue",
    "CHECKPOINT_FORMAT",
    "CLOSED",
    "CircuitBreaker",
    "CircuitOpen",
    "Decision",
    "DrainResult",
    "HALF_OPEN",
    "IngestService",
    "MAX_FRAME_BYTES",
    "OPEN",
    "POLICIES",
    "PayloadTooLarge",
    "QUERY_KINDS",
    "QUERY_VERSION",
    "QueryClient",
    "QueryEngine",
    "QueryError",
    "QueryPlane",
    "RESULT_NAMES",
    "RetryAfter",
    "ServeConfig",
    "ServeConnectionError",
    "ServeUnavailable",
    "SocketTransport",
    "TransportSignal",
]
