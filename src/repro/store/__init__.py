"""``repro.store`` — the durable segment store.

Ingested failure records are journaled (WAL) into one unsealed tail,
sealed every ``seal_records`` rows into a checksummed columnar segment
committed atomically under an append-only manifest journal.  Queries
fold streaming analysis partials over the sealed segments plus the
tail; damaged segments are skipped with accounting and ``repro
scrub`` classifies, quarantines, and repairs them.  ``journal`` owns
the line format, ``fold`` the fold, ``scrub`` the damage policy, and
``store`` the tail and its locks.  See ``docs/architecture.md``
("Durable storage") for the full contract.
"""

from repro.store.segment import (
    SEGMENT_VERSION,
    SegmentCorruptError,
    decode_columns,
    decode_segment,
    encode_segment,
    segment_digest,
)
from repro.store.fold import FoldState, PartialCache, QueryResult
from repro.store.journal import JOURNAL_VERSION, StoreError
from repro.store.scrub import ScrubReport
from repro.store.store import SegmentStore, StoreSnapshot

__all__ = [
    "FoldState",
    "JOURNAL_VERSION",
    "PartialCache",
    "QueryResult",
    "ScrubReport",
    "SEGMENT_VERSION",
    "SegmentCorruptError",
    "SegmentStore",
    "StoreError",
    "StoreSnapshot",
    "decode_columns",
    "decode_segment",
    "encode_segment",
    "segment_digest",
]
