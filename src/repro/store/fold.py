"""The store's fold: a snapshot's analysis block, from sealed
segments read as columns and the tail's rows, corrupt segments skipped
*with accounting*, never silently."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Callable

from repro.analysis.columnar import SegmentPartial, _Fold
from repro.store.segment import failure_columns

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.store import StoreSnapshot

#: Most committed rows a fold concatenates into one batch before
#: reducing it, so transient memory stays bounded however large the
#: store; a single larger segment is a batch of its own.
FOLD_CHUNK_ROWS = 65_536


@dataclass
class QueryResult:
    """One streaming fold over the store, damage accounted."""

    block: dict
    n_segments: int
    n_tail_records: int
    #: Segments that failed verification mid-query, with reasons —
    #: the fold continued without them (skip-with-accounting).
    skipped: list[dict] = field(default_factory=list)
    #: Rows this fold reduced (decoded segments + new tail rows).
    rows_folded: int = 0
    #: Live segments answered without decoding / that it had to read.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Folded segments that had left the live set.
    invalidations: int = 0
    #: Sides of the :class:`FoldState` rebuilt: "sealed" and/or "tail".
    rebuilt: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.skipped


class PartialCache:
    """The sealed segments a :class:`FoldState` has folded, by
    committed sha256 digest, and the accounting of its folds.

    Sealed segments are immutable, so a digest fully identifies the
    batch: while its segment stays live, a digest in ``digests`` is in
    the state's sealed fold and is never read again.  ``hits`` counts
    live segments a fold answered without reading them, ``misses``
    the ones it had to read, ``invalidations`` folded segments that
    left the live set (quarantine or supersede).
    """

    def __init__(self) -> None:
        self.digests: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def prune(self, live_digests) -> int:
        """If folded digests left ``live_digests``, count them and
        forget every digest — a running fold cannot subtract one, so
        the sealed side must be refolded from the survivors; returns
        how many left."""
        dead = len(self.digests.difference(live_digests))
        if dead:
            self.digests.clear()
            self.invalidations += dead
        return dead


class FoldState:
    """What a reader carries between folds, so that an answer costs
    the rows appended since its previous one.

    Two running folds.  ``sealed`` holds exactly the segments whose
    digests ``cache`` lists, and is refolded from the surviving
    segments when one of them leaves the live set (a running fold
    cannot subtract).  ``tail`` holds the first ``done`` rows of the
    tail list ``marked``, and is rebuilt from the snapshot when
    :func:`_tail_delta` finds that list replaced.  A segment that
    fails verification never enters the state, so it is retried and
    reported on every fold.

    Nothing here refers to the store by name or position — sealed
    content is keyed by digest, the tail by object identity — so a
    state that outlives what it folded (scrub, a swapped store)
    rebuilds instead of answering wrongly.  One thread owns a state.
    """

    def __init__(self) -> None:
        self.cache = PartialCache()
        self.sealed = _Fold()
        self.tail = _Fold()
        #: The tail list folded so far (``None`` before the first
        #: fold) and how many of its rows: the mark.
        self.marked: list | None = None
        self.done = 0


def _chunks(names: list[str], live: dict):
    """``names`` in runs of at most :data:`FOLD_CHUNK_ROWS` committed
    rows; a larger segment is a run of its own."""
    chunk: list[str] = []
    rows = 0
    for name in names:
        n = live[name]["n_records"]
        if chunk and rows + n > FOLD_CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(name)
        rows += n
    if chunk:
        yield chunk


def _tail_delta(snapshot: StoreSnapshot,
                state: FoldState) -> list[dict] | None:
    """The tail rows appended since ``state`` last folded, moving its
    mark past them — or ``None``, state untouched, if the mark no
    longer holds.

    The mark is the tail list *itself* and the rows of it folded; it
    holds while the snapshot still has that very list.  Length is no
    guard — a tail that sealed and regrew past its old length between
    two folds holds other rows — and identity is one: the store only
    ever appends to its tail list, and a seal or a scrub that takes
    rows out puts a new list in its place (see ``SegmentStore._tail``),
    so the same list has the same prefix.
    """
    if state.marked is not None and state.marked is not snapshot.tail:
        return None
    fresh = [data for _key, data
             in islice(snapshot.tail, state.done, snapshot.n_tail)]
    state.marked, state.done = snapshot.tail, snapshot.n_tail
    return fresh


def _verified(names: list[str], live: dict, skipped: list[dict],
              digests: list[str], read: Callable):
    """Each named segment's verified columns, read one at a time as
    the consumer asks; a corrupt one is skipped with accounting, an
    intact one's digest appended to ``digests``."""
    for name in names:
        decoded = read(name, live[name], skipped)
        if decoded is not None:
            digests.append(live[name]["sha256"])
            yield decoded


def _fold_segments(names: list[str], live: dict, state: FoldState,
                   skipped: list[dict], read: Callable) -> int:
    """Fold the named segments into ``state.sealed`` as columns: one
    concatenated batch per :func:`_chunks` run, each blob let go once
    its columns are copied out.  Returns the rows folded."""
    folded = 0
    for chunk in _chunks(names, live):
        digests: list[str] = []
        batch = failure_columns(
            _verified(chunk, live, skipped, digests, read))
        if len(batch):
            state.sealed.add(SegmentPartial.from_columns(batch))
        state.cache.digests.update(digests)
        folded += len(batch)
    return folded


def fold_snapshot(snapshot: StoreSnapshot, state: FoldState,
                  read: Callable) -> QueryResult:
    """Fold the analysis block of ``snapshot``, exactly, doing only
    the work ``state`` has not done already; ``read`` reads one
    segment's verified columns.  A segment is read the first time a
    state sees its digest, and every segment read in one fold is
    reduced in one batch (per :data:`FOLD_CHUNK_ROWS`); a tail row is
    reduced the first time a state sees it."""
    cache = state.cache
    by_digest = {entry["sha256"]: name
                 for name, entry in snapshot.live.items()}
    rebuilt = []
    invalidated = cache.prune(by_digest)
    if invalidated:
        state.sealed = _Fold()
        rebuilt.append("sealed")
    unseen = by_digest.keys() - cache.digests
    skipped: list[dict] = []
    rows_folded = _fold_segments(
        sorted(by_digest[digest] for digest in unseen),
        snapshot.live, state, skipped, read,
    )
    fresh = _tail_delta(snapshot, state)
    if fresh is None:
        state.tail, state.marked, state.done = _Fold(), None, 0
        fresh = _tail_delta(snapshot, state)
        rebuilt.append("tail")
    if fresh:
        state.tail.add(SegmentPartial.from_rows(fresh))
    hits = len(by_digest) - len(unseen)
    cache.hits += hits
    cache.misses += len(unseen)
    return QueryResult(
        block=state.sealed.block(state.tail),
        n_segments=len(by_digest) - len(skipped),
        n_tail_records=state.tail.partial.n_failures,
        skipped=skipped,
        rows_folded=rows_folded + len(fresh),
        cache_hits=hits,
        cache_misses=len(unseen),
        invalidations=invalidated,
        rebuilt=tuple(rebuilt),
    )
