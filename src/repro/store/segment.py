"""Sealed segment encoding: checksummed typed-array failure columns.

One segment file holds one sealed tail of failure records, in append
order, laid out column-first with
the :mod:`repro.analysis.columnar` discipline: numeric fields as
little-endian typed arrays, string fields as integer codes over a
sorted category table.  The container is self-verifying::

    repro-segment v1 <sha256-of-body>\\n      header line (ASCII)
    {json header}\\n\\x00                       schema + array offsets
    <raw little-endian column bytes>          concatenated arrays

The header-line digest covers the whole body (JSON header + arrays),
so a torn write, a flipped bit, or a truncation anywhere in the file
is detected by :func:`decode_columns` (which :func:`decode_segment`
and every other reader go through) — it raises
:class:`SegmentCorruptError` with the failure mode, never returns
partial data.  Encoding and decoding are exact inverses on
``FailureRecord.to_dict()`` dicts: ints, floats (binary64, no text
round-trip), bools, strings and ``None`` all survive bit-for-bit, so
record identities (:func:`repro.dataset.records.record_identity`)
computed before sealing and after decoding agree.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.analysis.columnar import (
    RESOLVED_BY_NONE,
    FailureColumns,
    _encode,
)

#: Bumped when the container layout changes incompatibly.
SEGMENT_VERSION = 1

_MAGIC = b"repro-segment"
_SEPARATOR = b"\n\x00"

#: Plain int64 columns.
_INT_FIELDS = ("device_id", "model", "bs_id", "signal_level",
               "stages_executed")
#: Binary64 columns (exact float round-trip).
_FLOAT_FIELDS = ("start_time", "duration_s")
#: Byte-wide boolean columns.
_BOOL_FIELDS = ("has_5g", "post_transition")
#: Category-coded string columns (never null).
_STR_FIELDS = ("android_version", "isp", "failure_type", "rat",
               "deployment", "arm")
#: Category-coded nullable columns (code -1 encodes ``None``).
_NULLABLE_STR_FIELDS = ("error_code",)


class SegmentCorruptError(RuntimeError):
    """A segment file failed verification; no partial data escapes."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _encode_nullable(values: list) -> tuple[np.ndarray, list]:
    """Category codes with ``None`` mapped to -1, not a category."""
    present = sorted({v for v in values if v is not None})
    lookup = {cat: code for code, cat in enumerate(present)}
    codes = np.fromiter(
        (-1 if v is None else lookup[v] for v in values),
        np.int64, len(values),
    )
    return codes, present


def encode_segment(rows: list[dict],
                   partition: tuple[int, int] | None = None) -> bytes:
    """Serialize failure-record dicts into one verifiable segment blob
    (a ``partition``, which no reader uses, goes into the header)."""
    arrays: list[tuple[str, np.ndarray]] = []
    categories: dict[str, list] = {}
    n = len(rows)
    for name in _INT_FIELDS:
        arrays.append((name, np.fromiter(
            (int(row[name]) for row in rows), np.int64, n)))
    for name in _FLOAT_FIELDS:
        arrays.append((name, np.fromiter(
            (float(row[name]) for row in rows), np.float64, n)))
    for name in _BOOL_FIELDS:
        arrays.append((name, np.fromiter(
            (1 if row[name] else 0 for row in rows), np.uint8, n)))
    for name in _STR_FIELDS:
        codes, cats = _encode([row[name] for row in rows])
        arrays.append((name, codes))
        categories[name] = list(cats)
    for name in _NULLABLE_STR_FIELDS:
        codes, cats = _encode_nullable([row[name] for row in rows])
        arrays.append((name, codes))
        categories[name] = cats
    resolved = np.fromiter(
        (RESOLVED_BY_NONE if row["resolved_by"] is None
         else int(row["resolved_by"]) for row in rows),
        np.int64, n,
    )
    arrays.append(("resolved_by", resolved))

    blobs: list[bytes] = []
    layout: list[dict] = []
    offset = 0
    for name, array in arrays:
        raw = np.ascontiguousarray(array).astype(
            array.dtype.newbyteorder("<"), copy=False
        ).tobytes()
        layout.append({
            "name": name,
            "dtype": array.dtype.newbyteorder("<").str,
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {
        "version": SEGMENT_VERSION,
        "n_records": n,
        "categories": categories,
        "columns": layout,
    }
    if partition is not None:
        header["partition"] = list(partition)
    body = (json.dumps(header, sort_keys=True).encode("utf-8")
            + _SEPARATOR + b"".join(blobs))
    digest = hashlib.sha256(body).hexdigest()
    head = b"%s v%d %s\n" % (_MAGIC, SEGMENT_VERSION,
                             digest.encode("ascii"))
    return head + body


def segment_digest(blob: bytes) -> str:
    """The body digest a well-formed segment blob advertises."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise SegmentCorruptError("no header line")
    return hashlib.sha256(blob[newline + 1:]).hexdigest()


def decode_columns(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Verify one segment blob and return its typed columns.

    Returns ``(columns, header)``: each column a little-endian view
    into ``blob``, string fields as codes over
    ``header["categories"]``.  Raises :class:`SegmentCorruptError` on
    any damage: bad magic, version skew, digest mismatch (torn write /
    bit flip / truncation), a malformed header, or a column whose
    length is not ``n_records``.
    """
    newline = blob.find(b"\n")
    head = blob[:newline].split() if newline >= 0 else []
    if newline < 0 or len(head) != 3 or head[0] != _MAGIC:
        raise SegmentCorruptError("bad segment header line")
    if head[1] != b"v%d" % SEGMENT_VERSION:
        raise SegmentCorruptError(
            f"unsupported segment version {head[1].decode('ascii', 'replace')}"
        )
    body = blob[newline + 1:]
    digest = hashlib.sha256(body).hexdigest()
    if digest != head[2].decode("ascii", "replace"):
        raise SegmentCorruptError(
            "digest mismatch (torn write, bit flip, or truncation)"
        )
    split = body.find(_SEPARATOR)
    if split < 0:
        raise SegmentCorruptError("missing header/array separator")
    try:
        header = json.loads(body[:split].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SegmentCorruptError(f"unreadable header: {exc}") from exc
    arrays = memoryview(body)[split + len(_SEPARATOR):]
    n = header["n_records"]
    columns: dict[str, np.ndarray] = {}
    for spec in header["columns"]:
        raw = arrays[spec["offset"]:spec["offset"] + spec["nbytes"]]
        array = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))
        if len(array) != n:
            raise SegmentCorruptError(
                f"column {spec['name']} has {len(array)} values "
                f"for {n} records"
            )
        columns[spec["name"]] = array
    return columns, header


def decode_rows(columns: dict[str, np.ndarray],
                header: dict) -> list[dict]:
    """The record dicts of :func:`decode_columns` output."""
    categories = header["categories"]
    rows: list[dict] = []
    for i in range(header["n_records"]):
        row: dict = {}
        for name in _INT_FIELDS:
            row[name] = int(columns[name][i])
        for name in _FLOAT_FIELDS:
            row[name] = float(columns[name][i])
        for name in _BOOL_FIELDS:
            row[name] = bool(columns[name][i])
        for name in _STR_FIELDS:
            row[name] = categories[name][int(columns[name][i])]
        for name in _NULLABLE_STR_FIELDS:
            code = int(columns[name][i])
            row[name] = None if code < 0 else categories[name][code]
        resolved = int(columns["resolved_by"][i])
        row["resolved_by"] = (None if resolved == RESOLVED_BY_NONE
                              else resolved)
        rows.append(row)
    return rows


def decode_segment(blob: bytes) -> tuple[list[dict], dict]:
    """Verify and decode one segment blob back into record dicts.

    Returns ``(rows, header)``; raises :class:`SegmentCorruptError`
    exactly where :func:`decode_columns` does.
    """
    columns, header = decode_columns(blob)
    return decode_rows(columns, header), header


#: The segment columns a fold reads — each a
#: :class:`~repro.analysis.columnar.FailureColumns` field of the same
#: name — with the dtype the field holds it in (``has_5g`` as bool).
_FOLD_NUMERIC = (
    ("device_id", "<i8"), ("model", "<i8"), ("has_5g", "|u1"),
    ("duration_s", "<f8"), ("bs_id", "<i8"), ("signal_level", "<i8"),
    ("stages_executed", "<i8"), ("resolved_by", "<i8"),
)
#: Category-coded segment columns a fold reads.
_FOLD_CODED = ("failure_type", "isp", "rat")


def failure_columns(segments) -> FailureColumns:
    """One :class:`~repro.analysis.columnar.FailureColumns` over
    decoded segments, in order.

    ``segments`` yields :func:`decode_columns` pairs; each segment's
    columns are copied out as it is consumed, so a generator that
    reads and decodes lazily lets every blob go before the next is
    read.  A string field's codes go through a lookup array into one
    table, ranked once at the end into the sorted union of the
    segments' tables — each table holds only values present in its
    segment, so that union is the table ``_build_failures`` would
    build over all the rows, and the block is identical.
    """
    numeric = {name: bytearray() for name, _dtype in _FOLD_NUMERIC}
    coded = {name: bytearray() for name in _FOLD_CODED}
    #: Field -> category -> its code in order of first appearance.
    tables: dict[str, dict] = {name: {} for name in _FOLD_CODED}
    for columns, header in segments:
        for name, dtype in _FOLD_NUMERIC:
            numeric[name] += columns[name].astype(dtype,
                                                  copy=False).tobytes()
        categories = header["categories"]
        for name in _FOLD_CODED:
            table = tables[name]
            lookup = np.fromiter(
                (table.setdefault(cat, len(table))
                 for cat in categories[name]),
                np.int64, len(categories[name]),
            )
            coded[name] += lookup[columns[name]].tobytes()

    def ranked(name: str) -> tuple[np.ndarray, tuple[str, ...]]:
        table = tables[name]
        cats = sorted(table)
        rank = np.empty(len(cats), np.int64)
        rank[[table[cat] for cat in cats]] = np.arange(len(cats))
        return rank[np.frombuffer(coded[name], np.int64)], tuple(cats)

    arrays = {name: np.frombuffer(numeric[name], np.dtype(dtype))
              for name, dtype in _FOLD_NUMERIC}
    arrays["has_5g"] = arrays["has_5g"].astype(bool)
    type_codes, types = ranked("failure_type")
    isp_codes, isps = ranked("isp")
    rat_codes, rats = ranked("rat")
    return FailureColumns(
        **arrays,
        failure_type_codes=type_codes,
        failure_types=types,
        isp_codes=isp_codes,
        isps=isps,
        rat_codes=rat_codes,
        rats=rats,
    )
