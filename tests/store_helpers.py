"""Store fixtures shared by more than one test module."""

from __future__ import annotations

import json
from pathlib import Path


def drop_wal_of(journal: Path, segment: str) -> list[str]:
    """Rewrite ``journal`` without the WAL lines of the records
    ``segment`` commits, and return their keys.  The segment still
    holds the records, but once it is damaged no channel can recover
    them: scrub reports them lost."""
    lines = journal.read_bytes().splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    keys = next(entry["keys"] for entry in entries
                if entry["op"] == "commit" and entry["segment"] == segment)
    journal.write_bytes(b"".join(
        line for line, entry in zip(lines, entries)
        if not (entry["op"] == "wal" and entry["key"] in keys)))
    return keys
