"""Disk I/O abstraction and seeded disk-fault injection.

Every durable file the program changes goes through a :class:`DiskIO`
object: atomic whole-file writes (temp + fsync + rename), fsynced
appends, and scrub's moves, removals and truncations.
:class:`DiskChaos` is the drop-in chaotic implementation: a seeded
fault stream that models the classic storage failure modes —

* **torn write** — only a prefix of the data reaches the file that
  gets renamed into place (an fsync that lied, or power loss between
  page flushes);
* **bit flip** — one bit of the payload is silently inverted on its
  way to disk (media corruption, bad RAM on the write path);
* **ENOSPC** — the filesystem is full; the write raises before any
  byte lands;
* **crash in the rename window** — the temp file is fully written and
  fsynced but the process "dies" (:class:`SimulatedCrash`) before
  ``os.replace``, leaving an orphan temp file;
* **journal torn append / journal bit flip** — the same stories for
  the append-only journal: a partial line without its newline (crash
  mid-append), or a flipped bit inside an otherwise complete line.
  Drawn once per append, so a group commit of N lines
  (:meth:`DiskIO.append_lines`) tears as a batch: some whole lines,
  then a fragment.

Every injected fault is recorded in :attr:`DiskChaos.injected` with
its kind and target path, so :func:`repro.chaos.reconcile.reconcile_disk`
can demand afterwards that ``repro scrub`` explained all of them.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

#: Fault kinds injected on whole-file (segment) writes.
SEGMENT_FAULTS = ("torn-write", "bit-flip", "enospc", "crash-rename")
#: Fault kinds injected on journal appends.
JOURNAL_FAULTS = ("journal-torn", "journal-flip")


class SimulatedCrash(RuntimeError):
    """The process "died" mid-operation (fault injection only).

    Raised *after* the injected partial state is on disk, so the
    caller observes exactly what a real crash at that instant would
    leave behind.  The store treats it like any I/O fault: state rolls
    back to the unsealed tail and the operation can be retried.
    """


class DiskIO:
    """Real filesystem operations, durability-first: the one way the
    program changes a durable file, so a subclass that overrides these
    methods (a fault injector, a recorder) sees every mutation."""

    def write_atomic(self, path: str | Path, data: bytes) -> None:
        """Write ``data`` so readers see the old file or the new one."""
        with self.writing(path) as handle:
            handle.write(data)

    @contextlib.contextmanager
    def writing(self, path: str | Path) -> Iterator[BinaryIO]:
        """Stream the new contents of ``path`` into the yielded binary
        handle; they replace the old file only once complete and
        fsynced.  A block that raises leaves the old file, and no temp
        file, behind."""
        path = Path(path)
        with self._temp(path) as (handle, temp):
            yield handle
        self._rename(temp, path)

    @contextlib.contextmanager
    def _temp(self, path: Path) -> Iterator[tuple[BinaryIO, str]]:
        """A new temp file beside ``path``, as ``(handle, name)``:
        flushed and fsynced when the block ends, removed if it
        raises."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".tmp")
        try:
            # A handle with no file name: gzip streamed into it writes
            # no temp name into its header, so the bytes stay the same.
            with os.fdopen(fd, "wb") as handle:
                yield handle, temp
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            self.remove(temp)
            raise

    def _rename(self, temp: str, path: Path) -> None:
        """Put the finished ``temp`` in place as ``path``."""
        try:
            os.replace(temp, path)
        except BaseException:
            self.remove(temp)
            raise

    def append_line(self, path: str | Path, line: bytes) -> None:
        """Append one journal line (newline added) and fsync.

        If the file ends in a torn line (a crash mid-append left no
        trailing newline), a newline is written first so the torn
        fragment terminates as its own — detectably corrupt — line
        instead of silently swallowing this append.
        """
        self._append(Path(path), line + b"\n")

    def append_lines(self, path: str | Path, lines: list[bytes]) -> None:
        """Append a batch of journal lines as one group commit: one
        torn-tail probe, one ``write`` and one fsync for all of them.

        A one-line batch goes through :meth:`append_line`, so a
        subclass that overrides only that method keeps its behaviour
        for single appends.
        """
        if len(lines) == 1:
            self.append_line(path, lines[0])
        elif lines:
            self._append(Path(path),
                         b"".join(line + b"\n" for line in lines))

    @staticmethod
    def _append(path: Path, blob: bytes, heal: bool = True) -> None:
        """Append ``blob`` and fsync; with ``heal``, end a torn final
        line first (see :meth:`append_line`)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        torn = False
        try:
            if heal and os.path.getsize(path) > 0:
                with open(path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    torn = probe.read(1) != b"\n"
        except OSError:
            pass
        with open(path, "ab") as handle:
            if torn:
                handle.write(b"\n")
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())

    def move(self, path: str | Path, directory: str | Path) -> Path | None:
        """Move ``path``, if it is there, into ``directory`` and return
        where it went.  ``None`` if there was nothing to move or the
        filesystem refused: the file stays where it is, for the next
        scrub to find again."""
        path = Path(path)
        if not path.exists():
            return None
        target = Path(directory) / path.name
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, target)
        except OSError:
            return None
        return target

    def remove(self, path: str | Path) -> None:
        """Delete ``path``.  A file already gone, or one the filesystem
        refuses to delete, is left for the next scrub."""
        with contextlib.suppress(OSError):
            os.unlink(path)

    def truncate(self, path: str | Path, size: int) -> None:
        """Cut ``path`` to its first ``size`` bytes, and fsync."""
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()


@dataclass(frozen=True)
class DiskChaosConfig:
    """Per-operation fault probabilities (independent draws)."""

    seed: int = 0
    torn_write_rate: float = 0.0
    bit_flip_rate: float = 0.0
    enospc_rate: float = 0.0
    crash_rename_rate: float = 0.0
    journal_torn_rate: float = 0.0
    journal_flip_rate: float = 0.0

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "DiskChaosConfig":
        """Every fault kind at the same ``rate`` (the smoke's config)."""
        return cls(
            seed=seed,
            torn_write_rate=rate,
            bit_flip_rate=rate,
            enospc_rate=rate,
            crash_rename_rate=rate,
            journal_torn_rate=rate,
            journal_flip_rate=rate,
        )

    @property
    def enabled(self) -> bool:
        return any((
            self.torn_write_rate, self.bit_flip_rate, self.enospc_rate,
            self.crash_rename_rate, self.journal_torn_rate,
            self.journal_flip_rate,
        ))


class DiskChaos(DiskIO):
    """A :class:`DiskIO` that injects seeded storage faults.

    At most one fault fires per operation; which one is drawn from the
    per-kind rates in the config (or forced via :meth:`force_next` for
    deterministic tests).  Injected faults accumulate in
    :attr:`injected` as ``{"fault": kind, "path": str, ...}`` dicts —
    the ledger :func:`repro.chaos.reconcile.reconcile_disk` audits.
    """

    def __init__(self, config: DiskChaosConfig,
                 ledger: str | Path | None = None) -> None:
        self.config = config
        self.rng = random.Random(f"disk-chaos:{config.seed}")
        self.injected: list[dict] = []
        #: Optional on-disk fault ledger: every injected fault is
        #: appended (fsynced) the moment it fires, so the ledger
        #: survives even a SIGKILL and a later process can still
        #: reconcile scrub findings against it.
        self.ledger = Path(ledger) if ledger is not None else None
        self._forced: deque[str] = deque()

    @staticmethod
    def read_ledger(path: str | Path) -> list[dict]:
        """Load a fault ledger written by a (possibly dead) injector."""
        injected = []
        try:
            blob = Path(path).read_bytes()
        except FileNotFoundError:
            return injected
        for line in blob.splitlines():
            try:
                injected.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn final line: the crash hit mid-append
        return injected

    def force_next(self, *kinds: str) -> None:
        """Queue fault kinds to fire on the next operations, in order.

        A queued kind only fires on an operation that supports it
        (segment kinds on :meth:`write_atomic`, journal kinds on
        :meth:`append_line` / :meth:`append_lines`); it stays queued
        until one comes along.
        """
        for kind in kinds:
            if kind not in SEGMENT_FAULTS + JOURNAL_FAULTS:
                raise ValueError(f"unknown fault kind {kind!r}")
            self._forced.append(kind)

    # -- fault selection -----------------------------------------------------

    def _pick(self, candidates: tuple[str, ...],
              rates: dict[str, float]) -> str | None:
        if self._forced and self._forced[0] in candidates:
            return self._forced.popleft()
        for kind in candidates:
            if rates[kind] and self.rng.random() < rates[kind]:
                return kind
        return None

    def _record(self, fault: str, path: Path, **detail) -> dict:
        entry = {"fault": fault, "path": str(path), **detail}
        self.injected.append(entry)
        if self.ledger is not None:
            self._append(self.ledger, json.dumps(entry, sort_keys=True)
                         .encode("utf-8") + b"\n")
        return entry

    @staticmethod
    def _flip_bit(data: bytes, rng: random.Random) -> tuple[bytes, int]:
        position = rng.randrange(len(data) * 8)
        mutated = bytearray(data)
        mutated[position // 8] ^= 1 << (position % 8)
        return bytes(mutated), position

    # -- chaotic operations --------------------------------------------------

    def write_atomic(self, path: str | Path, data: bytes) -> None:
        path = Path(path)
        fault = self._pick(SEGMENT_FAULTS, {
            "torn-write": self.config.torn_write_rate,
            "bit-flip": self.config.bit_flip_rate,
            "enospc": self.config.enospc_rate,
            "crash-rename": self.config.crash_rename_rate,
        })
        if fault == "enospc":
            self._record("enospc", path)
            raise OSError(errno.ENOSPC, "no space left on device "
                                        "(injected)", str(path))
        detail: dict = {}
        if fault == "torn-write" and len(data) > 1:
            cut = self.rng.randrange(1, len(data))
            detail = {"kept_bytes": cut, "full_bytes": len(data)}
            data = data[:cut]
        elif fault == "bit-flip" and data:
            data, position = self._flip_bit(data, self.rng)
            detail = {"bit": position}
        with self._temp(path) as (handle, temp):
            handle.write(data)
        if fault == "crash-rename":
            # The temp file is fully written and fsynced, then the
            # process "dies" before the rename: the orphan temp is
            # what a real crash leaves.
            self._record("crash-rename", path, temp=temp)
            raise SimulatedCrash(f"crashed before renaming {temp} "
                                 f"to {path}")
        if detail:
            # Recorded once the damaged bytes are durable in the temp
            # file and before the rename, so a crash can leave no
            # ledger line whose damage never reached the disk; one in
            # between leaves the named temp for scrub to remove.
            self._record(fault, path, temp=temp, **detail)
        self._rename(temp, path)

    def _pick_journal_fault(self) -> str | None:
        return self._pick(JOURNAL_FAULTS, {
            "journal-torn": self.config.journal_torn_rate,
            "journal-flip": self.config.journal_flip_rate,
        })

    def _tear(self, path: Path, blob: bytes, cut: int, **detail) -> None:
        """Land only ``blob[:cut]`` (no newline after it) and "die"."""
        self._record("journal-torn", path, kept_bytes=cut, **detail)
        self._append(path, blob[:cut], heal=False)
        raise SimulatedCrash(f"crashed mid-append to {path}")

    def append_line(self, path: str | Path, line: bytes) -> None:
        path = Path(path)
        fault = self._pick_journal_fault()
        if fault == "journal-torn" and len(line) > 1:
            self._tear(path, line, self.rng.randrange(1, len(line)),
                       full_bytes=len(line))
        if fault == "journal-flip" and line:
            line, position = self._flip_bit(line, self.rng)
            self._record("journal-flip", path, bit=position)
        super().append_line(path, line)

    def append_lines(self, path: str | Path, lines: list[bytes]) -> None:
        """One fault draw per *batch*: a torn group commit lands a
        prefix of the batch — some whole lines, then a fragment — and a
        flip damages one line of it."""
        if len(lines) < 2:
            super().append_lines(path, lines)  # -> self.append_line
            return
        path = Path(path)
        fault = self._pick_journal_fault()
        if fault == "journal-torn":
            blob = b"".join(line + b"\n" for line in lines)
            cut = self.rng.randrange(1, len(blob))
            if blob[cut - 1:cut] == b"\n":
                # Always leave a fragment: a cut on a line boundary
                # would be a clean short write no scrub can see.
                cut -= 1
            self._tear(path, blob, cut, full_bytes=len(blob),
                       records=len(lines),
                       records_landed=blob.count(b"\n", 0, cut))
        if fault == "journal-flip":
            lines = list(lines)
            index = self.rng.randrange(len(lines))
            lines[index], position = self._flip_bit(lines[index],
                                                    self.rng)
            self._record("journal-flip", path, bit=position,
                         line=index, records=len(lines))
        super().append_lines(path, lines)

    def summary(self) -> dict[str, int]:
        """Injected-fault counts by kind."""
        counts: dict[str, int] = {}
        for entry in self.injected:
            counts[entry["fault"]] = counts.get(entry["fault"], 0) + 1
        return counts
