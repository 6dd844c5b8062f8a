"""Measurement plumbing of the end-to-end benchmark.

Everything here is bench-side: child processes of the real CLI, the
journal tailer that counts durable records, the windowed sender, the
span recorder, and the statistics helpers.  No module under ``src/``
is changed or patched; the system under test only ever sees the
generated inputs, over its public CLI, sockets and files.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

#: Records the sender keeps acked-but-not-durable at most.  ``ACK_OK``
#: is written at admission, before the WAL fsync, so a sender closed
#: only on acks runs in two regimes depending on which server thread
#: wins the GIL; closing the loop on durability removes that.  Well
#: under the default ``queue_capacity`` of 1024, so the server never
#: has a reason to answer ``RETRY_AFTER``.
WINDOW = 256
#: How often a full window re-reads the journal.  Reading it takes the
#: inode lock the server's appends need, and every wake-up lands on a
#: core the server may be using: at 0.5 ms the poll itself cost 5-15 %
#: of the durable rate.  A window drains in ~130 ms today, so 5 ms
#: caps the measurable rate at ~50 000 rec/s, 25x what is measured.
POLL_S = 0.005
#: Equal slices of a stream whose durable rates are medianed, so one
#: transient stall on the shared machine moves nothing.
EPOCHS = 12
#: Live answers sampled per stream (>= 100, so p90 has >= 10 beyond).
QUERY_SAMPLES = 240
#: Passed explicitly so the CLI's 30 s default can never truncate a
#: sparse drain (thousands of tiny segments, fsync-of-new-file bound).
DRAIN_TIMEOUT_S = 120
QUERY_KINDS = ("stats", "isp_bs", "transitions", "summary")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchFailure(RuntimeError):
    """The benchmark itself could not run (wedged child, deadline)."""


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of ``samples``.

    Refuses a tail percentile with fewer than ten samples beyond it
    (p90 needs 100 samples): one slow sample would otherwise be the
    whole statistic.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be inside (0, 1)")
    n = len(samples)
    rank = math.ceil(round(n * q, 6))
    if min(rank - 1, n - rank) < 10:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has fewer than 10 beyond it"
        )
    return sorted(samples)[rank - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


# -- spans --------------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int) -> None:
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer._stack.pop()
        return False


class Tracer:
    """Bench-side spans kept in memory: name, start, end, parent, id.

    Disabled (the untraced run) ``span`` returns a shared no-op, so the
    end-to-end metrics never pay for the recording.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent_index | None, ident]`` rows.
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, ident=None):
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           ident])
        self._stack.append(index)
        return _Span(self, index)

    def durations(self, name: str) -> list[float]:
        return [row[2] - row[1] for row in self.spans
                if row[0] == name and row[2] is not None]

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "id": ident}
            for name, start, end, parent, ident in self.spans
        ]


# -- the run context ----------------------------------------------------------


class Run:
    """One workload run: a scratch directory, its children, a deadline.

    Leaving the context kills every child still alive (each has its own
    process group) and removes the directory, so neither a failed check
    nor a wedged child leaves anything behind.  The deadline turns a
    hang into :class:`BenchFailure` carrying the children's last
    output.
    """

    def __init__(self, name: str, tracer: Tracer,
                 deadline_s: float) -> None:
        self.name = name
        self.tracer = tracer
        self.deadline_s = deadline_s
        self.dir = OUT / f"run-{os.getpid()}-{name}"
        self.children: list[Child] = []
        self.attempted = 0
        self.failures: list[str] = []

    def __enter__(self) -> "Run":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        signal.signal(signal.SIGALRM, self._expired)
        signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for child in self.children:
            child.kill()
        shutil.rmtree(self.dir, ignore_errors=True)
        return False

    def _expired(self, _signum, _frame) -> None:
        tails = "; ".join(
            f"{child.label}: {child.output[-300:]!r}"
            for child in self.children
        )
        raise BenchFailure(
            f"{self.name} passed its {self.deadline_s:.0f} s deadline; "
            f"children said {tails}"
        )

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


# -- children -----------------------------------------------------------------


@dataclass
class Usage:
    """What one reaped child cost."""

    exit_code: int
    cpu_s: float
    #: Highest ``VmHWM`` seen in ``/proc`` while the child lived.  Not
    #: ``ru_maxrss``: that starts from the parent's size at the fork
    #: (658 MB for every child once this process held a dataset).
    peak_rss_mb: float


class Child:
    """One ``python -m repro ...`` child in its own process group."""

    def __init__(self, run: Run, label: str, args: list[str]) -> None:
        run.children.append(self)
        self.label = label
        self.output = ""
        self.usage: Usage | None = None
        self._peak_rss_kb = 0
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=run.dir,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            bufsize=0, start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read_until(self, prefix: str, timeout_s: float = 60.0) -> str:
        """The first output line starting with ``prefix``."""
        deadline = time.monotonic() + timeout_s
        seen = 0
        while True:
            lines = self.output.split("\n")
            for line in lines[seen:-1]:
                if line.startswith(prefix):
                    return line
            seen = len(lines) - 1
            left = deadline - time.monotonic()
            if left <= 0 or not self._pump(left):
                raise BenchFailure(
                    f"{self.label} never printed {prefix!r}; it said "
                    f"{self.output[-500:]!r}"
                )

    def _pump(self, timeout_s: float) -> bool:
        """Read what the child has written; False at end of output."""
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], timeout_s)
        if not ready:
            return True
        chunk = os.read(fd, 65536)
        self.output += chunk.decode("utf-8", "replace")
        return bool(chunk)

    def _sample_rss(self) -> None:
        try:
            status = Path(f"/proc/{self.pid}/status").read_text()
        except OSError:
            return  # already gone
        found = re.search(r"VmHWM:\s+(\d+) kB", status)
        if found:
            self._peak_rss_kb = max(self._peak_rss_kb,
                                    int(found.group(1)))

    def cpu_s(self) -> float:
        """User+system CPU of the live child, from ``/proc``."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def finish(self, timeout_s: float = 150.0) -> Usage:
        """Wait for the child to exit by itself and reap it."""
        deadline = time.monotonic() + timeout_s
        while self._pump(0.05):
            self._sample_rss()
            if time.monotonic() >= deadline:
                raise BenchFailure(
                    f"{self.label} did not exit; it said "
                    f"{self.output[-500:]!r}"
                )
        return self._reap()

    def kill(self) -> Usage:
        """SIGKILL the whole process group (a crash) and reap."""
        if self.usage is None:
            self._sample_rss()
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._reap()
        return self.usage

    def _reap(self) -> Usage:
        if self.usage is None:
            _pid, status, rusage = os.wait4(self.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
            self.usage = Usage(
                exit_code=self.proc.returncode,
                cpu_s=rusage.ru_utime + rusage.ru_stime,
                peak_rss_mb=self._peak_rss_kb / 1024.0,
            )
        return self.usage


class ServeChild(Child):
    """A store-backed ``repro serve`` child."""

    def __init__(self, run: Run, store_dir: Path, *,
                 checkpoint: Path | None = None, resume: bool = False,
                 metrics_out: Path | None = None) -> None:
        args = ["serve", "--store-dir", str(store_dir),
                "--drain-timeout", str(DRAIN_TIMEOUT_S)]
        if checkpoint is not None:
            args += ["--checkpoint", str(checkpoint)]
        if resume:
            args.append("--resume")
        if metrics_out is not None:
            args += ["--metrics-out", str(metrics_out)]
        self.tracer = run.tracer
        with run.tracer.span("serve.spawn_ready"):
            super().__init__(run, "serve", args)
            banner = self.read_until("serving on ")
            self.ready_s = time.perf_counter() - self.started
        host, port = banner.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def drain(self) -> tuple[Usage, float]:
        """SIGTERM; returns the usage and the drain wall time."""
        with self.tracer.span("serve.sigterm_exit"):
            started = time.perf_counter()
            self._sample_rss()
            self.proc.send_signal(signal.SIGTERM)
            usage = self.finish()
            return usage, time.perf_counter() - started


def import_ms(repeats: int = 3) -> float:
    """Median wall of ``import repro.cli`` in a fresh interpreter."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        walls.append(time.perf_counter() - started)
    return median(walls) * 1e3


# -- durable count ------------------------------------------------------------


class JournalTail:
    """Counts durable records by tailing ``<store>/journal.jsonl``.

    A record is durable once its complete ``wal`` line is in the
    journal.  The partial last line of a read is carried into the next
    one, so a line split at any byte is counted exactly once.  Never
    poll the watermark through queries instead: a query folds the whole
    unsealed tail while holding the server's GIL.
    """

    def __init__(self, store_dir: Path) -> None:
        self.path = Path(store_dir) / "journal.jsonl"
        self.count = 0
        self._handle = None
        self._partial = b""

    def feed(self, data: bytes) -> None:
        if not data:
            return
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        for line in lines:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and entry.get("op") == "wal":
                self.count += 1

    def poll(self) -> int:
        if self._handle is None:
            try:
                self._handle = open(self.path, "rb")
            except FileNotFoundError:
                return self.count
        self.feed(self._handle.read())
        return self.count

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# -- the windowed sender ------------------------------------------------------


@dataclass
class StreamStats:
    """What one windowed stream measured, bench-side."""

    n_records: int
    wall_s: float
    epoch_rates: list[float]
    window_wait_s: float
    latencies_s: list[float]
    #: ``(records sent when asked, response envelope)`` per live query.
    answers: list[tuple[int, dict]] = field(default_factory=list)

    @property
    def records_per_s(self) -> float:
        return median(self.epoch_rates)


def stream_records(run: Run, records: list[dict],
                   address: tuple[str, int],
                   store_dir: Path) -> StreamStats:
    """Send ``records`` closed-loop, windowed on durability.

    One :class:`UploadBatcher` over one :class:`SocketTransport`, one
    rotating query on a second connection every ``n / QUERY_SAMPLES``
    records; the generator is this single thread.  Any refused or
    non-OK ack, and any query that is not answered OK, is a failed
    operation.
    """
    from repro.monitoring.uploader import UploadBatcher
    from repro.serve.client import (
        QueryClient,
        SocketTransport,
        TransportSignal,
    )

    tracer = run.tracer
    n = len(records)
    query_every = max(1, n // QUERY_SAMPLES)
    epoch_every = max(1, n // EPOCHS)
    transport = SocketTransport(*address)
    sent = 0

    def traced_send(payload: bytes) -> None:
        with tracer.span("transport.send", sent):
            transport(payload)

    batcher = UploadBatcher(
        transport=traced_send if tracer.enabled else transport
    )
    queries = QueryClient(*address)
    tail = JournalTail(store_dir)
    latencies: list[float] = []
    answers: list[tuple[int, dict]] = []
    rates: list[float] = []
    window_wait = 0.0
    try:
        started = time.perf_counter()
        mark_at, mark_durable = started, 0
        for record in records:
            with tracer.span("uploader.enqueue", sent):
                batcher.enqueue(record)
            batcher.maybe_flush(True)
            sent += 1
            if sent - tail.count >= WINDOW:
                with tracer.span("window.wait", sent):
                    waited = time.perf_counter()
                    while sent - tail.poll() >= WINDOW:
                        time.sleep(POLL_S)
                    window_wait += time.perf_counter() - waited
            if sent % query_every == 0:
                kind = QUERY_KINDS[len(latencies) % len(QUERY_KINDS)]
                asked = time.perf_counter()
                try:
                    with tracer.span("query", len(latencies)):
                        envelope = queries.query(kind)
                except TransportSignal as exc:
                    run.check(False, f"live {kind} query: {exc!r}")
                else:
                    latencies.append(time.perf_counter() - asked)
                    answers.append((sent, envelope))
                    run.check(True, "live query")
            if sent % epoch_every == 0 and len(rates) < EPOCHS - 1:
                now, durable = time.perf_counter(), tail.poll()
                rates.append((durable - mark_durable) / (now - mark_at))
                mark_at, mark_durable = now, durable
        with tracer.span("window.wait", sent):
            while tail.poll() < n - batcher.pending_payloads:
                time.sleep(POLL_S)
        ended = time.perf_counter()
        rates.append((tail.count - mark_durable) / (ended - mark_at))
    finally:
        tail.close()
        queries.close()
        transport.close()
    run.attempted += n
    refused = batcher.failed_sends + batcher.pending_payloads
    if refused or transport.acked != n:
        run.failures.append(
            f"{refused} sends refused, {transport.acked}/{n} acked "
            f"(last error {batcher.last_error})"
        )
    return StreamStats(
        n_records=n, wall_s=ended - started, epoch_rates=rates,
        window_wait_s=window_wait, latencies_s=latencies,
        answers=answers,
    )


# -- small helpers ------------------------------------------------------------


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(path) for name in names
    )


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)
