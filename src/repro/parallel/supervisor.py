"""Per-shard supervision of worker processes.

The engine used to hand every shard to a ``Pool.map`` — all-or-nothing:
one worker death discarded every completed shard and surfaced as
whatever exception the pool happened to raise.  The supervisor replaces
that with per-shard dispatch and explicit failure taxonomy:

* each shard runs in its **own process** with its **own result pipe**,
  so one worker's fate never entangles another's results;
* failures are **classified**: anything raised *inside*
  ``simulate_shard`` is a simulation bug — reported back as a payload
  with the worker's full traceback and re-raised in the parent
  immediately (:class:`ShardSimulationError`, fail fast, no retry) —
  while worker death, a missed per-shard deadline, a process that
  could not be spawned, or a result that fails validation are
  *infrastructure* faults;
* infrastructure faults are retried with **exponential backoff**
  (:class:`RetryPolicy`), re-dispatching only the failed shard; a shard
  that exhausts its retries is **degraded to inline execution** in the
  parent, which cannot suffer worker-infrastructure faults, so a run
  always completes unless the simulation itself is broken;
* every completed result is **validated** against its spec (device-id
  coverage, matching shard index) before it is accepted, so a corrupt
  or truncated payload is retried instead of silently merged;
* completed results are streamed to an ``on_result`` callback as they
  arrive (the engine points this at the checkpoint store).

The supervisor is deterministic where it matters: results are keyed by
shard index and merged in index order, so retry timing, completion
order, and degradation never change the dataset — only the
``failures`` history in ``Dataset.metadata["execution"]``.
"""

from __future__ import annotations

import heapq
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.obs import get_registry
from repro.parallel.sharding import ShardSpec
from repro.parallel.stats import ShardFailureRecord

#: Upper bound on one wait cycle; keeps the loop responsive to
#: deadlines and backoff expiries even with no pipe activity.
_MAX_WAIT_S = 0.25

#: How long to wait for a worker that already delivered its result to
#: exit on its own before force-killing it.
_REAP_GRACE_S = 5.0


class ShardSimulationError(RuntimeError):
    """A worker's ``simulate_shard`` raised: a bug, not bad luck.

    Carries the worker-side traceback; the supervisor fails the whole
    run fast instead of retrying (re-running a deterministic simulation
    on the same inputs would fail the same way).
    """

    def __init__(self, spec: ShardSpec, error_type: str, message: str,
                 worker_traceback: str) -> None:
        super().__init__(
            f"shard {spec.index} (devices [{spec.lo}, {spec.hi})) failed "
            f"in simulate_shard with {error_type}: {message}\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )
        self.spec = spec
        self.error_type = error_type
        self.error_message = message
        self.worker_traceback = worker_traceback


class ShardResultInvalid(ValueError):
    """A shard payload does not cover its spec (corrupt / truncated)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor treats infrastructure faults."""

    #: Re-dispatches per shard before degrading to inline execution.
    max_retries: int = 3
    #: Backoff before retry ``n`` is ``base * factor**n``, capped.
    backoff_base_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    #: Per-attempt deadline; a worker still running past it is killed
    #: and the attempt counts as an infrastructure fault.  ``None``
    #: disables the deadline (the default: shard runtimes scale with
    #: fleet size, so only the caller knows a sane bound).
    shard_timeout_s: float | None = None

    def backoff_s(self, failures_so_far: int) -> float:
        delay = self.backoff_base_s * (
            self.backoff_factor ** max(0, failures_so_far - 1)
        )
        return min(delay, self.backoff_max_s)


@dataclass
class _WorkerMessage:
    """What a worker sends back over its pipe (must stay picklable)."""

    ok: bool
    result: object = None
    error_type: str = ""
    error_message: str = ""
    traceback: str = ""


@dataclass
class _Running:
    spec: ShardSpec
    attempt: int
    process: object
    conn: object
    started: float
    deadline: float | None


@dataclass
class SupervisionReport:
    """What supervision did, for ``Dataset.metadata["execution"]``."""

    retries: int = 0
    reran_shards: list[int] = field(default_factory=list)
    degraded_shards: list[int] = field(default_factory=list)
    failures: list[ShardFailureRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "reran_shards": sorted(self.reran_shards),
            "degraded_shards": sorted(self.degraded_shards),
            "failures": [record.to_dict() for record in self.failures],
        }


def validate_shard_result(spec: ShardSpec, result) -> None:
    """Reject payloads that do not exactly cover ``spec``.

    Raises :class:`ShardResultInvalid` unless ``result`` is a
    ``ShardResult`` for this spec whose dataset contains exactly the
    shard's device ids in order and whose failure records stay inside
    the shard's id range.
    """
    from repro.parallel.engine import ShardResult

    if not isinstance(result, ShardResult):
        raise ShardResultInvalid(
            f"expected a ShardResult, got {type(result).__name__}"
        )
    if result.spec != spec:
        raise ShardResultInvalid(
            f"result spec {result.spec} does not match dispatched "
            f"spec {spec}"
        )
    ids = [device.device_id for device in result.dataset.devices]
    if ids != list(spec.device_ids()):
        raise ShardResultInvalid(
            f"shard {spec.index} devices do not cover "
            f"[{spec.lo}, {spec.hi}): got {len(ids)} devices"
            + (f" starting at {ids[0]}" if ids else "")
        )
    for record in result.dataset.failures:
        if not (spec.lo <= record.device_id < spec.hi):
            raise ShardResultInvalid(
                f"shard {spec.index} failure record for device "
                f"{record.device_id} outside [{spec.lo}, {spec.hi})"
            )
    if result.stats.shard != spec.index:
        raise ShardResultInvalid(
            f"stats shard {result.stats.shard} != spec {spec.index}"
        )


def _supervised_worker(reader, conn, config, spec: ShardSpec,
                       attempt: int, chaos_config) -> None:
    """Worker process entry (module-level: ``spawn``-picklable).

    ``reader``, the parent's end of this worker's result pipe, is
    closed first thing: while the child holds it (``fork`` inherits
    it), a SIGKILLed parent leaves ``conn.send`` blocked on a full
    pipe forever instead of failing with EPIPE.

    Chaos faults fire *outside* the simulation try block on purpose:
    they model infrastructure failures, which must reach the parent as
    a dead process / hung process / mangled payload — never as the
    simulation-failure message, which is reserved for real bugs inside
    ``simulate_shard``.
    """
    reader.close()
    from repro.parallel.engine import simulate_shard
    from repro.parallel.worker_chaos import WorkerChaos

    chaos = WorkerChaos(chaos_config) if chaos_config is not None else None
    if chaos is not None:
        chaos.on_enter(spec.index, attempt)
    try:
        result = simulate_shard(config, spec)
    except BaseException as exc:  # noqa: BLE001 — classified, not hidden
        conn.send(_WorkerMessage(
            ok=False,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback=traceback.format_exc(),
        ))
        conn.close()
        return
    if chaos is not None:
        result = chaos.mangle_result(spec.index, attempt, result)
    conn.send(_WorkerMessage(ok=True, result=result))
    conn.close()


class ShardSupervisor:
    """Dispatches shards to worker processes and survives their faults."""

    def __init__(
        self,
        config,
        specs: list[ShardSpec],
        workers: int,
        *,
        start_method: str,
        retry: RetryPolicy | None = None,
        worker_chaos=None,
        on_result=None,
    ) -> None:
        import multiprocessing

        self.config = config
        self.specs = list(specs)
        self.workers = max(1, workers)
        self.context = multiprocessing.get_context(start_method)
        self.retry = retry or RetryPolicy()
        self.worker_chaos = worker_chaos
        self.on_result = on_result
        self.report = SupervisionReport()
        #: Infrastructure failures per shard so far == next attempt no.
        self._attempts: dict[int, int] = {}
        #: Retry heap, wired in by :meth:`run`.
        self._pending: list[tuple[float, int, ShardSpec]] = []

    def run(self) -> list:
        """Run every spec to completion; results in shard-index order."""
        completed: dict[int, object] = {}
        # (ready_at, shard index, spec) — heap gives deterministic
        # dispatch order (earliest ready, lowest index first); the
        # failure path pushes retries onto it via ``self._pending``.
        self._pending = [(0.0, spec.index, spec) for spec in self.specs]
        heapq.heapify(self._pending)
        pending = self._pending
        running: dict[int, _Running] = {}
        try:
            while pending or running:
                now = time.monotonic()
                while (pending and len(running) < self.workers
                       and pending[0][0] <= now):
                    _, _, spec = heapq.heappop(pending)
                    self._dispatch(spec, running, completed)
                self._wait(pending, running)
                for task in list(running.values()):
                    self._collect(task, running, completed)
        except BaseException:
            self._kill_all(running)
            raise
        return [completed[spec.index] for spec in self.specs]

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, spec: ShardSpec, running, completed) -> None:
        attempt = self._attempts.get(spec.index, 0)
        recv_conn, send_conn = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_supervised_worker,
            args=(recv_conn, send_conn, self.config, spec, attempt,
                  self.worker_chaos),
            daemon=True,
        )
        started = time.monotonic()
        try:
            process.start()
        except OSError as exc:
            recv_conn.close()
            send_conn.close()
            self._infrastructure_failure(
                spec, attempt, "spawn",
                f"could not start worker ({type(exc).__name__}: {exc})",
                0.0, running, completed,
            )
            return
        send_conn.close()
        deadline = None
        if self.retry.shard_timeout_s is not None:
            deadline = started + self.retry.shard_timeout_s
        running[spec.index] = _Running(
            spec=spec, attempt=attempt, process=process, conn=recv_conn,
            started=started, deadline=deadline,
        )

    def _wait(self, pending, running) -> None:
        """Sleep until pipe activity, a deadline, or a backoff expiry."""
        now = time.monotonic()
        timeout = _MAX_WAIT_S
        if pending and len(running) < self.workers:
            timeout = min(timeout, pending[0][0] - now)
        for task in running.values():
            if task.deadline is not None:
                timeout = min(timeout, task.deadline - now)
        timeout = max(0.0, timeout)
        conns = [task.conn for task in running.values()]
        if conns:
            _connection_wait(conns, timeout)
        elif timeout:
            time.sleep(timeout)

    # -- collection ----------------------------------------------------------

    def _collect(self, task: _Running, running, completed) -> None:
        if task.spec.index not in running:
            return
        now = time.monotonic()
        elapsed = now - task.started
        if task.conn.poll():
            try:
                message = task.conn.recv()
            except Exception as exc:  # died mid-send / unpicklable
                self._reap(task, running)
                self._infrastructure_failure(
                    task.spec, task.attempt, "worker-death",
                    "worker died before delivering its result "
                    f"({type(exc).__name__}"
                    f"{f': {exc}' if str(exc) else ''}; "
                    f"exitcode={task.process.exitcode})",
                    elapsed, running, completed,
                )
                return
            self._reap(task, running)
            self._handle_message(task, message, elapsed, running,
                                 completed)
        elif not task.process.is_alive():
            self._reap(task, running)
            self._infrastructure_failure(
                task.spec, task.attempt, "worker-death",
                f"worker exited without a result "
                f"(exitcode={task.process.exitcode})",
                elapsed, running, completed,
            )
        elif task.deadline is not None and now >= task.deadline:
            task.process.kill()
            self._reap(task, running)
            self._infrastructure_failure(
                task.spec, task.attempt, "deadline",
                f"worker exceeded the per-shard deadline "
                f"({self.retry.shard_timeout_s:.3g}s)",
                elapsed, running, completed,
            )

    def _handle_message(self, task: _Running, message, elapsed: float,
                        running, completed) -> None:
        if not isinstance(message, _WorkerMessage):
            self._infrastructure_failure(
                task.spec, task.attempt, "corrupt-result",
                f"unexpected payload type {type(message).__name__}",
                elapsed, running, completed,
            )
            return
        if not message.ok:
            self.report.failures.append(ShardFailureRecord(
                shard=task.spec.index, attempt=task.attempt,
                kind="simulation", category="exception",
                message=f"{message.error_type}: {message.error_message}",
                elapsed_s=elapsed,
            ))
            raise ShardSimulationError(
                task.spec, message.error_type, message.error_message,
                message.traceback,
            )
        try:
            validate_shard_result(task.spec, message.result)
        except ShardResultInvalid as exc:
            self._infrastructure_failure(
                task.spec, task.attempt, "corrupt-result", str(exc),
                elapsed, running, completed,
            )
            return
        self._complete(task.spec, message.result, completed)

    # -- failure handling ----------------------------------------------------

    def _infrastructure_failure(self, spec: ShardSpec, attempt: int,
                                category: str, message: str,
                                elapsed: float, running,
                                completed) -> None:
        self.report.failures.append(ShardFailureRecord(
            shard=spec.index, attempt=attempt, kind="infrastructure",
            category=category, message=message, elapsed_s=elapsed,
        ))
        # Fault counters land on the parent registry (workers cannot
        # observe their own death); a clean run records none, keeping
        # serial-vs-sharded metrics byte-identical.
        registry = get_registry()
        if registry.enabled:
            registry.inc("parallel_shard_failures_total",
                         category=category)
        failures = attempt + 1
        self._attempts[spec.index] = failures
        if spec.index not in self.report.reran_shards:
            self.report.reran_shards.append(spec.index)
        if failures <= self.retry.max_retries:
            self.report.retries += 1
            registry.inc("parallel_shard_retries_total")
            ready_at = time.monotonic() + self.retry.backoff_s(failures)
            heapq.heappush(self._pending, (ready_at, spec.index, spec))
        else:
            # Out of retries: degrade to inline execution in the
            # parent, which no worker-infrastructure fault can touch.
            from repro.parallel.engine import simulate_shard

            result = simulate_shard(self.config, spec)
            validate_shard_result(spec, result)
            self.report.degraded_shards.append(spec.index)
            registry.inc("parallel_shard_degraded_total")
            self._complete(spec, result, completed)

    def _complete(self, spec: ShardSpec, result, completed) -> None:
        completed[spec.index] = result
        if self.on_result is not None:
            self.on_result(result)

    # -- process bookkeeping -------------------------------------------------

    def _reap(self, task: _Running, running) -> None:
        running.pop(task.spec.index, None)
        try:
            task.conn.close()
        except OSError:
            pass
        task.process.join(timeout=_REAP_GRACE_S)
        if task.process.is_alive():
            task.process.kill()
            task.process.join()

    def _kill_all(self, running) -> None:
        for task in list(running.values()):
            try:
                task.process.kill()
            except (OSError, ValueError):
                pass
            self._reap(task, running)
