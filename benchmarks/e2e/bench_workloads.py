"""The four workloads of the end-to-end benchmark.

Each workload generates its inputs from the seed, sets the system up
(several times; the median is ``setup_s``), runs the measured phase
against the real CLI in child processes, checks every answer against
the offline fold of exactly the records it sent, and returns the eight
end-to-end metrics.  Sizes are linear in ``--seconds`` (the nominal
length of the measured phase on the 2-core reference sandbox), so a
seed and a length fix the inputs exactly.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_harness import (
    QUERY_KINDS,
    Child,
    Run,
    ServeChild,
    StreamStats,
    Usage,
    canonical,
    dir_bytes,
    median,
    percentile,
    stream_records,
)

from repro.analysis.columnar import (
    analysis_summary,
    compute_analysis_block,
    invalidate_columnar,
)
from repro.chaos.disk import DiskIO
from repro.dataset.records import FailureRecord
from repro.dataset.store import Dataset, load_dataset, save_dataset
from repro.fleet.scenario import ENGINE_BATCH, ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.serve.client import QueryClient, TransportSignal
from repro.serve.harness import synthetic_records
from repro.serve.query import (
    ISP_BS_FIELDS,
    STATS_FIELDS,
    TRANSITIONS_FIELDS,
)
from repro.store import ScrubReport, SegmentStore

#: Devices of the dense stream: one device bucket (< 1024).
DENSE_DEVICES = 1_000
#: ``synthetic_records`` spaces a device's records 60 s apart, so this
#: many per device still fall inside one hourly time bucket.
DENSE_MAX_PER_DEVICE = 59
#: Devices of the fleet whose failures make the sparse stream.
SPARSE_DEVICES = 1_000
#: The simulated fleets are one fixed world and the benchmark seed
#: picks the sample taken from it.  Per-device failure counts are
#: heavy-tailed, so fleets of different seeds are different workloads:
#: the first 12 000 failures of a 1 000-device fleet fell into 1 688 to
#: 3 314 partitions over eight seeds (2 195 to 2 253 over windows of
#: one fleet), and 10 000-device fleets differed by 20 % in records.
FLEET_SEED = 7
#: One record in this many goes into the saved dataset sample.
SAVE_STRIDE = 20
#: Warm queries over the measured restart cycles (>= 100 for p90).
WARM_QUERIES = 200
#: Warm in-process analysis blocks over the measured study cycles
#: (>= 100 samples for p90); each cycle also takes one cold block.
WARM_BLOCKS = 100

_PROJECTIONS = {
    "stats": STATS_FIELDS,
    "isp_bs": ISP_BS_FIELDS,
    "transitions": TRANSITIONS_FIELDS,
}


@dataclass(frozen=True)
class Scale:
    """How much work one run does."""

    #: Nominal length of the measured phase; every size is linear in it.
    seconds: float
    #: Times the set-up is repeated (the median is ``setup_s``).
    setup_repeats: int = 3
    #: Measured cold cycles (restarts, study children) after the one
    #: discarded for the page cache.
    cycles: int = 5

    def size(self, per_second: float) -> int:
        return max(1, int(per_second * self.seconds))


QUICK = Scale(seconds=2.0, setup_repeats=1, cycles=1)


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: dict[str, float]
    #: The stream of failure-record dicts the layer replay reuses.
    records: list[dict]
    #: Per-layer figures only the live run can give (traced runs);
    #: keys starting with ``_`` are inputs of bench_layers, not rows.
    live: dict[str, float] = field(default_factory=dict)
    #: A drained or crashed store the scrub rows can read, if any.
    store_dir: Path | None = None


# -- generated inputs ---------------------------------------------------------


def dense_records(seed: int, n: int) -> list[dict]:
    """``n`` records of 1 000 devices in one time and device bucket.

    Normalised through :class:`FailureRecord` so the dicts sent are
    exactly the dicts the store round-trips.
    """
    per_device = -(-n // DENSE_DEVICES)
    if per_device > DENSE_MAX_PER_DEVICE:
        raise ValueError(
            f"{n} dense records would leave the one time bucket this "
            "workload is defined on; use a shorter --seconds"
        )
    raw = synthetic_records(DENSE_DEVICES, per_device, seed=seed)[:n]
    return [FailureRecord.from_dict(row).to_dict() for row in raw]


def study_scenario(seed: int, devices: int) -> ScenarioConfig:
    """The scenario ``repro study --engine batch`` builds for these."""
    return ScenarioConfig(
        n_devices=devices, seed=seed, engine=ENGINE_BATCH,
        topology=TopologyConfig(
            n_base_stations=max(400, devices // 2), seed=seed + 1,
        ),
    )


def sparse_records(seed: int, n: int) -> list[dict]:
    """``n`` consecutive failures, in time order, of a 1 000-device fleet.

    Eight simulated months spread them over thousands of hourly
    partitions of a few records each: no tail ever reaches
    ``seal_records``, so every record stays in WAL + memory until the
    drain.  This is the traffic ``repro study`` actually produces.  The
    seed picks where in the fleet's failure stream the window starts.
    """
    dataset = FleetSimulator(
        study_scenario(FLEET_SEED, SPARSE_DEVICES)).run()
    if len(dataset.failures) < n:
        raise ValueError(
            f"the fleet produced {len(dataset.failures)} failures, "
            f"fewer than the {n} asked for; use a shorter --seconds"
        )
    rows = [failure.to_dict() for failure in dataset.failures]
    rows.sort(key=lambda row: (row["start_time"], row["device_id"]))
    start = random.Random(f"sparse-window:{seed}").randrange(
        len(rows) - n + 1)
    return rows[start:start + n]


def dataset_sample(dataset: Dataset, offset: int) -> Dataset:
    """Every ``SAVE_STRIDE``-th record of each stream of ``dataset``.

    The same mix of record kinds as the whole set (the first devices
    alone would not be: a few of them hold most of the failures).
    """
    offset %= SAVE_STRIDE
    return Dataset(
        devices=dataset.devices[offset::SAVE_STRIDE],
        failures=dataset.failures[offset::SAVE_STRIDE],
        transitions=dataset.transitions[offset::SAVE_STRIDE],
    )


def records_digest(records: list[dict]) -> str:
    digest = hashlib.sha256()
    for row in records:
        digest.update(canonical(row).encode())
    return digest.hexdigest()


# -- references ---------------------------------------------------------------


def reference_block(records: list[dict]) -> dict:
    """The offline fold of exactly these records."""
    return compute_analysis_block(Dataset(failures=[
        FailureRecord.from_dict(row) for row in records
    ]))


def expected_answer(block: dict, kind: str) -> dict:
    if kind == "summary":
        return analysis_summary(block)
    return {key: block[key] for key in _PROJECTIONS[kind]}


def ask(run: Run, client: QueryClient, kind: str, block: dict,
        n_records: int, what: str) -> dict | None:
    """One query that must be answered, complete and exact."""
    try:
        envelope = client.query(kind)
    except TransportSignal as exc:
        run.check(False, f"{what}: {kind} query failed: {exc!r}")
        return None
    watermark = envelope["watermark"]["n_records"]
    exact = (canonical(envelope["result"])
             == canonical(expected_answer(block, kind)))
    run.check(
        watermark == n_records and exact,
        f"{what}: {kind} answer at watermark {watermark} (expected "
        f"{n_records}) {'matches' if exact else 'differs from'} the "
        "offline fold",
    )
    return envelope


def repeat_setup(scale: Scale, build, discard):
    """Set up ``setup_repeats`` times; keep the last, time them all."""
    walls = []
    product = None
    for _ in range(scale.setup_repeats):
        if product is not None:
            discard(product)
        started = time.perf_counter()
        product = build()
        walls.append(time.perf_counter() - started)
    # Everything allocated so far is input: keep the collector from
    # walking it again while the generator is being timed.
    gc.collect()
    gc.freeze()
    return product, median(walls)


# -- a live ingest session ----------------------------------------------------


@dataclass
class Session:
    """One stream into a live server, through to its drained exit."""

    stats: StreamStats
    #: The offline fold of every record the store held at the end.
    block: dict
    usage: Usage
    drain_s: float
    #: Server CPU from the first record sent to process exit.
    cpu_s: float
    segments_end: int
    tail_records_end: int
    #: The server's own always-on registry (``--metrics-out``).
    snapshot: dict


def ingest_session(run: Run, server: ServeChild, store_dir: Path,
                   records: list[dict], known: list[dict],
                   metrics_out: Path) -> Session:
    """Stream ``records``, check the final answers, drain the server.

    ``known`` is every record the store holds once the stream is
    durable (``records`` plus whatever it held before); the four final
    answers must equal its offline fold, and two answers sampled from
    mid-stream must equal the fold of their own journal prefix.
    """
    before = len(known) - len(records)
    cpu_before = server.cpu_s()
    stats = stream_records(run, records, server.address, store_dir)
    block = reference_block(known)
    envelope = None
    with QueryClient(*server.address) as client:
        for kind in QUERY_KINDS:
            envelope = ask(run, client, kind, block, len(known),
                           "final answer") or envelope
    tail_end = envelope["watermark"]["n_tail"] if envelope else 0
    usage, drain_s = server.drain()
    report = re.search(r"store segments=(\d+) sealed=(\d+) tail=(\d+)",
                       server.output)
    run.check(
        usage.exit_code == 0 and report is not None
        and f"drained=True leftover=0 accepted={len(records)} "
        in server.output
        and int(report.group(2)) == len(known)
        and int(report.group(3)) == 0,
        f"drain exited {usage.exit_code}: {server.output[-300:]!r}",
    )
    sampled = stats.answers[len(stats.answers) // 4::
                            max(1, len(stats.answers) // 4)][:2]
    for sent, answer in sampled:
        watermark = answer["watermark"]["n_records"]
        prefix = reference_block(known[:watermark])
        run.check(
            before <= watermark <= before + sent
            and canonical(answer["result"]) == canonical(
                expected_answer(prefix, answer["query"])),
            f"live {answer['query']} answer at watermark {watermark} "
            "differs from the fold of its journal prefix",
        )
    return Session(
        stats=stats, block=block, usage=usage, drain_s=drain_s,
        cpu_s=usage.cpu_s - cpu_before,
        segments_end=int(report.group(1)) if report else 0,
        tail_records_end=tail_end,
        snapshot=json.loads(metrics_out.read_text()),
    )


def _histogram(snapshot: dict, name: str, stage: str) -> tuple[int, float]:
    data = snapshot["histograms"].get(f'{name}{{stage="{stage}"}}')
    return (data["count"], data["sum"]) if data else (0, 0.0)


def session_layers(run: Run, session: Session) -> dict[str, float]:
    """The per-layer rows a traced live session gives."""
    tracer, stats, snapshot = run.tracer, session.stats, session.snapshot
    acks = tracer.durations("transport.send")[-stats.n_records:]
    _, ingest_s = _histogram(snapshot, "serve_stage_seconds", "ingest")
    queue_n, queue_s = _histogram(snapshot, "serve_stage_seconds",
                                  "queue")
    plane_n, plane_s = _histogram(snapshot, "query_stage_seconds",
                                  "queue")
    server_query_s = plane_s + sum(
        _histogram(snapshot, "query_stage_seconds", stage)[1]
        for stage in ("fold", "encode")
    )
    asked = len(stats.latencies_s) + len(QUERY_KINDS)
    return {
        "serve.ack_us": median(acks) * 1e6,
        "serve.ack_p99_us": percentile(acks, 0.99) * 1e6,
        "serve.window_wait_share": stats.window_wait_s / stats.wall_s,
        "serve.queue_wait_ms": queue_s / max(1, queue_n) * 1e3,
        "serve.ingest_busy_share": ingest_s / stats.wall_s,
        "serve.drain_s": session.drain_s,
        "store.segments_end": float(session.segments_end),
        "store.tail_records_end": float(session.tail_records_end),
        "query.plane_wait_ms": plane_s / max(1, plane_n) * 1e3,
        "query.rtt_overhead_ms": (
            sum(stats.latencies_s) / len(stats.latencies_s)
            - server_query_s / asked
        ) * 1e3,
        # Inputs of layers.unattributed_share, not rows themselves.
        "_stream_wall_s": stats.wall_s,
        "_server_query_s": server_query_s * (
            len(stats.latencies_s) / asked),
    }


# -- ingest_dense, query_sparse -----------------------------------------------


def _serve_ingest(run: Run, scale: Scale, make_records) -> Outcome:
    store_dir = run.dir / "store"
    checkpoint = run.dir / "serve.ckpt"
    # The registry is always on in ``repro serve``; writing it out at
    # exit is the same work in the traced and the untraced run.
    metrics_out = run.dir / "serve-metrics.json"

    def build():
        records = make_records()
        return records, ServeChild(run, store_dir, checkpoint=checkpoint,
                                   metrics_out=metrics_out)

    def discard(product):
        product[1].kill()
        shutil.rmtree(store_dir, ignore_errors=True)

    (records, server), setup_s = repeat_setup(scale, build, discard)
    session = ingest_session(run, server, store_dir, records, records,
                             metrics_out)
    disk_bytes = dir_bytes(store_dir) + checkpoint.stat().st_size
    summary = analysis_summary(session.block)
    first_answers, rss, starts = [], [session.usage.peak_rss_mb], []
    for cycle in range(1 + scale.cycles):
        # Ended by SIGKILL, so the store is the same for every cycle;
        # the first one only warms the page cache.
        child = ServeChild(run, store_dir, checkpoint=checkpoint,
                           resume=True)
        with QueryClient(*child.address) as client:
            try:
                envelope = client.query("summary")
            except TransportSignal as exc:
                envelope = {"result": repr(exc)}
        first = time.perf_counter() - child.started
        run.check(
            canonical(envelope["result"]) == canonical(summary),
            "first answer after restart differs from the offline fold",
        )
        usage = child.kill()
        if cycle:
            first_answers.append(first)
            starts.append(child.ready_s)
            rss.append(usage.peak_rss_mb)
    store = SegmentStore(store_dir)
    report = store.scrub(repair=False)
    run.check(
        report.clean and store.n_sealed_records == len(records)
        and store.n_tail_records == 0,
        f"drained store is not clean: {report.render()}",
    )
    latencies = session.stats.latencies_s
    outcome = Outcome(
        metrics={
            "setup_s": setup_s,
            "records_per_s": session.stats.records_per_s,
            "answer_ms": median(latencies) * 1e3,
            "answer_p90_ms": percentile(latencies, 0.9) * 1e3,
            "first_answer_ms": median(first_answers) * 1e3,
            "cpu_ms_per_record": session.cpu_s / len(records) * 1e3,
            "peak_rss_mb": max(rss),
            "disk_bytes_per_record": disk_bytes / len(records),
        },
        records=records, store_dir=store_dir,
    )
    if run.tracer.enabled:
        outcome.live = session_layers(run, session)
        outcome.live["serve.start_ms"] = median(starts) * 1e3
    return outcome


def ingest_dense(run: Run, seed: int, scale: Scale) -> Outcome:
    n = scale.size(1_200)
    return _serve_ingest(run, scale, lambda: dense_records(seed, n))


def query_sparse(run: Run, seed: int, scale: Scale) -> Outcome:
    n = scale.size(600)
    return _serve_ingest(run, scale, lambda: sparse_records(seed, n))


# -- restart_recover ----------------------------------------------------------


class UnsyncedIO(DiskIO):
    """Writes the same bytes as :class:`DiskIO` without the fsyncs.

    Only for building a benchmark *input* store quickly and with
    CPU-bound (repeatable) set-up time; nothing under test uses it.
    """

    def write_atomic(self, path, data: bytes) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def append_line(self, path, line: bytes) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "ab") as handle:
            handle.write(line + b"\n")


def build_store(store_dir: Path, records: list[dict]) -> None:
    store = SegmentStore(store_dir, io=UnsyncedIO())
    for row in records:
        store.append(row)


def restart_recover(run: Run, seed: int, scale: Scale) -> Outcome:
    n = scale.size(1_200)
    store_dir = run.dir / "store"

    def build():
        records = dense_records(seed, n)
        build_store(store_dir, records)
        return records, ServeChild(run, store_dir)

    def discard(product):
        product[1].kill()
        shutil.rmtree(store_dir)

    (records, server), setup_s = repeat_setup(scale, build, discard)
    block = reference_block(records)
    disk_bytes = dir_bytes(store_dir)
    first_answers, latencies, rss = [], [], []
    starts, scrubs, cpus = [], [], []
    warm_per_cycle = -(-WARM_QUERIES // scale.cycles)
    for cycle in range(1 + scale.cycles):
        # No checkpoint: dedup and tails are rebuilt from the journal.
        # Crash-ended, so every cycle reads the same bytes; the first
        # cycle (the set-up's child) only warms the page cache.
        if cycle:
            server = ServeChild(run, store_dir)
        warm = []
        with QueryClient(*server.address) as client:
            ask(run, client, "summary", block, n, "first answer")
            first = time.perf_counter() - server.started
            for turn in range(warm_per_cycle):
                asked = time.perf_counter()
                with run.tracer.span("query", turn):
                    ask(run, client,
                        QUERY_KINDS[turn % len(QUERY_KINDS)], block, n,
                        "warm answer")
                warm.append(time.perf_counter() - asked)
        usage = server.kill()
        if not cycle:
            continue
        report_path = run.dir / "scrub.json"
        with run.tracer.span("cli.scrub"):
            scrub = Child(run, "scrub", ["scrub", str(store_dir),
                                        "--no-repair", "--json",
                                        str(report_path)])
            scrub_usage = scrub.finish()
            scrub_s = time.perf_counter() - scrub.started
        report = ScrubReport.from_dict(
            json.loads(report_path.read_text()))
        run.check(
            scrub_usage.exit_code == 0 and report.clean,
            f"scrub of the crashed store: {scrub.output[-300:]!r}",
        )
        first_answers.append(first)
        latencies.extend(warm)
        starts.append(server.ready_s)
        scrubs.append(scrub_s)
        cpus.append(usage.cpu_s + scrub_usage.cpu_s)
        rss.append(max(usage.peak_rss_mb, scrub_usage.peak_rss_mb))
    run.check(dir_bytes(store_dir) == disk_bytes,
              "restart cycles changed the crashed store")
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "records_per_s": n / median(first_answers),
            "answer_ms": median(latencies) * 1e3,
            "answer_p90_ms": percentile(latencies, 0.9) * 1e3,
            "first_answer_ms": median(first_answers) * 1e3,
            "cpu_ms_per_record": median(cpus) / n * 1e3,
            "peak_rss_mb": max(rss),
            "disk_bytes_per_record": disk_bytes / n,
        },
        records=records, store_dir=store_dir,
        live={
            "serve.start_ms": median(starts) * 1e3,
            "cli.scrub_s": median(scrubs),
            "_first_answer_s": median(first_answers),
        },
    )


# -- study_offline ------------------------------------------------------------


def study_offline(run: Run, seed: int, scale: Scale) -> Outcome:
    devices = scale.size(400)
    scenario = study_scenario(FLEET_SEED, devices)

    def build():
        dataset = FleetSimulator(scenario).run()
        return dataset, compute_analysis_block(dataset)

    (dataset, block), setup_s = repeat_setup(
        scale, build, lambda _product: None)
    n = len(dataset.failures) + len(dataset.transitions)
    walls, rss, cpus, cold, warm = [], [], [], [], []
    warm_per_cycle = -(-WARM_BLOCKS // scale.cycles)
    analysis_out = run.dir / "analysis.json"
    for cycle in range(1 + scale.cycles):
        # A fresh child per round: in-process rounds inherit the
        # allocator state the previous dataset left behind.
        with run.tracer.span("study.child", cycle):
            child = Child(run, "study", [
                "study", "--engine", "batch", "--devices", str(devices),
                "--seed", str(FLEET_SEED),
                "--analysis-out", str(analysis_out),
            ])
            usage = child.finish()
            wall = time.perf_counter() - child.started
        answer = json.loads(analysis_out.read_text())
        run.check(
            usage.exit_code == 0
            and canonical(answer["analysis"]) == canonical(block)
            and canonical(answer["summary"])
            == canonical(analysis_summary(block)),
            f"study child exited {usage.exit_code} or its analysis "
            "differs from the in-process fold of the same scenario",
        )
        analysis_out.unlink()
        # The in-process answers are taken between the children, not in
        # one burst at the end: the machine's speed drifts over tens of
        # seconds, and every metric should see the same stretch of it.
        invalidate_columnar(dataset)
        asked = time.perf_counter()
        with run.tracer.span("analysis.cold_block", cycle):
            again = compute_analysis_block(dataset)
        first = time.perf_counter() - asked
        blocks = []
        for turn in range(warm_per_cycle):
            asked = time.perf_counter()
            with run.tracer.span("analysis.block", turn):
                again = compute_analysis_block(dataset)
            blocks.append(time.perf_counter() - asked)
        run.check(canonical(again) == canonical(block),
                  "a repeated analysis block differs from the first")
        if cycle:
            walls.append(wall)
            cpus.append(usage.cpu_s)
            rss.append(usage.peak_rss_mb)
            cold.append(first)
            warm.extend(blocks)
    # The on-disk form of a twentieth of the records, picked by the
    # seed: bytes per record do not depend on the size, and level-9
    # gzip of the whole set would take longer than all the rest.
    sample = dataset_sample(dataset, seed)
    saved = run.dir / "sample.jsonl.gz"
    save_dataset(sample, saved)
    run.check(
        canonical(compute_analysis_block(load_dataset(saved)))
        == canonical(compute_analysis_block(sample)),
        "the saved dataset does not load back to the same analysis",
    )
    records = [failure.to_dict()
               for failure in dataset.failures[:max(1_200, scale.size(400))]]
    records.sort(key=lambda row: (row["start_time"], row["device_id"]))
    return Outcome(
        metrics={
            "setup_s": setup_s,
            "records_per_s": n / median(walls),
            "answer_ms": median(warm) * 1e3,
            "answer_p90_ms": percentile(warm, 0.9) * 1e3,
            "first_answer_ms": median(cold) * 1e3,
            "cpu_ms_per_record": median(cpus) / n * 1e3,
            "peak_rss_mb": max(rss),
            "disk_bytes_per_record": saved.stat().st_size / (
                len(sample.failures) + len(sample.transitions)),
        },
        records=records,
        live={
            "_study_devices": float(devices),
            "_child_wall_s": median(walls),
        },
    )


WORKLOADS = {
    "ingest_dense": ingest_dense,
    "query_sparse": query_sparse,
    "restart_recover": restart_recover,
    "study_offline": study_offline,
}
