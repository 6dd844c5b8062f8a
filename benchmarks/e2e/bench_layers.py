"""The per-layer table of a traced run, measured from outside.

Three sources, none of them inside ``src/``: bench-side spans around
the generator's calls (``Outcome.live``), the server's own always-on
registry harvested with ``--metrics-out`` at exit (also in
``Outcome.live``), and — this module — an in-process replay of the
workload's generated inputs through each layer's public functions.  A
counting :class:`DiskIO` subclass and a counted ``os.fsync`` give exact
I/O counts.
"""

from __future__ import annotations

import os
import socket
import time
from contextlib import contextmanager
from pathlib import Path

from bench_harness import Child, Run, ServeChild, import_ms, median
from bench_workloads import (
    FLEET_SEED,
    Outcome,
    Scale,
    dataset_sample,
    ingest_session,
    session_layers,
    study_scenario,
)

from repro.analysis.columnar import (
    columnar,
    compute_analysis_block,
    invalidate_columnar,
)
from repro.backend.ingest import IngestionServer
from repro.chaos.disk import DiskIO
from repro.dataset.store import load_dataset, save_dataset
from repro.fleet.scenario import ENGINE_SERIAL, ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.monitoring.uploader import UploadBatcher
from repro.network.topology import TopologyConfig
from repro.serve import protocol
from repro.serve.admission import AdmissionQueue
from repro.serve.query import QueryEngine, SegmentPartial
from repro.store import SegmentStore, decode_segment, encode_segment


def timed(call, repeats: int = 1) -> float:
    """Median wall of ``call()`` over ``repeats`` runs, in seconds."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        walls.append(time.perf_counter() - started)
    return median(walls)


class CountingIO(DiskIO):
    """The real :class:`DiskIO`, counting the WAL bytes it appends."""

    def __init__(self) -> None:
        self.wal_bytes = 0

    def append_line(self, path, line: bytes) -> None:
        if b'"op": "wal"' in line:
            self.wal_bytes += len(line) + 1
        super().append_line(path, line)


@contextmanager
def counted_fsyncs():
    """Count every ``os.fsync`` of this process while inside."""
    real, count = os.fsync, [0]

    def fsync(fd):
        count[0] += 1
        return real(fd)

    os.fsync = fsync
    try:
        yield count
    finally:
        os.fsync = real


def fleet_layers(seed: int, scale: Scale, workdir: Path) -> dict:
    devices = scale.size(100)
    started = time.perf_counter()
    dataset = FleetSimulator(study_scenario(FLEET_SEED, devices)).run()
    batch_s = time.perf_counter() - started
    serial_devices = max(40, scale.size(15))
    serial_s = timed(FleetSimulator(ScenarioConfig(
        n_devices=serial_devices, seed=FLEET_SEED, engine=ENGINE_SERIAL,
        topology=TopologyConfig(n_base_stations=400, seed=FLEET_SEED + 1),
    )).run)

    def view():
        invalidate_columnar(dataset)
        columnar(dataset)

    view_s = timed(view, 5)
    block_s = timed(lambda: compute_analysis_block(dataset), 20)
    sample = dataset_sample(dataset, seed)
    saved = workdir / "layers-sample.jsonl.gz"
    save_s = timed(lambda: save_dataset(sample, saved))
    load_s = timed(lambda: load_dataset(saved))
    return {
        "fleet.batch.devices_per_s": devices / batch_s,
        "fleet.batch.records_out": float(
            len(dataset.failures) + len(dataset.transitions)),
        "fleet.serial.devices_per_s": serial_devices / serial_s,
        "analysis.view_build_ms": view_s * 1e3,
        "analysis.block_ms": block_s * 1e3,
        "dataset.save_s": save_s,
        "dataset.load_s": load_s,
        "dataset.bytes_per_record": saved.stat().st_size / (
            len(sample.failures) + len(sample.transitions)),
    }


def wire_layers(records: list[dict]) -> dict:
    """Uploader encode, framing, admission, ingest without a store."""
    payloads: list[bytes] = []
    batcher = UploadBatcher(transport=payloads.append)
    started = time.perf_counter()
    for row in records:
        batcher.enqueue(row)
    encode_s = time.perf_counter() - started
    payload_bytes = batcher.pending_bytes / len(records)
    batcher.maybe_flush(True)
    client, server = socket.socketpair()
    try:
        started = time.perf_counter()
        for payload in payloads:
            protocol.write_request(client, payload)
            protocol.read_frame(server)
            protocol.write_ack(server, protocol.ACK_OK)
            protocol.read_ack(client)
        rtt_s = time.perf_counter() - started
    finally:
        client.close()
        server.close()
    queue = AdmissionQueue()
    started = time.perf_counter()
    for payload in payloads:
        queue.offer(payload, 0, admitted_at=time.monotonic())
        queue.pop(timeout=0)
    admission_s = time.perf_counter() - started
    ingest = IngestionServer()
    started = time.perf_counter()
    for payload in payloads:
        ingest.receive(payload)
    receive_s = time.perf_counter() - started
    per = 1e6 / len(records)
    return {
        "uploader.encode_us": encode_s * per,
        "uploader.payload_bytes": payload_bytes,
        "protocol.frame_rtt_us": rtt_s * per,
        "admission.offer_pop_us": admission_s * per,
        "ingest.receive_us": receive_s * per,
    }


def write_layers(records: list[dict], store_dir: Path) -> dict:
    """The store's write path over the workload's own records."""
    io = CountingIO()
    store = SegmentStore(store_dir, io=io)
    plain, sealing = [], []
    with counted_fsyncs() as fsyncs:
        for row in records:
            segments = store.n_segments
            started = time.perf_counter()
            store.append(row)
            wall = time.perf_counter() - started
            (sealing if store.n_segments > segments else plain).append(
                wall)
        appended_fsyncs = fsyncs[0]
    snapshot_s = timed(store.query_snapshot, 200)
    tails = len(store.query_snapshot().tails)
    flush_s = timed(store.flush)
    partials = [SegmentPartial.from_rows(records[at:at + 512]).partial
                for at in range(0, min(len(records), 2048), 512)]
    merge_s = timed(lambda: [a.merge(b) for a in partials
                             for b in partials], 20) / len(partials) ** 2
    rows = records[:512]
    partition = store.partition_of(rows[0])
    blob = encode_segment(rows, partition)
    return {
        "store.append_us": median(plain) * 1e6,
        "store.fsyncs_per_record": appended_fsyncs / len(records),
        "store.wal_bytes_per_record": io.wal_bytes / len(records),
        # A seal inside an append when the stream has them (dense);
        # otherwise the drain's seals of the many small tails (sparse).
        "store.seal_ms": (median(sealing) if sealing
                          else flush_s / max(1, tails)) * 1e3,
        "store.segment_encode_us": timed(
            lambda: encode_segment(rows, partition), 5) / len(rows) * 1e6,
        "store.segment_bytes_per_record": len(blob) / len(rows),
        "store.segment_decode_us": timed(
            lambda: decode_segment(blob), 5) / len(rows) * 1e6,
        "store.snapshot_us": snapshot_s * 1e6,
        "analysis.partial_merge_us": merge_s * 1e6,
        "query.tail_fold_ms_per_krow": timed(
            lambda: SegmentPartial.from_rows(records[:1000]), 5) * 1e3
        * (1000 / len(records[:1000])),
        "_append_mean_us": (sum(plain) + sum(sealing))
        / len(records) * 1e6,
    }


def read_layers(store_dir: Path) -> dict:
    """The store's read path over the store the workload left."""
    reopen_s = timed(lambda: SegmentStore(store_dir), 3)
    store = SegmentStore(store_dir)
    server = IngestionServer()
    server.attach_store(store)
    engine = QueryEngine(server)
    cold_s = timed(lambda: engine.answer("summary"))
    warm_s = timed(lambda: engine.answer("summary"), 20)
    lookups = engine.cache.hits + engine.cache.misses
    return {
        "store.reopen_ms": reopen_s * 1e3,
        "query.cold_ms": cold_s * 1e3,
        "query.warm_ms": warm_s * 1e3,
        "query.cache_hit_ratio": engine.cache.hits / max(1, lookups),
        "store.scrub_ms": timed(
            lambda: store.scrub(repair=False)) * 1e3,
        "store.fold_analysis_ms": timed(store.fold_analysis) * 1e3,
    }


def scrub_child_s(run: Run, store_dir: Path) -> float:
    """Wall of one ``repro scrub --no-repair`` child."""
    scrub = Child(run, "scrub", ["scrub", str(store_dir), "--no-repair"])
    scrub.finish()
    return time.perf_counter() - scrub.started


def probe_session(run: Run, records: list[dict]) -> dict[str, float]:
    """The live ``serve.*`` / ``query.*`` rows of a workload without them.

    ``restart_recover`` and ``study_offline`` send nothing to a live
    server, but every traced run reports every row: a slice of the
    workload's own records goes through the session ``ingest_dense``
    measures, into a fresh store.
    """
    store_dir = run.dir / "probe-store"
    metrics_out = run.dir / "probe-metrics.json"
    server = ServeChild(run, store_dir,
                        checkpoint=run.dir / "probe.ckpt",
                        metrics_out=metrics_out)
    session = ingest_session(run, server, store_dir, records, records,
                             metrics_out)
    return {"serve.start_ms": server.ready_s * 1e3,
            **session_layers(run, session)}


def unattributed_share(name: str, rows: dict) -> float:
    """Measured wall not explained by the replayed layer times.

    Socket handling, thread hand-offs under the GIL, and interpreter
    start beyond the imports live here; a layer gain that does not
    shrink the wall shows up as this share growing.
    """
    if name == "restart_recover":
        wall = rows["_first_answer_s"]
        explained = (rows["proc.import_ms"] + rows["store.reopen_ms"]
                     + rows["query.cold_ms"]) / 1e3
    elif name == "study_offline":
        wall = rows["_child_wall_s"]
        explained = (
            rows["proc.import_ms"] / 1e3
            + rows["_study_devices"] / rows["fleet.batch.devices_per_s"]
            + rows["analysis.block_ms"] / 1e3
        )
    else:
        wall = rows["_stream_wall_s"]
        per_record_us = (rows["admission.offer_pop_us"]
                         + rows["ingest.receive_us"]
                         + rows["_append_mean_us"])
        explained = (rows["_records"] * per_record_us / 1e6
                     + rows["_server_query_s"])
    return 1.0 - explained / wall


def layer_table(run: Run, name: str, outcome: Outcome, seed: int,
                scale: Scale, tracing_overhead: float) -> dict[str, float]:
    """Every per-layer row of one traced workload run."""
    records = outcome.records[:max(1_200, scale.size(200))]
    replay_store = run.dir / "replay-store"
    rows = dict(outcome.live)
    if "serve.ack_us" not in rows:
        # Keeps the workload's own start and scrub times where it has
        # them (restart_recover).
        rows = {**probe_session(
            run, outcome.records[:max(1_200, scale.size(100))]), **rows}
    rows["_records"] = float(len(outcome.records))
    rows.update(fleet_layers(seed, scale, run.dir))
    rows.update(wire_layers(records))
    rows.update(write_layers(records, replay_store))
    left_store = outcome.store_dir or replay_store
    rows.update(read_layers(left_store))
    if "cli.scrub_s" not in rows:  # restart_recover timed its own
        rows["cli.scrub_s"] = scrub_child_s(run, left_store)
    rows["proc.import_ms"] = import_ms()
    rows["layers.unattributed_share"] = unattributed_share(name, rows)
    rows["obs.tracing_overhead_share"] = tracing_overhead
    return {key: value for key, value in rows.items()
            if not key.startswith("_")}
