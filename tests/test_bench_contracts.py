"""The end-to-end benchmark's contracts with ``src/``, in tier-1.

``benchmarks/e2e/`` is frozen: its files never change with the code
they measure, so every name they import from ``repro`` and every store
method or property they call must keep working.  This test imports
the three benchmark modules the way ``run.py`` does (their own
directory on ``sys.path``), which resolves every ``from repro...
import`` they make, and then drives each contract the layer replay
and the workloads use, by name, on a small store.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.serve.harness import synthetic_records

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's modules, imported as ``run.py`` imports them."""
    sys.path.insert(0, str(E2E))
    try:
        return {name: importlib.import_module(name) for name in (
            "bench_harness", "bench_workloads", "bench_layers")}
    finally:
        sys.path.remove(str(E2E))


def test_the_store_contracts_hold(bench, tmp_path):
    layers, workloads = bench["bench_layers"], bench["bench_workloads"]
    rows = synthetic_records(4, 5, seed=3)
    store = layers.SegmentStore(tmp_path / "store", seal_records=8)
    for row in rows:
        store.append(row)
    assert (store.n_segments, store.n_sealed_records,
            store.n_tail_records) == (2, 16, 4)
    assert len(store.query_snapshot().tails) == 1
    assert store.flush() == ["seg-000002.seg"]
    assert len(store.query_snapshot().tails) == 0
    assert store.fold_analysis().block["n_failures"] == len(rows)

    hour, devices = store.partition_of(rows[0])
    assert isinstance(hour, int) and isinstance(devices, int)
    blob = layers.encode_segment(rows, (hour, devices))
    assert layers.decode_segment(blob)[0] == rows

    report = store.scrub(repair=False)
    assert report.clean
    rebuilt = workloads.ScrubReport.from_dict(
        json.loads(json.dumps(report.to_dict())))
    assert rebuilt == report


def test_a_store_less_ingestion_server_receives(bench):
    layers = bench["bench_layers"]
    payloads: list[bytes] = []
    batcher = layers.UploadBatcher(transport=payloads.append)
    for row in synthetic_records(2, 3, seed=5):
        batcher.enqueue(row)
    batcher.maybe_flush(True)
    server = layers.IngestionServer()
    for payload in payloads:
        server.receive(payload)
    assert server.store is None and server.accepted == 6


def test_the_query_engine_counts_segment_reads(bench, tmp_path):
    layers = bench["bench_layers"]
    store = layers.SegmentStore(tmp_path / "store", seal_records=8)
    for row in synthetic_records(4, 4, seed=9):
        store.append(row)
    server = layers.IngestionServer()
    server.attach_store(store)
    engine = layers.QueryEngine(server)
    engine.answer("summary")
    engine.answer("summary")
    assert (engine.cache.hits, engine.cache.misses) == (2, 2)
