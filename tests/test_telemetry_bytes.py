"""The chaos telemetry pipeline's output, pinned.

``run_telemetry_pipeline`` replays a dataset's failure records through
per-device spoolers, a fault-injecting transport and a store-less
ingestion server, then reconciles; its summary becomes a study's
``metadata["telemetry"]``.  These digests pin that summary for a fixed
small dataset under drops, duplicates, reordering, corruption, an
outage window, a spool small enough to shed and a retry budget low
enough to run out, and a small chaos study's telemetry block, serial
and over two shards.

Any refactor of the drive loop, the transport or the spooler must leave
these values as they are.  A change that sets out to alter what the
pipeline does re-pins them on purpose, in the same change.
"""

from __future__ import annotations

import hashlib
import json

from repro.chaos import ChaosConfig, run_telemetry_pipeline
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel import run_sharded
from tests.test_chaos import make_dataset


def _digest(block: dict) -> str:
    return hashlib.sha256(
        json.dumps(block, sort_keys=True).encode()
    ).hexdigest()


def test_pipeline_summary_bytes():
    chaos = ChaosConfig(
        seed=5, drop_rate=0.3, duplicate_rate=0.2, reorder_rate=0.1,
        corrupt_rate=0.05, outages=((600.0, 1200.0),),
        max_spool_bytes=900, max_attempts=3,
    )
    summary = run_telemetry_pipeline(make_dataset(20, 8), chaos).summary()
    rec = summary["reconciliation"]
    # Every loss channel and fault the pin is meant to cover fired.
    for name in ("shed", "budget_exhausted", "quarantined", "duplicates"):
        assert rec[name] > 0, name
    assert rec["transport"]["outage_rejections"] > 0
    assert rec["transport"]["reordered"] > 0
    assert rec["unexplained"] == []
    assert _digest(summary) == (
        "e511432f38a987d4bdc9f62dfcc045d1dd84452b08883df81212442067083d2b"
    )


def _study() -> ScenarioConfig:
    chaos = ChaosConfig(
        seed=2, drop_rate=0.2, duplicate_rate=0.1, reorder_rate=0.1,
        corrupt_rate=0.05, outages=((11336327.0, 11422727.0),),
        max_spool_bytes=900, max_attempts=3,
    )
    return ScenarioConfig(
        n_devices=40, seed=9,
        topology=TopologyConfig(n_base_stations=200, seed=10),
        chaos=chaos,
    )


def test_study_telemetry_bytes_serial():
    telemetry = FleetSimulator(_study()).run().metadata["telemetry"]
    assert telemetry["reconciliation"]["unexplained"] == []
    assert _digest(telemetry) == (
        "30e618a05c7f6976c354b5fa5d4149c275b6cc60d38ec3eeebfb943434dcb0d3"
    )


def test_study_telemetry_bytes_two_shards():
    telemetry = run_sharded(_study(), workers=2,
                            mode="inline").metadata["telemetry"]
    assert telemetry["merged_from_shards"] == 2
    assert _digest(telemetry) == (
        "ac8bf3e07bbd9648db7e844a88d41c55e81baf21c5024523c9c24c990498ab49"
    )
