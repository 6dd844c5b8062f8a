"""Chaos-hardened telemetry pipeline at fleet scale.

Ships a 1k-device fleet's failure records through the lossy transport
(drop + duplicate + reorder + corrupt + two backend outages) and
requires the end-to-end reconciliation to explain every missing
record; then checks that retries at low loss reproduce the lossless
accepted set exactly, and that backend dedup keeps the live fold
double-count-free under heavy duplication.
"""

import pytest

from benchmarks.conftest import emit
from repro.backend.ingest import IngestionServer
from repro.chaos import ChaosConfig, run_telemetry_pipeline
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.serve.query import QueryEngine
from repro.simtime import SECONDS_PER_MONTH
from repro.store import SegmentStore

_STUDY_MONTHS = 8.0
_SPAN_S = _STUDY_MONTHS * SECONDS_PER_MONTH
_OUTAGE_S = 12 * 3600.0

#: The acceptance scenario: drop 30%, duplicate 20%, plus reordering,
#: corruption, and two 12-hour backend outages mid-study.
CHAOS = ChaosConfig(
    seed=4242,
    drop_rate=0.30,
    duplicate_rate=0.20,
    reorder_rate=0.05,
    corrupt_rate=0.02,
    outages=(
        (0.30 * _SPAN_S, 0.30 * _SPAN_S + _OUTAGE_S),
        (0.62 * _SPAN_S, 0.62 * _SPAN_S + _OUTAGE_S),
    ),
)

SCENARIO = ScenarioConfig(
    n_devices=1_000,
    seed=404,
    study_months=_STUDY_MONTHS,
    topology=TopologyConfig(n_base_stations=800, seed=405),
)


@pytest.fixture(scope="module")
def fleet_ds():
    """One 1k-device fleet, replayed under several chaos policies."""
    return FleetSimulator(SCENARIO).run()


def test_chaos_fleet_reconciles(benchmark, fleet_ds, output_dir):
    result = benchmark.pedantic(
        lambda: run_telemetry_pipeline(fleet_ds, CHAOS),
        rounds=1, iterations=1,
    )
    report = result.report

    lines = [
        f"uploading devices: {result.n_devices} "
        f"/ {SCENARIO.n_devices}   "
        f"drain rounds: {result.drain_rounds}",
        f"chaos: drop={CHAOS.drop_rate:.0%} "
        f"dup={CHAOS.duplicate_rate:.0%} "
        f"reorder={CHAOS.reorder_rate:.0%} "
        f"corrupt={CHAOS.corrupt_rate:.0%} "
        f"outages={len(CHAOS.outages)}x{_OUTAGE_S / 3600:.0f}h",
        "",
        report.render(),
    ]
    emit(output_dir, "chaos_pipeline.txt", "\n".join(lines) + "\n")

    # Zero unexplained discrepancies: accepted equals emitted minus
    # explicitly classified losses.
    assert report.ok, report.unexplained
    assert report.emitted == len(fleet_ds.failures)
    assert report.accepted == report.emitted - report.explained_losses
    # The injected faults actually fired.
    assert result.transport.dropped > 0
    assert result.transport.duplicated > 0
    assert result.transport.outage_rejections > 0
    assert result.server.duplicates > 0


def test_low_drop_retries_match_lossless_run(fleet_ds):
    """With retries enabled, 10% transit loss is invisible end to end:
    the accepted set exactly matches the lossless run's."""
    low_drop = ChaosConfig(seed=4242, drop_rate=0.10, max_attempts=12)
    lossy = run_telemetry_pipeline(fleet_ds, low_drop)
    lossless = run_telemetry_pipeline(fleet_ds, low_drop.lossless())

    assert lossless.report.accepted == lossless.report.emitted
    assert (lossy.server.accepted_keys
            == lossless.server.accepted_keys)
    assert lossy.report.accepted == lossy.report.emitted
    assert lossy.transport.dropped > 0  # the losses were real


def test_dedup_holds_under_duplication(fleet_ds, tmp_path):
    """No record is double-counted in the live fold, no matter how
    many duplicate deliveries the transport injects."""
    chaos = ChaosConfig(seed=77, drop_rate=0.05, duplicate_rate=0.20)
    server = IngestionServer()
    server.attach_store(SegmentStore(tmp_path / "store"))
    run_telemetry_pipeline(fleet_ds, chaos, server)

    assert server.duplicates > 0
    assert server.accepted == len(server.accepted_keys)
    assert (QueryEngine(server).fold().block["n_failures"]
            == server.accepted)
