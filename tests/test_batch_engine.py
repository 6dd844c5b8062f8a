"""The vectorized batch engine (repro.fleet.batch).

The batch engine uses counter-based RNG streams, so its records are a
pure function of (scenario, topology) — invariant under shard count,
worker count, and execution order.  These tests pin that contract, the
slow-path oracle hand-offs, the degenerate fleet shapes from the issue
(0 devices, 1 device, heavy slow-path traffic, shards smaller than the
batch width), and the statistical agreement with the serial engine.

Aggregate counts are heavy-tailed (a handful of devices hold a large
share of all events), so serial-vs-batch equivalence is asserted on
per-device and conditional statistics with tolerant bounds, never on
raw aggregate equality — the two engines draw from different RNG
streams by design (see docs/scaling.md).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.batch import simulate_shard_batch
from repro.fleet.scenario import ENGINE_BATCH, ENGINE_SERIAL, ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import NationalTopology, TopologyConfig
from repro.parallel.sharding import ShardSpec

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))


def scenario(devices=120, seed=11, engine=ENGINE_BATCH, **kwargs):
    return ScenarioConfig(
        n_devices=devices,
        seed=seed,
        engine=engine,
        topology=TopologyConfig(n_base_stations=400, seed=seed + 1),
        **kwargs,
    )


# -- determinism and sharding invariance ---------------------------------


def test_batch_run_is_deterministic():
    config = scenario()
    assert (FleetSimulator(config).run().record_digest()
            == FleetSimulator(config).run().record_digest())


def test_batch_records_invariant_under_shards_and_workers():
    config = scenario(devices=150)
    inline = FleetSimulator(config).run().record_digest()
    sharded = FleetSimulator(config).run(workers=2,
                                         n_shards=5).record_digest()
    assert sharded == inline


def test_shards_smaller_than_batch_width():
    # 7 devices across 5 shards: every shard is far below any batch
    # width; records must still match the inline run byte for byte.
    config = scenario(devices=7)
    inline = FleetSimulator(config).run().record_digest()
    tiny = FleetSimulator(config).run(workers=2,
                                      n_shards=5).record_digest()
    assert tiny == inline


def test_engine_recorded_in_metadata():
    dataset = FleetSimulator(scenario(devices=5)).run()
    assert dataset.metadata["engine"] == ENGINE_BATCH
    serial = FleetSimulator(
        scenario(devices=5, engine=ENGINE_SERIAL)).run()
    assert serial.metadata["engine"] == ENGINE_SERIAL


# -- degenerate fleets ---------------------------------------------------


def test_empty_shard():
    config = scenario(devices=10)
    topology = NationalTopology(config.topology)
    shard, _stats = simulate_shard_batch(
        config, topology, ShardSpec(index=0, n_shards=1, lo=5, hi=5))
    assert shard.devices == []
    assert shard.failures == []
    assert shard.transitions == []


def test_single_device_fleet():
    config = scenario(devices=1)
    dataset = FleetSimulator(config).run()
    assert len(dataset.devices) == 1
    device = dataset.devices[0]
    assert device.device_id == 1
    assert device.total_connected_s > 0
    assert all(f.device_id == 1 for f in dataset.failures)
    # And it matches the sharded path even though every shard but one
    # is empty.
    assert dataset.record_digest() == FleetSimulator(config).run(
        workers=2, n_shards=4).record_digest()


def test_slow_path_oracles_engage_on_patched_arm():
    """Devices ejected to the per-device oracles still produce records.

    The patched arm drives both slow paths hard: multi-cycle stall
    recoveries continue through the serial resolver (visible as stall
    records with more stages than the vectorized first cycle's 3), and
    EN-DC handover replay emits IRAT handover failures.  A fleet where
    both fire is the "all slow path" stress: the batch must eject,
    resolve serially, and splice results back deterministically.
    """
    config = scenario(devices=800, seed=7, arm="patched")
    dataset = FleetSimulator(config).run()
    stalls = [f for f in dataset.failures
              if f.failure_type == "DATA_STALL"]
    oracle_stalls = [f for f in stalls if f.stages_executed > 3]
    assert oracle_stalls, "no stall escaped the vectorized first cycle"
    irat = [f for f in dataset.failures
            if f.error_code == "IRAT_HANDOVER_FAILED"]
    assert irat, "EN-DC handover replay produced no IRAT failures"
    # Oracle participation must not break sharding invariance.
    assert dataset.record_digest() == FleetSimulator(config).run(
        workers=2, n_shards=5).record_digest()


# -- statistical equivalence vs the serial oracle ------------------------


@pytest.fixture(scope="module")
def paired_runs():
    serial = FleetSimulator(
        scenario(devices=400, seed=3, engine=ENGINE_SERIAL)).run()
    batch = FleetSimulator(
        scenario(devices=400, seed=3, engine=ENGINE_BATCH)).run()
    return serial, batch


def test_batch_matches_serial_failure_mix(paired_runs):
    serial, batch = paired_runs
    assert {f.failure_type for f in batch.failures} == {
        f.failure_type for f in serial.failures}
    ratio = len(batch.failures) / len(serial.failures)
    assert 0.5 < ratio < 2.0, f"failure volume ratio {ratio:.2f}"


def test_batch_matches_serial_per_device_rates(paired_runs):
    """Per-device conditional statistics agree despite heavy tails."""
    serial, batch = paired_runs

    def per_device_counts(dataset):
        counts = {}
        for f in dataset.failures:
            counts[f.device_id] = counts.get(f.device_id, 0) + 1
        return counts

    s_counts = np.array(
        sorted(per_device_counts(serial).values()), dtype=float)
    b_counts = np.array(
        sorted(per_device_counts(batch).values()), dtype=float)
    # Per-device counts span ~3 orders of magnitude (gamma hazard
    # tails), so simple order statistics like the median fluctuate
    # wildly over ~80 affected devices.  Compare on the log scale.
    dex = abs(float(np.mean(np.log10(s_counts)))
              - float(np.mean(np.log10(b_counts))))
    assert dex < 0.6, f"geometric-mean gap {dex:.2f} dex"
    # Empirical distributions stay close (two-sample KS distance).
    grid = np.logspace(0, 4, 200)
    cdf_s = np.searchsorted(s_counts, grid, side="right") / len(s_counts)
    cdf_b = np.searchsorted(b_counts, grid, side="right") / len(b_counts)
    assert float(np.max(np.abs(cdf_s - cdf_b))) < 0.35
    # Fraction of the fleet that failed at all.
    s_frac = len(s_counts) / len(serial.devices)
    b_frac = len(b_counts) / len(batch.devices)
    assert abs(b_frac - s_frac) < 0.15


def test_batch_matches_serial_durations(paired_runs):
    serial, batch = paired_runs
    for failure_type in ("DATA_SETUP_ERROR", "DATA_STALL"):
        s_durs = [f.duration_s for f in serial.failures
                  if f.failure_type == failure_type]
        b_durs = [f.duration_s for f in batch.failures
                  if f.failure_type == failure_type]
        assert s_durs and b_durs
        s_med, b_med = np.median(s_durs), np.median(b_durs)
        assert 0.4 < b_med / s_med < 2.5, (
            f"{failure_type} median duration {s_med:.1f}s serial vs "
            f"{b_med:.1f}s batch")


def test_batch_matches_serial_device_population(paired_runs):
    serial, batch = paired_runs
    assert len(batch.devices) == len(serial.devices)
    assert [d.device_id for d in batch.devices] == [
        d.device_id for d in serial.devices]

    # Same ISP marginal within sampling tolerance: the engines draw
    # each device's ISP from the same subscriber shares but different
    # RNG streams, so per-device assignments legitimately differ.
    def isp_shares(dataset):
        mix = {}
        for d in dataset.devices:
            mix[d.isp] = mix.get(d.isp, 0) + 1
        return {isp: n / len(dataset.devices) for isp, n in mix.items()}

    s_shares, b_shares = isp_shares(serial), isp_shares(batch)
    assert set(b_shares) == set(s_shares)
    for isp, share in s_shares.items():
        assert abs(b_shares[isp] - share) < 0.08, (isp, share,
                                                   b_shares[isp])


def test_metrics_key_sets_match_serial():
    serial = FleetSimulator(scenario(
        devices=60, seed=5, engine=ENGINE_SERIAL, metrics=True)).run()
    batch = FleetSimulator(scenario(
        devices=60, seed=5, engine=ENGINE_BATCH, metrics=True)).run()
    s_metrics = serial.metadata["metrics"]
    b_metrics = batch.metadata["metrics"]

    # Compare metric families, not full label sets: which label values
    # appear (e.g. resolved_by="unresolved") depends on which events the
    # engine's RNG stream realized in a small fleet.
    def families(keys):
        return {key.split("{", 1)[0] for key in keys}

    assert families(b_metrics["counters"]) == families(
        s_metrics["counters"])
    assert families(b_metrics["histograms"]) == families(
        s_metrics["histograms"])


# -- vectorized building blocks ------------------------------------------


def test_propagation_batch_matches_scalar():
    from repro.radio.propagation import PropagationModel
    from repro.radio.rat import ALL_RATS, rat_code

    model = PropagationModel(frequency_penalty_db=3.0)
    distances = np.array([5.0, 120.0, 900.0, 4_000.0])
    for rat in ALL_RATS:
        codes = np.full(distances.shape, rat_code(rat), dtype=np.int64)
        batch_rss = model.rss_dbm_batch(codes, distances)
        for i, distance in enumerate(distances):
            assert batch_rss[i] == pytest.approx(
                model.rss_dbm(rat, float(distance)))
        batch_levels = model.signal_level_batch(codes, distances)
        for i, distance in enumerate(distances):
            assert batch_levels[i] == int(
                model.signal_level(rat, float(distance)))


def test_histogram_observe_many_matches_loop():
    from repro.obs.registry import MetricsRegistry

    values = [0.01, 0.5, 3.0, 3.0, 250.0, 1e6]
    loop = MetricsRegistry()
    h1 = loop.get_histogram("t_s", (0.1, 1.0, 10.0, 100.0))
    for v in values:
        h1.observe(v)
    bulk = MetricsRegistry()
    h2 = bulk.get_histogram("t_s", (0.1, 1.0, 10.0, 100.0))
    h2.observe_many(np.array(values))
    h2.observe_many(np.array([]))  # empty batch is a no-op
    assert loop.deterministic_snapshot() == bulk.deterministic_snapshot()


def test_golden_digest_key_format():
    """bench_parallel's golden keys stay stable (CI relies on them)."""
    import check_doc_blocks  # noqa: F401  (tools path already on sys.path)
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_parallel

    goldens = bench_parallel.load_goldens()
    keys = [k for k in goldens if not k.startswith("_")]
    assert all(k.startswith("batch:") for k in keys)
    assert all(len(v) == 64 for k, v in goldens.items()
               if not k.startswith("_"))
