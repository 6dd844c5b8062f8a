"""The full data path: device records -> compressed uploads -> backend.

Runs a small fleet, ships every failure record through the device-side
:class:`~repro.monitoring.uploader.UploadBatcher` into the backend
:class:`~repro.backend.ingest.IngestionServer` (including a simulated
retry storm the deduplicator must absorb), then checks that the live
query answer over what the backend accepted is exactly the offline
analysis of the same records — and finally replays the same records
over a *lossy* chaos transport (drops, duplicates, corruption) and
reconciles both ends.

Usage::

    python examples/backend_pipeline.py [n_devices]
"""

import random
import sys
import time

from repro import ChaosConfig, ScenarioConfig, run_telemetry_pipeline
from repro.analysis.columnar import compute_analysis_block
from repro.backend.ingest import IngestionServer
from repro.dataset.store import Dataset
from repro.fleet.simulator import FleetSimulator
from repro.monitoring.uploader import UploadBatcher
from repro.network.topology import TopologyConfig
from repro.obs import SUM_SCALE
from repro.serve.query import STATS_FIELDS, QueryEngine


def main() -> None:
    n_devices = int(sys.argv[1]) if len(sys.argv) > 1 else 600
    scenario = ScenarioConfig(
        n_devices=n_devices, seed=5,
        topology=TopologyConfig(n_base_stations=max(300, n_devices // 2),
                                seed=6),
    )
    print(f"Simulating {n_devices} devices...")
    started = time.perf_counter()
    dataset = FleetSimulator(scenario).run()
    print(f"done in {time.perf_counter() - started:.1f} s; "
          f"uploading {dataset.n_failures} records...")

    server = IngestionServer()
    batcher = UploadBatcher(transport=server.receive)
    rng = random.Random(1)
    for record in dataset.failures:
        batcher.enqueue(record.to_dict())
        # Devices flush opportunistically; WiFi comes and goes.
        batcher.maybe_flush(wifi_available=rng.random() < 0.3)
        # ~2% of uploads are retried after a connectivity loss.
        if rng.random() < 0.02:
            batcher.enqueue(record.to_dict())
    batcher.maybe_flush(wifi_available=True)

    print(f"\nbackend: accepted={server.accepted} "
          f"duplicates={server.duplicates} "
          f"malformed={server.malformed} "
          f"({server.bytes_received / 1e6:.1f} MB received)")
    assert server.accepted == dataset.n_failures

    stats = QueryEngine(server).answer("stats")["result"]
    print(f"\nlive stats answer: {stats['n_failures']} failures on "
          f"{stats['failing_devices']} failing devices")
    by_type = stats["duration_hist_by_type"]
    total = sum(hist["sum_scaled"] for hist in by_type.values())
    for failure_type, hist in sorted(by_type.items()):
        mean = hist["sum_scaled"] / SUM_SCALE / hist["count"]
        print(f"  {failure_type:<18} {hist['count']:>6} records, "
              f"mean {mean:7.1f} s, "
              f"{hist['sum_scaled'] / total:6.1%} of failure time")
    offline = compute_analysis_block(Dataset(failures=dataset.failures))
    assert stats == {key: offline[key] for key in STATS_FIELDS}
    print("  identical to the offline analysis block over the same "
          "records")

    chaos = ChaosConfig(seed=13, drop_rate=0.25, duplicate_rate=0.15,
                        reorder_rate=0.05, corrupt_rate=0.02)
    print(f"\nreplaying over a lossy transport "
          f"(drop {chaos.drop_rate:.0%}, dup {chaos.duplicate_rate:.0%}, "
          f"corrupt {chaos.corrupt_rate:.0%})...")
    result = run_telemetry_pipeline(dataset, chaos)
    print(result.report.render())
    assert result.report.ok, "unexplained telemetry losses"


if __name__ == "__main__":
    main()
