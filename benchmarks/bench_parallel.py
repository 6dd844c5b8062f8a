"""Benchmark the sharded and batch fleet engines against the baseline.

::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        [--devices 1000] [--seed 7] [--workers 2 4] [--shards N] \
        [--engine serial|batch|both] [--out BENCH_parallel.json] \
        [--verify-only] [--verify-batch] [--bless-goldens]

For each worker count the harness runs the same scenario through
``FleetSimulator.run(workers=N)``, times it against the sequential
``run()`` baseline, verifies that the merged records are byte-identical
to the sequential run (device, base-station, failure, and transition
records, in order), and writes everything to ``BENCH_parallel.json`` so
future PRs have a recorded perf trajectory:

* ``serial``: baseline wall time and devices/sec;
* one entry per worker count: wall time, devices/sec, measured
  ``speedup_vs_serial``, per-shard stats, ``records_identical``, and a
  ``clean`` flag — a run whose shards were degraded to inline execution
  (supervision retries exhausted) or that fell back to inline mode
  entirely is NOT a parallel measurement, so its throughput is recorded
  under ``degraded`` keys and never conflated with clean numbers;
* ``projected_speedup``: what the same shard workloads would yield if
  the shards ran fully concurrently, computed from per-shard *CPU*
  time (``serial wall / max shard cpu_s``).  CPU time excludes the
  contention sibling workers inflict on each other when the machine
  has fewer idle cores than workers, so it is the honest basis for
  projecting onto a machine with >= N idle cores.  On a single-core
  container the *measured* speedup is necessarily <= 1x; the
  projection is what CI machines and workstations see.
* with ``--engine batch`` or ``both``, a ``batch`` section: the
  vectorized engine's wall time, devices/sec, and
  ``speedup_vs_serial``, plus sharded batch runs whose digests must be
  byte-identical to the inline batch run (the batch RNG is
  counter-based, so sharding and worker count cannot change records),
  and a comparison against the blessed golden digest in
  ``benchmarks/golden_digests.json``.

``--verify-only`` skips the JSON and exits non-zero unless every worker
count reproduces the sequential records exactly — the determinism smoke
used by CI.  ``--verify-batch`` is the batch-engine analogue: inline
batch vs sharded batch digest identity plus the golden-digest check.
``--bless-goldens`` rewrites the golden entry for this scenario —
loudly; blessing is a deliberate act recorded in its own commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.dataset.store import Dataset
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel.engine import preferred_start_method

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"


def scenario_for(devices: int, seed: int, metrics: bool = False,
                 engine: str = "serial") -> ScenarioConfig:
    return ScenarioConfig(
        n_devices=devices,
        seed=seed,
        metrics=metrics,
        engine=engine,
        topology=TopologyConfig(
            n_base_stations=max(400, devices // 2), seed=seed + 1
        ),
    )


def run_once(scenario: ScenarioConfig, workers: int | None,
             n_shards: int | None = None) -> tuple[Dataset, float]:
    started = time.perf_counter()
    dataset = FleetSimulator(scenario).run(workers=workers,
                                           n_shards=n_shards)
    return dataset, time.perf_counter() - started


def run_health(dataset: Dataset) -> dict:
    """Clean/degraded classification of one sharded run.

    A "clean" parallel measurement ran in process mode with no shard
    degraded to inline execution and no mode fallback.  Anything else
    measures inline throughput wearing a workers=N label, which is why
    the JSON keeps the two apart.
    """
    execution = dataset.metadata["execution"]
    supervision = execution.get("supervision") or {}
    degraded = list(supervision.get("degraded_shards", []))
    fallback = execution.get("fallback_reason")
    clean = (execution["mode"] == "process" and not degraded
             and not fallback)
    return {
        "mode": execution["mode"],
        "degraded_shards": degraded,
        "fallback_reason": fallback,
        "clean": clean,
    }


def load_goldens() -> dict:
    if GOLDEN_PATH.exists():
        return json.loads(GOLDEN_PATH.read_text())
    return {"_comment": "Blessed batch-engine record digests by "
                        "batch:<devices>:<seed>.  The batch engine's "
                        "counter-based RNG makes these invariant "
                        "across shard counts, worker counts, and "
                        "platforms with identical libm; re-bless only "
                        "deliberately (bench_parallel.py "
                        "--bless-goldens) in a dedicated commit."}


def bench_batch(args: argparse.Namespace, serial_wall: float,
                serial_digest: str, metrics: bool) -> tuple[dict, bool]:
    """The batch-engine section of the report."""
    scenario = scenario_for(args.devices, args.seed, metrics=metrics,
                            engine="batch")
    print(f"batch inline: {args.devices} devices ...", flush=True)
    # Best of two runs: the first pays one-time costs (imports, the
    # precomputed probability tables) that steady-state studies do not;
    # the repeat doubles as an in-process determinism check.
    batch_ds, wall_1 = run_once(scenario, workers=None)
    batch_digest = batch_ds.record_digest()
    batch_metrics = batch_ds.metadata.get("metrics")
    del batch_ds
    repeat_ds, wall_2 = run_once(scenario, workers=None)
    if repeat_ds.record_digest() != batch_digest:
        print("FAIL: batch engine is not deterministic across runs",
              file=sys.stderr)
        return {"error": "nondeterministic"}, False
    del repeat_ds
    batch_wall = min(wall_1, wall_2)
    speedup = serial_wall / batch_wall
    print(f"  {batch_wall:.2f} s "
          f"({args.devices / batch_wall:.0f} devices/s), "
          f"{speedup:.1f}x serial, digest {batch_digest[:12]}")

    ok = True
    sharded_runs = []
    for workers in args.workers:
        print(f"batch workers={workers} ...", flush=True)
        ds, wall = run_once(scenario, workers=workers,
                            n_shards=args.shards)
        digest = ds.record_digest()
        identical = digest == batch_digest
        if batch_metrics is not None:
            identical &= (
                json.dumps(ds.metadata.get("metrics"), sort_keys=True)
                == json.dumps(batch_metrics, sort_keys=True)
            )
        ok &= identical
        health = run_health(ds)
        sharded_runs.append({
            "workers": workers,
            "wall_s": wall,
            "devices_per_s": args.devices / wall,
            "records_identical_to_inline_batch": identical,
            "record_digest": digest,
            **health,
        })
        print(f"  {wall:.2f} s, identical to inline batch: {identical}"
              + ("" if health["clean"]
                 else f"  [NOT CLEAN: mode={health['mode']} "
                      f"degraded={health['degraded_shards']}]"))

    goldens = load_goldens()
    key = f"batch:{args.devices}:{args.seed}"
    golden = goldens.get(key)
    golden_match = None
    if args.bless_goldens:
        goldens[key] = batch_digest
        GOLDEN_PATH.write_text(
            json.dumps(goldens, indent=2, sort_keys=True) + "\n"
        )
        print(f"BLESSED golden digest {key} = {batch_digest[:12]} "
              f"-> {GOLDEN_PATH}")
        golden_match = True
    elif golden is not None:
        golden_match = golden == batch_digest
        ok &= golden_match
        status = "matches" if golden_match else "DIVERGES FROM"
        print(f"  golden {key}: digest {status} blessed value "
              f"{golden[:12]}")
    else:
        print(f"  golden {key}: not blessed yet "
              "(run with --bless-goldens in a dedicated commit)")

    section = {
        "wall_s": batch_wall,
        "devices_per_s": args.devices / batch_wall,
        "speedup_vs_serial": speedup,
        "record_digest": batch_digest,
        "serial_record_digest": serial_digest,
        "digests_differ_from_serial_by_design": batch_digest
        != serial_digest,
        "golden_key": key,
        "golden_match": golden_match,
        "sharded_runs": sharded_runs,
        "sharding_invariant": all(
            r["records_identical_to_inline_batch"] for r in sharded_runs
        ),
    }
    return section, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--shards", type=int, default=None,
                        help="shard count for the worker runs "
                             "(default: one shard per worker)")
    parser.add_argument("--engine", choices=("serial", "batch", "both"),
                        default="serial",
                        help="which engine(s) to benchmark; 'batch' and "
                             "'both' add the vectorized-engine section")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--verify-only", action="store_true",
                        help="determinism smoke: check record identity "
                             "and exit (no JSON written)")
    parser.add_argument("--verify-batch", action="store_true",
                        help="batch determinism smoke: inline batch vs "
                             "sharded batch digest identity plus the "
                             "golden-digest check; exits non-zero on "
                             "any mismatch (no JSON written)")
    parser.add_argument("--bless-goldens", action="store_true",
                        help="rewrite benchmarks/golden_digests.json "
                             "with this run's batch digest (loud; "
                             "do this in a dedicated commit)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="run with the observability layer enabled "
                             "and write a perf-gate snapshot (counters "
                             "+ durations) here; compare against "
                             "BENCH_baseline.json with "
                             "tools/perf_gate.py")
    args = parser.parse_args(argv)
    metrics = args.metrics_out is not None

    if args.verify_batch:
        scenario = scenario_for(args.devices, args.seed, engine="batch")
        inline_ds, _ = run_once(scenario, workers=None)
        inline_digest = inline_ds.record_digest()
        sharded_ds, _ = run_once(scenario, workers=args.workers[0],
                                 n_shards=args.shards or 5)
        sharded_digest = sharded_ds.record_digest()
        ok = inline_digest == sharded_digest
        print(f"batch inline  {inline_digest[:16]}")
        print(f"batch sharded {sharded_digest[:16]} "
              f"(workers={args.workers[0]}, shards={args.shards or 5})")
        golden = load_goldens().get(f"batch:{args.devices}:{args.seed}")
        if golden is not None:
            if golden != inline_digest:
                print(f"FAIL: batch digest diverged from blessed golden "
                      f"{golden[:16]}", file=sys.stderr)
                ok = False
            else:
                print("golden digest matches")
        if not ok:
            print("FAIL: batch engine is not shard-invariant",
                  file=sys.stderr)
            return 1
        print("OK: batch records invariant under sharding")
        return 0

    scenario = scenario_for(args.devices, args.seed, metrics=metrics)
    print(f"serial baseline: {args.devices} devices ...", flush=True)
    serial_ds, serial_wall = run_once(scenario, workers=None)
    serial_digest = serial_ds.record_digest()
    print(f"  {serial_wall:.2f} s "
          f"({args.devices / serial_wall:.0f} devices/s), "
          f"digest {serial_digest[:12]}")

    serial_metrics = serial_ds.metadata.get("metrics")
    # Release the serial records before timing anything else: ~70
    # record objects per device of allocator pressure would otherwise
    # tax every later measurement in this process.
    del serial_ds

    runs = []
    all_identical = True
    for workers in args.workers:
        print(f"workers={workers} ...", flush=True)
        parallel_ds, wall = run_once(scenario, workers=workers,
                                     n_shards=args.shards)
        digest = parallel_ds.record_digest()
        identical = digest == serial_digest
        if serial_metrics is not None:
            # With metrics on, identity covers the metrics block too.
            identical &= (
                json.dumps(parallel_ds.metadata.get("metrics"),
                           sort_keys=True)
                == json.dumps(serial_metrics, sort_keys=True)
            )
        all_identical &= identical
        execution = parallel_ds.metadata["execution"]
        health = run_health(parallel_ds)
        # Project from CPU time, not shard wall time: on a machine with
        # fewer idle cores than workers the shard walls include sibling
        # contention, which would make the projection pessimistic.
        shard_costs = [s["cpu_s"] or s["wall_s"] for s in execution["shards"]]
        projected = serial_wall / max(shard_costs) if shard_costs else 1.0
        run = {
            "workers": workers,
            "start_method": execution.get("start_method"),
            "wall_s": wall,
            "devices_per_s": args.devices / wall,
            "speedup_vs_serial": serial_wall / wall,
            "projected_speedup": projected,
            "records_identical": identical,
            "record_digest": digest,
            "shards": execution["shards"],
            **health,
        }
        runs.append(run)
        del parallel_ds
        print(f"  {wall:.2f} s ({run['devices_per_s']:.0f} devices/s), "
              f"measured speedup {run['speedup_vs_serial']:.2f}x, "
              f"projected on >={workers} cores "
              f"{projected:.2f}x, identical={identical}"
              + ("" if health["clean"]
                 else f"  [NOT CLEAN: mode={health['mode']} "
                      f"degraded={health['degraded_shards']}]"))

    if args.verify_only:
        if not all_identical:
            print("FAIL: sharded records diverged from serial",
                  file=sys.stderr)
            return 1
        print("OK: all worker counts reproduce the serial records")
        return 0

    batch_section = None
    if args.engine in ("batch", "both"):
        batch_section, batch_ok = bench_batch(
            args, serial_wall, serial_digest, metrics
        )
        all_identical &= batch_ok

    report = {
        "benchmark": "parallel_fleet",
        "scenario": {
            "n_devices": args.devices,
            "seed": args.seed,
            "n_base_stations": scenario.topology.n_base_stations,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "start_method": preferred_start_method(),
        },
        "serial": {
            "wall_s": serial_wall,
            "devices_per_s": args.devices / serial_wall,
            "record_digest": serial_digest,
        },
        "runs": runs,
        "all_records_identical": all_identical,
    }
    if batch_section is not None:
        report["batch"] = batch_section
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    if args.metrics_out is not None:
        durations = {
            "serial_wall_s": serial_wall,
            "serial_devices_per_s": args.devices / serial_wall,
        }
        for run in runs:
            # Degraded runs measured inline throughput, not parallel
            # throughput; keep them out of the gated duration keys.
            suffix = "" if run["clean"] else "_degraded"
            durations[f"workers_{run['workers']}_wall_s{suffix}"] = (
                run["wall_s"])
        if batch_section is not None:
            durations["batch_wall_s"] = batch_section["wall_s"]
            durations["batch_devices_per_s"] = (
                batch_section["devices_per_s"])
            durations["batch_speedup_vs_serial"] = (
                batch_section["speedup_vs_serial"])
        snapshot = {
            "benchmark": "perf_gate_snapshot",
            "scenario": report["scenario"],
            "environment": report["environment"],
            "record_digest": serial_digest,
            "all_records_identical": all_identical,
            "counters": serial_metrics["counters"],
            "gauges": serial_metrics["gauges"],
            "durations": durations,
        }
        args.metrics_out.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote perf-gate snapshot {args.metrics_out}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
