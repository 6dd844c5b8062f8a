"""Measure the wall-clock overhead of the observability layer.

::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        [--devices 1000] [--seed 7] [--repeats 3] \
        [--out BENCH_obs.json] [--max-overhead 0.10]

Runs the same serial scenario with metrics disabled and enabled,
interleaved ``--repeats`` times, and compares the best (least-noisy)
wall time of each arm.  Also asserts the no-op guarantee the tests rely
on: the two arms produce byte-identical records.  Exits non-zero if
the enabled-metrics overhead exceeds ``--max-overhead`` (default 10%,
the bound ``docs/observability.md`` promises).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from bench_parallel import scenario_for
from repro.fleet.simulator import FleetSimulator

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def timed_run(scenario):
    started = time.perf_counter()
    dataset = FleetSimulator(scenario).run()
    return dataset, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--devices", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help="fail if enabled/disabled - 1 exceeds "
                             "this fraction (default 0.10)")
    args = parser.parse_args(argv)

    disabled = scenario_for(args.devices, args.seed, metrics=False)
    enabled = scenario_for(args.devices, args.seed, metrics=True)

    disabled_walls: list[float] = []
    enabled_walls: list[float] = []
    disabled_digest = enabled_digest = None
    metrics_block = None
    for repeat in range(args.repeats):
        dataset, wall = timed_run(disabled)
        disabled_walls.append(wall)
        disabled_digest = dataset.record_digest()
        dataset, wall = timed_run(enabled)
        enabled_walls.append(wall)
        enabled_digest = dataset.record_digest()
        metrics_block = dataset.metadata["metrics"]
        print(f"repeat {repeat + 1}/{args.repeats}: "
              f"disabled {disabled_walls[-1]:.2f}s, "
              f"enabled {enabled_walls[-1]:.2f}s", flush=True)

    best_disabled = min(disabled_walls)
    best_enabled = min(enabled_walls)
    overhead = best_enabled / best_disabled - 1.0
    identical = disabled_digest == enabled_digest

    report = {
        "benchmark": "obs_overhead",
        "scenario": {"n_devices": args.devices, "seed": args.seed},
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "repeats": args.repeats,
        "disabled_wall_s": best_disabled,
        "enabled_wall_s": best_enabled,
        "overhead_fraction": overhead,
        "max_overhead_fraction": args.max_overhead,
        "records_identical_across_arms": identical,
        "n_counters": len(metrics_block["counters"]),
        "n_histograms": len(metrics_block["histograms"]),
        "histogram_observations": sum(
            h["count"] for h in metrics_block["histograms"].values()
        ),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"overhead: {overhead:+.1%} "
          f"(disabled {best_disabled:.2f}s, enabled {best_enabled:.2f}s)"
          f" — wrote {args.out}")

    if not identical:
        print("FAIL: enabling metrics changed the records",
              file=sys.stderr)
        return 1
    if overhead > args.max_overhead:
        print(f"FAIL: overhead {overhead:.1%} exceeds the "
              f"{args.max_overhead:.0%} bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
