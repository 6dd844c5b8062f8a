"""End-to-end benchmark of the reproduction's backend path.

::

    python3 benchmarks/e2e/run.py --workload ingest_dense --seed 7 \
        --seconds 20 --trace 0

Runs one workload (or, without ``--workload``, all four) against the
real CLI in child processes, checks every answer, and prints as the
last line of standard output one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the eight end-to-end metrics
with ``--trace 0``, the per-layer table with ``--trace 1``.  Exits
non-zero on any failed operation.  A traced run is the second of a
pair: the workload runs untraced first, so the table can say what the
tracing cost.  ``--quick`` is the ten-times-smaller run for CI;
``--aa N`` runs everything N times on the same code and reports how
well each metric repeats.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Second documented seed (the first is the default).
DEFAULT_SEED = 7
SECOND_SEED = 2020
#: End-to-end metrics that are sizes: they do not scale with the
#: machine's speed, every other one is a timing and does.
SIZES = ("peak_rss_mb", "disk_bytes_per_record")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_object(run, metrics: dict, section: str) -> dict:
    """The contract's result object for one finished run."""
    for failure in run.failures:
        print(f"FAILED OPERATION: {failure}", file=sys.stderr)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]],
                            "unit": entry["unit"]}
            for entry in load_spec()[section]
        },
    }


def run_workload(name: str, seed: int, scale, untraced_wall_s=None):
    """One run of one workload: ``(result object, wall seconds)``.

    Untraced it reports the end-to-end metrics.  Given the wall of an
    untraced run of the same inputs, it runs traced and reports the
    per-layer table instead, also written into ``out/trace.json``.
    """
    from bench_harness import OUT, BenchFailure, Run, Tracer
    from bench_workloads import WORKLOADS

    traced = untraced_wall_s is not None
    tracer = Tracer(traced)
    deadline_s = 60.0 + 4.5 * scale.seconds
    with Run(name, tracer, deadline_s) as run:
        try:
            started = time.perf_counter()
            outcome = WORKLOADS[name](run, seed, scale)
            wall_s = time.perf_counter() - started
            if not traced:
                return result_object(run, outcome.metrics,
                                     "end_to_end"), wall_s
            from bench_layers import layer_table

            layers = layer_table(run, name, outcome, seed, scale,
                                 wall_s / untraced_wall_s - 1.0)
        except BenchFailure as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            raise SystemExit(3) from None
        # One file for all workloads; a run replaces its own entry.
        path = OUT / "trace.json"
        try:
            trace = json.loads(path.read_text())
        except (OSError, ValueError):
            trace = {}
        trace[name] = {"seed": seed, "seconds": scale.seconds,
                       "layers": layers, "spans": tracer.to_json()}
        path.write_text(json.dumps(trace))
        return result_object(run, layers, "per_layer"), wall_s


def print_table(name: str, result: dict) -> None:
    print(f"-- {name}: attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, entry in result["metrics"].items():
        print(f"   {key:<32} {entry['value']:>14.4f} {entry['unit']}")


def run_all(names: list[str], seed: int, scale, trace: bool) -> bool:
    """Each workload untraced, then (``--trace``) traced; prints both.

    The traced run repeats the untraced one on the same inputs, so the
    ratio of their walls is the tracing overhead.  The last line
    printed is the result object of the last run made.
    """
    correct = True
    if trace:
        # setup_s is not a row of the per-layer table.
        scale = dataclasses.replace(scale, setup_repeats=1)
    for name in names:
        result, wall_s = run_workload(name, seed, scale)
        print_table(name, result)
        correct &= result["correct"]
        if trace:
            print(json.dumps({"workload": name, **result}))
            plain = result
            result, _wall_s = run_workload(name, seed, scale, wall_s)
            print_table(name + " (traced: per-layer table)", result)
            # The traced result answers for both runs of the pair.
            result["attempted"] += plain["attempted"]
            result["failed"] += plain["failed"]
            result["correct"] &= plain["correct"]
            correct &= result["correct"]
        print(json.dumps({"workload": name, **result})
              if len(names) > 1 else json.dumps(result))
    return correct


def machine_probe_ms() -> float:
    """Median wall of a fixed pure-Python loop, about a second in all.

    It runs no code of the program, so its spread over the rounds of
    an A/A is the machine's own: no timing can repeat better than it.
    """
    walls = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for index in range(2_000_000):
            total += index * index % 7
        walls.append(time.perf_counter() - started)
    return statistics.median(walls) * 1e3


def run_aa(names: list[str], seed: int, scale, rounds: int,
           quick: bool, vary_seed: bool) -> int:
    """The same code ``rounds`` times, on one seed or one seed each.

    Per metric and workload: median, quartiles, the inter-quartile
    spread as a share of the median (what the bound is held against)
    and the full relative range.  The machine probe is taken before
    and after every run and reported as a row of its own; the column
    "at machine speed" is the spread a timing would have had on a
    machine of constant speed (each value scaled by its run's probe),
    which is the benchmark's own share of the spread.  Written to
    ``AA.md`` (``AA-vary-seed.md`` with ``--vary-seed``).
    """
    from bench_harness import spread

    spec = load_spec()
    probe = {"name": "machine_probe_ms", "unit": "ms", "bound": None,
             "better": "lower"}
    samples: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for round_ in range(rounds):
        for name in names:
            before = machine_probe_ms()
            # One process per run, as the driver does it: nothing one
            # run allocates can reach the next.
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(seed + round_ * vary_seed),
                 *(["--quick"] if quick
                   else ["--seconds", str(scale.seconds)])],
                capture_output=True, text=True,
            )
            if done.returncode not in (0, 1):
                print(done.stderr, file=sys.stderr)
                return done.returncode
            samples.setdefault((name, probe["name"]), []).append(
                (before + machine_probe_ms()) / 2)
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"]
            for key, entry in result["metrics"].items():
                samples.setdefault((name, key), []).append(
                    entry["value"])
            print(f"round {round_ + 1}/{rounds} {name}: "
                  f"failed={result['failed']}", flush=True)
    lines = [
        f"A/A: {rounds} runs per workload on the same code, "
        + (f"seeds {seed}..{seed + rounds - 1}" if vary_seed
           else f"all on seed {seed}")
        + f", --seconds {scale.seconds:g}; failed operations: {failed}.",
        "",
        "| workload | metric | unit | median | q1 | q3 | iqr/median "
        "| range/median | at machine speed | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    over = 0
    for name in names:
        speeds = samples[(name, probe["name"])]
        for entry in [probe, *spec["end_to_end"]]:
            values = samples[(name, entry["name"])]
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            mid = statistics.median(values)
            iqr = spread(values)
            full = (max(values) - min(values)) / abs(mid)
            if entry["name"] in SIZES or entry is probe:
                steady = "-"
            else:
                sign = 1 if entry["better"] == "higher" else -1
                steady = "%.4f" % spread(
                    [value * speed ** sign
                     for value, speed in zip(values, speeds)])
            ok = entry["bound"] is None or iqr <= entry["bound"]
            over += not ok
            lines.append(
                f"| {name} | {entry['name']} | {entry['unit']} "
                f"| {mid:.4f} | {q1:.4f} | {q3:.4f} | {iqr:.4f} "
                f"| {full:.4f} | {steady} | {entry['bound'] or '-'} "
                f"| {'yes' if ok else 'NO'} |"
            )
    text = "\n".join(lines) + "\n"
    print(text)
    if not quick:
        table = "AA-vary-seed.md" if vary_seed else "AA.md"
        (HERE / table).write_text("# A/A repeatability\n\n" + text)
    if failed:
        print(f"FAIL: {failed} failed operations", file=sys.stderr)
    if over and not quick:
        print(f"FAIL: {over} metrics spread wider than their bound",
              file=sys.stderr)
    return 1 if failed or (over and not quick) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload name; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; the "
                             f"second documented seed is {SECOND_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measured seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="1: run untraced, then traced; prints the "
                             "per-layer table and writes the spans into "
                             "out/trace.json")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10, one set-up, one cold cycle; "
                             "same code paths, bounds not enforced")
    parser.add_argument("--aa", nargs="?", type=int, const=5,
                        default=None, metavar="N",
                        help="run everything N times (default 5) on one "
                             "seed and write the repeatability table to "
                             "AA.md")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --aa: give every round another seed "
                             "(inputs vary too), as the driver's own "
                             "repeatability check does")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from bench_workloads import QUICK, WORKLOADS, Scale

    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; expected "
                         f"one of {', '.join(names)}")
        names = [args.workload]
    if args.quick:
        scale = QUICK
    else:
        scale = Scale(seconds=args.seconds
                      if args.seconds is not None
                      else float(spec["run_seconds"]))
    started = time.perf_counter()
    if args.aa is not None:
        code = run_aa(names, args.seed, scale, args.aa, args.quick,
                      args.vary_seed)
    else:
        code = 0 if run_all(names, args.seed, scale,
                            bool(args.trace)) else 1
    print(f"wall {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
