"""Command-line interface.

::

    python -m repro study   [--devices N] [--seed S] [--workers W]
                            [--shards K] [--checkpoint-dir DIR] [--resume]
                            [--save PATH]
    python -m repro ab      [--devices N] [--seed S] [--workers W] [...]
    python -m repro timp    [--devices N] [--seed S] [--workers W] [...]
    python -m repro analyze PATH
    python -m repro serve   --store-dir DIR [--host H] [--port P]
                            [--queue-capacity N] [--policy P]
                            [--checkpoint PATH] [--resume]
                            [--seal-records N] [--disk-chaos RATE]
    python -m repro query   HOST:PORT {stats,isp_bs,transitions,summary}
                            [--json] [--timeout S]
    python -m repro scrub   DIR [--no-repair] [--json PATH] [--strict]
    python -m repro sweep   PACKS... --out DIR [--resume]
                            [--workers W] [--shards K]

``study`` runs the measurement study and prints the Sec. 3 report;
``ab`` runs the paired enhancement evaluation (Sec. 4.3); ``timp`` fits
the recovery CDF and anneals the probations (Sec. 4.2); ``analyze``
re-runs the analysis over a saved dataset.  ``--workers W`` (W >= 2)
shards the fleet across worker processes via :mod:`repro.parallel`;
results are identical to the default sequential run.  With
``--checkpoint-dir`` every completed shard is spooled to disk, and a
killed run restarted with ``--resume`` picks up from the completed
shards instead of simulating from zero; ``--shards K`` sets the
checkpoint/retry granularity independently of worker count.
``--analysis-out PATH`` writes the run's streaming analysis block
(``metadata["analysis"]``) plus its derived summary as JSON.

``serve`` runs the long-lived socket ingest service
(:mod:`repro.serve`): it prints ``serving on HOST:PORT`` once bound
and, on SIGTERM/SIGINT, drains the admission queue, writes the
``--checkpoint`` snapshot, and exits zero; ``--resume`` restores a
previous drain checkpoint (ingest counters and dedup state, admission
accounting with its shed identities, and any payloads that were still
queued).  Accepted records live in the durable WAL-backed segment
store (:mod:`repro.store`) rooted at ``--store-dir``, so the drain
checkpoint holds no accepted records; ``scrub`` verifies such a
store's checksums, quarantines damaged segments, repairs from the
journal, and reports anything unrecoverable.

``query`` asks a *running* service for a live analysis answer over
everything ingested so far (:mod:`repro.serve.query`): ``stats``,
``isp_bs``, ``transitions``, or the derived ``summary``.  The answer
is a snapshot-consistent fold — byte-identical to what ``analyze``
would report over the same drained dataset — stamped with a watermark
saying exactly how many records it covers.  ``--json`` prints the raw
response envelope (sorted keys) instead of the human rendering.

``sweep`` runs a list of scenario packs (files or directories of
``*.yaml``/``*.yml``/``*.json``; see :mod:`repro.scenarios` and
``docs/scenarios.md``) through the checkpointed shard supervisor —
one fingerprint-keyed run per pack — and renders the cross-scenario
comparison table plus the landscape report into ``--out``.  Every
pack is validated *before* the first simulation starts; a broken pack
exits with status 2 and the full key path of the problem.  With
``--resume``, packs already completed in ``--out`` are skipped
byte-identically and the in-flight pack continues from its shard
checkpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fleet.scenario import ScenarioConfig

#: ``--engine`` choices, serial first (the default).  The same literals
#: as :data:`repro.fleet.scenario.ENGINE_SERIAL` / ``ENGINE_BATCH`` (a
#: test pins them): importing that module here would load the network
#: and radio models into every ``repro serve`` / ``scrub`` / ``query``.
ENGINES = ("serial", "batch")


def _scenario(args: argparse.Namespace) -> ScenarioConfig:
    from repro.fleet.scenario import ENGINE_SERIAL, ScenarioConfig
    from repro.network.topology import TopologyConfig

    return ScenarioConfig(
        n_devices=args.devices,
        seed=args.seed,
        metrics=_metrics_enabled(args),
        engine=getattr(args, "engine", ENGINE_SERIAL),
        topology=TopologyConfig(
            n_base_stations=max(400, args.devices // 2),
            seed=args.seed + 1,
        ),
    )


def _metrics_enabled(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "metrics_out", None)
                or getattr(args, "prom_out", None))


def _export_metrics(args: argparse.Namespace, *datasets) -> None:
    """Write the run's metrics snapshot(s) to the requested files.

    Multiple datasets (the two arms of an ``ab`` run) merge into one
    run-level snapshot — the merge is commutative, so this is exact.
    """
    if not _metrics_enabled(args):
        return
    from repro.obs import merge_snapshots
    from repro.obs.export import (
        dataset_metrics_snapshot,
        write_metrics_json,
        write_metrics_prometheus,
    )

    snapshot = merge_snapshots(
        [dataset_metrics_snapshot(dataset) for dataset in datasets]
    )
    if args.metrics_out:
        path = write_metrics_json(args.metrics_out, snapshot)
        print(f"metrics written to {path}")
    if args.prom_out:
        path = write_metrics_prometheus(args.prom_out, snapshot)
        print(f"prometheus metrics written to {path}")


def _export_analysis(args: argparse.Namespace, *datasets) -> None:
    """Write the merged analysis block (plus derived summary) as JSON.

    Multiple datasets (the two arms of an ``ab`` run) merge exactly;
    datasets saved before the streaming-analysis era get their block
    recomputed from records.
    """
    if not getattr(args, "analysis_out", None):
        return
    from repro.analysis.columnar import (
        analysis_summary,
        compute_analysis_block,
        merge_analysis_blocks,
    )

    merged = merge_analysis_blocks([
        dataset.metadata.get("analysis")
        or compute_analysis_block(dataset)
        for dataset in datasets
    ])
    payload = {"analysis": merged, "summary": analysis_summary(merged)}
    target = Path(args.analysis_out)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True)
                      + "\n")
    print(f"analysis written to {target}")


def _positive_int(text: str) -> int:
    """Argparse type: an integer >= 1, rejected with a clear message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (>= 1), got {value}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--devices", type=_positive_int, default=2_000,
                        help="fleet size (default 2000)")
    parser.add_argument("--seed", type=int, default=2020,
                        help="scenario seed (default 2020)")
    parser.add_argument("--engine", choices=ENGINES, default=ENGINES[0],
                        help="simulation engine: 'serial' walks the "
                             "per-device state machines, 'batch' "
                             "advances whole shards with vectorized "
                             "array draws (~20x faster, different RNG "
                             "streams; see docs/scaling.md)")
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="shard the fleet across N worker "
                             "processes (default: sequential; "
                             "records are identical either way)")
    parser.add_argument("--shards", type=_positive_int, default=None,
                        help="partition granularity (default: one "
                             "shard per worker); more shards mean "
                             "finer checkpoints and retries at "
                             "identical output")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="spool completed shards to DIR so a "
                             "killed run can be resumed")
    parser.add_argument("--resume", action="store_true",
                        help="reload completed shards from "
                             "--checkpoint-dir instead of re-running "
                             "them (requires --checkpoint-dir)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="enable the observability layer and write "
                             "the metrics snapshot as JSON to PATH")
    parser.add_argument("--prom-out", default=None, metavar="PATH",
                        help="enable the observability layer and write "
                             "the metrics snapshot in Prometheus text "
                             "format to PATH")
    parser.add_argument("--analysis-out", default=None, metavar="PATH",
                        help="write the run's streaming analysis block "
                             "(exact study-level aggregates plus a "
                             "derived summary) as JSON to PATH")


def cmd_study(args: argparse.Namespace) -> int:
    from repro.core.study import NationwideStudy
    from repro.dataset.store import save_dataset
    from repro.fleet.simulator import FleetSimulator

    scenario = _scenario(args)
    study = NationwideStudy(scenario=scenario)
    dataset = FleetSimulator(scenario.vanilla()).run(
        workers=args.workers,
        n_shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    result = study.analyze(dataset)
    print(result.render())
    execution = dataset.metadata.get("execution")
    if execution:
        print(f"[execution] mode={execution['mode']} "
              f"workers={execution['workers']} "
              f"wall={execution['wall_s']:.1f}s "
              f"({execution['devices_per_s']:.0f} devices/s)")
        resumed = execution.get("resumed_shards", [])
        if execution.get("retries") or resumed:
            print(f"[resilience] retries={execution.get('retries', 0)} "
                  f"reran={execution.get('reran_shards', [])} "
                  f"resumed {len(resumed)}/{execution['n_shards']} "
                  "shards from checkpoint")
    _export_metrics(args, dataset)
    _export_analysis(args, dataset)
    if args.save:
        save_dataset(dataset, args.save)
        print(f"dataset saved to {args.save}")
    return 0


def cmd_ab(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_ab_evaluation
    from repro.core.study import run_ab_evaluation

    vanilla, patched, evaluation = run_ab_evaluation(
        _scenario(args), workers=args.workers, n_shards=args.shards,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
    )
    print(render_ab_evaluation(evaluation))
    _export_metrics(args, vanilla, patched)
    _export_analysis(args, vanilla, patched)
    return 0


def cmd_timp(args: argparse.Namespace) -> int:
    import random

    from repro.core.enhancements import fit_recovery_trigger
    from repro.fleet.simulator import FleetSimulator

    dataset = FleetSimulator(_scenario(args).vanilla()).run(
        workers=args.workers,
        n_shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    policy, result = fit_recovery_trigger(
        dataset, rng=random.Random(args.seed)
    )
    p0, p1, p2 = policy.probations_s
    print(f"annealed probations: {p0:.0f} / {p1:.0f} / {p2:.0f} s "
          "(paper: 21 / 6 / 16)")
    print(f"objective: {result.best_value:.1f} s vs "
          f"{result.default_value:.1f} s for vanilla 60/60/60 "
          f"({result.improvement:.0%} better)")
    _export_metrics(args, dataset)
    _export_analysis(args, dataset)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.analysis.columnar import analysis_summary
    from repro.obs import ThreadSafeRegistry, use_registry
    from repro.obs.export import write_metrics_json, write_metrics_prometheus
    from repro.serve import IngestService, ServeConfig

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        retry_after_s=args.retry_after,
        read_deadline_s=args.read_deadline,
        max_frame_bytes=args.max_frame_bytes,
        max_connections=args.max_connections,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_s=args.breaker_reset,
        drain_timeout_s=args.drain_timeout,
        store_dir=args.store_dir,
        store_seal_records=args.seal_records,
        disk_chaos_rate=args.disk_chaos,
        disk_chaos_seed=args.disk_chaos_seed,
    )
    # Handler/worker threads record concurrently: the lock-free
    # registry the simulators use is not safe here.
    registry = ThreadSafeRegistry()
    stop = threading.Event()

    def request_stop(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    with use_registry(registry):
        if args.resume and Path(args.checkpoint).exists():
            service = IngestService.resume(args.checkpoint, config)
            print(f"resumed from {args.checkpoint} "
                  f"(accepted={service.server.accepted} "
                  f"queued={service.queue.depth})", flush=True)
        else:
            service = IngestService(config=config)
        service.start()
        host, port = service.address
        print(f"serving on {host}:{port}", flush=True)
        stop.wait()
        print("draining...", flush=True)
        result = service.stop(checkpoint_path=args.checkpoint)
        server = service.server
        print(f"drained={result.drained} leftover={result.leftover} "
              f"accepted={server.accepted} "
              f"duplicates={server.duplicates} "
              f"quarantined={server.quarantined}", flush=True)
        stats = server.store.summary()
        print(f"store segments={stats['segments']} "
              f"sealed={stats['sealed_records']} "
              f"tail={stats['tail_records']}", flush=True)
        if args.analysis_out:
            query = server.store.fold_analysis()
            payload = {
                "analysis": query.block,
                "summary": analysis_summary(query.block),
                "skipped_segments": query.skipped,
            }
            Path(args.analysis_out).write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"analysis written to {args.analysis_out}",
                  flush=True)
        if result.checkpoint_path:
            print(f"checkpoint written to {result.checkpoint_path}",
                  flush=True)
        if args.metrics_out:
            path = write_metrics_json(args.metrics_out,
                                      registry.snapshot())
            print(f"metrics written to {path}", flush=True)
        if args.prom_out:
            path = write_metrics_prometheus(args.prom_out,
                                            registry.snapshot())
            print(f"prometheus metrics written to {path}", flush=True)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Ask a running ingest service for a live analysis answer."""
    from repro.serve import QueryClient, TransportSignal

    host, _, port_text = args.address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 < port < 65536:
        print(f"expected HOST:PORT, got {args.address!r}",
              file=sys.stderr)
        return 2
    try:
        with QueryClient(host, port, timeout_s=args.timeout) as client:
            envelope = client.query(args.kind)
    except TransportSignal as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(envelope, indent=2, sort_keys=True))
        return 0
    watermark = envelope.get("watermark", {})
    print(f"{args.kind} @ {watermark.get('n_records', '?')} records "
          f"({watermark.get('mode', '?')} mode)")
    if envelope.get("skipped_segments"):
        print(f"note: {envelope['skipped_segments']} corrupt "
              "segment(s) skipped; answer is a lower bound",
              file=sys.stderr)
    result = envelope.get("result", {})
    for key in sorted(result):
        value = result[key]
        if isinstance(value, dict):
            print(f"  {key}:")
            for sub in sorted(value):
                print(f"    {sub}: {value[sub]}")
        else:
            print(f"  {key}: {value}")
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Verify a segment store, classify damage, repair what's possible."""
    from repro.store import SegmentStore

    store = SegmentStore(args.dir)
    report = store.scrub(repair=not args.no_repair)
    if not args.no_repair:
        # Reseal records recovered into the tail so the repaired store
        # is compact again (the WAL already guarantees durability).
        store.flush()
    print(report.render())
    if report.lost_keys:
        if args.no_repair:
            advice = ("a repairing scrub (without --no-repair) drops "
                      "their identities from the store")
        else:
            advice = "their identities have left the store"
        print(f"note: {len(report.lost_keys)} record(s) are "
              f"unrecoverable; {advice}, so a re-upload of any of them "
              "is accepted as new", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"scrub report written to {args.json}")
    if args.strict and not report.ok:
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        PackError,
        load_pack,
        resolve_pack_paths,
        run_sweep,
    )

    # Validate every pack up front: a typo in pack 5 must surface
    # before pack 1 burns a single simulated device.
    try:
        paths = resolve_pack_paths(args.packs)
        packs = [load_pack(path) for path in paths]
    except PackError as exc:
        print(f"pack error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {len(packs)} pack(s) validated "
          f"({', '.join(pack.name for pack in packs)})", flush=True)

    def say(message: str) -> None:
        print(message, flush=True)

    try:
        result = run_sweep(
            packs, args.out,
            workers=args.workers, shards=args.shards,
            resume=args.resume, progress=say,
        )
    except PackError as exc:
        print(f"pack error: {exc}", file=sys.stderr)
        return 2
    print()
    print(result.table)
    print()
    print(f"sweep complete: {len(result.ran)} ran, "
          f"{len(result.skipped)} skipped; report at "
          f"{result.report_md_path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.study import NationwideStudy
    from repro.dataset.store import load_dataset

    dataset = load_dataset(args.path)
    print(NationwideStudy.analyze(dataset).render())
    _export_analysis(args, dataset)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the SIGCOMM 2021 nationwide "
                    "cellular-reliability study.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    study = commands.add_parser("study", help="run the measurement study")
    _add_common(study)
    study.add_argument("--save", help="write the dataset here "
                                      "(gzip JSON-lines)")
    study.set_defaults(handler=cmd_study)

    ab = commands.add_parser("ab", help="run the A/B enhancement "
                                        "evaluation")
    _add_common(ab)
    ab.set_defaults(handler=cmd_ab)

    timp = commands.add_parser("timp", help="fit and optimize the TIMP "
                                            "recovery trigger")
    _add_common(timp)
    timp.set_defaults(handler=cmd_timp)

    serve = commands.add_parser(
        "serve", help="run the live socket ingest service"
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port "
                            "(printed once bound)")
    serve.add_argument("--queue-capacity", type=_positive_int,
                       default=1024,
                       help="admission queue bound (default 1024)")
    serve.add_argument("--policy", default="reject-newest",
                       choices=("reject-newest", "shed-oldest",
                                "fair-share"),
                       help="overload policy once the queue is full")
    serve.add_argument("--retry-after", type=float, default=5.0,
                       metavar="S",
                       help="base retry-after suggestion on "
                            "backpressure acks (default 5s)")
    serve.add_argument("--read-deadline", type=float, default=30.0,
                       metavar="S",
                       help="per-connection read deadline "
                            "(slow-loris bound, default 30s)")
    serve.add_argument("--max-frame-bytes", type=_positive_int,
                       default=1 << 20,
                       help="largest accepted payload (default 1MiB)")
    serve.add_argument("--max-connections", type=_positive_int,
                       default=256,
                       help="concurrent connection cap (default 256)")
    serve.add_argument("--breaker-threshold", type=_positive_int,
                       default=5,
                       help="consecutive ingest faults that trip the "
                            "circuit breaker (default 5)")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       metavar="S",
                       help="open-state hold before a half-open "
                            "probe (default 30s)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="max wait for the queue to flush on "
                            "SIGTERM (default 30s)")
    serve.add_argument("--store-dir", required=True, metavar="DIR",
                       help="persist accepted records in a durable "
                            "segment store rooted at DIR (WAL + "
                            "checksummed sealed segments; see "
                            "'repro scrub')")
    serve.add_argument("--seal-records", type=_positive_int,
                       default=512,
                       help="records the store's one unsealed tail "
                            "holds before it seals (default 512)")
    serve.add_argument("--disk-chaos", type=float, default=0.0,
                       metavar="RATE",
                       help="inject disk faults (torn writes, bit "
                            "flips, ENOSPC, crash-in-rename) into "
                            "store I/O at RATE per operation "
                            "(default 0: disabled)")
    serve.add_argument("--disk-chaos-seed", type=int, default=0,
                       help="deterministic seed for --disk-chaos")
    serve.add_argument("--analysis-out", default=None, metavar="PATH",
                       help="write the store's folded analysis "
                            "block as JSON after the drain")
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write the drain checkpoint here on "
                            "SIGTERM")
    serve.add_argument("--resume", action="store_true",
                       help="restore state from --checkpoint before "
                            "serving")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the service metrics snapshot as "
                            "JSON on exit")
    serve.add_argument("--prom-out", default=None, metavar="PATH",
                       help="write the service metrics in Prometheus "
                            "text format on exit")
    serve.set_defaults(handler=cmd_serve)

    query = commands.add_parser(
        "query", help="query a running ingest service live"
    )
    query.add_argument("address", metavar="HOST:PORT",
                       help="address the service printed at startup "
                            "('serving on HOST:PORT')")
    query.add_argument("kind",
                       choices=("stats", "isp_bs", "transitions",
                                "summary"),
                       help="which analysis answer to fetch")
    query.add_argument("--json", action="store_true",
                       help="print the raw response envelope as "
                            "sorted JSON instead of the human "
                            "rendering")
    query.add_argument("--timeout", type=float, default=10.0,
                       metavar="S",
                       help="socket connect/read timeout "
                            "(default 10s)")
    query.set_defaults(handler=cmd_query)

    scrub = commands.add_parser(
        "scrub", help="verify and repair a durable segment store"
    )
    scrub.add_argument("dir", help="segment store root directory")
    scrub.add_argument("--no-repair", action="store_true",
                       help="report findings without touching the "
                            "store (read-only audit)")
    scrub.add_argument("--json", default=None, metavar="PATH",
                       help="write the scrub report as JSON to PATH")
    scrub.add_argument("--strict", action="store_true",
                       help="exit non-zero if any record identity "
                            "was unrecoverable")
    scrub.set_defaults(handler=cmd_scrub)

    sweep = commands.add_parser(
        "sweep", help="run scenario packs and render the landscape"
    )
    sweep.add_argument("packs", nargs="+", metavar="PACK",
                       help="pack files, or directories whose "
                            "*.yaml/*.yml/*.json packs run in sorted "
                            "order (see packs/ and docs/scenarios.md)")
    sweep.add_argument("--out", required=True, metavar="DIR",
                       help="sweep output directory: per-pack results "
                            "and checkpoints under DIR/packs/, the "
                            "landscape report at DIR/landscape.md")
    sweep.add_argument("--resume", action="store_true",
                       help="skip packs already completed in --out "
                            "(byte-identical reuse) and resume the "
                            "in-flight pack from its shard "
                            "checkpoints")
    sweep.add_argument("--workers", type=_positive_int, default=None,
                       help="default worker count per pack (a pack's "
                            "run.workers overrides it)")
    sweep.add_argument("--shards", type=_positive_int, default=None,
                       help="default shard count per pack (a pack's "
                            "run.shards overrides it)")
    sweep.set_defaults(handler=cmd_sweep)

    analyze = commands.add_parser("analyze",
                                  help="analyze a saved dataset")
    analyze.add_argument("path")
    analyze.add_argument("--analysis-out", default=None, metavar="PATH",
                        help="write the dataset's analysis block "
                             "(recomputed if the file predates it) "
                             "as JSON to PATH")
    analyze.set_defaults(handler=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "resume", False)
            and hasattr(args, "checkpoint_dir")
            and not args.checkpoint_dir):
        parser.error("--resume requires --checkpoint-dir")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
