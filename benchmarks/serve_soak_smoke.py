"""Serve-soak smoke: overload a live ``repro serve``, SIGTERM it
mid-soak, resume, and verify nothing was lost or invented.

::

    PYTHONPATH=src python benchmarks/serve_soak_smoke.py \
        [--devices 20] [--per-device 5] [--seed 2020]

The process-level acceptance gate for the live ingest service:

1. **control leg** — start ``python -m repro serve`` as a subprocess,
   push a chaotic fleet (drops, duplicates, reordering) through the
   socket to completion, SIGTERM, and read the drain checkpoint: this
   is the reference dataset;
2. **soak leg** — start a fresh service, push the same fleet through
   worse conditions (a junk-payload connection storm and slow-loris
   clients riding alongside), then SIGTERM **mid-run** while spools
   are still full.  The service must drain, checkpoint, and exit 0,
   and the checkpoint must reconcile with zero unexplained losses;
3. **resume leg** — restart with ``--resume``, point the same fleet
   (spooled payloads, dedup state and all) at the new port, drain,
   SIGTERM again, and require byte-identical accepted records vs the
   control leg, zero unexplained losses, and serve metrics present in
   the Prometheus export.

Exits non-zero on any violation — the CI gate for the serve stack.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend.ingest import IngestionServer  # noqa: E402
from repro.chaos.config import ChaosConfig  # noqa: E402
from repro.chaos.reconcile import reconcile  # noqa: E402
from repro.dataset.records import record_identity  # noqa: E402
from repro.dataset.store import Dataset  # noqa: E402
from repro.serve.harness import (  # noqa: E402
    ServeProcess,
    connection_storm,
    drain_fleet,
    drive_fleet,
    stalled_clients,
    synthetic_records,
)

#: Chaos without permanent-loss channels: drops are retried,
#: duplicates dedup, reordered payloads are delivered late — so every
#: emitted record must ultimately be accepted and the interrupted run
#: can be compared byte-for-byte against the control run.
CHAOS = dict(drop_rate=0.15, duplicate_rate=0.1, reorder_rate=0.05)


def reconcile_checkpoint(drive, checkpoint: Path):
    """The checkpoint's reconciliation report, and the digest of its
    records in identity order (arrival order differs run to run)."""
    snapshot = json.loads(checkpoint.read_text())
    server = IngestionServer.restore(snapshot["server"])
    records = sorted(server.records,
                     key=lambda record: record_identity(record.to_dict()))
    return reconcile(
        drive.emitted, server, drive.batchers.values(),
        transport=drive.chaos_transport, service=snapshot,
    ), Dataset(failures=records).record_digest()


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=20)
    parser.add_argument("--per-device", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args(argv)

    records = synthetic_records(args.devices, args.per_device,
                                seed=args.seed)
    total = len(records)

    with tempfile.TemporaryDirectory(prefix="serve-soak-") as tmp:
        tmp_path = Path(tmp)

        # -- control leg -----------------------------------------------
        print(f"[1/3] control: {total} records, chaotic transport, "
              f"run to completion")
        ctrl_ckpt = tmp_path / "control.ckpt"
        ctrl = ServeProcess(ctrl_ckpt)
        drive = drive_fleet(records, ctrl.host, ctrl.port,
                            chaos=ChaosConfig(seed=args.seed, **CHAOS))
        drain_fleet(drive)
        if drive.pending_payloads:
            return fail("control fleet never drained its spools")
        time.sleep(0.3)  # let the worker clear the admission queue
        code, _tail = ctrl.sigterm()
        drive.close()
        if code != 0:
            return fail(f"control serve exited {code}")
        report, control_digest = reconcile_checkpoint(drive, ctrl_ckpt)
        if not report.ok:
            return fail("control run had unexplained losses:\n"
                        + report.render())
        if report.accepted != total:
            return fail(f"control accepted {report.accepted}/{total}")
        print(f"      accepted={report.accepted} "
              f"duplicates={report.duplicates} "
              f"digest={control_digest[:12]}")

        # -- soak leg: storms + SIGTERM mid-run ------------------------
        print("[2/3] soak: same fleet + junk storm + slow loris, "
              "SIGTERM mid-run")
        soak_ckpt = tmp_path / "soak.ckpt"
        soak = ServeProcess(soak_ckpt)
        storm = connection_storm(soak.host, soak.port, connections=25,
                                 payloads_per_connection=2)
        if storm.acks.get("ok", 0) == 0:
            return fail("storm payloads were never acked")
        lorised = stalled_clients(soak.host, soak.port, clients=5,
                                  wait_s=3.0)
        if lorised != 5:
            return fail(f"read deadline closed {lorised}/5 "
                        "stalled connections")
        drive = drive_fleet(records, soak.host, soak.port,
                            chaos=ChaosConfig(seed=args.seed, **CHAOS))
        # No drain: spools are still loaded when the SIGTERM lands.
        code, tail = soak.sigterm()
        if code != 0:
            return fail(f"soak serve exited {code} mid-drain: {tail}")
        if "checkpoint written" not in tail:
            return fail(f"soak drain never checkpointed: {tail!r}")
        report, _digest = reconcile_checkpoint(drive, soak_ckpt)
        if not report.ok:
            return fail("interrupted run had unexplained losses:\n"
                        + report.render())
        mid_accepted = report.accepted
        print(f"      mid-run: accepted={mid_accepted}/{total} "
              f"in_flight={report.in_flight} — all classified")

        # -- resume leg ------------------------------------------------
        print("[3/3] resume from the drain checkpoint and finish")
        prom_out = tmp_path / "serve.prom"
        metrics_out = tmp_path / "serve.metrics.json"
        resumed = ServeProcess(soak_ckpt, "--resume",
                               "--metrics-out", str(metrics_out),
                               "--prom-out", str(prom_out))
        if not any("resumed from" in line for line in resumed.banner):
            return fail(f"resume leg did not load the checkpoint: "
                        f"{resumed.banner!r}")
        drive = drive_fleet([], resumed.host, resumed.port, drive=drive)
        drain_fleet(drive)
        if drive.pending_payloads:
            return fail("resumed fleet never drained its spools")
        time.sleep(0.3)
        code, _tail = resumed.sigterm()
        drive.close()
        if code != 0:
            return fail(f"resumed serve exited {code}")
        report, final_digest = reconcile_checkpoint(drive, soak_ckpt)
        if not report.ok:
            return fail("resumed run had unexplained losses:\n"
                        + report.render())
        if report.accepted != total:
            return fail(f"resumed run accepted "
                        f"{report.accepted}/{total}")
        if final_digest != control_digest:
            return fail("resumed dataset diverged from the "
                        f"uninterrupted control run "
                        f"({final_digest[:12]} != "
                        f"{control_digest[:12]})")
        prom_text = prom_out.read_text()
        for metric in ("serve_admitted_total", "serve_frames_total",
                       "serve_breaker_state", "serve_drains_total"):
            if metric not in prom_text:
                return fail(f"{metric} missing from the Prometheus "
                            "export")

        print(f"OK: {total} records, zero unexplained losses across "
              f"SIGTERM + resume; dataset byte-identical to control "
              f"(digest {control_digest[:12]}); serve metrics "
              f"exported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
