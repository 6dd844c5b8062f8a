"""Store-crash smoke: SIGKILL a store-backed ``repro serve`` mid-flush
under disk chaos, scrub, resume, and require the exact analysis back.

::

    PYTHONPATH=src python benchmarks/store_crash_smoke.py \
        [--devices 20] [--per-device 6] [--seed 2020] [--chaos 0.04]

The process-level acceptance gate for the durable segment store:

1. **control leg** — ``python -m repro serve --store-dir`` on healthy
   disks, the whole fleet pushed through the socket, SIGTERM: the
   drained store's folded analysis block is the reference;
2. **crash leg** — a fresh service on the same records but with
   ``--disk-chaos`` injecting torn writes, bit flips, ENOSPC, and
   crash-in-rename into every store write, then **SIGKILL** (no drain,
   no checkpoint) while the fleet is still pushing and segments are
   still sealing;
3. **scrub** — ``python -m repro scrub`` over the wreckage must exit
   zero with ``--strict``: every damaged segment quarantined or
   repaired, WAL-recoverable records recovered, and the scrub report
   must reconcile against the injected-fault ledger the chaos layer
   fsynced as it fired — every fault classified, zero unexplained;
4. **resume leg** — a fresh service reattaches the repaired store
   (journal-proven identities rejoin the dedup set), the fleet
   re-uploads everything, and the resumed store's folded analysis
   block must be **byte-identical** to the control leg's.

Exits non-zero on any violation — the CI gate for the segment store.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaos.disk import DiskChaos  # noqa: E402
from repro.chaos.reconcile import reconcile_disk  # noqa: E402
from repro.serve.harness import (  # noqa: E402
    ServeProcess,
    socket_drive,
    synthetic_records,
)
from repro.store import ScrubReport, SegmentStore  # noqa: E402
from smoke_dir import fail, smoke_dir  # noqa: E402


def serve(store_dir: Path, checkpoint: Path, seal_records: int,
          *flags: str) -> ServeProcess:
    """One store-backed ``repro serve`` subprocess."""
    return ServeProcess(checkpoint, "--store-dir", str(store_dir),
                        "--seal-records", str(seal_records), *flags)


def canonical(block: dict) -> str:
    return json.dumps(block, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=20)
    parser.add_argument("--per-device", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--chaos", type=float, default=0.04,
                        help="per-operation disk fault rate for the "
                             "crash leg (default 0.04)")
    args = parser.parse_args(argv)

    records = synthetic_records(args.devices, args.per_device,
                                seed=args.seed)
    total = len(records)

    with smoke_dir("store-crash-") as tmp_path:
        # -- control leg -----------------------------------------------
        print(f"[1/4] control: {total} records through a store-backed "
              "serve, healthy disks")
        ctrl_store = tmp_path / "control-store"
        ctrl_analysis = tmp_path / "control-analysis.json"
        ctrl = serve(ctrl_store, tmp_path / "control.ckpt", 16,
                     "--analysis-out", str(ctrl_analysis))
        drive = socket_drive(ctrl.host, ctrl.port)
        drive.emit(records)
        drive.drain()
        if drive.pending_payloads:
            fail("control fleet never drained its spools")
        time.sleep(0.3)  # let the worker clear the admission queue
        code, tail = ctrl.sigterm()
        drive.close()
        if code != 0:
            fail(f"control serve exited {code}: {tail}")
        control_block = json.loads(ctrl_analysis.read_text())["analysis"]
        if control_block["n_failures"] != total:
            fail(f"control fold saw "
                 f"{control_block['n_failures']}/{total}")
        print(f"      control analysis folded over {total} records")

        # -- crash leg: disk chaos + SIGKILL mid-flush ------------------
        print(f"[2/4] crash: disk chaos at {args.chaos}/op, SIGKILL "
              "mid-run (no drain, no checkpoint)")
        crash_store = tmp_path / "crash-store"
        crash = serve(crash_store, tmp_path / "crash.ckpt", 8,
                      "--disk-chaos", str(args.chaos),
                      "--disk-chaos-seed", str(args.seed))
        drive = socket_drive(crash.host, crash.port, timeout_s=5.0)
        drive.emit(records)
        # Push long enough that tails are sealing, then pull the plug
        # while payloads are still in flight.
        drive.drain(rounds=12)
        crash.sigkill()
        drive.close()
        ledger = DiskChaos.read_ledger(crash_store
                                       / "chaos-ledger.jsonl")
        print(f"      killed; {len(ledger)} disk fault(s) were "
              "injected before death")

        # -- scrub -----------------------------------------------------
        print("[3/4] scrub the wreckage and reconcile every fault")
        scrub_json = tmp_path / "scrub.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "scrub", str(crash_store),
             "--strict", "--json", str(scrub_json)],
            env=dict(os.environ, PYTHONPATH="src"), cwd=REPO_ROOT,
            text=True, capture_output=True,
        )
        if result.returncode != 0:
            fail(f"repro scrub exited {result.returncode}:\n"
                 f"{result.stdout}{result.stderr}")
        report = ScrubReport.from_dict(
            json.loads(scrub_json.read_text())
        )
        disk = reconcile_disk(ledger, report)
        if not disk.ok:
            fail("scrub left injected faults unexplained:\n"
                 + disk.render())
        print(f"      scrub ok: {report.segments_ok} verified, "
              f"{len(report.quarantined)} quarantined, "
              f"{len(report.recovered_keys)} recovered via WAL, "
              f"{len(report.lost_keys)} lost; all "
              f"{len(ledger)} fault(s) classified")

        # -- resume leg ------------------------------------------------
        print("[4/4] resume on the repaired store, re-upload the "
              "fleet, compare analyses")
        final_analysis = tmp_path / "final-analysis.json"
        resumed = serve(crash_store, tmp_path / "resume.ckpt", 8,
                        "--analysis-out", str(final_analysis))
        drive = socket_drive(resumed.host, resumed.port)
        drive.emit(records)
        drive.drain()
        if drive.pending_payloads:
            fail("resumed fleet never drained its spools")
        time.sleep(0.3)
        code, tail = resumed.sigterm()
        drive.close()
        if code != 0:
            fail(f"resumed serve exited {code}: {tail}")
        final_block = json.loads(final_analysis.read_text())
        if final_block["skipped_segments"]:
            fail("resumed fold skipped segments: "
                 f"{final_block['skipped_segments']}")
        if canonical(final_block["analysis"]) != canonical(control_block):
            fail("resumed analysis diverged from the "
                 "undisturbed control run")
        # The store itself must also be scrub-clean and whole.
        survivor = SegmentStore(crash_store, seal_records=8)
        if len(set(survivor)) != total:
            fail(f"store owns {len(set(survivor))}"
                 f"/{total} records after resume")
        if not survivor.scrub(repair=False).ok:
            fail("post-resume scrub found lost records")

        print(f"OK: SIGKILL mid-flush under disk chaos, "
              f"{len(ledger)} fault(s) injected and classified, "
              f"zero unexplained losses; resumed analysis "
              f"byte-identical to control over {total} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
