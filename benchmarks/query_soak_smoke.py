"""Query-soak smoke: poll a store-backed ``repro serve`` while a
chaotic fleet streams into it, and prove every live answer exact.

::

    PYTHONPATH=src python benchmarks/query_soak_smoke.py \
        [--devices 20] [--per-device 5] [--seed 2020]

The process-level acceptance gate for the live query plane:

1. **control leg** — run a chaotic fleet through a store-backed
   service to completion, SIGTERM, and compute the offline analysis
   block over the drained store: this is the reference answer;
2. **soak leg** — fresh service, same fleet and chaos, with a query
   client polling ``stats`` / ``isp_bs`` / ``transitions`` /
   ``summary`` the whole time.  SIGTERM lands **mid-run** while
   spools are still loaded; the service must drain, checkpoint, and
   exit 0;
3. **resume leg** — restart with ``--resume`` against the same store,
   keep polling while the fleet finishes, and require the final
   ``repro query`` answer byte-identical to the control block.

Then the exactness audit: the store journal's WAL lines are the
append order, so for *every* polled answer at watermark ``W`` the
offline fold over the first ``W`` journalled records must be
byte-identical (sorted JSON) to what the live service answered —
including answers that straddled the SIGTERM/resume hop.  Repeated
polls must also show partial-cache hits.  Exits non-zero on any
violation — the CI gate for the query plane.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.columnar import (  # noqa: E402
    analysis_summary,
    compute_analysis_block,
)
from repro.dataset.records import FailureRecord  # noqa: E402
from repro.dataset.store import Dataset  # noqa: E402
from repro.serve.client import (  # noqa: E402
    QueryClient,
    TransportSignal,
)
from repro.serve.harness import (  # noqa: E402
    SOCKET_CHAOS,
    ServeProcess,
    SocketChannels,
    socket_drive,
    synthetic_records,
)
from repro.serve.query import (  # noqa: E402
    ISP_BS_FIELDS,
    STATS_FIELDS,
    TRANSITIONS_FIELDS,
)
from smoke_dir import fail, smoke_dir  # noqa: E402

#: Retry-only chaos (drops, duplicates, reordering): every emitted
#: record is eventually accepted, so the control and soak stores
#: converge on the same dataset.
CHAOS = dict(drop_rate=0.15, duplicate_rate=0.1, reorder_rate=0.05)

PROJECTIONS = {
    "stats": STATS_FIELDS,
    "isp_bs": ISP_BS_FIELDS,
    "transitions": TRANSITIONS_FIELDS,
}


def canonical(block) -> str:
    return json.dumps(block, sort_keys=True)


def serve(checkpoint: Path, store_dir: Path,
          *flags: str) -> ServeProcess:
    """One store-backed ``repro serve`` subprocess."""
    return ServeProcess(checkpoint, "--store-dir", str(store_dir),
                        "--seal-records", "16", *flags)


class Poller:
    """Polls every query kind against a live service in a thread."""

    def __init__(self):
        self.envelopes: list[dict] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self, host: str, port: int) -> None:
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(host, port), daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def _loop(self, host: str, port: int) -> None:
        kinds = ("stats", "isp_bs", "transitions", "summary")
        with QueryClient(host, port, timeout_s=5.0) as client:
            turn = 0
            while not self._stop.is_set():
                kind = kinds[turn % len(kinds)]
                turn += 1
                try:
                    self.envelopes.append(client.query(kind))
                except TransportSignal:
                    # Shed / draining / connection lost mid-restart:
                    # all legitimate under soak; just poll again.
                    pass
                time.sleep(0.01)


def journal_rows(store_dir: Path) -> list[dict]:
    """Record dicts in append order (the WAL lines, first to last)."""
    rows = []
    with open(store_dir / "journal.jsonl", "rb") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("op") == "wal":
                rows.append(entry["data"])
    return rows


def offline_block(rows: list[dict]) -> dict:
    return compute_analysis_block(Dataset(failures=[
        FailureRecord.from_dict(row) for row in rows
    ]))


def verify_envelopes(envelopes: list[dict],
                     rows: list[dict]) -> tuple[int, str | None]:
    """Check every polled answer against its journal prefix.

    Returns (answers_verified, error) — error is None when every
    watermark's answer was byte-identical to the offline fold.
    """
    block_cache: dict[int, dict] = {}
    verified = 0
    for envelope in envelopes:
        watermark = envelope["watermark"]
        if watermark["mode"] != "store":
            return verified, (
                f"expected a store watermark, got {watermark}"
            )
        n = watermark["n_records"]
        if n > len(rows):
            return verified, (
                f"watermark {n} exceeds the {len(rows)} journalled "
                "records"
            )
        if n not in block_cache:
            block_cache[n] = offline_block(rows[:n])
        block = block_cache[n]
        kind = envelope["query"]
        if kind == "summary":
            expected = analysis_summary(block)
        else:
            expected = {key: block[key] for key in PROJECTIONS[kind]}
        if canonical(envelope["result"]) != canonical(expected):
            return verified, (
                f"{kind} answer at watermark {n} diverged from the "
                "offline fold of the journal prefix"
            )
        verified += 1
    return verified, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=20)
    parser.add_argument("--per-device", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2020)
    args = parser.parse_args(argv)

    records = synthetic_records(args.devices, args.per_device,
                                seed=args.seed)
    total = len(records)
    chaos = replace(SOCKET_CHAOS, enabled=True, seed=args.seed, **CHAOS)

    with smoke_dir("query-soak-") as tmp_path:
        # -- control leg -----------------------------------------------
        print(f"[1/3] control: {total} records through a store-backed "
              "service, offline fold is the reference")
        ctrl = serve(tmp_path / "control.ckpt",
                     tmp_path / "control-store")
        drive = socket_drive(ctrl.host, ctrl.port, chaos)
        drive.emit(records)
        drive.drain()
        if drive.pending_payloads:
            fail("control fleet never drained its spools")
        time.sleep(0.3)
        code, _tail = ctrl.sigterm()
        drive.close()
        if code != 0:
            fail(f"control serve exited {code}")
        control_rows = journal_rows(tmp_path / "control-store")
        if len(control_rows) != total:
            fail(f"control store journalled "
                 f"{len(control_rows)}/{total} records")
        control_block = offline_block(control_rows)
        print(f"      offline block over {total} records: "
              f"n_failures={control_block['n_failures']} "
              f"devices={control_block['failing_devices']}")

        # -- soak leg: poll while ingest runs, SIGTERM mid-run ---------
        print("[2/3] soak: query poller rides along, SIGTERM mid-run")
        store_dir = tmp_path / "soak-store"
        ckpt = tmp_path / "soak.ckpt"
        soak = serve(ckpt, store_dir)
        poller = Poller()
        poller.start(soak.host, soak.port)
        drive = socket_drive(soak.host, soak.port, chaos)
        drive.emit(records)
        # A few flush rounds so answers land mid-stream, then SIGTERM
        # with spools still loaded.
        drive.drain(rounds=6)
        code, tail = soak.sigterm()
        poller.stop()
        if code != 0:
            fail(f"soak serve exited {code} mid-drain: {tail}")
        if "checkpoint written" not in tail:
            fail(f"soak drain never checkpointed: {tail!r}")
        if not poller.envelopes:
            fail("the poller never got an answer mid-soak")
        mid_answers = len(poller.envelopes)
        mid_watermarks = sorted({e["watermark"]["n_records"]
                                 for e in poller.envelopes})
        print(f"      {mid_answers} live answers at watermarks "
              f"{mid_watermarks[0]}..{mid_watermarks[-1]}")

        # -- resume leg ------------------------------------------------
        print("[3/3] resume against the same store and finish")
        prom_out = tmp_path / "serve.prom"
        resumed = serve(ckpt, store_dir, "--resume",
                        "--prom-out", str(prom_out))
        if not any("resumed from" in line for line in resumed.banner):
            fail(f"resume leg did not load the checkpoint: "
                 f"{resumed.banner!r}")
        poller.start(resumed.host, resumed.port)
        drive.rebind(SocketChannels(resumed.host, resumed.port))
        drive.drain()
        if drive.pending_payloads:
            fail("resumed fleet never drained its spools")
        deadline = time.monotonic() + 15.0
        final = None
        while time.monotonic() < deadline:
            # The admission queue may still be flushing: poll the CLI
            # until the watermark covers every record.
            out = subprocess.run(
                [sys.executable, "-m", "repro", "query",
                 f"{resumed.host}:{resumed.port}", "stats", "--json"],
                env=dict(os.environ, PYTHONPATH="src"),
                cwd=REPO_ROOT, capture_output=True, text=True,
            )
            if out.returncode == 0:
                final = json.loads(out.stdout)
                if final["watermark"]["n_records"] == total:
                    break
            time.sleep(0.2)
        poller.stop()
        if final is None:
            fail("the repro query CLI never got an answer")
        if final["watermark"]["n_records"] != total:
            fail(f"final watermark stuck at "
                 f"{final['watermark']['n_records']}/{total}")
        expected = {key: control_block[key] for key in STATS_FIELDS}
        if canonical(final["result"]) != canonical(expected):
            fail("the final live stats answer diverged from "
                 "the control run's offline block")
        code, _tail = resumed.sigterm()
        drive.close()
        if code != 0:
            fail(f"resumed serve exited {code}")

        # -- the exactness audit ---------------------------------------
        rows = journal_rows(store_dir)
        if len(rows) != total:
            fail(f"soak store journalled {len(rows)}/{total} "
                 "records")
        verified, error = verify_envelopes(poller.envelopes, rows)
        if error:
            fail(error)
        hits = sum(e.get("cache", {}).get("hits", 0)
                   for e in poller.envelopes)
        if hits == 0:
            fail("repeated polls never hit the partial cache")
        prom_text = prom_out.read_text()
        for metric in ("query_requests_total", "query_cache_hits_total",
                       "query_stage_seconds"):
            if metric not in prom_text:
                fail(f"{metric} missing from the Prometheus "
                     "export")

        print(f"OK: {verified} live answers (watermarks "
              f"{mid_watermarks[0]}..{total}) each byte-identical to "
              f"the offline fold of their journal prefix, across "
              f"SIGTERM + resume; {hits} partial-cache hits; query "
              "metrics exported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
