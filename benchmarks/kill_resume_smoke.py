"""Kill-and-resume smoke: SIGKILL a checkpointed run, resume, verify.

::

    PYTHONPATH=src python benchmarks/kill_resume_smoke.py \
        [--devices 300] [--seed 11] [--workers 2] [--shards 8]

The harness proves the durability contract end to end at the process
level, the way a real outage would exercise it:

1. start ``python -m repro study --checkpoint-dir ...`` as a
   subprocess;
2. poll the checkpoint manifest and SIGKILL the subprocess the moment
   the first shard completes (no cooperative shutdown — the run dies
   mid-flight);
3. restart the same command with ``--resume --save ...``;
4. assert the resumed dataset is byte-identical to a fresh serial run
   of the same scenario, and that the resume actually reloaded the
   shards completed before the kill instead of re-simulating them.

Exits non-zero on any violation — the CI gate for the resilient
execution engine.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dataset.store import load_dataset  # noqa: E402
from repro.fleet.scenario import ScenarioConfig  # noqa: E402
from repro.fleet.simulator import FleetSimulator  # noqa: E402
from repro.network.topology import TopologyConfig  # noqa: E402


def completed_shards(manifest_path: Path) -> dict:
    try:
        return json.loads(manifest_path.read_text())["shards"]
    except (OSError, ValueError, KeyError):
        return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=300)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--kill-timeout-s", type=float, default=300.0,
                        help="give up if no shard completes in time")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="kill-resume-") as tmp:
        checkpoint_dir = Path(tmp) / "ckpt"
        out_path = Path(tmp) / "resumed.jsonl.gz"
        base_cmd = [
            sys.executable, "-m", "repro", "study",
            "--devices", str(args.devices), "--seed", str(args.seed),
            "--workers", str(args.workers),
            "--shards", str(args.shards),
            "--checkpoint-dir", str(checkpoint_dir),
        ]
        env = dict(os.environ, PYTHONPATH="src")

        print(f"[1/4] starting checkpointed run "
              f"(devices={args.devices} workers={args.workers} "
              f"shards={args.shards})")
        victim = subprocess.Popen(
            base_cmd, env=env, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        manifest_path = checkpoint_dir / "manifest.json"
        deadline = time.monotonic() + args.kill_timeout_s
        while time.monotonic() < deadline:
            if completed_shards(manifest_path):
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)

        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
            print("[2/4] SIGKILLed the run mid-flight")
        else:
            # The run beat us to completion; the resume leg still
            # proves full-reload byte-identity.
            print("[2/4] run finished before the kill landed; "
                  "resume will reload every shard")

        before = sorted(int(k) for k in completed_shards(manifest_path))
        if not before:
            print("FAIL: no shard completed before the kill; nothing "
                  "to resume", file=sys.stderr)
            return 1
        print(f"      shards completed before resume: {before}")

        print("[3/4] resuming from the manifest")
        resume = subprocess.run(
            base_cmd + ["--resume", "--save", str(out_path)],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if resume.returncode != 0:
            print(f"FAIL: resume exited {resume.returncode}\n"
                  f"{resume.stdout}", file=sys.stderr)
            return 1

        print("[4/4] verifying byte-identity against a fresh serial run")
        scenario = ScenarioConfig(
            n_devices=args.devices,
            seed=args.seed,
            topology=TopologyConfig(
                n_base_stations=max(400, args.devices // 2),
                seed=args.seed + 1,
            ),
        )
        fresh = FleetSimulator(scenario).run()
        resumed = load_dataset(out_path)
        fresh_digest = fresh.record_digest()
        resumed_digest = resumed.record_digest()
        if fresh_digest != resumed_digest:
            print(f"FAIL: resumed dataset diverges from serial run\n"
                  f"  serial:  {fresh_digest}\n"
                  f"  resumed: {resumed_digest}", file=sys.stderr)
            return 1

        execution = resumed.metadata["execution"]
        resumed_shards = execution.get("resumed_shards", [])
        if resumed_shards != before:
            print(f"FAIL: resume re-simulated completed shards "
                  f"(completed before: {before}, reloaded: "
                  f"{resumed_shards})", file=sys.stderr)
            return 1
        quarantined = execution.get("checkpoint", {}).get("quarantined")
        if quarantined:
            print(f"FAIL: clean artifacts were quarantined: "
                  f"{quarantined}", file=sys.stderr)
            return 1

        print(f"OK: kill-and-resume byte-identical "
              f"(sha256 {fresh_digest[:16]}..., reloaded "
              f"{len(before)}/{args.shards} shards)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
