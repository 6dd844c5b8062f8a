"""Sweep kill-and-resume smoke: SIGKILL a pack sweep, resume, verify.

::

    PYTHONPATH=src python benchmarks/sweep_resume_smoke.py \
        [--packs packs/ci] [--kill-timeout-s 300]

The harness proves the sweep runner's durability contract end to end
at the process level:

1. run an undisturbed **control** sweep of the pack set and record
   the bytes of every deterministic artifact (``landscape.md``,
   ``landscape.json``, each pack's ``result.json``);
2. start the same sweep in a fresh output directory as a subprocess
   and SIGKILL it the moment the first pack's ``result.json`` lands —
   the sweep dies with later packs unstarted or mid-flight;
3. rerun with ``--resume`` and assert (a) every pack completed before
   the kill was *skipped*, not re-simulated, and (b) every
   deterministic artifact is byte-identical to the control sweep;
4. rerun with ``--resume`` once more: now *every* pack must skip and
   the artifacts must still match.

Exits non-zero on any violation — the CI gate for the sweep runner
(the ``sweep-smoke`` job).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from smoke_dir import fail, smoke_dir  # noqa: E402


def sweep_cmd(packs: list[str], out_dir: Path,
              resume: bool = False) -> list[str]:
    cmd = [sys.executable, "-m", "repro", "sweep", *packs,
           "--out", str(out_dir)]
    if resume:
        cmd.append("--resume")
    return cmd


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every deterministic sweep artifact, keyed by relative path."""
    artifacts = {}
    for name in ("landscape.md", "landscape.json"):
        artifacts[name] = (out_dir / name).read_bytes()
    for result in sorted(out_dir.glob("packs/*/result.json")):
        artifacts[str(result.relative_to(out_dir))] = result.read_bytes()
    return artifacts


def completed_packs(out_dir: Path) -> list[str]:
    return sorted(path.parent.name
                  for path in out_dir.glob("packs/*/result.json"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packs", nargs="+", default=["packs/ci"],
                        help="pack files/directories to sweep "
                             "(default packs/ci)")
    parser.add_argument("--kill-timeout-s", type=float, default=300.0,
                        help="give up if no pack completes in time")
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH="src")
    with smoke_dir("sweep-smoke-") as tmp_path:
        control_dir = tmp_path / "control"
        disturbed_dir = tmp_path / "disturbed"

        print(f"[1/4] control sweep of {' '.join(args.packs)}")
        control = subprocess.run(
            sweep_cmd(args.packs, control_dir), env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if control.returncode != 0:
            fail(f"control sweep exited {control.returncode}\n"
                 f"{control.stdout}")
        control_artifacts = artifact_bytes(control_dir)
        all_packs = completed_packs(control_dir)
        print(f"      control complete: {all_packs}")

        print("[2/4] disturbed sweep, SIGKILL after the first pack "
              "completes")
        victim = subprocess.Popen(
            sweep_cmd(args.packs, disturbed_dir), env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + args.kill_timeout_s
        while time.monotonic() < deadline:
            if completed_packs(disturbed_dir):
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
            print("      SIGKILLed the sweep mid-flight")
        else:
            # The sweep beat us to completion; the resume legs still
            # prove complete-pack skipping and byte-identity.
            print("      sweep finished before the kill landed; "
                  "resume must skip every pack")
        survivors = completed_packs(disturbed_dir)
        if not survivors:
            fail("no pack completed before the kill; nothing "
                 "to resume")
        print(f"      packs completed before resume: {survivors}")

        print("[3/4] resuming the disturbed sweep")
        resume = subprocess.run(
            sweep_cmd(args.packs, disturbed_dir, resume=True),
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if resume.returncode != 0:
            fail(f"resume exited {resume.returncode}\n"
                 f"{resume.stdout}")
        skipped = [line for line in resume.stdout.splitlines()
                   if ": skipped (complete" in line]
        for pack in survivors:
            if not any(f" {pack}: skipped" in line for line in skipped):
                fail(f"pack {pack!r} completed before the kill "
                     f"but was re-simulated on resume\n{resume.stdout}")
        print(f"      resume skipped {len(skipped)} completed pack(s)")

        resumed_artifacts = artifact_bytes(disturbed_dir)
        if set(resumed_artifacts) != set(control_artifacts):
            fail(f"artifact sets differ\n"
                 f"  control: {sorted(control_artifacts)}\n"
                 f"  resumed: {sorted(resumed_artifacts)}")
        for name, blob in sorted(control_artifacts.items()):
            if resumed_artifacts[name] != blob:
                fail(f"{name} diverges from the control sweep")

        print("[4/4] second resume: every pack must skip")
        again = subprocess.run(
            sweep_cmd(args.packs, disturbed_dir, resume=True),
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if again.returncode != 0:
            fail(f"second resume exited {again.returncode}\n"
                 f"{again.stdout}")
        skipped_again = [line for line in again.stdout.splitlines()
                         if ": skipped (complete" in line]
        if len(skipped_again) != len(all_packs):
            fail(f"second resume re-ran packs "
                 f"({len(skipped_again)}/{len(all_packs)} skipped)\n"
                 f"{again.stdout}")
        final_artifacts = artifact_bytes(disturbed_dir)
        if final_artifacts != control_artifacts:
            fail("artifacts changed across a no-op resume")

        print(f"OK: sweep kill-and-resume byte-identical "
              f"({len(survivors)}/{len(all_packs)} pack(s) survived "
              "the kill and were skipped on resume)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
