"""Tests for durable checkpoints and resumable runs.

The contract: a run pointed at a checkpoint directory spools every
completed shard atomically; a resumed run reloads completed shards
(never re-simulating them) and finishes byte-identical to an
uninterrupted run; damaged artifacts are quarantined and re-run, and a
store from a different scenario is refused outright.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos import DiskChaos, DiskChaosConfig
from repro.fleet.scenario import ScenarioConfig
from repro.fleet.simulator import FleetSimulator
from repro.network.topology import TopologyConfig
from repro.parallel import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    make_shards,
    run_sharded,
    scenario_fingerprint,
    simulate_shard,
)
from repro.parallel.checkpoint import FORMAT_VERSION


def tiny_scenario(n_devices=24, seed=11, **kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        n_devices=n_devices,
        seed=seed,
        topology=TopologyConfig(n_base_stations=120, seed=seed + 1),
        **kwargs,
    )


class TestFingerprint:
    def test_stable_for_identical_scenarios(self):
        assert (scenario_fingerprint(tiny_scenario(), 4)
                == scenario_fingerprint(tiny_scenario(), 4))

    def test_sensitive_to_scenario_and_partition(self):
        base = scenario_fingerprint(tiny_scenario(seed=1), 4)
        assert scenario_fingerprint(tiny_scenario(seed=2), 4) != base
        assert scenario_fingerprint(tiny_scenario(seed=1), 5) != base
        assert (scenario_fingerprint(tiny_scenario(seed=1).patched(), 4)
                != base)


class TestStoreRoundtrip:
    def test_save_then_resume_returns_equal_result(self, tmp_path):
        scenario = tiny_scenario(n_devices=8)
        [spec] = make_shards(8, 1)
        result = simulate_shard(scenario, spec)
        fingerprint = scenario_fingerprint(scenario, 1)

        store = CheckpointStore(tmp_path, fingerprint, 1)
        store.initialize(resume=False, specs=[spec])
        store.save(result)

        reloaded = CheckpointStore(tmp_path, fingerprint, 1)
        loaded = reloaded.initialize(resume=True, specs=[spec])
        assert list(loaded) == [0]
        assert loaded[0].dataset.devices == result.dataset.devices
        assert loaded[0].dataset.failures == result.dataset.failures
        assert loaded[0].stats == result.stats

    def test_fresh_initialize_forgets_previous_manifest(self, tmp_path):
        scenario = tiny_scenario(n_devices=8)
        [spec] = make_shards(8, 1)
        fingerprint = scenario_fingerprint(scenario, 1)
        store = CheckpointStore(tmp_path, fingerprint, 1)
        store.initialize(resume=False, specs=[spec])
        store.save(simulate_shard(scenario, spec))

        fresh = CheckpointStore(tmp_path, fingerprint, 1)
        assert fresh.initialize(resume=False, specs=[spec]) == {}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["shards"] == {}

    def test_resume_without_manifest_starts_fresh(self, tmp_path):
        scenario = tiny_scenario(n_devices=8)
        [spec] = make_shards(8, 1)
        store = CheckpointStore(tmp_path / "new",
                                scenario_fingerprint(scenario, 1), 1)
        assert store.initialize(resume=True, specs=[spec]) == {}

    def test_corrupt_manifest_raises_checkpoint_error(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        store = CheckpointStore(tmp_path, "abc", 1)
        with pytest.raises(CheckpointError, match="not valid JSON"):
            store.initialize(resume=True, specs=[])

    def test_future_format_version_refused(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": FORMAT_VERSION + 1, "fingerprint": "abc",
             "shards": {}}
        ))
        store = CheckpointStore(tmp_path, "abc", 1)
        with pytest.raises(CheckpointMismatchError):
            store.initialize(resume=True, specs=[])


class TestEngineCheckpointing:
    def test_resumed_run_is_byte_identical_and_skips_completed(
            self, tmp_path, monkeypatch):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        first = run_sharded(scenario, workers=2, n_shards=4,
                            checkpoint_dir=tmp_path)
        assert first.record_digest() == serial.record_digest()

        simulated = []

        import repro.parallel.engine as engine_module

        real = engine_module.simulate_shard

        def counting(config, spec):
            simulated.append(spec.index)
            return real(config, spec)

        monkeypatch.setattr("repro.parallel.engine.simulate_shard",
                            counting)
        resumed = run_sharded(scenario, workers=2, n_shards=4,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed.record_digest() == serial.record_digest()
        assert simulated == []  # nothing re-simulated
        execution = resumed.metadata["execution"]
        assert execution["resumed_shards"] == [0, 1, 2, 3]
        assert execution["checkpoint"]["dir"] == str(tmp_path)
        assert execution["checkpoint"]["quarantined"] == []

    def test_partial_checkpoint_resumes_only_missing_shards(
            self, tmp_path):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        run_sharded(scenario, workers=2, n_shards=4,
                    checkpoint_dir=tmp_path)
        # Lose two shards (as if the run had been killed mid-flight).
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for index in ("2", "3"):
            (tmp_path / "shards" / manifest["shards"][index]["file"]
             ).unlink()
            del manifest["shards"][index]
        manifest_path.write_text(json.dumps(manifest))

        resumed = run_sharded(scenario, workers=2, n_shards=4,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed.record_digest() == serial.record_digest()
        assert resumed.metadata["execution"]["resumed_shards"] == [0, 1]

    def test_truncated_artifact_quarantined_and_rerun(self, tmp_path):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        run_sharded(scenario, workers=2, n_shards=4,
                    checkpoint_dir=tmp_path)
        victim = tmp_path / "shards" / "shard-00001.pkl"
        blob = victim.read_bytes()
        victim.write_bytes(blob[:len(blob) // 2])

        resumed = run_sharded(scenario, workers=2, n_shards=4,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed.record_digest() == serial.record_digest()
        execution = resumed.metadata["execution"]
        assert execution["resumed_shards"] == [0, 2, 3]
        [quarantined] = execution["checkpoint"]["quarantined"]
        assert quarantined["shard"] == 1
        assert "digest mismatch" in quarantined["reason"]
        assert (tmp_path / "quarantine" / "shard-00001.pkl").exists()

    def test_bitflipped_artifact_quarantined_and_rerun(self, tmp_path):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        run_sharded(scenario, workers=2, n_shards=4,
                    checkpoint_dir=tmp_path)
        victim = tmp_path / "shards" / "shard-00002.pkl"
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # one flipped byte in the payload
        victim.write_bytes(bytes(blob))

        resumed = run_sharded(scenario, workers=2, n_shards=4,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed.record_digest() == serial.record_digest()
        execution = resumed.metadata["execution"]
        assert execution["resumed_shards"] == [0, 1, 3]
        [quarantined] = execution["checkpoint"]["quarantined"]
        assert quarantined["shard"] == 2

    def test_torn_artifact_write_quarantined_and_rerun(self, tmp_path):
        """Disk chaos reaches shard checkpoints through the store's
        ``io`` seam: a write torn *at write time* (not a file damaged
        afterwards) is caught by the same digest check on resume."""
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        specs = make_shards(scenario.n_devices, 4)
        chaos = DiskChaos(DiskChaosConfig(seed=5))
        store = CheckpointStore(tmp_path, scenario_fingerprint(scenario, 4),
                                4, io=chaos)
        store.initialize(resume=False, specs=specs)
        for spec in specs:
            if spec.index == 2:
                chaos.force_next("torn-write")
            store.save(simulate_shard(scenario, spec))
        [fault] = chaos.injected
        assert fault["path"].endswith("shard-00002.pkl")
        assert fault["kept_bytes"] < fault["full_bytes"]

        resumed = run_sharded(scenario, workers=2, n_shards=4,
                              checkpoint_dir=tmp_path, resume=True)
        assert resumed.record_digest() == serial.record_digest()
        execution = resumed.metadata["execution"]
        assert execution["resumed_shards"] == [0, 1, 3]
        [quarantined] = execution["checkpoint"]["quarantined"]
        assert quarantined["shard"] == 2
        assert "payload digest mismatch" in quarantined["reason"]

    def test_fingerprint_mismatch_refused(self, tmp_path):
        run_sharded(tiny_scenario(seed=11), workers=2,
                    checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError,
                           match="refusing to resume"):
            run_sharded(tiny_scenario(seed=12), workers=2,
                        checkpoint_dir=tmp_path, resume=True)

    def test_partition_mismatch_refused(self, tmp_path):
        run_sharded(tiny_scenario(), workers=2, n_shards=2,
                    checkpoint_dir=tmp_path)
        with pytest.raises(CheckpointMismatchError):
            run_sharded(tiny_scenario(), workers=2, n_shards=3,
                        checkpoint_dir=tmp_path, resume=True)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint directory"):
            run_sharded(tiny_scenario(), workers=2, resume=True)
        with pytest.raises(ValueError, match="checkpoint directory"):
            FleetSimulator(tiny_scenario()).run(workers=2, resume=True)

    def test_inline_mode_checkpoints_too(self, tmp_path):
        scenario = tiny_scenario()
        run_sharded(scenario, workers=2, n_shards=4, mode="inline",
                    checkpoint_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(manifest["shards"]) == ["0", "1", "2", "3"]

    def test_checkpointed_serial_request_routes_through_engine(
            self, tmp_path):
        scenario = tiny_scenario()
        serial = FleetSimulator(scenario).run()
        dataset = FleetSimulator(scenario).run(checkpoint_dir=tmp_path,
                                               n_shards=4)
        assert dataset.record_digest() == serial.record_digest()
        assert (tmp_path / "manifest.json").exists()


def session_survivors(session: int) -> list[int]:
    """Live (not zombie) processes of ``session``, read from /proc."""
    survivors = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # not a process, or it just exited
            continue
        # After the parenthesised command: state, ppid, pgrp, session.
        state, _ppid, _pgrp, sid = stat.rsplit(")", 1)[1].split()[:4]
        if int(sid) == session and state != "Z":
            survivors.append(int(entry.name))
    return survivors


class TestKillAndResume:
    """The acceptance criterion: SIGKILL a checkpointed run mid-flight,
    resume it, and get the byte-identical dataset of a fresh run."""

    def test_sigkilled_run_resumes_byte_identical(self, tmp_path):
        devices, shards = 150, 8
        checkpoint_dir = tmp_path / "ckpt"
        out_resumed = tmp_path / "resumed.jsonl.gz"
        base_cmd = [
            sys.executable, "-m", "repro", "study",
            "--devices", str(devices), "--seed", "11",
            "--workers", "2", "--shards", str(shards),
            "--checkpoint-dir", str(checkpoint_dir),
        ]
        env = dict(os.environ, PYTHONPATH="src")

        # Its own session, so every worker it forks can be found (and
        # cleaned up) by session id after the parent is gone.
        victim = subprocess.Popen(
            base_cmd, env=env, cwd=Path(__file__).resolve().parents[1],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        # Kill as soon as the manifest records a completed shard.
        manifest_path = checkpoint_dir / "manifest.json"

        def completed_shards():
            try:
                return json.loads(manifest_path.read_text())["shards"]
            except (OSError, ValueError, KeyError):
                return {}

        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if completed_shards():
                    break
                if victim.poll() is not None:
                    break
                time.sleep(0.02)
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=60)
            # Orphaned shard workers must notice the dead parent (EPIPE
            # on their result pipe) and exit instead of blocking.
            deadline = time.monotonic() + 20
            while session_survivors(victim.pid) and (
                    time.monotonic() < deadline):
                time.sleep(0.1)
            assert session_survivors(victim.pid) == []
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(victim.pid, signal.SIGKILL)

        manifest = json.loads(
            (checkpoint_dir / "manifest.json").read_text()
        )
        completed_before_resume = sorted(manifest["shards"])
        assert completed_before_resume  # the kill came mid-flight or later

        code = subprocess.run(
            base_cmd + ["--resume", "--save", str(out_resumed)],
            env=env, cwd=Path(__file__).resolve().parents[1],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        assert code == 0

        from repro.dataset.store import load_dataset

        scenario = ScenarioConfig(
            n_devices=devices, seed=11,
            topology=TopologyConfig(n_base_stations=400, seed=12),
        )
        fresh = FleetSimulator(scenario).run()
        resumed = load_dataset(out_resumed)
        assert resumed.record_digest() == fresh.record_digest()
        execution = resumed.metadata["execution"]
        assert (sorted(int(i) for i in completed_before_resume)
                == execution["resumed_shards"])
