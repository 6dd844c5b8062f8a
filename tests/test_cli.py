"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.devices == 2_000
        assert args.seed == 2020
        assert args.save is None

    def test_ab_accepts_overrides(self):
        args = build_parser().parse_args(
            ["ab", "--devices", "500", "--seed", "9"]
        )
        assert args.devices == 500
        assert args.seed == 9

    def test_analyze_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])

    def test_engine_choices_are_the_scenario_engines(self):
        from repro.cli import ENGINES
        from repro.fleet.scenario import ENGINE_BATCH, ENGINE_SERIAL

        assert ENGINES == (ENGINE_SERIAL, ENGINE_BATCH)
        args = build_parser().parse_args(["study"])
        assert args.engine == ENGINE_SERIAL
        assert build_parser().parse_args(
            ["study", "--engine", ENGINE_BATCH]).engine == ENGINE_BATCH


class TestValidation:
    """Bad resource arguments die at parse time with a clear message."""

    @pytest.mark.parametrize("flag", ["--workers", "--shards",
                                      "--devices"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_counts_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", flag, value])
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--shards"])
    def test_non_integer_counts_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", flag, "two"])
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["study", "ab", "timp"])
    def test_resume_requires_checkpoint_dir(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--resume"])
        assert ("--resume requires --checkpoint-dir"
                in capsys.readouterr().err)


class TestCommands:
    def test_study_runs_and_saves(self, tmp_path, capsys):
        path = tmp_path / "study.jsonl.gz"
        code = main(["study", "--devices", "120", "--seed", "3",
                     "--save", str(path)])
        assert code == 0
        assert path.exists()
        output = capsys.readouterr().out
        assert "Table 1" in output

    def test_analyze_reads_a_saved_dataset(self, tmp_path, capsys):
        path = tmp_path / "study.jsonl.gz"
        main(["study", "--devices", "120", "--seed", "3",
              "--save", str(path)])
        capsys.readouterr()
        code = main(["analyze", str(path)])
        assert code == 0
        assert "prevalence" in capsys.readouterr().out

    def test_ab_prints_reductions(self, capsys):
        code = main(["ab", "--devices", "150", "--seed", "4"])
        assert code == 0
        assert "frequency reduction" in capsys.readouterr().out

    def test_timp_prints_probations(self, capsys):
        code = main(["timp", "--devices", "200", "--seed", "5"])
        assert code == 0
        assert "annealed probations" in capsys.readouterr().out

    def test_study_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt"
        base = ["study", "--devices", "120", "--seed", "3",
                "--shards", "3", "--checkpoint-dir", str(checkpoint)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "resumed 3/3 shards from checkpoint" in output


class TestServe:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--store-dir", "s"])
        assert args.port == 0
        assert args.policy == "reject-newest"
        assert args.queue_capacity == 1024
        assert args.checkpoint is None

    def test_serve_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--store-dir", "s",
                                       "--policy", "drop-everything"])

    def test_serve_requires_a_store_dir(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve"])
        assert exited.value.code == 2
        assert "--store-dir" in capsys.readouterr().err

    def test_serve_resume_requires_checkpoint(self, tmp_path, capsys):
        assert main(["serve", "--resume",
                     "--store-dir", str(tmp_path / "store")]) == 2
        assert "--resume requires --checkpoint" in (
            capsys.readouterr().err
        )

    def test_serve_subprocess_drains_on_sigterm(self, tmp_path):
        """`repro serve` binds, ingests one socket upload, and a
        SIGTERM drains to a checkpoint and exits zero."""
        import json
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        from repro.serve import SocketTransport
        from repro.serve.harness import synthetic_records

        repo_root = Path(__file__).resolve().parents[1]
        checkpoint = tmp_path / "serve.ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoint", str(checkpoint),
             "--store-dir", str(tmp_path / "store")],
            env=dict(os.environ, PYTHONPATH="src"), cwd=repo_root,
            text=True, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            host, port = line.split()[-1].rsplit(":", 1)
            import zlib

            record = synthetic_records(1, 1)[0]
            payload = zlib.compress(
                json.dumps(record, sort_keys=True,
                           default=str).encode()
            )
            with SocketTransport(host, int(port), sender=1) as channel:
                channel(payload)
        finally:
            proc.send_signal(signal.SIGTERM)
            tail = proc.stdout.read()
            code = proc.wait(timeout=60)
        assert code == 0, tail
        assert "drained=True" in tail
        assert "checkpoint written" in tail
        snapshot = json.loads(checkpoint.read_text())
        assert snapshot["server"]["accepted"] == 1
        assert snapshot["queue"] == []


class TestScrub:
    def _populated_store(self, tmp_path):
        from repro.serve.harness import synthetic_records
        from repro.store import SegmentStore

        store = SegmentStore(tmp_path / "store", seal_records=10)
        for record in synthetic_records(8, 5, seed=3):
            store.append(record)
        store.flush()
        return store

    def test_scrub_defaults(self):
        args = build_parser().parse_args(["scrub", "/tmp/store"])
        assert args.dir == "/tmp/store"
        assert not args.no_repair
        assert not args.strict
        assert args.json is None

    def test_scrub_requires_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scrub"])

    def test_scrub_clean_store(self, tmp_path, capsys):
        store = self._populated_store(tmp_path)
        assert main(["scrub", str(store.root), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "segments verified" in out
        assert "RECORDS LOST" in out

    def test_scrub_repairs_damaged_segment(self, tmp_path, capsys):
        import json

        store = self._populated_store(tmp_path)
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-4] ^= 0x08
        victim.write_bytes(bytes(blob))
        report_path = tmp_path / "scrub.json"
        code = main(["scrub", str(store.root), "--strict",
                     "--json", str(report_path)])
        assert code == 0  # WAL recovery: nothing lost
        report = json.loads(report_path.read_text())
        assert len(report["quarantined"]) == 1
        assert report["lost_keys"] == []
        assert (store.quarantine_dir / victim.name).exists()

    def test_scrub_strict_fails_on_lost_records(self, tmp_path, capsys):
        import json

        from repro.serve.harness import synthetic_records
        from repro.store import SegmentStore
        from tests.store_helpers import drop_wal_of

        # No WAL copy: a damaged segment's records are unrecoverable.
        store = SegmentStore(tmp_path / "store", seal_records=5)
        for record in synthetic_records(5, 5, seed=4):
            store.append(record)
        store.flush()
        victim = sorted(store.segments_dir.glob("*.seg"))[0]
        drop_wal_of(store.journal_path, victim.name)
        blob = bytearray(victim.read_bytes())
        blob[-4] ^= 0x08
        victim.write_bytes(bytes(blob))
        assert main(["scrub", str(store.root), "--no-repair"]) == 0
        err = capsys.readouterr().err
        assert ("record(s) are unrecoverable; a repairing scrub "
                "(without --no-repair) drops their identities from the "
                "store, so a re-upload of any of them is accepted as "
                "new") in err
        report_path = tmp_path / "scrub.json"
        assert main(["scrub", str(store.root),
                     "--json", str(report_path)]) == 0
        err = capsys.readouterr().err
        assert ("record(s) are unrecoverable; their identities have "
                "left the store, so a re-upload of any of them is "
                "accepted as new") in err
        assert "ingest layer" not in err
        # The advice holds: the reopened store no longer owns them.
        lost = json.loads(report_path.read_text())["lost_keys"]
        reopened = SegmentStore(store.root, seal_records=5)
        assert lost and not any(key in reopened for key in lost)
        # Damage again for the strict run (first run repaired).
        store2 = SegmentStore(tmp_path / "store2", seal_records=5)
        for record in synthetic_records(5, 5, seed=6):
            store2.append(record)
        store2.flush()
        victim2 = sorted(store2.segments_dir.glob("*.seg"))[0]
        drop_wal_of(store2.journal_path, victim2.name)
        blob2 = bytearray(victim2.read_bytes())
        blob2[-4] ^= 0x08
        victim2.write_bytes(bytes(blob2))
        assert main(["scrub", str(store2.root), "--strict"]) == 1

    def test_serve_accepts_store_flags(self):
        args = build_parser().parse_args([
            "serve", "--store-dir", "/tmp/s", "--seal-records", "64",
            "--disk-chaos", "0.01", "--disk-chaos-seed", "7",
        ])
        assert args.store_dir == "/tmp/s"
        assert args.seal_records == 64
        assert args.disk_chaos == 0.01
        assert args.disk_chaos_seed == 7
