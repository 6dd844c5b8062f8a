"""Self-tests of the end-to-end benchmark's own plumbing.

Run by path (``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from bench_harness import JournalTail, percentile  # noqa: E402
from bench_workloads import (  # noqa: E402
    dense_records,
    records_digest,
    sparse_records,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def journal_bytes() -> tuple[bytes, int]:
    lines = [
        json.dumps({"op": "wal", "key": f"k{i}",
                    "data": {"note": 'an "op": "commit" inside'}})
        if i % 3 else json.dumps({"op": "commit", "keys": ["wal"]})
        for i in range(12)
    ]
    return ("\n".join(lines) + "\n").encode(), sum(
        1 for i in range(12) if i % 3)


def test_journal_tail_counts_across_every_split_offset():
    blob, expected = journal_bytes()
    for cut in range(len(blob) + 1):
        tail = JournalTail(Path("unused"))
        tail.feed(blob[:cut])
        tail.feed(blob[cut:])
        assert tail.count == expected, cut


def test_journal_tail_ignores_an_unfinished_last_line(tmp_path):
    blob, expected = journal_bytes()
    tail = JournalTail(tmp_path)
    assert tail.poll() == 0  # no journal yet
    tail.path.write_bytes(blob + b'{"op": "wal", "key": "torn')
    assert tail.poll() == expected
    with open(tail.path, "ab") as handle:
        handle.write(b'"}\n')
    assert tail.poll() == expected + 1
    tail.close()


@pytest.mark.parametrize("generate", [dense_records, sparse_records])
def test_generators_are_a_function_of_the_seed(generate):
    first = records_digest(generate(7, 300))
    assert first == records_digest(generate(7, 300))
    assert first != records_digest(generate(2020, 300))


def test_percentile_refuses_p90_under_100_samples():
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 0.9)
    # Nearest rank: the 90th of 100, with exactly ten beyond it.
    assert percentile([float(i) for i in range(100)], 0.9) == 89.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(999)], 0.99)


def test_benchmark_json_names_and_shape():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    names = [entry["name"] for key in
             ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in names
    # 0.25 is the most the benchmark's contract lets a bound be.
    assert all(0 < entry["bound"] <= 0.25
               for entry in SPEC["end_to_end"])


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_declared_metric(trace):
    declared = {entry["name"]: entry["unit"] for entry in
                SPEC["per_layer" if trace else "end_to_end"]}
    for workload in SPEC["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--quick",
             "--workload", workload["name"], "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: entry["unit"] for name, entry
                in result["metrics"].items()} == declared
        if not trace:  # an end-to-end metric is never 0
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())
    assert not list((HERE / "out").glob("run-*"))
    if trace:  # one span file, an entry per workload
        traced = json.loads((HERE / "out" / "trace.json").read_text())
        assert {entry["name"] for entry in SPEC["workloads"]} <= set(traced)
