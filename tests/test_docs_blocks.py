"""Documentation code blocks must stay truthful (tools/check_doc_blocks).

Every fenced ``python`` block in README.md and docs/*.md that mentions
``repro`` must compile, and its ``repro`` imports must resolve — so an
API rename cannot silently strand the docs.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_doc_blocks  # noqa: E402


def test_all_doc_blocks_pass():
    failures = []
    for path in check_doc_blocks.default_paths():
        failures.extend(check_doc_blocks.check_file(path))
    assert failures == []


def test_checker_catches_broken_import(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "```python\nfrom repro import DoesNotExist\n```\n",
        encoding="utf-8",
    )
    failures = check_doc_blocks.check_file(doc)
    assert len(failures) == 1
    assert "import fails" in failures[0]


def test_checker_catches_syntax_error(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "```python\nfrom repro import (\n```\n",
        encoding="utf-8",
    )
    failures = check_doc_blocks.check_file(doc)
    assert len(failures) == 1
    assert "does not compile" in failures[0]


def test_plain_fences_ignored(tmp_path):
    doc = tmp_path / "ok.md"
    doc.write_text(
        "```\nrepro ascii diagram --not-a-flag\n```\n",
        encoding="utf-8",
    )
    assert check_doc_blocks.check_file(doc) == []


def test_cli_check_catches_unknown_flag(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "```bash\npython -m repro study --nonsense\n```\n",
        encoding="utf-8",
    )
    failures = check_doc_blocks.check_file(doc)
    assert len(failures) == 1
    assert "CLI invocation does not parse" in failures[0]
    assert "--nonsense" in failures[0]


def test_cli_check_catches_unknown_subcommand(tmp_path):
    doc = tmp_path / "bad.md"
    doc.write_text(
        "```console\n$ repro sturdy --devices 5\n```\n",
        encoding="utf-8",
    )
    failures = check_doc_blocks.check_file(doc)
    assert len(failures) == 1
    assert "sturdy" in failures[0]


def test_cli_check_accepts_real_invocations(tmp_path):
    doc = tmp_path / "ok.md"
    doc.write_text(
        "```bash\n"
        "$ PYTHONPATH=src python -m repro study --devices 2000 \\\n"
        "      --workers 4 --engine batch --save study.jsonl.gz\n"
        "repro analyze study.jsonl.gz | head\n"
        "python -m repro serve --store-dir store --checkpoint serve.ckpt "
        "--resume\n"
        "python benchmarks/bench_parallel.py --devices 10  # not repro\n"
        "```\n",
        encoding="utf-8",
    )
    assert check_doc_blocks.check_file(doc) == []


def test_cli_check_skips_usage_synopses(tmp_path):
    doc = tmp_path / "ok.md"
    doc.write_text(
        "```bash\npython -m repro study [--devices N] [--seed S]\n```\n",
        encoding="utf-8",
    )
    assert check_doc_blocks.check_file(doc) == []


def test_extract_cli_args_shapes():
    extract = check_doc_blocks.extract_cli_args
    assert extract("$ repro study --devices 5 > out.txt") == [
        "study", "--devices", "5"]
    assert extract("FOO=1 python -m repro ab --seed 2 && echo done") == [
        "ab", "--seed", "2"]
    assert extract("echo repro study") is None
    assert extract("python -m repro study [--devices N]") is None
