"""Smoke tests: every example script runs end to end.

Each example is executed as a subprocess with a small fleet, the way a
downstream user would run it.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2_000:]
    return result.stdout


def test_quickstart(tmp_path):
    output = run_example("quickstart.py", "150")
    assert "Table 1" in output
    assert "5G vs non-5G" in output


def test_stall_diagnosis():
    output = run_example("stall_diagnosis.py")
    assert "vanilla Android (60/60/60 s)" in output
    assert "TIMP trigger (21/6/16 s)" in output
    assert "SYSTEM_SIDE_FAULT" in output


def test_enhancement_ab():
    output = run_example("enhancement_ab.py", "150")
    assert "frequency reduction" in output
    assert "Paper anchors" in output


def test_rat_policy_playground():
    output = run_example("rat_policy_playground.py")
    assert "level-0 5G" in output
    assert "stability-compatible    : 0.0%" in output


def test_backend_pipeline():
    output = run_example("backend_pipeline.py", "120")
    assert "accepted=" in output
    assert "identical to the offline analysis block" in output
    assert "lossy transport" in output
    assert "UNEXPLAINED" in output


def test_render_figures(tmp_path):
    output = run_example("render_figures.py", "150", str(tmp_path))
    assert "figures in" in output
    svgs = list(tmp_path.glob("*.svg"))
    assert len(svgs) >= 15


@pytest.mark.slow
def test_timp_fitting():
    output = run_example("timp_fitting.py", timeout=420)
    assert "Annealed probations" in output
    assert "Monte-Carlo validation" in output
