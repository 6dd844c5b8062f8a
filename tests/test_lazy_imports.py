"""Cold start: the serve / scrub closure imports only what it runs, and
the packages' flat exports resolve lazily to the same objects."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and their submodules) a ``repro serve`` / ``scrub`` /
#: ``query`` process never runs, so must never import.
SIMULATOR_ONLY = (
    "scipy",
    "repro.fleet",
    "repro.core.study",
    "repro.parallel",
    "repro.monitoring",
    "repro.android",
    "repro.network",
)

LAZY_PACKAGES = ("repro", "repro.chaos", "repro.dataset", "repro.analysis")


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(prefixes) -> str:
    return (f"sorted(m for m in sys.modules if any(m == p or "
            f"m.startswith(p + '.') for p in {tuple(prefixes)!r}))")


def test_serve_closure_and_scrub_import_no_simulator(tmp_path):
    result = _run(f"""
import json, sys
import repro.cli, repro.serve, repro.store
imported = {_loaded(SIMULATOR_ONLY)}
code = repro.cli.main(["scrub", sys.argv[1]])
print(json.dumps({{"code": code, "imported": imported,
                  "after_scrub": {_loaded(SIMULATOR_ONLY)}}}))
""", str(tmp_path / "store"))
    assert result["code"] == 0
    assert result["imported"] == []
    assert result["after_scrub"] == []


def test_packages_import_none_of_their_lazy_modules():
    """... and ``dir()`` lists every export before any is resolved."""
    lazy = ("repro.core", "repro.chaos.pipeline", "repro.chaos.transport",
            "repro.dataset.store", "repro.dataset.aggregate",
            "repro.analysis.stats", "repro.analysis.isp_bs",
            "repro.analysis.evaluation") + SIMULATOR_ONLY
    packages = ", ".join(LAZY_PACKAGES)
    result = _run(f"""
import json, sys
import {packages}
unlisted = [(p.__name__, n) for p in ({packages}) for n in p.__all__
            if n not in dir(p)]
print(json.dumps({{"loaded": {_loaded(lazy)}, "unlisted": unlisted}}))
""")
    assert result == {"loaded": [], "unlisted": []}


def test_shadowing_names_stay_functions_in_a_fresh_interpreter():
    """``reconcile`` and ``columnar`` share a name with their own
    submodules; importing the submodule first must not win."""
    result = _run("""
import json
import repro.chaos.reconcile, repro.analysis.columnar
from repro.chaos import reconcile
from repro.analysis import columnar
print(json.dumps([type(reconcile).__name__, type(columnar).__name__]))
""")
    assert result == ["function", "function"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        if name == "__version__":
            continue
        value = getattr(module, name)
        defining = sys.modules[value.__module__]
        assert value is getattr(defining, name), (package, name)
        assert name in dir(module), (package, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export  # noqa: B018
    assert not hasattr(module, "no_such_export")


def test_from_import_keeps_working():
    from repro import FleetSimulator, NationwideStudy, __version__
    from repro.fleet.simulator import FleetSimulator as defining

    assert FleetSimulator is defining
    assert NationwideStudy.__name__ == "NationwideStudy"
    assert __version__
