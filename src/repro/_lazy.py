"""Lazy package exports (PEP 562).

A package's flat names resolve on first access instead of at import,
so ``import repro.store`` does not pay for the fleet simulator that
``from repro import FleetSimulator`` needs::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.fleet.simulator": ("FleetSimulator",),
    })

The resolved object is cached in the package namespace, so the second
access is a plain attribute lookup.  A name that also names a
submodule (``repro.chaos.reconcile``) must stay an eager import: once
the submodule is imported, the import system binds it as a package
attribute and the lazy hook is never asked.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for a package whose ``exports`` map
    each defining module to the names re-exported from it."""
    package = namespace["__name__"]
    source = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
