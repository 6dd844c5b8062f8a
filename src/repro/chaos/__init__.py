"""Chaos engineering for the telemetry pipeline (device -> backend).

The paper's backend ingested 2.32B failure events from 70M devices over
flaky cellular/WiFi links; this package makes the reproduction's upload
path earn the same robustness.  :class:`ChaosConfig` describes the
faults, :class:`ChaosTransport` injects them between the device spooler
and :class:`~repro.backend.ingest.IngestionServer`, and
:func:`reconcile` proves afterwards that every missing record is
explained by an explicit loss channel.

The disk and reconcile names are imported eagerly: the store and serve
paths load both modules anyway, and ``reconcile`` must shadow its own
submodule.  The rest (the in-process pipeline pulls in the uploader)
resolve on first access.
"""

from repro._lazy import lazy_exports
from repro.chaos.disk import (
    DiskChaos,
    DiskChaosConfig,
    DiskIO,
    SimulatedCrash,
)
from repro.chaos.reconcile import (
    DiskReconciliationReport,
    ReconciliationReport,
    reconcile,
    reconcile_disk,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.chaos.config": ("ChaosConfig",),
    "repro.chaos.pipeline": ("TelemetryRunResult", "run_telemetry_pipeline"),
    "repro.chaos.transport": (
        "BackendUnavailable",
        "ChaosTransport",
        "ChaosTransportError",
        "PayloadDropped",
        "mangle",
    ),
})

__all__ = [
    "BackendUnavailable",
    "ChaosConfig",
    "ChaosTransport",
    "ChaosTransportError",
    "DiskChaos",
    "DiskChaosConfig",
    "DiskIO",
    "DiskReconciliationReport",
    "PayloadDropped",
    "ReconciliationReport",
    "SimulatedCrash",
    "TelemetryRunResult",
    "mangle",
    "reconcile",
    "reconcile_disk",
    "run_telemetry_pipeline",
]
