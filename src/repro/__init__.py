"""Reproduction of *A Nationwide Study on Cellular Reliability:
Measurement, Analysis, and Enhancements* (SIGCOMM 2021).

The library rebuilds the paper's entire stack over simulated substrates:
the Android telephony mechanisms it studies (:mod:`repro.android`), the
Android-MOD monitoring infrastructure (:mod:`repro.monitoring`), the
radio / cellular-network / device-netstack substrates (:mod:`repro.radio`,
:mod:`repro.network`, :mod:`repro.netstack`), a calibrated nationwide
device fleet (:mod:`repro.fleet`), the full analysis pipeline
(:mod:`repro.analysis`), and the two deployed enhancements — the
Stability-Compatible RAT Transition policy and the TIMP-based flexible
Data_Stall recovery (:mod:`repro.timp`).

Quickstart::

    from repro import NationwideStudy, smoke_scenario

    study = NationwideStudy(scenario=smoke_scenario())
    result = study.run()
    print(result.render())

The flat exports below are lazy (PEP 562): ``from repro import X``
works as always, but imports ``X``'s defining module only when ``X``
is first used.  ``import repro.serve`` or ``repro scrub`` therefore
loads the serve / store closure alone, never the fleet simulator,
scipy or the sharded engine.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.chaos.config": ("ChaosConfig",),
    "repro.chaos.reconcile": ("ReconciliationReport",),
    "repro.chaos.pipeline": ("run_telemetry_pipeline",),
    "repro.core.study": (
        "NationwideStudy",
        "StudyResult",
        "run_ab_evaluation",
    ),
    "repro.core.enhancements": ("FittedEnhancements", "fit_enhancements"),
    "repro.core.events": ("FailureType",),
    "repro.fleet.scenario": (
        "ScenarioConfig",
        "default_scenario",
        "full_scenario",
        "smoke_scenario",
    ),
    "repro.fleet.simulator": ("FleetSimulator",),
    "repro.dataset.store": ("Dataset", "load_dataset", "save_dataset"),
    "repro.analysis.evaluation": ("ABEvaluation", "evaluate_ab"),
    "repro.parallel.sharding": ("ShardSpec", "shard_bounds"),
    "repro.parallel.stats": ("ShardStats",),
    "repro.parallel.engine": ("run_sharded",),
})

__all__ = [
    "NationwideStudy",
    "StudyResult",
    "run_ab_evaluation",
    "FittedEnhancements",
    "fit_enhancements",
    "FailureType",
    "ChaosConfig",
    "ReconciliationReport",
    "run_telemetry_pipeline",
    "ScenarioConfig",
    "smoke_scenario",
    "default_scenario",
    "full_scenario",
    "FleetSimulator",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "ABEvaluation",
    "evaluate_ab",
    "ShardSpec",
    "ShardStats",
    "run_sharded",
    "shard_bounds",
    "__version__",
]
