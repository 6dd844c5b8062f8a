"""The checkpointed scenario-sweep runner.

``run_sweep`` fans a list of validated packs through the shard
supervisor — **one fingerprint-keyed, checkpointed run per pack** —
then folds every pack's exact ``metadata["analysis"]`` block into the
cross-scenario comparison table and landscape report of
:mod:`repro.analysis.landscape`.

Layout of a sweep output directory::

    <out>/landscape.md            the rendered landscape report
    <out>/landscape.json          its JSON twin
    <out>/packs/<name>/result.json     deterministic pack result
    <out>/packs/<name>/metrics.json    deterministic obs snapshot
    <out>/packs/<name>/execution.json  volatile timing/supervision
    <out>/packs/<name>/checkpoint/     the engine's shard spool

Durability contract (the ``sweep-smoke`` CI job): ``result.json`` is
written atomically and carries the pack's content fingerprint.  A
sweep killed mid-flight and restarted with ``resume=True``

* **skips** every pack whose ``result.json`` is complete and matches
  the current fingerprint (its stored result is reused verbatim — the
  simulation never reruns),
* **resumes** the in-flight pack from its shard checkpoints, and
* produces ``landscape.md`` / ``landscape.json`` / ``result.json``
  files byte-identical to an undisturbed control sweep — every
  deterministic output excludes wall-clock data, which lives in
  ``execution.json`` only.

Editing a pack changes its fingerprint; a resumed sweep then reruns
that pack from scratch instead of serving stale results.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace
from pathlib import Path

from repro.analysis.columnar import analysis_summary
from repro.analysis.landscape import (
    ScenarioRow,
    comparison_table,
    render_scenario_landscape,
    scenario_landscape_dict,
    scenario_row,
)
from repro.chaos.disk import DiskIO
from repro.fleet.simulator import FleetSimulator
from repro.parallel.checkpoint import CheckpointMismatchError
from repro.scenarios.pack import PackError, ScenarioPack

#: Bumped when the result.json layout changes incompatibly.
RESULT_FORMAT = 1

STATUS_RAN = "ran"
STATUS_SKIPPED = "skipped"
STATUS_RERUN = "rerun (pack changed)"


@dataclasses.dataclass(frozen=True)
class PackOutcome:
    """What happened to one pack during a sweep."""

    pack: ScenarioPack
    status: str
    payload: dict
    pack_dir: Path


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Everything one sweep produced."""

    out_dir: Path
    outcomes: list[PackOutcome]
    table: str
    report_md_path: Path
    report_json_path: Path

    @property
    def skipped(self) -> list[str]:
        return [outcome.pack.name for outcome in self.outcomes
                if outcome.status == STATUS_SKIPPED]

    @property
    def ran(self) -> list[str]:
        return [outcome.pack.name for outcome in self.outcomes
                if outcome.status != STATUS_SKIPPED]


def _write_text(path: Path, text: str) -> None:
    """Readers (and a resumed sweep) see old or new, never half."""
    DiskIO().write_atomic(path, text.encode("utf-8"))


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_result(path: Path) -> dict | None:
    """A complete stored pack result, or None (absent/torn/foreign)."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or not payload.get("complete"):
        return None
    if payload.get("format") != RESULT_FORMAT:
        return None
    return payload


def _check_packs(packs: list[ScenarioPack]) -> None:
    if not packs:
        raise PackError("a sweep needs at least one pack")
    seen: dict[str, ScenarioPack] = {}
    for pack in packs:
        other = seen.get(pack.name)
        if other is not None:
            raise PackError(
                f"duplicate pack name {pack.name!r} "
                f"(also defined in {other.source or 'a dict pack'}); "
                "pack names key output directories and report rows",
                source=pack.source,
            )
        seen[pack.name] = pack


def _run_pack(pack: ScenarioPack, pack_dir: Path, *,
              workers: int | None, shards: int | None,
              engine_resume: bool) -> dict:
    """Simulate one pack through the checkpointed sharded engine."""
    scenario = replace(pack.scenario, metrics=True)
    effective_workers = pack.workers or workers or 1
    effective_shards = pack.shards or shards
    simulator = FleetSimulator(scenario)
    checkpoint_dir = pack_dir / "checkpoint"
    try:
        dataset = simulator.run(
            workers=effective_workers,
            n_shards=effective_shards,
            checkpoint_dir=checkpoint_dir,
            resume=engine_resume and checkpoint_dir.exists(),
        )
    except CheckpointMismatchError:
        # The shard spool belongs to an older version of this pack
        # (edited mid-sweep): restart the pack from scratch.
        dataset = simulator.run(
            workers=effective_workers,
            n_shards=effective_shards,
            checkpoint_dir=checkpoint_dir,
            resume=False,
        )

    metrics = dataset.metadata.get("metrics") or {}
    payload = {
        "format": RESULT_FORMAT,
        "complete": True,
        "fingerprint": pack.fingerprint(),
        "pack": pack.data,
        "record_digest": dataset.record_digest(),
        "analysis": dataset.metadata["analysis"],
        "summary": analysis_summary(dataset.metadata["analysis"]),
        "counters": dict(metrics.get("counters") or {}),
        "telemetry": dataset.metadata.get("telemetry"),
        "workers": effective_workers,
        "engine": scenario.engine,
    }
    # Wall-clock facts are real but non-deterministic; they live in a
    # separate file so every byte of result.json is reproducible.
    execution = dataset.metadata.get("execution")
    if execution is not None:
        _write_text(pack_dir / "execution.json",
                    _dump({"execution": execution}))
    _write_text(pack_dir / "metrics.json", _dump(metrics))
    _write_text(pack_dir / "result.json", _dump(payload))
    return payload


def _row_for(pack: ScenarioPack, payload: dict) -> ScenarioRow:
    return scenario_row(
        pack.name,
        payload["analysis"],
        description=pack.description,
        arm=pack.scenario.arm,
        engine=payload.get("engine", pack.scenario.engine),
        tags=pack.tags,
        counters=payload.get("counters") or {},
        telemetry=payload.get("telemetry"),
    )


def run_sweep(
    packs: list[ScenarioPack],
    out_dir: str | Path,
    *,
    workers: int | None = None,
    shards: int | None = None,
    resume: bool = False,
    progress=None,
) -> SweepResult:
    """Run every pack and render the cross-scenario landscape.

    ``workers`` / ``shards`` are sweep-wide defaults; a pack's own
    ``run.workers`` / ``run.shards`` override them.  With ``resume``,
    packs whose stored result matches their current fingerprint are
    skipped (their results reused byte-identically) and the in-flight
    pack continues from its shard checkpoints.
    """
    _check_packs(packs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda message: None)

    outcomes: list[PackOutcome] = []
    for index, pack in enumerate(packs, start=1):
        pack_dir = out_dir / "packs" / pack.name
        fingerprint = pack.fingerprint()
        stored = _load_result(pack_dir / "result.json")
        prefix = f"[{index}/{len(packs)}] {pack.name}"
        if stored is not None and resume:
            if stored.get("fingerprint") == fingerprint:
                say(f"{prefix}: skipped (complete, fingerprint "
                    f"{fingerprint[:12]})")
                outcomes.append(PackOutcome(pack, STATUS_SKIPPED,
                                            stored, pack_dir))
                continue
            say(f"{prefix}: pack changed since the stored result — "
                "rerunning")
            payload = _run_pack(pack, pack_dir, workers=workers,
                                shards=shards, engine_resume=False)
            outcomes.append(PackOutcome(pack, STATUS_RERUN, payload,
                                        pack_dir))
            continue
        say(f"{prefix}: running ({pack.scenario.n_devices} devices, "
            f"engine {pack.scenario.engine})")
        payload = _run_pack(pack, pack_dir, workers=workers,
                            shards=shards, engine_resume=resume)
        outcomes.append(PackOutcome(pack, STATUS_RAN, payload,
                                    pack_dir))

    rows = [_row_for(outcome.pack, outcome.payload)
            for outcome in outcomes]
    table = comparison_table(rows)
    report_md = out_dir / "landscape.md"
    report_json = out_dir / "landscape.json"
    _write_text(report_md, render_scenario_landscape(rows))
    _write_text(report_json, _dump(scenario_landscape_dict(rows)))
    say(f"landscape report: {report_md} (+ {report_json.name})")
    return SweepResult(
        out_dir=out_dir,
        outcomes=outcomes,
        table=table,
        report_md_path=report_md,
        report_json_path=report_json,
    )
