"""Record schemas for the collected dataset.

The backend receives three record streams from the fleet:

* :class:`DeviceRecord` — one per opt-in device, with its hardware model
  attributes and its per-(RAT, level) connected-time exposure (needed by
  the *normalized* prevalence of Figs. 15-16);
* :class:`FailureRecord` — one per true failure event, carrying the
  in-situ context Android-MOD records (Sec. 2.2);
* :class:`TransitionRecord` — one per RAT-transition decision, used by
  Fig. 17 and by the A/B evaluation of the stability-compatible policy.

Records are slotted dataclasses: a nationwide run holds hundreds of
thousands of them in memory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

#: Evaluation arm labels.
ARM_VANILLA = "vanilla"
ARM_PATCHED = "patched"


def record_identity(data: dict) -> str:
    """Content hash identifying one record across retried uploads.

    The device-side spooler stamps every payload with this key and the
    backend deduplicates on it, so the two ends of a lossy transport
    agree on what "the same record" means without a shared counter.
    """
    blob = json.dumps(
        {key: data[key] for key in sorted(data)},
        sort_keys=True, default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _flat_dict(record) -> dict:
    """``dataclasses.asdict`` for a slotted record of flat scalars:
    same keys, order and values, without its deep-copying walk."""
    return {name: getattr(record, name) for name in record.__slots__}


@dataclass(slots=True)
class DeviceRecord:
    """One opt-in device."""

    device_id: int
    model: int
    android_version: str
    has_5g: bool
    isp: str
    arm: str = ARM_VANILLA
    #: Connected seconds by (RAT label, signal level), e.g. ("4G", 3).
    exposure_s: dict = field(default_factory=dict)

    @property
    def total_connected_s(self) -> float:
        return sum(self.exposure_s.values())

    def to_dict(self) -> dict:
        data = asdict(self)
        data["exposure_s"] = {
            f"{rat}:{level}": seconds
            for (rat, level), seconds in self.exposure_s.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceRecord":
        exposure = {}
        for key, seconds in data.get("exposure_s", {}).items():
            rat, level = key.rsplit(":", 1)
            exposure[(rat, int(level))] = seconds
        return cls(
            device_id=data["device_id"],
            model=data["model"],
            android_version=data["android_version"],
            has_5g=data["has_5g"],
            isp=data["isp"],
            arm=data.get("arm", ARM_VANILLA),
            exposure_s=exposure,
        )


@dataclass(slots=True)
class FailureRecord:
    """One true (filter-surviving) cellular failure."""

    device_id: int
    model: int
    android_version: str
    has_5g: bool
    isp: str
    failure_type: str
    start_time: float
    duration_s: float
    bs_id: int
    rat: str  # "2G".."5G"
    signal_level: int  # 0..5
    deployment: str
    error_code: str | None = None
    #: Recovery resolver for Data_Stall records (see android.recovery).
    resolved_by: int | None = None
    stages_executed: int = 0
    #: True when the failure followed a RAT transition.
    post_transition: bool = False
    arm: str = ARM_VANILLA

    def to_dict(self) -> dict:
        return _flat_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        return cls(**data)


@dataclass(slots=True)
class BaseStationRecord:
    """One BS of the topology inventory (the Fig. 14 denominator)."""

    bs_id: int
    isp: str
    rats: tuple[str, ...]  # supported generations, e.g. ("2G", "4G")
    deployment: str

    def to_dict(self) -> dict:
        data = asdict(self)
        data["rats"] = list(self.rats)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BaseStationRecord":
        return cls(
            bs_id=data["bs_id"],
            isp=data["isp"],
            rats=tuple(data["rats"]),
            deployment=data["deployment"],
        )


@dataclass(slots=True)
class TransitionRecord:
    """One RAT-transition decision and its aftermath."""

    device_id: int
    from_rat: str
    from_level: int
    to_rat: str
    to_level: int
    #: False when the policy vetoed the move (device stayed put).
    executed: bool
    #: Whether a failure occurred in the post-decision window.
    failed_after: bool
    arm: str = ARM_VANILLA

    def to_dict(self) -> dict:
        return _flat_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TransitionRecord":
        return cls(**data)
