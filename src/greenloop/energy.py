"""Pipeline energy metering: E = alpha * compute + beta * data transfer.

Every pipeline stage reports processor-seconds and megabytes moved; the
model weights convert both to kWh. The ledger is append-only and keeps
insertion order. This meters the toolkit's own workflow cost, which is a
separate quantity from the facility process energy the digital twin reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class EnergyModel:
    """kWh per processor-second (alpha) and per megabyte moved (beta)."""

    alpha: float = 0.0015
    beta: float = 0.0001

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("energy model weights must be >= 0")


@dataclass(frozen=True)
class StageUsage:
    stage_name: str
    compute_seconds: float = 0.0
    transferred_mb: float = 0.0

    def __post_init__(self):
        if self.compute_seconds < 0 or self.transferred_mb < 0:
            raise ValueError(f"stage {self.stage_name}: usage must be >= 0")


@dataclass(frozen=True)
class EnergyLedger:
    stages: tuple[tuple[StageUsage, float], ...] = ()
    total_kwh: float = 0.0


# The pipeline's stages in run order; the ledger has one entry per stage.
STAGE_ORDER = ("preprocess", "simulate", "optimize", "route", "carbon", "metrics")

# Processor-seconds and megabytes moved per workload unit of each pipeline
# stage: deterministic stand-ins for wall-clock measurement, so the ledger is
# byte-stable across hosts.
UNIT_COSTS = {
    "preprocess": (0.0002, 0.002),
    "simulate": (0.0005, 0.001),
    "optimize": (0.002, 0.0005),
    "route": (0.00005, 0.00001),
    "carbon": (0.0001, 0.0005),
    "metrics": (0.001, 0.01),
}


@dataclass(frozen=True)
class UsagePlan:
    """Energy model plus fixed per-stage usage, for machine-independent runs.

    A stage named in stage_costs reports that usage; any other stage reports
    its UNIT_COSTS times the workload it handled.
    """

    model: EnergyModel
    stage_costs: Mapping[str, StageUsage] = field(default_factory=dict)

    def usage_for(self, stage_name: str, workload: float) -> StageUsage:
        if stage_name in self.stage_costs:
            u = self.stage_costs[stage_name]
            return StageUsage(stage_name, u.compute_seconds, u.transferred_mb)
        seconds, mb = UNIT_COSTS[stage_name]
        return StageUsage(stage_name, seconds * workload, mb * workload)


def energy_of(model: EnergyModel, usage: StageUsage) -> float:
    return model.alpha * usage.compute_seconds + model.beta * usage.transferred_mb


def record_stage(
    ledger: EnergyLedger, model: EnergyModel, usage: StageUsage
) -> EnergyLedger:
    """Append one stage's usage; returns a new ledger, input untouched."""
    kwh = energy_of(model, usage)
    return EnergyLedger(
        stages=ledger.stages + ((usage, kwh),),
        total_kwh=ledger.total_kwh + kwh,
    )


def ledger_to_dict(ledger: EnergyLedger) -> dict:
    return {
        "total_kwh": ledger.total_kwh,
        "stages": [
            {
                "stage": usage.stage_name,
                "compute_seconds": usage.compute_seconds,
                "transferred_mb": usage.transferred_mb,
                "energy_kwh": kwh,
            }
            for usage, kwh in ledger.stages
        ],
    }


def ledger_from_dict(doc: dict) -> EnergyLedger:
    stages = tuple(
        (
            StageUsage(
                stage_name=entry["stage"],
                compute_seconds=entry["compute_seconds"],
                transferred_mb=entry["transferred_mb"],
            ),
            entry["energy_kwh"],
        )
        for entry in doc["stages"]
    )
    return EnergyLedger(stages=stages, total_kwh=doc["total_kwh"])
