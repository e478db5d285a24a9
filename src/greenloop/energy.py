"""Pipeline energy metering: E = alpha * compute + beta * data transfer.

Every pipeline stage reports processor-seconds and megabytes moved; the
model weights convert both to kWh. meter books one ledger entry per stage
of STAGE_ORDER: the model's stage_costs where it names the stage, else
UNIT_COSTS times the stage's workload. This meters the toolkit's own
workflow cost, a separate quantity from the twin's facility energy.

meter refuses a ledger that is not finite, so no run writes one.
`greenloop validate` meters each mode's planned workload
(pipeline.planned_workload: the part a scenario states before any stage
runs), a lower bound on the run's; of the facility's steps it counts the
whole throughput chunks of the unjittered cell mass, at one step each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ValidationError


@dataclass(frozen=True)
class EnergyModel:
    """kWh per processor-second (alpha) and per MB moved (beta); fixed stage usage."""

    alpha: float = 0.0015
    beta: float = 0.0001
    stage_costs: Mapping[str, StageUsage] = field(default_factory=dict)

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


def energy_of(model: EnergyModel, usage: StageUsage) -> float:
    return model.alpha * usage.compute_seconds + model.beta * usage.transferred_mb


def meter(model: EnergyModel, workload: Mapping[str, float]) -> EnergyLedger:
    """The ledger of a run whose stages handled workload[stage] units each.

    Raises ValidationError naming the first stage whose kWh, or the
    running total through it, is not finite.
    """
    stages = []
    total_kwh = 0.0
    for stage in STAGE_ORDER:
        if stage in model.stage_costs:
            fixed = model.stage_costs[stage]
            usage = StageUsage(stage, fixed.compute_seconds, fixed.transferred_mb)
        else:
            seconds, mb = UNIT_COSTS[stage]
            usage = StageUsage(stage, seconds * workload[stage], mb * workload[stage])
        kwh = energy_of(model, usage)
        stages.append((usage, kwh))
        total_kwh += kwh
        if not math.isfinite(total_kwh):
            raise _overflow(model, workload, usage, kwh, total_kwh)
    return EnergyLedger(stages=tuple(stages), total_kwh=total_kwh)


def _overflow(
    model: EnergyModel, workload: Mapping[str, float], usage: StageUsage,
    kwh: float, total_kwh: float,
) -> ValidationError:
    stage = usage.stage_name
    if math.isfinite(kwh):
        return ValidationError(
            f"stage energy sums to {total_kwh} kWh through stage {stage!r}", locus="energy_model"
        )
    if stage in model.stage_costs:
        return ValidationError(
            f"fixed usage of stage {stage!r} prices to {kwh} kWh",
            locus=f"energy_model.stage_costs[{stage!r}]",
        )
    return ValidationError(
        f"stage {stage!r} prices to {kwh} kWh: {usage.compute_seconds:g} compute-seconds "
        f"and {usage.transferred_mb:g} MB for a workload of {workload[stage]:g} units",
        locus="energy_model",
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
