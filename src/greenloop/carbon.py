"""Lifecycle carbon accounting: total CO2 as emission factor times activity.

A factor registry maps each process to one kg-CO2-per-unit coefficient and
a lifecycle stage; an activity ledger holds the units performed. Reports
break the total down by process and by stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import DuplicateFactor, MissingFactor

LIFECYCLE_STAGES = ("collection", "transport", "processing", "recovery", "disposal")


@dataclass(frozen=True)
class EmissionFactor:
    """kg CO2 emitted per unit of activity in one process."""

    id: str
    process_id: str
    e: float
    stage: str

    def __post_init__(self):
        if self.e < 0:
            raise ValueError(f"emission factor {self.id}: e must be >= 0, got {self.e}")
        if self.stage not in LIFECYCLE_STAGES:
            raise ValueError(
                f"emission factor {self.id}: unknown stage {self.stage!r}"
            )


@dataclass(frozen=True)
class ActivityLedger:
    """Units of activity performed per process (kg processed, km driven...)."""

    entries: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for pid, f in self.entries.items():
            if f < 0:
                raise ValueError(f"activity for {pid} must be >= 0, got {f}")


@dataclass(frozen=True)
class CarbonReport:
    total_kg: float
    by_stage: Mapping[str, float]
    by_process: Mapping[str, float]


def _index_factors(factors: Iterable[EmissionFactor]) -> dict[str, EmissionFactor]:
    by_process: dict[str, EmissionFactor] = {}
    for f in factors:
        if f.process_id in by_process:
            raise DuplicateFactor(
                f"process {f.process_id!r} has factors "
                f"{by_process[f.process_id].id!r} and {f.id!r}"
            )
        by_process[f.process_id] = f
    return by_process


def carbon_footprint(
    factors: Iterable[EmissionFactor], ledger: ActivityLedger
) -> CarbonReport:
    """Sum emission-factor times activity-level over every ledger process."""
    registry = _index_factors(factors)
    by_process: dict[str, float] = {}
    by_stage: dict[str, float] = {}
    for pid in sorted(ledger.entries):
        if pid not in registry:
            raise MissingFactor(f"no emission factor for process {pid!r}")
        factor = registry[pid]
        kg = factor.e * ledger.entries[pid]
        by_process[pid] = kg
        by_stage[factor.stage] = by_stage.get(factor.stage, 0.0) + kg
    total = sum(by_process.values())
    return CarbonReport(total_kg=total, by_stage=by_stage, by_process=by_process)

