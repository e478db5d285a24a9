"""Seeded facility and smart-bin simulators.

The recycling side is a station-pipeline mass-flow model: battery-cell
materials are pooled, perturbed by a small seeded composition jitter, and
pushed through the stations in declared order in throughput-sized chunks.
Each station recovers a per-element fraction of what reaches it, loses a
fraction, and forwards the rest; energy accrues per kilogram handled.
Because every transfer is linear, element recovery rates depend only on
the station coefficients, never on the jitter draw.

The bin side generates labeled sensor events: per time step each bin's
fill level rises by a seeded increment and one deposit event is emitted,
with the true category drawn from the configured mix and the six sensor
readings drawn around that category's means.

Both simulators derive child seeds from the scenario seed, so they are
independently reproducible within one scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .carbon import ActivityLedger
from .classify import FEATURES, WASTE_CATEGORIES
from .errors import NoGraph, StepBudgetExceeded

if TYPE_CHECKING:
    from .scenario import ScenarioSpec

ELEMENTS = ("cobalt", "lithium", "nickel", "other")
JITTER_AMPLITUDE = 0.05
# Most throughput-sized chunks one facility run may take. Every step keeps a
# TraceStep per station, so the budget bounds time and memory alike; the
# bundled battery fixtures take 30.
MAX_FACILITY_STEPS = 100_000


@dataclass(frozen=True)
class Station:
    id: str
    recovery_efficiency: Mapping[str, float]
    energy_kwh_per_kg: float
    loss_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise ValueError(f"station {self.id}: loss_fraction must be in [0, 1]")
        if self.energy_kwh_per_kg < 0:
            raise ValueError(f"station {self.id}: energy_kwh_per_kg must be >= 0")
        for el, eff in self.recovery_efficiency.items():
            if not 0.0 <= eff <= 1.0:
                raise ValueError(f"station {self.id}: efficiency[{el}] must be in [0, 1]")
            if eff + self.loss_fraction > 1.0 + 1e-12:
                raise ValueError(
                    f"station {self.id}: recovery + loss exceeds 1 for {el}"
                )


@dataclass(frozen=True)
class FacilityModel:
    stations: tuple[Station, ...]
    throughput_kg_per_step: float

    def __post_init__(self):
        if self.throughput_kg_per_step <= 0:
            raise ValueError("throughput_kg_per_step must be > 0")
        ids = [st.id for st in self.stations]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate station ids")


@dataclass(frozen=True)
class TraceStep:
    step: int
    station_id: str
    input_kg: float
    recovered: Mapping[str, float]
    lost_kg: float
    energy_kwh: float


@dataclass(frozen=True)
class SimulationTrace:
    steps: tuple[TraceStep, ...]
    recovered_totals: Mapping[str, float]
    residual_kg: float
    activity_ledger: ActivityLedger
    rng_seed_used: int
    input_totals: Mapping[str, float]
    lost_totals: Mapping[str, float]
    residual_by_element: Mapping[str, float]

    @property
    def energy_kwh(self) -> float:
        return sum(ev.energy_kwh for ev in self.steps)


@dataclass(frozen=True)
class BinEvent:
    time_step: int
    bin_id: str
    fill_level: float
    sensor_record: Mapping[str, float]
    true_label: str


@dataclass(frozen=True)
class BinEventStream:
    events: tuple[BinEvent, ...]


@dataclass(frozen=True)
class WasteStreamConfig:
    """Deposit mix and sensor distributions for the bin generator."""

    category_mix: Mapping[str, float]
    fill_increment_mean: float
    fill_increment_std: float
    feature_means: Mapping[str, Mapping[str, float]]
    feature_stds: Mapping[str, float]

    def __post_init__(self):
        total = sum(self.category_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"category_mix sums to {total}, expected 1")
        for cat, p in self.category_mix.items():
            if p < 0:
                raise ValueError(f"category_mix[{cat}] must be >= 0")
            if cat not in self.feature_means:
                raise ValueError(f"feature_means missing category {cat!r}")
        for cat, means in self.feature_means.items():
            missing = [f for f in FEATURES if f not in means]
            if missing:
                raise ValueError(f"feature_means[{cat}] missing {missing}")
        for f in FEATURES:
            if f not in self.feature_stds:
                raise ValueError(f"feature_stds missing {f!r}")
            if self.feature_stds[f] <= 0:
                raise ValueError(f"feature_stds[{f}] must be > 0")
        if self.fill_increment_mean < 0 or self.fill_increment_std < 0:
            raise ValueError("fill increment parameters must be >= 0")


DEFAULT_WASTE_STREAM = WasteStreamConfig(
    category_mix={"glass": 0.15, "metal": 0.20, "organic": 0.25, "plastic": 0.40},
    fill_increment_mean=0.04,
    fill_increment_std=0.015,
    feature_means={
        "glass": {
            "weight_kg": 1.15, "metal_response": 0.15, "moisture": 0.15,
            "opacity": 0.20, "rigidity": 0.90, "volume_l": 1.0,
        },
        "metal": {
            "weight_kg": 0.75, "metal_response": 0.90, "moisture": 0.15,
            "opacity": 0.90, "rigidity": 0.85, "volume_l": 0.8,
        },
        "organic": {
            "weight_kg": 1.60, "metal_response": 0.10, "moisture": 0.70,
            "opacity": 0.80, "rigidity": 0.20, "volume_l": 1.5,
        },
        "plastic": {
            "weight_kg": 0.30, "metal_response": 0.12, "moisture": 0.20,
            "opacity": 0.50, "rigidity": 0.40, "volume_l": 2.0,
        },
    },
    feature_stds={
        "weight_kg": 0.25, "metal_response": 0.32, "moisture": 0.32,
        "opacity": 0.45, "rigidity": 0.45, "volume_l": 0.95,
    },
)


def _element_masses(material, rng) -> dict[str, float]:
    """Per-element kg for one material, with seeded jitter on named elements.

    The jitter moves mass between the named elements and the unnamed
    remainder, so each material's total mass is preserved exactly.
    """
    base = {el: material.mass_kg * material.composition.get(el, 0.0) for el in ELEMENTS}
    named = [el for el in ELEMENTS if el != "other"]
    unassigned = material.mass_kg - sum(base.values())
    pool = base["other"] + max(0.0, unassigned)

    jittered = {}
    for el in named:
        u = float(rng.uniform(-JITTER_AMPLITUDE, JITTER_AMPLITUDE))
        jittered[el] = base[el] * (1.0 + u)
    delta = sum(jittered.values()) - sum(base[el] for el in named)
    if pool - delta < 0:
        # jitter would overdraw the remainder pool; fall back to base split
        jittered = {el: base[el] for el in named}
        delta = 0.0
    jittered["other"] = pool - delta
    return jittered


def simulate_recycling(s: "ScenarioSpec", f: FacilityModel) -> SimulationTrace:
    """Run battery-cell materials through the station pipeline.

    Raises StepBudgetExceeded, before simulating, when the cells need more
    than MAX_FACILITY_STEPS chunks of the facility's throughput.
    """
    rng = np.random.default_rng([s.rng_seed, 1])
    cells = [m for m in s.materials if m.category == "battery-cell"]

    totals = {el: 0.0 for el in ELEMENTS}
    for m in sorted(cells, key=lambda m: m.id):
        masses = _element_masses(m, rng)
        for el in ELEMENTS:
            totals[el] += masses[el]
    total_kg = sum(totals.values())
    chunks = total_kg / f.throughput_kg_per_step
    if chunks > MAX_FACILITY_STEPS:
        raise StepBudgetExceeded(
            f"{total_kg:g} kg at {f.throughput_kg_per_step:g} kg per step needs "
            f"{chunks:.3g} steps, over the budget of {MAX_FACILITY_STEPS:,}"
        )

    steps: list[TraceStep] = []
    recovered_totals = {el: 0.0 for el in ELEMENTS}
    lost_totals = {el: 0.0 for el in ELEMENTS}
    residual = {el: 0.0 for el in ELEMENTS}
    processed_kg = {st.id: 0.0 for st in f.stations}

    remaining = total_kg
    step_index = 0
    while remaining > 1e-12:
        chunk_kg = min(f.throughput_kg_per_step, remaining)
        share = chunk_kg / total_kg
        flow = {el: totals[el] * share for el in ELEMENTS}
        for st in f.stations:
            input_kg = sum(flow.values())
            if input_kg <= 0:
                break
            recovered = {}
            lost_kg = 0.0
            next_flow = {}
            for el, mass in flow.items():
                eff = st.recovery_efficiency.get(el, 0.0)
                rec = mass * eff
                lost = mass * st.loss_fraction
                recovered[el] = rec
                lost_kg += lost
                lost_totals[el] += lost
                recovered_totals[el] += rec
                next_flow[el] = mass - rec - lost
            energy = input_kg * st.energy_kwh_per_kg
            processed_kg[st.id] += input_kg
            steps.append(
                TraceStep(
                    step=step_index,
                    station_id=st.id,
                    input_kg=input_kg,
                    recovered=recovered,
                    lost_kg=lost_kg,
                    energy_kwh=energy,
                )
            )
            flow = next_flow
        for el, mass in flow.items():
            residual[el] += mass
        remaining -= chunk_kg
        step_index += 1

    ledger = ActivityLedger(entries={sid: kg for sid, kg in processed_kg.items()})
    return SimulationTrace(
        steps=tuple(steps),
        recovered_totals=recovered_totals,
        residual_kg=sum(residual.values()),
        activity_ledger=ledger,
        rng_seed_used=s.rng_seed,
        input_totals=totals,
        lost_totals=lost_totals,
        residual_by_element=residual,
    )


def recovery_rates(trace: SimulationTrace, s: "ScenarioSpec") -> dict[str, float]:
    """Recovered fraction per element; zero-input elements are omitted."""
    rates = {}
    for el, input_kg in trace.input_totals.items():
        if input_kg > 0:
            rates[el] = trace.recovered_totals.get(el, 0.0) / input_kg
    return rates


def check_mass_conservation(trace: SimulationTrace, rel_tol: float = 1e-6) -> list[str]:
    """Per-element input = recovered + lost + residual audit."""
    problems = []
    for el, input_kg in trace.input_totals.items():
        accounted = (
            trace.recovered_totals.get(el, 0.0)
            + trace.lost_totals.get(el, 0.0)
            + trace.residual_by_element.get(el, 0.0)
        )
        if abs(accounted - input_kg) > rel_tol * max(1.0, abs(input_kg)):
            problems.append(
                f"{el}: input {input_kg} vs accounted {accounted}"
            )
    return problems


def simulate_bins(s: "ScenarioSpec", horizon: int) -> BinEventStream:
    """Generate labeled deposit events for every bin over the horizon."""
    if s.collection_graph is None:
        raise NoGraph("scenario has no collection_graph")
    cfg = s.waste_stream or DEFAULT_WASTE_STREAM
    rng = np.random.default_rng([s.rng_seed, 2])

    bins = [n for n in s.collection_graph.nodes if not n.is_depot]
    bins.sort(key=lambda n: n.id)
    fills = {b.id: b.fill_level for b in bins}

    categories = sorted(cfg.category_mix)
    probs = np.array([cfg.category_mix[c] for c in categories])
    probs = probs / probs.sum()

    events: list[BinEvent] = []
    for t in range(horizon):
        for b in bins:
            inc = max(0.0, float(rng.normal(cfg.fill_increment_mean, cfg.fill_increment_std)))
            fills[b.id] = min(1.0, fills[b.id] + inc)
            label = categories[int(rng.choice(len(categories), p=probs))]
            means = cfg.feature_means[label]
            record = {
                f: float(means[f] + cfg.feature_stds[f] * rng.standard_normal())
                for f in FEATURES
            }
            events.append(
                BinEvent(
                    time_step=t,
                    bin_id=b.id,
                    fill_level=fills[b.id],
                    sensor_record=record,
                    true_label=label,
                )
            )
    return BinEventStream(events=tuple(events))


def labeled_records(stream: BinEventStream) -> list[tuple[Mapping[str, float], str]]:
    """(sensor record, true label) pairs in event order."""
    return [(ev.sensor_record, ev.true_label) for ev in stream.events]


def calibrate_facility(
    s: "ScenarioSpec",
    f: FacilityModel,
    targets: Mapping[str, float],
    tol: float = 0.005,
    max_iterations: int = 60,
) -> tuple[FacilityModel, dict[str, float]]:
    """Bisect the last station's per-element efficiencies to hit targets.

    Returns the adjusted facility and the achieved rates. Elements not in
    targets keep their configured efficiencies.
    """
    last = f.stations[-1]

    def with_eff(eff: Mapping[str, float]) -> FacilityModel:
        station = Station(
            id=last.id,
            recovery_efficiency=dict(eff),
            energy_kwh_per_kg=last.energy_kwh_per_kg,
            loss_fraction=last.loss_fraction,
        )
        return FacilityModel(
            stations=f.stations[:-1] + (station,),
            throughput_kg_per_step=f.throughput_kg_per_step,
        )

    eff = dict(last.recovery_efficiency)
    for el, target in sorted(targets.items()):
        lo, hi = 0.0, 1.0 - last.loss_fraction
        for _ in range(max_iterations):
            mid = (lo + hi) / 2
            eff[el] = mid
            rates = recovery_rates(simulate_recycling(s, with_eff(eff)), s)
            got = rates.get(el, 0.0)
            if abs(got - target) <= tol / 2:
                break
            if got < target:
                lo = mid
            else:
                hi = mid

    calibrated = with_eff(eff)
    achieved = recovery_rates(simulate_recycling(s, calibrated), s)
    return calibrated, achieved
