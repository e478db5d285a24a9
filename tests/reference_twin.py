"""Reference simulators making one Generator call per scalar draw.

`simulate_bins` is the bin-event generator greenloop.twin shipped before
it drew each event's category and sensor readings in bulk: eight
Generator calls per event. `simulate_recycling` and `_element_masses` are
the facility run it shipped before it drew the composition jitter in one
call: three `uniform` calls per battery cell. They are kept as the oracles
the faster simulators are compared against: numpy's RNG policy (NEP 19)
makes no promise about how `Generator.choice` turns its draws into an
index, nor that a sized draw yields what the scalar calls would. The
bodies are unchanged apart from their imports; the bin generator keeps
the per-event record, BinEvent, and the tuple of them it returned, where
greenloop.twin now returns the events as columns. The facility run keeps
its per-step record, TraceStep, and builds each step's record as it did;
it hands back a trace of greenloop.twin's shape: each step's station id,
and the steps' energy summed in step order from 0.0.

greenloop.twin pools the cells as whole columns and writes each per-cell
sum, and the energy over the steps, as explicit left-to-right adds from
0.0. The `sum()` calls in `_element_masses` and over the steps' energy
equal those adds only before Python 3.12, whose `sum()` of floats is
compensated; from 3.12 on this oracle may differ from the twin in the
last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from greenloop.carbon import ActivityLedger
from greenloop.classify import FEATURES
from greenloop.errors import NoGraph, StepBudgetExceeded
from greenloop.twin import (
    DEFAULT_WASTE_STREAM,
    ELEMENTS,
    JITTER_AMPLITUDE,
    FacilityModel,
    SimulationTrace,
    step_budget_problem,
)


@dataclass(frozen=True)
class TraceStep:
    step: int
    station_id: str
    input_kg: float
    recovered: Mapping[str, float]
    lost_kg: float
    energy_kwh: float


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


def simulate_bins(s, horizon: int) -> BinEventStream:
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
    problem = step_budget_problem(total_kg, f.throughput_kg_per_step)
    if problem:
        raise StepBudgetExceeded(problem)

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
        steps=tuple(e.station_id for e in steps),
        energy_kwh=sum((e.energy_kwh for e in steps), 0.0),
        recovered_totals=recovered_totals,
        activity_ledger=ledger,
        input_totals=totals,
        lost_totals=lost_totals,
        residual_by_element=residual,
    )
