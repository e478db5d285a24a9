"""Seeded facility and smart-bin simulators.

The recycling side is a station-pipeline mass-flow model: battery-cell
materials are pooled, perturbed by a small seeded composition jitter, and
pushed through the stations in declared order in throughput-sized chunks.
Each station recovers a per-element fraction of what reaches it, loses a
fraction, and forwards the rest; energy accrues per kilogram handled.
Because every transfer is linear, element recovery rates depend only on
the station coefficients, never on the jitter draw, and each rate is
affine in the last station's efficiency for that element, which is how
calibrate_facility solves those efficiencies from two runs. The jitter is
one Generator call per run: a (cells, named elements) array of uniforms
whose rows, in cell-id order, hold what one scalar call per cell and
element drew before. numpy's RNG policy (NEP 19) does not promise that a
sized draw yields what the scalar calls would, so the tests compare the
trace with the scalar-call simulator kept in tests/reference_twin.py.

The cells are pooled as whole columns: a mass column, one composition
column per element (0.0 where a cell does not name it), and the split,
jitter and overdraw fallback as elementwise array expressions; reading
each cell's mass and composition into those columns is the only work
done per cell in Python. Every per-cell sum is written as explicit adds
from 0.0, left to right in ELEMENTS order, and each element's total adds
its column in cell-id order from 0.0. On floats that is what the builtin
sum() does before Python 3.12; from 3.12 on sum() is compensated, so the
pooled totals, unlike a sum() over the cells, do not depend on the
interpreter. The station loop's sums over the four element flows still
use sum().

The bin side generates labeled sensor events: per time step each bin's
fill level rises by a seeded increment and one deposit event is emitted,
with the true category drawn from the configured mix and the six sensor
readings drawn around that category's means. The events come back as
columns, a BinEventStream, whose readings matrix the classifier takes as
it is.

Both simulators derive child seeds from the scenario seed, so they are
independently reproducible within one scenario.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .carbon import ActivityLedger
from .classify import FEATURES
from .errors import NoGraph, StepBudgetExceeded, TwinError

if TYPE_CHECKING:
    from .scenario import ScenarioSpec

ELEMENTS = ("cobalt", "lithium", "nickel", "other")
NAMED_ELEMENTS = ELEMENTS[:-1]  # the elements jitter moves mass into and out of
JITTER_AMPLITUDE = 0.05
# Most throughput-sized chunks one facility run may take. Every step keeps a
# TraceStep per station, so the budget bounds time and memory alike; the
# bundled battery fixtures take 30.
MAX_FACILITY_STEPS = 100_000
# A facility run ends once no more than this many kg are left to process.
END_KG = 1e-12


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
    input_totals: Mapping[str, float]
    lost_totals: Mapping[str, float]
    residual_by_element: Mapping[str, float]

    @property
    def energy_kwh(self) -> float:
        return sum(ev.energy_kwh for ev in self.steps)


@dataclass(frozen=True, eq=False)
class BinEventStream:
    """A run's sensor events as columns, one row per event in draw order.

    events has the fields time_step, bin (an index into the graph's sorted
    bin ids), fill_level and label (an index into categories); readings
    holds each event's six readings in FEATURES order. Equality is identity.
    """

    events: np.ndarray
    readings: np.ndarray
    categories: tuple[str, ...]


@dataclass(frozen=True)
class WasteStreamConfig:
    """Deposit mix and sensor distributions for the bin generator."""

    category_mix: Mapping[str, float]
    fill_increment_mean: float
    fill_increment_std: float
    feature_means: Mapping[str, Mapping[str, float]]
    feature_stds: Mapping[str, float]

    def __post_init__(self):
        numbers = {f"category_mix[{c}]": p for c, p in self.category_mix.items()}
        numbers["fill_increment_mean"] = self.fill_increment_mean
        numbers["fill_increment_std"] = self.fill_increment_std
        for cat, means in self.feature_means.items():
            numbers.update({f"feature_means[{cat}][{f}]": v for f, v in means.items()})
        numbers.update({f"feature_stds[{f}]": v for f, v in self.feature_stds.items()})
        for name, value in numbers.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


def _cell_totals(cells: Sequence, jitter: np.ndarray) -> dict[str, float]:
    """Per-element kg of the cells, each jittered by its row of the run's draw.

    jitter holds one row of uniform draws per cell, one per named element
    in ELEMENTS order. The jitter moves mass between the named elements
    and the unnamed remainder, so each cell's total mass is preserved
    exactly; a cell whose jitter would overdraw its remainder pool keeps
    its base split. Each quantity is one column over the cells, and the
    columns are summed in cell order from 0.0, as a loop over the cells
    adding into running totals would.
    """
    mass = np.array([m.mass_kg for m in cells], dtype=float)
    compositions = [m.composition for m in cells]
    co, li, ni, ot = (
        mass * np.array([c.get(el, 0.0) for c in compositions], dtype=float)
        for el in ELEMENTS
    )
    unassigned = mass - (0.0 + co + li + ni + ot)
    # max(0.0, x) in the form of the builtin: a NaN or -0.0 gives 0.0
    pool = ot + np.where(unassigned > 0.0, unassigned, 0.0)
    jittered = [base * (1.0 + u) for base, u in zip((co, li, ni), jitter.T)]
    delta = (0.0 + jittered[0] + jittered[1] + jittered[2]) - (0.0 + co + li + ni)
    overdrawn = pool - delta < 0
    columns = np.zeros((len(cells) + 1, len(ELEMENTS)))
    for k, (base, moved) in enumerate(zip((co, li, ni), jittered)):
        columns[1:, k] = np.where(overdrawn, base, moved)
    columns[1:, -1] = pool - np.where(overdrawn, 0.0, delta)
    # cumsum adds row by row; the zero first row makes each total start at 0.0
    return dict(zip(ELEMENTS, np.cumsum(columns, axis=0)[-1].tolist()))


def step_budget_problem(total_kg: float, throughput_kg_per_step: float) -> str | None:
    """Why `total_kg` at this throughput is over MAX_FACILITY_STEPS, else None.

    Compares the chunk ratio itself rather than its ceiling, which would
    fail on an infinite ratio.
    """
    chunks = total_kg / throughput_kg_per_step
    if chunks > MAX_FACILITY_STEPS:
        return (
            f"{total_kg:g} kg at {throughput_kg_per_step:g} kg per step needs "
            f"{chunks:.3g} steps, over the budget of {MAX_FACILITY_STEPS:,}"
        )
    return None


def simulate_recycling(s: "ScenarioSpec", f: FacilityModel) -> SimulationTrace:
    """Run battery-cell materials through the station pipeline.

    Raises StepBudgetExceeded, before simulating, when the cells need more
    than MAX_FACILITY_STEPS chunks of the facility's throughput.
    """
    rng = np.random.default_rng([s.rng_seed, 1])
    cells = sorted(
        (m for m in s.materials if m.category == "battery-cell"), key=attrgetter("id")
    )
    # One draw for the run: row i is what cell i's len(NAMED_ELEMENTS)
    # scalar uniform calls would have drawn, in the same stream order.
    jitter = rng.uniform(
        -JITTER_AMPLITUDE, JITTER_AMPLITUDE, size=(len(cells), len(NAMED_ELEMENTS))
    )
    totals = _cell_totals(cells, jitter)
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
    while remaining > END_KG:
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
        input_totals=totals,
        lost_totals=lost_totals,
        residual_by_element=residual,
    )


def recovery_rates(trace: SimulationTrace) -> dict[str, float]:
    """Recovered fraction per element; zero-input elements are omitted."""
    rates = {}
    for el, input_kg in trace.input_totals.items():
        if input_kg > 0:
            rates[el] = trace.recovered_totals.get(el, 0.0) / input_kg
    return rates


def check_mass_conservation(trace: SimulationTrace) -> list[str]:
    """Per-element input = recovered + lost + residual audit, to 1e-6 relative."""
    problems = []
    for el, input_kg in trace.input_totals.items():
        accounted = (
            trace.recovered_totals.get(el, 0.0)
            + trace.lost_totals.get(el, 0.0)
            + trace.residual_by_element.get(el, 0.0)
        )
        if abs(accounted - input_kg) > 1e-6 * max(1.0, abs(input_kg)):
            problems.append(
                f"{el}: input {input_kg} vs accounted {accounted}"
            )
    return problems


def simulate_bins(s: "ScenarioSpec", horizon: int) -> BinEventStream:
    """Labeled deposit events, time step by time step over the bins in id order."""
    if s.collection_graph is None:
        raise NoGraph("scenario has no collection_graph")
    cfg = s.waste_stream or DEFAULT_WASTE_STREAM
    rng = np.random.default_rng([s.rng_seed, 2])

    # each bin's fill level, in id order: an event's bin is its index here
    nodes = sorted(s.collection_graph.nodes, key=attrgetter("id"))
    fills = [n.fill_level for n in nodes if not n.is_depot]

    categories = sorted(cfg.category_mix)
    probs = np.array([cfg.category_mix[c] for c in categories])
    probs = probs / probs.sum()
    # Generator.choice(len(categories), p=probs) draws one random() and
    # returns its searchsorted(side="right") slot in this normalised
    # cumulative sum; bisect_right finds the same slot without choice's
    # per-call checks of p, which WasteStreamConfig makes once.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    means = np.array([[cfg.feature_means[c][f] for f in FEATURES] for c in categories])
    stds = np.array([cfg.feature_stds[f] for f in FEATURES])

    # abs: Generator.normal refuses a scale of -0.0, which the config admits as 0
    fill_std = abs(cfg.fill_increment_std)

    # Three Generator calls per event: standard_normal(6) yields what six
    # scalar draws would, in FEATURES order. The readings means + stds * z
    # are then one array expression for all events, value by value the
    # same IEEE operations.
    drawn: list[tuple[int, int, float, int]] = []
    z = []
    for t in range(horizon):
        for i in range(len(fills)):
            inc = max(0.0, float(rng.normal(cfg.fill_increment_mean, fill_std)))
            fills[i] = min(1.0, fills[i] + inc)
            drawn.append((t, i, fills[i], bisect_right(cdf, rng.random())))
            z.append(rng.standard_normal(len(FEATURES)))
    events = np.array(drawn, dtype=[
        ("time_step", np.int64), ("bin", np.int64), ("fill_level", float), ("label", np.int64),
    ])
    # A feature mean or std near the float limit can overflow a reading;
    # name the feature rather than hand on an infinite record.
    with np.errstate(over="ignore"):
        readings = means[events["label"]] + stds * np.reshape(z, (-1, len(FEATURES)))
    bad = np.flatnonzero(~np.isfinite(readings).all(axis=0))
    if bad.size:
        raise TwinError(f"sensor readings of feature {FEATURES[bad[0]]!r} overflow")
    return BinEventStream(events=events, readings=readings, categories=tuple(categories))


def calibrate_facility(
    s: "ScenarioSpec", f: FacilityModel, targets: Mapping[str, float]
) -> tuple[FacilityModel, dict[str, float]]:
    """Solve the last station's per-element efficiencies for the targets.

    Every transfer is linear and no element's flow depends on another's
    efficiency, so an element's recovery rate is affine in the last
    station's efficiency for it. Two runs, with the targeted efficiencies
    at 0 and at the headroom 1 - loss_fraction, fix each line; each
    efficiency is solved from its line and clamped to [0, headroom]. A
    flat line, where none of the element reaches the last station, gets 0
    if the rate at 0 already meets the target and the headroom otherwise.

    Returns the adjusted facility and the achieved rates of a third run.
    Elements not in targets keep their configured efficiencies.
    """
    last = f.stations[-1]
    headroom = 1.0 - last.loss_fraction

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

    def rates_at(value: float) -> dict[str, float]:
        eff = {**last.recovery_efficiency, **dict.fromkeys(targets, value)}
        return recovery_rates(simulate_recycling(s, with_eff(eff)))

    low, high = rates_at(0.0), rates_at(headroom)
    eff = dict(last.recovery_efficiency)
    for el, target in sorted(targets.items()):
        r0, r1 = low.get(el, 0.0), high.get(el, 0.0)
        if r1 == r0:
            eff[el] = 0.0 if r0 >= target else headroom
        else:
            eff[el] = min(max(headroom * (target - r0) / (r1 - r0), 0.0), headroom)

    calibrated = with_eff(eff)
    return calibrated, recovery_rates(simulate_recycling(s, calibrated))
