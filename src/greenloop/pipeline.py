"""End-to-end run orchestration and improvement arithmetic.

A run executes the stage sequence preprocess, simulate, optimize, route,
carbon, metrics over one scenario, in one of the two MODES. Framework
mode trains the softmax classifier, solves the allocation MILP, and learns
collection routes per district; baseline mode substitutes the weight-rule
classifier, declaration-order allocation, and the naive lowest-id route.
A failing stage raises its own error family, which names the stage:
ClassifierError is preprocess, TwinError simulate, SolverError or
CompileError optimize, RoutingError route, and CarbonError carbon.
Stage energy is metered from each stage's workload (energy.meter), never
from wall-clock time, so results are identical across machines.

compare_runs turns a baseline/framework pair into labeled deltas. Every
percentage metric reports both the percentage-point change and the
relative change, because reference tables mix the two forms. Expected
deltas can be attached; a computed delta that strays more than one point
from its expectation is surfaced as an annotation, never silently kept.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .carbon import ActivityLedger, carbon_footprint
from .classify import (
    SoftmaxModel,
    evaluate_accuracy_records,
    rule_classify,
    train_on_records,
)
from .energy import EnergyLedger, EnergyModel, meter
from .errors import (
    Diagnostic,
    MissingArtifacts,
    ModeMismatch,
    ModeUnsupported,
    ValidationError,
)
from .routing import (
    CollectionGraph,
    QTable,
    RLConfig,
    greedy_route,
    route_emissions,
    train_routing,
)
from .scenario import CELLS_WITHOUT_FACILITY, ScenarioSpec, compile_to_lp
from .solver import SolveStatus, SolverError, solve_milp
from .twin import (
    END_KG,
    MAX_FACILITY_STEPS,
    SimulationTrace,
    recovery_rates,
    simulate_bins,
    simulate_recycling,
)

BIN_HORIZON = 100
TRAIN_SPLIT = 0.7
DISTRICT_MAX_BINS = 10
FEEDBACK_EPISODES = 1000
MODES = ("baseline", "framework")


@dataclass(frozen=True)
class RunResult:
    """Metrics of one pipeline run; the deterministic, serializable core."""

    mode: str
    seed: int
    recovery: Mapping[str, float]
    process_energy_kwh: float
    pipeline_energy: EnergyLedger
    co2_kg: float
    classification_accuracy: float | None
    transport_emissions_kg: float | None
    waste_reduction_fraction: float


@dataclass(frozen=True)
class RunArtifacts:
    """Reusable products of a run: models, routes, allocation."""

    version: int = 1
    classifier: SoftmaxModel | None = None
    district_qtables: tuple[QTable, ...] = ()
    district_routes: tuple[tuple[str, ...], ...] = ()
    allocation: Mapping[str, float] | None = None


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    label: str
    baseline: float
    framework: float
    delta_pp: float | None
    delta_relative: float | None


@dataclass(frozen=True)
class ImprovementReport:
    deltas: tuple[MetricDelta, ...]
    annotations: tuple[str, ...]


def _labeled(events) -> list[tuple[Mapping[str, float], str]]:
    """(sensor record, true label) pairs in event order."""
    return [(ev.sensor_record, ev.true_label) for ev in events]


def _split_records(events):
    cut = int(TRAIN_SPLIT * BIN_HORIZON)
    train = _labeled(ev for ev in events if ev.time_step < cut)
    evaluation = _labeled(ev for ev in events if ev.time_step >= cut)
    return train, evaluation


def _declaration_fill(s: ScenarioSpec) -> dict[str, float]:
    """Baseline allocation: fill each process in declared order to its cap."""
    remaining = {lim.resource_id: lim.availability for lim in s.limits}
    levels: dict[str, float] = {}
    for p in s.processes:
        cap = math.inf
        for lim in s.limits:
            c = lim.consumption.get(p.id, 0.0)
            if c > 0:
                cap = min(cap, remaining[lim.resource_id] / c)
        if not math.isfinite(cap):
            cap = 0.0
        if p.id in s.integrality:
            cap = float(math.floor(cap + 1e-9))
        levels[p.id] = cap
        for lim in s.limits:
            c = lim.consumption.get(p.id, 0.0)
            if c > 0:
                remaining[lim.resource_id] -= c * cap
    return levels


def _district_seed(seed: int, index: int) -> int:
    return seed * 100 + 41 + index


def _train_districts(
    districts: Sequence[CollectionGraph],
    seed: int,
    episodes: int,
    initial: Sequence[QTable] | None = None,
):
    qtables: list[QTable] = []
    routes: list[tuple[str, ...]] = []
    total = 0.0
    for i, dg in enumerate(districts):
        cfg = RLConfig(episodes=episodes, rng_seed=_district_seed(seed, i))
        q = train_routing(dg, cfg, initial=initial[i] if initial else None)
        r = greedy_route(q, dg)
        qtables.append(q)
        routes.append(r)
        total += route_emissions(dg, r)
    return tuple(qtables), tuple(routes), total


def partition_districts(g: CollectionGraph) -> tuple[CollectionGraph, ...]:
    """Split bins into depot-anchored districts of at most DISTRICT_MAX_BINS.

    Districts grow by chained nearest-neighbor agglomeration: each starts
    at the depot and repeatedly absorbs the closest unassigned bin (ties
    to the lowest id). Every bin lands in exactly one district and every
    district inherits the depot.
    """
    depot = g.depot
    unassigned = list(g.bin_ids())
    districts: list[CollectionGraph] = []
    while unassigned:
        chosen: list[str] = []
        cursor = depot
        while unassigned and len(chosen) < DISTRICT_MAX_BINS:
            best = unassigned[0]
            best_d = math.inf
            for b in unassigned:
                d = g.edge(cursor, b).distance_km if g.has_edge(cursor, b) else math.inf
                if d < best_d:
                    best, best_d = b, d
            chosen.append(best)
            unassigned.remove(best)
            cursor = best
        keep = {depot, *chosen}
        nodes = tuple(n for n in g.nodes if n.id in keep)
        edges = {k: v for k, v in g.edges.items() if k[0] in keep and k[1] in keep}
        districts.append(CollectionGraph(nodes=nodes, edges=edges))
    return tuple(districts)


def planned_workload(s: ScenarioSpec, mode: str) -> dict[str, float]:
    """Each stage's workload units in a run of s in mode, as far as s states them.

    preprocess: one bin event per bin and step of BIN_HORIZON. optimize:
    one unit per process. route: RLConfig().episodes per district in
    framework mode (partition_districts fills each district to
    DISTRICT_MAX_BINS bins but the last), one unit per bin in baseline
    mode. metrics: 1. When s has battery cells, carbon is exact: one
    activity entry per facility station, as simulate_recycling books them.
    simulate is a lower bound there: the jitter keeps the cells' total
    mass, and each throughput-sized chunk of it takes a step at the first
    station at least, so the twin takes at least the whole chunks in the
    unjittered mass, less those its end tolerance (twin.END_KG) may leave.
    run_full meters the counted simulate and carbon workload, which is
    never below this.
    """
    g = s.collection_graph
    bins = len(g.bin_ids()) if g is not None else 0
    if mode == "framework":
        route = RLConfig().episodes * -(-bins // DISTRICT_MAX_BINS)
    else:
        route = bins
    simulate = carbon = 0.0
    f = s.facility
    if f is not None and any(m.category == "battery-cell" for m in s.materials):
        carbon = float(len(f.stations))
        t = f.throughput_kg_per_step
        chunks = sum(m.mass_kg for m in s.materials if m.category == "battery-cell") / t
        # past the step budget the twin refuses before it takes a step
        if f.stations and chunks <= MAX_FACILITY_STEPS:
            simulate = float(max(math.floor(chunks) - math.floor(END_KG / t), 0))
    return {
        "preprocess": float(bins * BIN_HORIZON),
        "simulate": simulate,
        "optimize": float(len(s.processes)),
        "route": float(route),
        "carbon": carbon,
        "metrics": 1.0,
    }


def workload_diagnostics(s: ScenarioSpec) -> list[Diagnostic]:
    """One diagnostic for each mode whose planned workload meters past the float range.

    A run's workload is never below its planned one and the energy
    weights are >= 0, so run_full refuses every mode named here.
    """
    out = []
    for mode in MODES:
        try:
            meter(s.energy_model or EnergyModel(), planned_workload(s, mode))
        except ValidationError as exc:
            out.append(Diagnostic(path=exc.locus, message=f"{mode} run: {exc.message}"))
    return out


def _preprocess(s: ScenarioSpec, framework: bool) -> tuple[SoftmaxModel | None, float | None]:
    """preprocess: generate the sensor stream, split it, fit the classifier.

    Returns the classifier (None in baseline mode, which applies the
    weight rule) and its held-out accuracy. The bin events and records
    are dropped on return, so they do not stay alive through the later
    stages.
    """
    train_recs, eval_recs = _split_records(simulate_bins(s, BIN_HORIZON).events)
    if framework:
        classifier = train_on_records(train_recs, s.rng_seed)
        return classifier, evaluate_accuracy_records(classifier, eval_recs)
    hits = sum(1 for rec, label in eval_recs if rule_classify(rec) == label)
    return None, hits / len(eval_recs) if eval_recs else None


def run_full(s: ScenarioSpec, mode: str) -> tuple[RunResult, RunArtifacts]:
    """Execute all pipeline stages; returns metrics plus reusable artifacts."""
    if mode not in MODES:
        raise ModeUnsupported(f"unknown mode {mode!r}")
    framework = mode == "framework"

    has_cells = any(mat.category == "battery-cell" for mat in s.materials)
    if has_cells and s.facility is None:
        raise ModeUnsupported(CELLS_WITHOUT_FACILITY)

    workload = planned_workload(s, mode)  # simulate and carbon are counted below
    # the counted workload is never below the plan, so a plan whose ledger
    # overflows is refused before any stage runs
    meter(s.energy_model or EnergyModel(), workload)
    g = s.collection_graph
    bins = g.bin_ids() if g is not None else ()  # preprocess and route need bins

    # preprocess: fit the classifier on the sensor stream, then let the stream go
    classifier, accuracy = _preprocess(s, framework) if bins else (None, None)

    # simulate: push battery-cell mass through the facility
    trace: SimulationTrace | None = None
    if has_cells and s.facility is not None:
        trace = simulate_recycling(s, s.facility)
    workload["simulate"] = float(len(trace.steps)) if trace else 0.0

    # optimize: allocate process levels
    allocation: dict[str, float] | None = None
    if s.processes:
        if framework:
            lp = compile_to_lp(s)
            sol = solve_milp(lp)
            if sol.status is not SolveStatus.OPTIMAL:
                raise SolverError(f"allocation solve ended {sol.status.name}")
            allocation = dict(zip(lp.variable_names, sol.values))
        else:
            allocation = _declaration_fill(s)

    # route: plan the collection tour(s)
    qtables: tuple[QTable, ...] = ()
    routes: tuple[tuple[str, ...], ...] = ()
    transport: float | None = None
    if bins:
        if framework:
            districts = partition_districts(g)
            qtables, routes, transport = _train_districts(
                districts, s.rng_seed, RLConfig().episodes
            )
        else:
            naive = (g.depot, *bins, g.depot)
            routes = (naive,)
            transport = route_emissions(g, naive)

    # carbon: facility activity footprint plus transport legs
    activity = trace.activity_ledger if trace else ActivityLedger()
    co2 = carbon_footprint(s.emission_factors, activity).total_kg
    co2 += transport or 0.0
    workload["carbon"] = float(len(activity.entries))

    # metrics: assemble the result
    recovery: dict[str, float] = {}
    process_energy = 0.0
    waste_reduction = 0.0
    if trace is not None:
        targeted = {
            el
            for st in s.facility.stations
            for el, eff in st.recovery_efficiency.items()
            if eff > 0
        }
        rates = recovery_rates(trace)
        recovery = {el: rates[el] for el in sorted(targeted) if el in rates}
        process_energy = trace.energy_kwh
        total_in = sum(trace.input_totals.values())
        if total_in > 0:
            waste_reduction = 1.0 - trace.residual_kg / total_in

    result = RunResult(
        mode=mode,
        seed=s.rng_seed,
        recovery=recovery,
        process_energy_kwh=process_energy,
        pipeline_energy=meter(s.energy_model or EnergyModel(), workload),
        co2_kg=co2,
        classification_accuracy=accuracy,
        transport_emissions_kg=transport,
        waste_reduction_fraction=waste_reduction,
    )
    artifacts = RunArtifacts(
        version=1,
        classifier=classifier,
        district_qtables=qtables,
        district_routes=routes,
        allocation=allocation,
    )
    return result, artifacts


_ELEMENT_ROW_ORDER = ("cobalt", "nickel", "lithium")


def _element_rows(b: RunResult, f: RunResult) -> list[str]:
    shared = set(b.recovery) & set(f.recovery)
    ordered = [el for el in _ELEMENT_ROW_ORDER if el in shared]
    ordered += sorted(shared - set(_ELEMENT_ROW_ORDER))
    return ordered


def _delta(
    metric: str, label: str, baseline: float, framework: float, percent_form: bool
) -> MetricDelta:
    delta_pp = framework - baseline if percent_form else None
    delta_relative = (
        (framework - baseline) / baseline * 100.0 if baseline != 0 else None
    )
    return MetricDelta(metric, label, baseline, framework, delta_pp, delta_relative)


def compare_runs(
    b: RunResult,
    f: RunResult,
    expectations: Mapping[str, Mapping] | None = None,
) -> ImprovementReport:
    """Labeled baseline-vs-framework deltas over every shared metric.

    `expectations` maps metric keys to {"form": "pp"|"relative",
    "value": points}; a computed delta differing from its expectation by
    more than one point is reported in annotations.
    """
    if b.mode != "baseline" or f.mode != "framework":
        raise ModeMismatch(
            f"need one baseline and one framework run, got {b.mode!r} and {f.mode!r}"
        )

    # (metric, label, baseline, framework, percent form), in report order
    rows: list[tuple[str, str, float, float, bool]] = [
        (
            f"{el}_recovery",
            f"{el.capitalize()} Recovery Rate (%)",
            b.recovery[el] * 100.0,
            f.recovery[el] * 100.0,
            True,
        )
        for el in _element_rows(b, f)
    ]
    if b.process_energy_kwh != 0 or f.process_energy_kwh != 0:
        rows.append(
            ("process_energy_kwh", "Energy Consumption (kWh)",
             b.process_energy_kwh, f.process_energy_kwh, False)
        )
    if b.co2_kg != 0 or f.co2_kg != 0:
        rows.append(("co2_kg", "CO2 Emissions (kg)", b.co2_kg, f.co2_kg, False))
    if b.classification_accuracy is not None and f.classification_accuracy is not None:
        rows.append(
            ("classification_accuracy", "Waste Classification Accuracy (%)",
             b.classification_accuracy * 100.0, f.classification_accuracy * 100.0, True)
        )
    if (
        b.transport_emissions_kg is not None
        and f.transport_emissions_kg is not None
        and b.transport_emissions_kg > 0
    ):
        rows.append(
            ("transport_emissions", "Transportation Emissions (% of baseline)",
             100.0, f.transport_emissions_kg / b.transport_emissions_kg * 100.0, True)
        )
    if b.waste_reduction_fraction != 0 or f.waste_reduction_fraction != 0:
        rows.append(
            ("waste_reduction", "Waste Reduction (%)",
             b.waste_reduction_fraction * 100.0, f.waste_reduction_fraction * 100.0, True)
        )
    deltas = [_delta(*row) for row in rows]

    annotations: list[str] = []
    for d in deltas:
        exp = (expectations or {}).get(d.metric)
        if not exp:
            continue
        form = exp["form"]
        expected = float(exp["value"])
        computed = d.delta_pp if form == "pp" else d.delta_relative
        if computed is None:
            continue
        if abs(computed - expected) > 1.0:
            unit = " pp" if form == "pp" else "%"
            annotations.append(
                f"{d.label}: computed change {computed:+.1f}{unit} differs from "
                f"the reference target {expected:+.1f}{unit}"
            )
    return ImprovementReport(deltas=tuple(deltas), annotations=tuple(annotations))


def feedback_update(
    s: ScenarioSpec, artifacts: RunArtifacts
) -> tuple[RunArtifacts, tuple[str, ...]]:
    """Fold newly observed data into the prior run's models.

    A round simulates BIN_HORIZON fresh steps at seed s.rng_seed + 1. The
    classifier is retrained from scratch on the prior training split plus
    that batch; route tables continue Q-learning from their stored values
    for FEEDBACK_EPISODES per district. Held-out accuracy is re-measured on
    the original evaluation split and a diagnostic is returned if it
    regressed. The graph's districts are checked against the stored tables
    before anything is simulated or trained.
    """
    if artifacts.classifier is None and not artifacts.district_qtables:
        raise MissingArtifacts("prior artifacts carry no classifier or route tables")
    if s.collection_graph is None:
        raise MissingArtifacts("scenario has no collection graph to draw feedback from")

    qtables = artifacts.district_qtables
    routes = artifacts.district_routes
    districts = partition_districts(s.collection_graph) if qtables else ()
    if len(districts) != len(qtables):
        raise MissingArtifacts(
            f"stored {len(qtables)} route tables but the graph splits "
            f"into {len(districts)} districts"
        )

    fseed = s.rng_seed + 1
    diagnostics: list[str] = []

    classifier = artifacts.classifier
    if classifier is not None:
        train_recs, eval_recs = _split_records(simulate_bins(s, BIN_HORIZON).events)
        fresh = dataclasses.replace(s, rng_seed=fseed)
        combined = train_recs + _labeled(simulate_bins(fresh, BIN_HORIZON).events)
        retrained = train_on_records(combined, s.rng_seed)
        before = evaluate_accuracy_records(classifier, eval_recs)
        after = evaluate_accuracy_records(retrained, eval_recs)
        if after < before:
            diagnostics.append(
                f"held-out classification accuracy regressed from "
                f"{before:.4f} to {after:.4f}"
            )
        classifier = retrained

    if qtables:
        qtables, routes, _ = _train_districts(
            districts, fseed, FEEDBACK_EPISODES, initial=qtables
        )

    updated = dataclasses.replace(
        artifacts,
        version=artifacts.version + 1,
        classifier=classifier,
        district_qtables=qtables,
        district_routes=routes,
    )
    return updated, tuple(diagnostics)
