"""Declarative scenario files: parsing, validation, and LP compilation.

A scenario is one UTF-8 JSON document holding the material stream, the
candidate processes with costs and emission factors, resource limits, an
optional collection graph, optional facility and waste-stream sections
for the simulators, targets, and the run seed. Parsing is strict: an
unknown key anywhere is a ParseError, so fixtures cannot drift silently.

Value-level problems (negative mass, dangling factor reference) are
reported by validate_scenario as diagnostics; load_scenario runs it and
raises ValidationError when any come back.

compile_to_lp turns the scenario into the allocation program: one
variable per process in declaration order, one row per resource limit,
plus an emission cap row when targets carry co2_cap_kg.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .carbon import LIFECYCLE_STAGES, EmissionFactor
from .energy import STAGE_ORDER, EnergyModel, StageUsage, UsagePlan
from .errors import CompileError, Diagnostic, ParseError, ValidationError
from .routing import BinNode, CollectionGraph, EdgeAttrs
from .solver import LinearProgram
from .twin import ELEMENTS, FacilityModel, Station, WasteStreamConfig, step_budget_problem

MATERIAL_CATEGORIES = ("battery-cell", "plastic", "metal", "organic", "glass", "other")
LIFECYCLE_STATES = ("collected", "disassembled", "recovered", "residual")


def is_rng_seed(value) -> bool:
    """Whether `value` can seed a run: an unsigned 64-bit integer."""
    return not isinstance(value, bool) and isinstance(value, int) and 0 <= value < 2**64


@dataclass(frozen=True)
class MaterialSpec:
    id: str
    name: str
    category: str
    mass_kg: float
    composition: Mapping[str, float] = field(default_factory=dict)
    lifecycle_stage: str = "collected"


@dataclass(frozen=True)
class ProcessSpec:
    id: str
    unit_cost: float
    energy_per_unit: float
    emission_factor_id: str


@dataclass(frozen=True)
class ResourceLimit:
    resource_id: str
    availability: float
    consumption: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    materials: tuple[MaterialSpec, ...] = ()
    processes: tuple[ProcessSpec, ...] = ()
    limits: tuple[ResourceLimit, ...] = ()
    emission_factors: tuple[EmissionFactor, ...] = ()
    collection_graph: CollectionGraph | None = None
    targets: Mapping[str, float] = field(default_factory=dict)
    integrality: frozenset[str] = frozenset()
    rng_seed: int = 0
    facility: FacilityModel | None = None
    waste_stream: WasteStreamConfig | None = None
    energy_model: UsagePlan | None = None


def _require_keys(doc: Mapping, allowed: set[str], required: set[str], locus: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r}", locus=locus)
    missing = sorted(required - set(doc))
    if missing:
        raise ParseError(f"missing required key {missing[0]!r}", locus=locus)


def _finite(raw, locus: str, key: str, item: str | None = None) -> float:
    """raw as a float; NaN, an infinity or an int past the float range fail.

    The error names doc[key], or doc[key][item] when item is given. A finite
    plain float, which JSON decodes most numbers to, returns first: a scenario
    can hold thousands of numbers.
    """
    if type(raw) is float and math.isfinite(raw):
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        problem = "must be a number"
    else:
        try:
            v = float(raw)
        except OverflowError:
            v = math.inf
        if math.isfinite(v):
            return v
        problem = "must be finite"
    name = repr(key) if item is None else f"{key}[{item!r}]"
    raise ParseError(f"{name} {problem}", locus=locus)


def _number(doc: Mapping, key: str, locus: str) -> float:
    return _finite(doc.get(key), locus, key)


def _string(doc: Mapping, key: str, locus: str) -> str:
    v = doc.get(key)
    if not isinstance(v, str):
        raise ParseError(f"{key!r} must be a string", locus=locus)
    return v


def _number_map(doc: Mapping, key: str, locus: str) -> dict[str, float]:
    v = doc.get(key, {})
    if not isinstance(v, dict):
        raise ParseError(f"{key!r} must be an object", locus=locus)
    return {k: _finite(raw, locus, key, k) for k, raw in v.items()}


def _parse_material(doc: Mapping, locus: str) -> MaterialSpec:
    _require_keys(
        doc,
        {"id", "name", "category", "mass_kg", "composition", "lifecycle_stage"},
        {"id", "category", "mass_kg"},
        locus,
    )
    return MaterialSpec(
        id=_string(doc, "id", locus),
        name=_string(doc, "name", locus) if "name" in doc else "",
        category=_string(doc, "category", locus),
        mass_kg=_number(doc, "mass_kg", locus),
        composition=_number_map(doc, "composition", locus),
        lifecycle_stage=(
            _string(doc, "lifecycle_stage", locus) if "lifecycle_stage" in doc else "collected"
        ),
    )


def _parse_process(doc: Mapping, locus: str) -> ProcessSpec:
    _require_keys(
        doc,
        {"id", "unit_cost", "energy_per_unit", "emission_factor_id"},
        {"id", "unit_cost", "energy_per_unit", "emission_factor_id"},
        locus,
    )
    return ProcessSpec(
        id=_string(doc, "id", locus),
        unit_cost=_number(doc, "unit_cost", locus),
        energy_per_unit=_number(doc, "energy_per_unit", locus),
        emission_factor_id=_string(doc, "emission_factor_id", locus),
    )


def _parse_limit(doc: Mapping, locus: str) -> ResourceLimit:
    _require_keys(
        doc,
        {"resource_id", "availability", "consumption"},
        {"resource_id", "availability"},
        locus,
    )
    return ResourceLimit(
        resource_id=_string(doc, "resource_id", locus),
        availability=_number(doc, "availability", locus),
        consumption=_number_map(doc, "consumption", locus),
    )


def _parse_factor(doc: Mapping, locus: str) -> EmissionFactor:
    _require_keys(
        doc, {"id", "process_id", "e", "stage"}, {"id", "process_id", "e", "stage"}, locus
    )
    try:
        return EmissionFactor(
            id=_string(doc, "id", locus),
            process_id=_string(doc, "process_id", locus),
            e=_number(doc, "e", locus),
            stage=_string(doc, "stage", locus),
        )
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc


def _parse_graph(doc: Mapping, locus: str) -> CollectionGraph:
    _require_keys(doc, {"nodes", "edges"}, {"nodes", "edges"}, locus)
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise ParseError("'nodes' and 'edges' must be arrays", locus=locus)
    nodes = []
    for i, nd in enumerate(doc["nodes"]):
        nl = f"{locus}.nodes[{i}]"
        _require_keys(nd, {"id", "fill_level", "is_depot"}, {"id"}, nl)
        is_depot = nd.get("is_depot", False)
        if not isinstance(is_depot, bool):
            raise ParseError("'is_depot' must be a boolean", locus=nl)
        try:
            nodes.append(
                BinNode(
                    id=_string(nd, "id", nl),
                    fill_level=_number(nd, "fill_level", nl) if "fill_level" in nd else 0.0,
                    is_depot=is_depot,
                )
            )
        except ValueError as exc:
            raise ValidationError(str(exc), locus=nl) from exc
    edges = {}
    for i, ed in enumerate(doc["edges"]):
        el = f"{locus}.edges[{i}]"
        _require_keys(
            ed,
            {"a", "b", "distance_km", "emission_rate_kg_per_km"},
            {"a", "b", "distance_km", "emission_rate_kg_per_km"},
            el,
        )
        key = (_string(ed, "a", el), _string(ed, "b", el))
        if key in edges:
            raise ParseError(f"duplicate edge ({key[0]}, {key[1]})", locus=el)
        try:
            edges[key] = EdgeAttrs(
                distance_km=_number(ed, "distance_km", el),
                emission_rate_kg_per_km=_number(ed, "emission_rate_kg_per_km", el),
            )
        except ValueError as exc:
            raise ValidationError(str(exc), locus=el) from exc
    try:
        return CollectionGraph(nodes=tuple(nodes), edges=edges)
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc


def _parse_facility(doc: Mapping, locus: str) -> FacilityModel:
    _require_keys(
        doc, {"stations", "throughput_kg_per_step"}, {"stations", "throughput_kg_per_step"}, locus
    )
    if not isinstance(doc["stations"], list):
        raise ParseError("'stations' must be an array", locus=locus)
    stations = []
    for i, st in enumerate(doc["stations"]):
        sl = f"{locus}.stations[{i}]"
        _require_keys(
            st,
            {"id", "recovery_efficiency", "energy_kwh_per_kg", "loss_fraction"},
            {"id", "recovery_efficiency", "energy_kwh_per_kg", "loss_fraction"},
            sl,
        )
        try:
            stations.append(
                Station(
                    id=_string(st, "id", sl),
                    recovery_efficiency=_number_map(st, "recovery_efficiency", sl),
                    energy_kwh_per_kg=_number(st, "energy_kwh_per_kg", sl),
                    loss_fraction=_number(st, "loss_fraction", sl),
                )
            )
        except ValueError as exc:
            raise ValidationError(str(exc), locus=sl) from exc
    try:
        return FacilityModel(
            stations=tuple(stations),
            throughput_kg_per_step=_number(doc, "throughput_kg_per_step", locus),
        )
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc


def _parse_waste_stream(doc: Mapping, locus: str) -> WasteStreamConfig:
    _require_keys(
        doc,
        {"category_mix", "fill_increment_mean", "fill_increment_std",
         "feature_means", "feature_stds"},
        {"category_mix", "fill_increment_mean", "fill_increment_std",
         "feature_means", "feature_stds"},
        locus,
    )
    means_doc = doc["feature_means"]
    if not isinstance(means_doc, dict):
        raise ParseError("'feature_means' must be an object", locus=locus)
    feature_means = {
        cat: _number_map(means_doc, cat, f"{locus}.feature_means")
        for cat in means_doc
    }
    try:
        return WasteStreamConfig(
            category_mix=_number_map(doc, "category_mix", locus),
            fill_increment_mean=_number(doc, "fill_increment_mean", locus),
            fill_increment_std=_number(doc, "fill_increment_std", locus),
            feature_means=feature_means,
            feature_stds=_number_map(doc, "feature_stds", locus),
        )
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc


def _parse_energy_model(doc: Mapping, locus: str) -> UsagePlan:
    _require_keys(doc, {"alpha", "beta", "stage_costs"}, {"alpha", "beta"}, locus)
    costs_doc = doc.get("stage_costs", {})
    if not isinstance(costs_doc, dict):
        raise ParseError("'stage_costs' must be an object", locus=locus)
    stage_costs = {}
    for stage, usage in costs_doc.items():
        ul = f"{locus}.stage_costs[{stage!r}]"
        _require_keys(usage, {"compute_seconds", "transferred_mb"}, set(), ul)
        try:
            stage_costs[stage] = StageUsage(
                stage_name=stage,
                compute_seconds=_number(usage, "compute_seconds", ul)
                if "compute_seconds" in usage else 0.0,
                transferred_mb=_number(usage, "transferred_mb", ul)
                if "transferred_mb" in usage else 0.0,
            )
        except ValueError as exc:
            raise ValidationError(str(exc), locus=ul) from exc
    try:
        model = EnergyModel(alpha=_number(doc, "alpha", locus), beta=_number(doc, "beta", locus))
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc
    return UsagePlan(model=model, stage_costs=stage_costs)


TOP_LEVEL_KEYS = {
    "materials", "processes", "limits", "emission_factors", "collection_graph",
    "targets", "integrality", "rng_seed", "facility", "waste_stream", "energy_model",
}


def parse_scenario(doc: Mapping) -> ScenarioSpec:
    """Build a ScenarioSpec from a decoded JSON document (strict keys)."""
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object", locus="$")
    _require_keys(doc, TOP_LEVEL_KEYS, {"rng_seed"}, "$")

    seed = doc["rng_seed"]
    if not is_rng_seed(seed):
        raise ParseError("'rng_seed' must be an unsigned 64-bit integer", locus="$")

    def seq(key):
        v = doc.get(key, [])
        if not isinstance(v, list):
            raise ParseError(f"{key!r} must be an array", locus="$")
        return v

    materials = tuple(
        _parse_material(m, f"materials[{i}]") for i, m in enumerate(seq("materials"))
    )
    processes = tuple(
        _parse_process(p, f"processes[{i}]") for i, p in enumerate(seq("processes"))
    )
    limits = tuple(_parse_limit(l, f"limits[{i}]") for i, l in enumerate(seq("limits")))
    factors = tuple(
        _parse_factor(f, f"emission_factors[{i}]")
        for i, f in enumerate(seq("emission_factors"))
    )

    integrality_doc = doc.get("integrality", [])
    if not isinstance(integrality_doc, list) or not all(
        isinstance(x, str) for x in integrality_doc
    ):
        raise ParseError("'integrality' must be an array of process ids", locus="$")

    targets = _number_map(doc, "targets", "$") if "targets" in doc else {}

    return ScenarioSpec(
        materials=materials,
        processes=processes,
        limits=limits,
        emission_factors=factors,
        collection_graph=(
            _parse_graph(doc["collection_graph"], "collection_graph")
            if "collection_graph" in doc else None
        ),
        targets=targets,
        integrality=frozenset(integrality_doc),
        rng_seed=seed,
        facility=(
            _parse_facility(doc["facility"], "facility") if "facility" in doc else None
        ),
        waste_stream=(
            _parse_waste_stream(doc["waste_stream"], "waste_stream")
            if "waste_stream" in doc else None
        ),
        energy_model=(
            _parse_energy_model(doc["energy_model"], "energy_model")
            if "energy_model" in doc else None
        ),
    )


def read_scenario(path: str | Path) -> ScenarioSpec:
    """Read and parse a scenario file, leaving its values unvalidated."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}", locus=str(p)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg}", locus=f"{p}:{exc.lineno}:{exc.colno}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply", locus=str(p)) from exc
    return parse_scenario(doc)


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read, parse, and validate a scenario file."""
    spec = read_scenario(path)
    diagnostics = validate_scenario(spec)
    if diagnostics:
        first = diagnostics[0]
        raise ValidationError(
            f"{first.message} (and {len(diagnostics) - 1} more)"
            if len(diagnostics) > 1 else first.message,
            locus=first.path,
        )
    return spec


def validate_scenario(s: ScenarioSpec) -> list[Diagnostic]:
    """Check every value-level invariant; empty result means valid."""
    out: list[Diagnostic] = []

    seen_ids: set[str] = set()
    for i, m in enumerate(s.materials):
        path = f"materials[{i}]"
        if m.id in seen_ids:
            out.append(Diagnostic(path=f"{path}.id", message=f"duplicate material id {m.id!r}"))
        seen_ids.add(m.id)
        if m.category not in MATERIAL_CATEGORIES:
            out.append(Diagnostic(
                path=f"{path}.category",
                message=f"unknown category {m.category!r}; expected one of {MATERIAL_CATEGORIES}",
            ))
        if m.mass_kg < 0:
            out.append(Diagnostic(
                path=f"{path}.mass_kg", message=f"mass_kg must be >= 0, got {m.mass_kg}"
            ))
        if m.lifecycle_stage not in LIFECYCLE_STATES:
            out.append(Diagnostic(
                path=f"{path}.lifecycle_stage",
                message=f"unknown lifecycle_stage {m.lifecycle_stage!r}",
            ))
        total = 0.0
        for el, frac in m.composition.items():
            if el not in ELEMENTS:
                out.append(Diagnostic(
                    path=f"{path}.composition",
                    message=f"unknown element {el!r}; expected one of {ELEMENTS}",
                ))
            if not 0.0 <= frac <= 1.0:
                out.append(Diagnostic(
                    path=f"{path}.composition[{el!r}]",
                    message=f"fraction must be in [0, 1], got {frac}",
                ))
            total += frac
        if total > 1.0 + 1e-9:
            out.append(Diagnostic(
                path=f"{path}.composition",
                message=f"material {m.id!r}: fractions sum > 1 ({total})",
            ))

    factor_ids = set()
    for i, ef in enumerate(s.emission_factors):
        path = f"emission_factors[{i}]"
        if ef.id in factor_ids:
            out.append(Diagnostic(path=f"{path}.id", message=f"duplicate factor id {ef.id!r}"))
        factor_ids.add(ef.id)

    process_ids = set()
    for i, p in enumerate(s.processes):
        path = f"processes[{i}]"
        if p.id in process_ids:
            out.append(Diagnostic(path=f"{path}.id", message=f"duplicate process id {p.id!r}"))
        process_ids.add(p.id)
        if p.energy_per_unit < 0:
            out.append(Diagnostic(
                path=f"{path}.energy_per_unit",
                message=f"energy_per_unit must be >= 0, got {p.energy_per_unit}",
            ))
        if p.emission_factor_id not in factor_ids:
            out.append(Diagnostic(
                path=f"{path}.emission_factor_id",
                message=f"process {p.id!r} references unknown emission factor {p.emission_factor_id!r}",
            ))

    for i, lim in enumerate(s.limits):
        path = f"limits[{i}]"
        if lim.availability < 0:
            out.append(Diagnostic(
                path=f"{path}.availability",
                message=f"availability must be >= 0, got {lim.availability}",
            ))
        for pid, coeff in lim.consumption.items():
            if coeff < 0:
                out.append(Diagnostic(
                    path=f"{path}.consumption[{pid!r}]",
                    message=f"consumption coefficient must be >= 0, got {coeff}",
                ))

    for name in sorted(s.targets):
        if s.targets[name] < 0:
            out.append(Diagnostic(
                path=f"targets[{name!r}]",
                message=f"target must be >= 0, got {s.targets[name]}",
            ))

    for pid in sorted(s.integrality):
        if pid not in process_ids:
            out.append(Diagnostic(
                path="integrality",
                message=f"integrality names unknown process {pid!r}",
            ))

    if s.facility is not None:
        cell_kg = sum(m.mass_kg for m in s.materials if m.category == "battery-cell")
        problem = step_budget_problem(cell_kg, s.facility.throughput_kg_per_step)
        if problem:
            out.append(Diagnostic(path="facility.throughput_kg_per_step", message=problem))

    if s.energy_model is not None:
        for stage in sorted(s.energy_model.stage_costs):
            if stage not in STAGE_ORDER:
                out.append(Diagnostic(
                    path=f"energy_model.stage_costs[{stage!r}]",
                    message=f"unknown stage {stage!r}; expected one of {STAGE_ORDER}",
                ))

    return out


def compile_to_lp(s: ScenarioSpec) -> LinearProgram:
    """One allocation variable per process, one row per resource limit."""
    pids = [p.id for p in s.processes]
    index = {pid: j for j, pid in enumerate(pids)}
    n = len(pids)

    rows = []
    for lim in s.limits:
        coeffs = [0.0] * n
        for pid, coeff in lim.consumption.items():
            if pid not in index:
                raise CompileError(
                    f"limit {lim.resource_id!r} references unknown process {pid!r}"
                )
            coeffs[index[pid]] = coeff
        rows.append((tuple(coeffs), lim.availability))

    if "co2_cap_kg" in s.targets:
        by_id = {ef.id: ef for ef in s.emission_factors}
        coeffs = []
        for p in s.processes:
            ef = by_id.get(p.emission_factor_id)
            if ef is None:
                raise CompileError(
                    f"process {p.id!r} references unknown emission factor "
                    f"{p.emission_factor_id!r}"
                )
            coeffs.append(ef.e)
        rows.append((tuple(coeffs), s.targets["co2_cap_kg"]))

    integer_mask = tuple(pid in s.integrality for pid in pids)

    upper = []
    for j, pid in enumerate(pids):
        if not integer_mask[j]:
            upper.append(math.inf)
            continue
        implied = math.inf
        for coeffs, rhs in rows:
            if coeffs[j] > 0:
                implied = min(implied, rhs / coeffs[j])
        if not math.isfinite(implied):
            raise CompileError(
                f"integer process {pid!r} has no limit row bounding it; "
                "branch-and-bound needs a finite range"
            )
        upper.append(implied)

    return LinearProgram(
        objective=tuple(p.unit_cost for p in s.processes),
        rows=tuple(rows),
        lower_bounds=(0.0,) * n,
        upper_bounds=tuple(upper),
        integer_mask=integer_mask,
        variable_names=tuple(pids),
    )


def scenario_to_dict(s: ScenarioSpec) -> dict:
    """Serializable document in the scenario file schema."""
    doc: dict = {"rng_seed": s.rng_seed}
    doc["materials"] = [
        {
            "id": m.id,
            "name": m.name,
            "category": m.category,
            "mass_kg": m.mass_kg,
            "composition": dict(sorted(m.composition.items())),
            "lifecycle_stage": m.lifecycle_stage,
        }
        for m in s.materials
    ]
    doc["processes"] = [
        {
            "id": p.id,
            "unit_cost": p.unit_cost,
            "energy_per_unit": p.energy_per_unit,
            "emission_factor_id": p.emission_factor_id,
        }
        for p in s.processes
    ]
    doc["limits"] = [
        {
            "resource_id": lim.resource_id,
            "availability": lim.availability,
            "consumption": dict(sorted(lim.consumption.items())),
        }
        for lim in s.limits
    ]
    doc["emission_factors"] = [
        {"id": ef.id, "process_id": ef.process_id, "e": ef.e, "stage": ef.stage}
        for ef in s.emission_factors
    ]
    if s.collection_graph is not None:
        g = s.collection_graph
        doc["collection_graph"] = {
            "nodes": [
                {"id": n.id, "fill_level": n.fill_level, "is_depot": n.is_depot}
                for n in g.nodes
            ],
            "edges": [
                {
                    "a": a, "b": b,
                    "distance_km": at.distance_km,
                    "emission_rate_kg_per_km": at.emission_rate_kg_per_km,
                }
                for (a, b), at in sorted(g.edges.items())
            ],
        }
    if s.targets:
        doc["targets"] = dict(sorted(s.targets.items()))
    if s.integrality:
        doc["integrality"] = sorted(s.integrality)
    if s.facility is not None:
        doc["facility"] = {
            "throughput_kg_per_step": s.facility.throughput_kg_per_step,
            "stations": [
                {
                    "id": st.id,
                    "recovery_efficiency": dict(sorted(st.recovery_efficiency.items())),
                    "energy_kwh_per_kg": st.energy_kwh_per_kg,
                    "loss_fraction": st.loss_fraction,
                }
                for st in s.facility.stations
            ],
        }
    if s.waste_stream is not None:
        w = s.waste_stream
        doc["waste_stream"] = {
            "category_mix": dict(sorted(w.category_mix.items())),
            "fill_increment_mean": w.fill_increment_mean,
            "fill_increment_std": w.fill_increment_std,
            "feature_means": {
                cat: dict(sorted(means.items()))
                for cat, means in sorted(w.feature_means.items())
            },
            "feature_stds": dict(sorted(w.feature_stds.items())),
        }
    if s.energy_model is not None:
        doc["energy_model"] = {
            "alpha": s.energy_model.model.alpha,
            "beta": s.energy_model.model.beta,
            "stage_costs": {
                stage: {
                    "compute_seconds": usage.compute_seconds,
                    "transferred_mb": usage.transferred_mb,
                }
                for stage, usage in sorted(s.energy_model.stage_costs.items())
            },
        }
    return doc


def save_scenario(s: ScenarioSpec, path: str | Path) -> None:
    from .serialize import write_json

    write_json(path, scenario_to_dict(s))
