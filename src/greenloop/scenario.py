"""Declarative scenario files: parsing, validation, and LP compilation.

A scenario is one UTF-8 JSON document holding the material stream, the
candidate processes with costs and emission factors, resource limits, an
optional collection graph, optional facility and waste-stream sections
for the simulators, targets, and the run seed. Parsing is strict: an
unknown key anywhere, a section that is not a JSON object, or a file
that is not UTF-8 JSON is a ParseError (exit 4), so fixtures cannot drift
silently. serialize.read_json_checked decides when a file is unreadable;
a manifest or expectations file fails the same way as ManifestUnreadable
(exit 3).

Each section and record of the format lists its keys once, in its
_Record table, which both parse_scenario and scenario_to_dict read; a
list of records is read and written back by its record. Only the top
level keeps its own code.

A list of records, such as the 1,000 battery materials, is read column by
column when its items are plain dicts that share one key set, holding
every required key and no unknown one, and each column is of the plain
JSON type its reader takes as is: str, bool, a finite float, or a dict
of finite floats. Those checks run over whole columns in C, and the
objects are built with one map over the columns. Any other list (an
int or a non-finite number, a str or dict subclass, an item that is not
a dict, items whose keys differ) and any ValueError from the record's
class is read item by item instead, which is the one path that raises a
list item's errors, each with its locus.

Value-level problems (negative mass, dangling factor, process or station
reference) are reported by validate_scenario as diagnostics;
load_scenario runs it and raises ValidationError when any come back.

compile_to_lp turns the scenario into the allocation program: one
variable per process in declaration order, one row per resource limit,
plus an emission cap row when targets carry co2_cap_kg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dataclass_fields
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import AbstractSet, Mapping

from .carbon import EmissionFactor
from .energy import STAGE_ORDER, EnergyModel, StageUsage, energy_of
from .errors import CompileError, Diagnostic, ParseError, ValidationError
from .routing import BinNode, CollectionGraph, EdgeAttrs
from .serialize import read_json_checked, write_json
from .solver import LinearProgram
from .twin import ELEMENTS, FacilityModel, Station, WasteStreamConfig, step_budget_problem

MATERIAL_CATEGORIES = ("battery-cell", "plastic", "metal", "organic", "glass", "other")
LIFECYCLE_STATES = ("collected", "disassembled", "recovered", "residual")
_CATEGORY_SET = frozenset(MATERIAL_CATEGORIES)
_LIFECYCLE_SET = frozenset(LIFECYCLE_STATES)
_ELEMENT_SET = frozenset(ELEMENTS)
CELLS_WITHOUT_FACILITY = "scenario has battery-cell materials but no facility to process them"


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
    energy_model: EnergyModel | None = None


def _section(
    doc, locus: str, required: AbstractSet[str], optional: AbstractSet[str] = frozenset()
) -> dict:
    """doc, once it is a JSON object with each required key and no key
    outside required and optional."""
    if not isinstance(doc, dict):
        raise ParseError("must be a JSON object", locus=locus)
    unknown = doc.keys() - required - optional
    if unknown:
        raise ParseError(f"unknown key {min(unknown)!r}", locus=locus)
    missing = required - doc.keys()
    if missing:
        raise ParseError(f"missing required key {min(missing)!r}", locus=locus)
    return doc


def _array(doc: Mapping, key: str, locus: str) -> list:
    """doc[key] (empty when absent), once it is a JSON array."""
    v = doc.get(key, [])
    if not isinstance(v, list):
        raise ParseError(f"{key!r} must be an array", locus=locus)
    return v


def _build(cls, locus: str, **fields):
    """cls(**fields), its own checks' ValueError raised as a ValidationError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ValidationError(str(exc), locus=locus) from exc


def finite_float(raw) -> float:
    """raw as a float, the rule for every number read from JSON: a bool or
    non-number raises TypeError, and NaN, an infinity or an int past the float
    range ValueError. A finite float, which JSON decodes most numbers to,
    returns first: a scenario can hold thousands."""
    if type(raw) is float and math.isfinite(raw):
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError("must be a number")
    try:
        v = float(raw)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _finite(raw, locus: str, key: str, item: str | None = None) -> float:
    """finite_float(raw); its error is a ParseError naming doc[key], or
    doc[key][item] when item is given."""
    try:
        return finite_float(raw)
    except (TypeError, ValueError) as exc:
        name = repr(key) if item is None else f"{key}[{item!r}]"
        raise ParseError(f"{name} {exc}", locus=locus) from None


def _number(doc: Mapping, key: str, locus: str, default: float | None = None) -> float:
    if default is not None and key not in doc:
        return default
    return _finite(doc.get(key), locus, key)


def _string(doc: Mapping, key: str, locus: str) -> str:
    v = doc.get(key)
    if not isinstance(v, str):
        raise ParseError(f"{key!r} must be a string", locus=locus)
    return v


def _object(doc: Mapping, key: str, locus: str) -> dict:
    """doc[key] (empty when absent), once it is a JSON object."""
    v = doc.get(key, {})
    if not isinstance(v, dict):
        raise ParseError(f"{key!r} must be an object", locus=locus)
    return v


def _number_map(doc: Mapping, key: str, locus: str) -> dict[str, float]:
    return {k: _finite(raw, locus, key, k) for k, raw in _object(doc, key, locus).items()}


def _boolean(doc: Mapping, key: str, locus: str) -> bool:
    v = doc.get(key)
    if not isinstance(v, bool):
        raise ParseError(f"{key!r} must be a boolean", locus=locus)
    return v


def _number_maps(doc: Mapping, key: str, locus: str) -> dict[str, dict[str, float]]:
    maps = _object(doc, key, locus)
    return {name: _number_map(maps, name, f"{locus}.{key}") for name in maps}


def _edges(doc: Mapping, key: str, locus: str) -> dict[tuple[str, str], EdgeAttrs]:
    """The edge list keyed by (a, b); an edge listed twice is a ParseError."""
    edges = {}
    for i, ed in enumerate(_array(doc, key, locus)):
        el = f"{locus}.{key}[{i}]"
        _section(ed, el, {"a", "b", "distance_km", "emission_rate_kg_per_km"})
        pair = (_string(ed, "a", el), _string(ed, "b", el))
        if pair in edges:
            raise ParseError(f"duplicate edge ({pair[0]}, {pair[1]})", locus=el)
        edges[pair] = _build(
            EdgeAttrs, el,
            distance_km=_number(ed, "distance_km", el),
            emission_rate_kg_per_km=_number(ed, "emission_rate_kg_per_km", el),
        )
    return edges


def _stage_costs(doc: Mapping, key: str, locus: str) -> dict[str, StageUsage]:
    """Each stage's fixed usage, a missing quantity read as 0."""
    return {
        stage: STAGE_USAGE.parse(usage, f"{locus}.{key}[{stage!r}]")
        for stage, usage in _object(doc, key, locus).items()
    }


# How a value read by one of these readers is written back: a map as a
# plain dict copy, a map of maps as nested copies, the edges as a list
# sorted by (a, b), each stage's usage by its record. The value of any
# other reader is written as is.
_WRITE_BACK = {
    _number_map: dict,
    _number_maps: lambda m: {k: dict(v) for k, v in m.items()},
    _edges: lambda edges: [
        {"a": a, "b": b, "distance_km": at.distance_km,
         "emission_rate_kg_per_km": at.emission_rate_kg_per_km}
        for (a, b), at in sorted(edges.items())
    ],
    _stage_costs: lambda costs: {stage: STAGE_USAGE.to_dict(u) for stage, u in costs.items()},
}


def _finite_floats(values: list) -> bool:
    return set(map(type, values)) <= {float} and all(map(math.isfinite, values))


# The column-wise twin of each reader a list of records uses: the column of
# one key over all items, as the reader returns it item by item, or None
# when an item holds a value the reader would check or convert one by one.
_COLUMN_READS = {
    _string: lambda column: column if set(map(type, column)) == {str} else None,
    _boolean: lambda column: column if set(map(type, column)) == {bool} else None,
    _number: lambda column: column if _finite_floats(column) else None,
    _number_map: lambda column: (
        list(map(dict, column))
        if set(map(type, column)) == {dict}
        and _finite_floats(list(chain.from_iterable(map(dict.values, column))))
        else None
    ),
}

REQUIRED = object()  # the default of a key a record must carry


class _Record:
    """One object of the scenario format: its class and its key table.

    keys holds (key, reader, default) in read order, each key naming the
    field of cls it fills. A key whose default is REQUIRED must be present;
    any other may be left out and takes its default as is (the {} of an
    absent map is one shared dict that nothing mutates). A _Record is
    itself the reader of a key that holds a list of its records.
    """

    def __init__(self, cls, keys):
        self.cls = cls
        self.keys = tuple(key for key, _, _ in keys)
        self.required = frozenset(key for key, _, default in keys if default is REQUIRED)
        self.known = frozenset(self.keys)
        self._reads = keys
        # parse calls cls positionally, with the values read put in its field order
        order = [self.keys.index(f.name) for f in dataclass_fields(cls)]
        self._in_field_order = itemgetter(*order)
        self._values = attrgetter(*self.keys)
        self._writes = tuple(
            (key, read.to_list if isinstance(read, _Record) else _WRITE_BACK[read])
            for key, read, _ in keys if isinstance(read, _Record) or read in _WRITE_BACK
        )

    def parse(self, doc, locus: str):
        _section(doc, locus, self.required, self.known)
        values = []
        for key, read, default in self._reads:
            values.append(read(doc, key, locus) if key in doc else default)
        try:  # not _build, whose keyword call costs more: there can be thousands of records
            return self.cls(*self._in_field_order(values))
        except ValueError as exc:
            raise ValidationError(str(exc), locus=locus) from exc

    def parse_all(self, docs: list, locus: str) -> tuple:
        """One object per item of docs, each named locus[i].

        A list that _parse_columns declines is parsed item by item, which
        raises each error with its locus.
        """
        objs = self._parse_columns(docs)
        if objs is None:
            objs = tuple(self.parse(doc, f"{locus}[{i}]") for i, doc in enumerate(docs))
        return objs

    def _parse_columns(self, docs: list) -> tuple | None:
        """The objects parse gives for docs, read one key at a time over all items.

        None unless the items are plain dicts sharing one key set, which
        holds the required keys and no unknown key, every key's column
        passes its _COLUMN_READS check and cls raises no ValueError.
        """
        if not docs or set(map(type, docs)) != {dict}:
            return None
        present = docs[0].keys()
        if len(set(map(len, docs))) != 1 or not self.required <= present <= self.known:
            return None
        columns = []
        for key, read, default in self._reads:
            if key not in present:
                columns.append([default] * len(docs))
                continue
            try:
                column = list(map(itemgetter(key), docs))
            except KeyError:  # an item with another key set of the same size
                return None
            read_column = _COLUMN_READS.get(read)
            column = read_column(column) if read_column else None
            if column is None:
                return None
            columns.append(column)
        try:
            return tuple(map(self.cls, *self._in_field_order(columns)))
        except ValueError:
            return None

    def __call__(self, doc: Mapping, key: str, locus: str) -> tuple:
        """The list of records at doc[key], read as a key of another record."""
        return self.parse_all(_array(doc, key, locus), f"{locus}.{key}")

    def to_dict(self, obj) -> dict:
        doc = dict(zip(self.keys, self._values(obj)))
        for key, write in self._writes:
            doc[key] = write(doc[key])
        return doc

    def to_list(self, objs) -> list[dict]:
        return list(map(self.to_dict, objs))


MATERIAL = _Record(MaterialSpec, (
    ("id", _string, REQUIRED), ("name", _string, ""), ("category", _string, REQUIRED),
    ("mass_kg", _number, REQUIRED), ("composition", _number_map, {}),
    ("lifecycle_stage", _string, "collected"),
))
PROCESS = _Record(ProcessSpec, (
    ("id", _string, REQUIRED), ("unit_cost", _number, REQUIRED),
    ("energy_per_unit", _number, REQUIRED), ("emission_factor_id", _string, REQUIRED),
))
LIMIT = _Record(ResourceLimit, (
    ("resource_id", _string, REQUIRED), ("availability", _number, REQUIRED),
    ("consumption", _number_map, {}),
))
FACTOR = _Record(EmissionFactor, (
    ("id", _string, REQUIRED), ("process_id", _string, REQUIRED),
    ("e", _number, REQUIRED), ("stage", _string, REQUIRED),
))
# is_depot is read before id, so a node whose is_depot is bad reports that first
NODE = _Record(BinNode, (
    ("is_depot", _boolean, False), ("id", _string, REQUIRED), ("fill_level", _number, 0.0),
))
GRAPH = _Record(CollectionGraph, (("nodes", NODE, REQUIRED), ("edges", _edges, REQUIRED)))
STATION = _Record(Station, (
    ("id", _string, REQUIRED), ("recovery_efficiency", _number_map, REQUIRED),
    ("energy_kwh_per_kg", _number, REQUIRED), ("loss_fraction", _number, REQUIRED),
))
FACILITY = _Record(FacilityModel, (
    ("stations", STATION, REQUIRED), ("throughput_kg_per_step", _number, REQUIRED),
))
WASTE_STREAM = _Record(WasteStreamConfig, (
    ("category_mix", _number_map, REQUIRED), ("fill_increment_mean", _number, REQUIRED),
    ("fill_increment_std", _number, REQUIRED), ("feature_means", _number_maps, REQUIRED),
    ("feature_stds", _number_map, REQUIRED),
))
STAGE_USAGE = _Record(StageUsage, (
    ("compute_seconds", _number, 0.0), ("transferred_mb", _number, 0.0),
))
# stage_costs is read before the weights, so a bad stage cost reports first
ENERGY_MODEL = _Record(EnergyModel, (
    ("stage_costs", _stage_costs, {}), ("alpha", _number, REQUIRED), ("beta", _number, REQUIRED),
))
RECORDS = (
    MATERIAL, PROCESS, LIMIT, FACTOR, NODE, GRAPH, STATION, FACILITY, WASTE_STREAM,
    STAGE_USAGE, ENERGY_MODEL,
)


def parse_scenario(doc: Mapping) -> ScenarioSpec:
    """Build a ScenarioSpec from a decoded JSON document (strict keys)."""
    _section(doc, "$", {"rng_seed"}, {
        "materials", "processes", "limits", "emission_factors", "collection_graph",
        "targets", "integrality", "facility", "waste_stream", "energy_model",
    })

    seed = doc["rng_seed"]
    if not is_rng_seed(seed):
        raise ParseError("'rng_seed' must be an unsigned 64-bit integer", locus="$")

    def optional(key, parse):
        return parse(doc[key], key) if key in doc else None

    integrality_doc = _array(doc, "integrality", "$")
    if not all(isinstance(x, str) for x in integrality_doc):
        raise ParseError("'integrality' must be an array of process ids", locus="$")

    return ScenarioSpec(
        materials=MATERIAL.parse_all(_array(doc, "materials", "$"), "materials"),
        processes=PROCESS.parse_all(_array(doc, "processes", "$"), "processes"),
        limits=LIMIT.parse_all(_array(doc, "limits", "$"), "limits"),
        emission_factors=FACTOR.parse_all(
            _array(doc, "emission_factors", "$"), "emission_factors"
        ),
        collection_graph=optional("collection_graph", GRAPH.parse),
        targets=_number_map(doc, "targets", "$"),
        integrality=frozenset(integrality_doc),
        rng_seed=seed,
        facility=optional("facility", FACILITY.parse),
        waste_stream=optional("waste_stream", WASTE_STREAM.parse),
        energy_model=optional("energy_model", ENERGY_MODEL.parse),
    )


def read_scenario(path: str | Path) -> ScenarioSpec:
    """Read and parse a scenario file, leaving its values unvalidated."""
    return parse_scenario(read_json_checked(path, ParseError, "scenario"))


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

    # a clean material costs set lookups only: a path is built for a diagnostic
    seen_ids: set[str] = set()
    for i, m in enumerate(s.materials):
        if m.id in seen_ids:
            out.append(Diagnostic(
                path=f"materials[{i}].id", message=f"duplicate material id {m.id!r}"
            ))
        seen_ids.add(m.id)
        if m.category not in _CATEGORY_SET:
            out.append(Diagnostic(
                path=f"materials[{i}].category",
                message=f"unknown category {m.category!r}; expected one of {MATERIAL_CATEGORIES}",
            ))
        if m.mass_kg < 0:
            out.append(Diagnostic(
                path=f"materials[{i}].mass_kg", message=f"mass_kg must be >= 0, got {m.mass_kg}"
            ))
        if m.lifecycle_stage not in _LIFECYCLE_SET:
            out.append(Diagnostic(
                path=f"materials[{i}].lifecycle_stage",
                message=f"unknown lifecycle_stage {m.lifecycle_stage!r}",
            ))
        total = 0.0
        for el, frac in m.composition.items():
            if el not in _ELEMENT_SET:
                out.append(Diagnostic(
                    path=f"materials[{i}].composition",
                    message=f"unknown element {el!r}; expected one of {ELEMENTS}",
                ))
            if not 0.0 <= frac <= 1.0:
                out.append(Diagnostic(
                    path=f"materials[{i}].composition[{el!r}]",
                    message=f"fraction must be in [0, 1], got {frac}",
                ))
            total += frac
        if total > 1.0 + 1e-9:
            out.append(Diagnostic(
                path=f"materials[{i}].composition",
                message=f"material {m.id!r}: fractions sum > 1 ({total})",
            ))

    factor_ids = set()
    factor_of: dict[str, str] = {}
    for i, ef in enumerate(s.emission_factors):
        path = f"emission_factors[{i}]"
        if ef.id in factor_ids:
            out.append(Diagnostic(path=f"{path}.id", message=f"duplicate factor id {ef.id!r}"))
        factor_ids.add(ef.id)
        if ef.process_id in factor_of:
            out.append(Diagnostic(
                path=f"{path}.process_id",
                message=f"process {ef.process_id!r} has factors "
                f"{factor_of[ef.process_id]!r} and {ef.id!r}",
            ))
        factor_of.setdefault(ef.process_id, ef.id)

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
            if pid not in process_ids:
                out.append(Diagnostic(
                    path=f"{path}.consumption[{pid!r}]",
                    message=f"limit {lim.resource_id!r} references unknown process {pid!r}",
                ))
            if coeff < 0:
                out.append(Diagnostic(
                    path=f"{path}.consumption[{pid!r}]",
                    message=f"consumption coefficient must be >= 0, got {coeff}",
                ))

    for name in sorted(s.targets):
        value = s.targets[name]
        if name != "co2_cap_kg" and name not in ELEMENTS:
            out.append(Diagnostic(
                path=f"targets[{name!r}]",
                message=f"unknown target {name!r}; expected 'co2_cap_kg' or an "
                f"element recovery rate, one of {ELEMENTS}",
            ))
        elif value < 0:
            out.append(Diagnostic(
                path=f"targets[{name!r}]",
                message=f"target must be >= 0, got {value}",
            ))
        elif name in ELEMENTS and value > 1:
            out.append(Diagnostic(
                path=f"targets[{name!r}]",
                message=f"recovery rate target must be <= 1, got {value}",
            ))

    for pid in sorted(s.integrality):
        if pid not in process_ids:
            out.append(Diagnostic(
                path="integrality",
                message=f"integrality names unknown process {pid!r}",
            ))
    for pid, bound in integer_upper_bounds(s).items():
        if not math.isfinite(bound):
            out.append(Diagnostic(path="integrality", message=_unbounded_integer(pid)))

    has_cells = any(m.category == "battery-cell" for m in s.materials)
    if s.facility is None and has_cells:
        out.append(Diagnostic(path="facility", message=CELLS_WITHOUT_FACILITY))
    elif s.facility is not None:
        cell_kg = sum(m.mass_kg for m in s.materials if m.category == "battery-cell")
        problem = step_budget_problem(cell_kg, s.facility.throughput_kg_per_step)
        if problem:
            out.append(Diagnostic(path="facility.throughput_kg_per_step", message=problem))
        if has_cells:
            for i, st in enumerate(s.facility.stations):
                if st.id not in factor_of:
                    out.append(Diagnostic(
                        path=f"facility.stations[{i}].id",
                        message=f"station {st.id!r} has no emission factor; "
                        "the carbon stage needs one for each station",
                    ))

    if s.energy_model is not None:
        for stage in sorted(s.energy_model.stage_costs):
            if stage not in STAGE_ORDER:
                out.append(Diagnostic(
                    path=f"energy_model.stage_costs[{stage!r}]",
                    message=f"unknown stage {stage!r}; expected one of {STAGE_ORDER}",
                ))
        # each fixed stage priced as meter prices it, and summed in run order
        fixed_kwh = 0.0
        overflows = []
        for stage in STAGE_ORDER:
            if stage not in s.energy_model.stage_costs:
                continue
            kwh = energy_of(s.energy_model, s.energy_model.stage_costs[stage])
            fixed_kwh += kwh
            if not math.isfinite(kwh):
                overflows.append(Diagnostic(
                    path=f"energy_model.stage_costs[{stage!r}]",
                    message=f"fixed usage of stage {stage!r} prices to {kwh} kWh",
                ))
        if not overflows and not math.isfinite(fixed_kwh):
            overflows.append(Diagnostic(
                path="energy_model.stage_costs",
                message=f"fixed stage usage sums to {fixed_kwh} kWh",
            ))
        out += overflows

    return out


def integer_upper_bounds(s: ScenarioSpec) -> dict[str, float]:
    """Each integer process's largest level its limit rows and any CO2 cap allow.

    math.inf marks a process that no row consumes, which leaves
    branch-and-bound no finite range to search.
    """
    cap = s.targets.get("co2_cap_kg")
    factor_e = {ef.id: ef.e for ef in s.emission_factors}
    bounds = {}
    for p in s.processes:
        if p.id not in s.integrality:
            continue
        rows = [(lim.consumption.get(p.id, 0.0), lim.availability) for lim in s.limits]
        if cap is not None:
            rows.append((factor_e.get(p.emission_factor_id, 0.0), cap))
        bounds[p.id] = min((rhs / c for c, rhs in rows if c > 0), default=math.inf)
    return bounds


def _unbounded_integer(pid: str) -> str:
    return (
        f"integer process {pid!r} has no limit row bounding it; "
        "branch-and-bound needs a finite range"
    )


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

    bounds = integer_upper_bounds(s)
    for pid, bound in bounds.items():
        if not math.isfinite(bound):
            raise CompileError(_unbounded_integer(pid))

    return LinearProgram(
        objective=tuple(p.unit_cost for p in s.processes),
        rows=tuple(rows),
        lower_bounds=(0.0,) * n,
        upper_bounds=tuple(bounds.get(pid, math.inf) for pid in pids),
        integer_mask=tuple(pid in s.integrality for pid in pids),
        variable_names=tuple(pids),
    )


def scenario_to_dict(s: ScenarioSpec) -> dict:
    """Serializable document in the scenario file schema."""
    doc: dict = {
        "rng_seed": s.rng_seed,
        "materials": MATERIAL.to_list(s.materials),
        "processes": PROCESS.to_list(s.processes),
        "limits": LIMIT.to_list(s.limits),
        "emission_factors": FACTOR.to_list(s.emission_factors),
    }
    if s.collection_graph is not None:
        doc["collection_graph"] = GRAPH.to_dict(s.collection_graph)
    if s.targets:
        doc["targets"] = dict(s.targets)
    if s.integrality:
        doc["integrality"] = sorted(s.integrality)
    if s.facility is not None:
        doc["facility"] = FACILITY.to_dict(s.facility)
    if s.waste_stream is not None:
        doc["waste_stream"] = WASTE_STREAM.to_dict(s.waste_stream)
    if s.energy_model is not None:
        doc["energy_model"] = ENERGY_MODEL.to_dict(s.energy_model)
    return doc


def save_scenario(s: ScenarioSpec, path: str | Path) -> None:
    write_json(path, scenario_to_dict(s))
