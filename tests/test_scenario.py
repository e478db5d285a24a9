"""Scenario parsing, validation, compilation, and round-trip tests."""

import dataclasses
import hashlib
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_solver import enumerate_integer_optimum

from greenloop import twin
from greenloop.errors import CompileError, ParseError, ValidationError
from greenloop.scenario import (
    FACTOR,
    LIMIT,
    MATERIAL,
    NODE,
    PROCESS,
    RECORDS,
    STATION,
    MaterialSpec,
    ProcessSpec,
    ResourceLimit,
    ScenarioSpec,
    _boolean,
    _number,
    _number_map,
    _Record,
    _string,
    compile_to_lp,
    integer_upper_bounds,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from greenloop.serialize import canonical_dumps
from greenloop.solver import LinearProgram, SolveStatus, check_solution, solve_milp
from greenloop.carbon import EmissionFactor


def minimal_doc(**extra):
    doc = {"rng_seed": 11}
    doc.update(extra)
    return doc


def alloc_doc():
    """Three negative-cost processes under two resource limits."""
    return minimal_doc(
        processes=[
            {"id": "pA", "unit_cost": -3.0, "energy_per_unit": 1.0, "emission_factor_id": "efA"},
            {"id": "pB", "unit_cost": -4.0, "energy_per_unit": 2.0, "emission_factor_id": "efB"},
            {"id": "pC", "unit_cost": -2.0, "energy_per_unit": 1.5, "emission_factor_id": "efC"},
        ],
        emission_factors=[
            {"id": "efA", "process_id": "pA", "e": 0.5, "stage": "processing"},
            {"id": "efB", "process_id": "pB", "e": 1.5, "stage": "recovery"},
            {"id": "efC", "process_id": "pC", "e": 1.0, "stage": "disposal"},
        ],
        limits=[
            {"resource_id": "labor", "availability": 10.0,
             "consumption": {"pA": 2.0, "pB": 3.0, "pC": 1.0}},
            {"resource_id": "machine", "availability": 6.0,
             "consumption": {"pA": 1.0, "pB": 2.0, "pC": 2.0}},
        ],
        integrality=["pA", "pB", "pC"],
    )


class TestParsing:
    def test_minimal_document(self):
        s = parse_scenario(minimal_doc())
        assert s.rng_seed == 11
        assert s.materials == ()
        assert s.collection_graph is None

    def test_missing_seed_rejected(self):
        with pytest.raises(ParseError, match="rng_seed"):
            parse_scenario({})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError, match="surprise"):
            parse_scenario(minimal_doc(surprise=1))

    def test_unknown_nested_key_rejected(self):
        doc = minimal_doc(materials=[{
            "id": "m1", "category": "plastic", "mass_kg": 1.0, "color": "red",
        }])
        with pytest.raises(ParseError, match="color"):
            parse_scenario(doc)

    def test_parse_error_carries_locus(self):
        doc = minimal_doc(materials=[
            {"id": "m0", "category": "plastic", "mass_kg": 1.0},
            {"id": "m1", "category": "plastic", "mass_kg": "heavy"},
        ])
        with pytest.raises(ParseError, match=r"materials\[1\]"):
            parse_scenario(doc)

    def test_wrong_type_rejected(self):
        with pytest.raises(ParseError, match="array"):
            parse_scenario(minimal_doc(processes={"id": "p"}))

    def test_bool_not_accepted_as_number(self):
        doc = minimal_doc(materials=[{"id": "m", "category": "other", "mass_kg": True}])
        with pytest.raises(ParseError, match="number"):
            parse_scenario(doc)

    def test_malformed_json_file_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"rng_seed": 1,\n  "materials": [}', encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_integer_past_digit_limit(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"rng_seed": ' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_scenario(p)

    @pytest.mark.parametrize("section", ["materials", "limits", "emission_factors"])
    @pytest.mark.parametrize("value", [None, 3, True, "x", [1]])
    def test_section_must_be_object(self, section, value):
        with pytest.raises(ParseError, match=r"must be a JSON object \(at " + section):
            parse_scenario(minimal_doc(**{section: [value]}))


class TestValidation:
    def test_empty_scenario_valid(self):
        assert validate_scenario(parse_scenario(minimal_doc())) == []

    def test_negative_mass_diagnostic(self):
        s = ScenarioSpec(
            materials=(MaterialSpec("m1", "", "plastic", -1.0),), rng_seed=1
        )
        diags = validate_scenario(s)
        assert len(diags) == 1
        assert "mass_kg" in diags[0].path

    def test_composition_over_one(self):
        s = ScenarioSpec(
            materials=(
                MaterialSpec("m1", "", "battery-cell", 5.0,
                             composition={"cobalt": 0.7, "nickel": 0.6}),
            ),
            rng_seed=1,
        )
        diags = validate_scenario(s)
        assert any("fractions sum > 1" in d.message and "m1" in d.message for d in diags)

    def test_every_material_defect_listed_in_order(self):
        m = MaterialSpec
        s = ScenarioSpec(
            materials=(
                m("m0", "", "plastic", 1.0),
                m("m0", "", "plastic", 1.0),
                m("m2", "", "ceramic", 1.0),
                m("m3", "", "metal", -2.5),
                m("m4", "", "metal", 1.0, lifecycle_stage="shredded"),
                m("m5", "", "metal", 1.0, composition={"cobalt": 0.2, "iron": 0.3}),
                m("m6", "", "metal", 1.0, composition={"nickel": -0.25, "cobalt": 0.5}),
                m("m7", "", "metal", 1.0, composition={"cobalt": 0.6, "nickel": 0.6}),
                m("m8", "", "metal", 1.0, composition={"cobalt": 0.5, "other": 0.5 + 5e-10}),
                m("m0", "", "ceramic", -1.0, composition={"iron": 2.0},
                  lifecycle_stage="shredded"),
            ),
            rng_seed=1,
        )
        categories = "('battery-cell', 'plastic', 'metal', 'organic', 'glass', 'other')"
        elements = "('cobalt', 'lithium', 'nickel', 'other')"
        assert [(d.path, d.message) for d in validate_scenario(s)] == [
            ("materials[1].id", "duplicate material id 'm0'"),
            ("materials[2].category", f"unknown category 'ceramic'; expected one of {categories}"),
            ("materials[3].mass_kg", "mass_kg must be >= 0, got -2.5"),
            ("materials[4].lifecycle_stage", "unknown lifecycle_stage 'shredded'"),
            ("materials[5].composition", f"unknown element 'iron'; expected one of {elements}"),
            ("materials[6].composition['nickel']", "fraction must be in [0, 1], got -0.25"),
            ("materials[7].composition", "material 'm7': fractions sum > 1 (1.2)"),
            ("materials[9].id", "duplicate material id 'm0'"),
            ("materials[9].category", f"unknown category 'ceramic'; expected one of {categories}"),
            ("materials[9].mass_kg", "mass_kg must be >= 0, got -1.0"),
            ("materials[9].lifecycle_stage", "unknown lifecycle_stage 'shredded'"),
            ("materials[9].composition", f"unknown element 'iron'; expected one of {elements}"),
            ("materials[9].composition['iron']", "fraction must be in [0, 1], got 2.0"),
            ("materials[9].composition", "material 'm0': fractions sum > 1 (2.0)"),
        ]

    @pytest.mark.parametrize("excess, flagged", [(5e-10, False), (2e-9, True)])
    def test_composition_sum_tolerance(self, excess, flagged):
        s = ScenarioSpec(
            materials=(
                MaterialSpec("m", "", "metal", 1.0,
                             composition={"cobalt": 0.5, "other": 0.5 + excess}),
            ),
            rng_seed=1,
        )
        assert [d.path for d in validate_scenario(s)] == (
            ["materials[0].composition"] if flagged else []
        )

    def test_dangling_emission_factor(self):
        s = ScenarioSpec(
            processes=(ProcessSpec("p1", 1.0, 0.0, "ghost"),), rng_seed=1
        )
        diags = validate_scenario(s)
        assert any("ghost" in d.message for d in diags)

    def test_duplicate_ids_flagged(self):
        s = ScenarioSpec(
            materials=(
                MaterialSpec("m", "", "other", 1.0),
                MaterialSpec("m", "", "other", 2.0),
            ),
            rng_seed=1,
        )
        assert any("duplicate" in d.message for d in validate_scenario(s))

    def test_negative_target(self):
        s = ScenarioSpec(targets={"co2_cap_kg": -5.0}, rng_seed=1)
        assert any("target" in d.message for d in validate_scenario(s))

    def test_integrality_unknown_process(self):
        s = ScenarioSpec(integrality=frozenset({"ghost"}), rng_seed=1)
        assert any("ghost" in d.message for d in validate_scenario(s))

    def test_limit_names_unknown_process(self):
        doc = alloc_doc()
        doc["limits"][1]["consumption"]["ghost"] = 1.0
        assert [(d.path, d.message) for d in validate_scenario(parse_scenario(doc))] == [
            ("limits[1].consumption['ghost']", "limit 'machine' references unknown process 'ghost'")
        ]

    def test_two_factors_for_one_process(self):
        doc = alloc_doc()
        doc["emission_factors"].append(
            {"id": "efA2", "process_id": "pA", "e": 0.1, "stage": "processing"}
        )
        assert [(d.path, d.message) for d in validate_scenario(parse_scenario(doc))] == [
            ("emission_factors[3].process_id", "process 'pA' has factors 'efA' and 'efA2'")
        ]

    @pytest.mark.parametrize("category, flagged", [("battery-cell", True), ("plastic", False)])
    def test_station_without_factor(self, category, flagged):
        """Only cells go through the facility, and each station's kg is a carbon activity."""
        s = ScenarioSpec(
            materials=(MaterialSpec("m", "", category, 1.0),),
            facility=twin.FacilityModel(
                stations=(twin.Station("sort", {}, 0.1, 0.0),), throughput_kg_per_step=100.0
            ),
            rng_seed=1,
        )
        diags = validate_scenario(s)
        assert [d.path for d in diags] == (["facility.stations[0].id"] if flagged else [])
        if flagged:
            assert "station 'sort' has no emission factor" in diags[0].message

    @pytest.mark.parametrize("cap, flagged", [(None, True), (10.0, False)])
    def test_unbounded_integer_process(self, cap, flagged):
        # pC draws on no limit, so only a CO2 cap (its e is 1.0) bounds it
        doc = alloc_doc()
        for lim in doc["limits"]:
            del lim["consumption"]["pC"]
        if cap is not None:
            doc["targets"] = {"co2_cap_kg": cap}
        diags = validate_scenario(parse_scenario(doc))
        assert [str(d) for d in diags] == (
            ["integrality: integer process 'pC' has no limit row bounding it; "
             "branch-and-bound needs a finite range"] if flagged else []
        )

    @pytest.mark.parametrize("budget, flagged", [(3, False), (2, True)])
    def test_facility_step_budget(self, monkeypatch, budget, flagged):
        # 20 cells of 15 kg at 100 kg per step: exactly 3 steps
        monkeypatch.setattr(twin, "MAX_FACILITY_STEPS", budget)
        cells = tuple(MaterialSpec(f"c{i}", "", "battery-cell", 15.0) for i in range(20))
        s = ScenarioSpec(
            materials=cells + (MaterialSpec("p", "", "plastic", 1e6),),
            facility=twin.FacilityModel(stations=(), throughput_kg_per_step=100.0),
            rng_seed=1,
        )
        diags = validate_scenario(s)
        assert [d.path for d in diags] == (
            ["facility.throughput_kg_per_step"] if flagged else []
        )
        if flagged:
            assert "300 kg at 100 kg per step needs 3 steps" in diags[0].message

    def test_load_raises_validation_error(self, tmp_path):
        doc = minimal_doc(materials=[{
            "id": "m1", "category": "battery-cell", "mass_kg": 3.0,
            "composition": {"cobalt": 0.7, "nickel": 0.6},
        }])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="fractions sum > 1"):
            load_scenario(p)


class TestCompile:
    def test_direct_field_mapping(self):
        doc = minimal_doc(
            processes=[
                {"id": "P1", "unit_cost": 3.0, "energy_per_unit": 0.0, "emission_factor_id": "e1"},
                {"id": "P2", "unit_cost": 4.0, "energy_per_unit": 0.0, "emission_factor_id": "e2"},
            ],
            emission_factors=[
                {"id": "e1", "process_id": "P1", "e": 1.0, "stage": "processing"},
                {"id": "e2", "process_id": "P2", "e": 1.0, "stage": "processing"},
            ],
            limits=[{"resource_id": "r", "availability": 4.0,
                     "consumption": {"P1": 2.0, "P2": 3.0}}],
        )
        lp = compile_to_lp(parse_scenario(doc))
        assert lp.objective == (3.0, 4.0)
        assert lp.rows == (((2.0, 3.0), 4.0),)
        assert lp.variable_names == ("P1", "P2")
        assert lp.integer_mask == (False, False)

    def test_no_limits_no_targets_zero_rows(self):
        doc = minimal_doc(
            processes=[{"id": "P1", "unit_cost": 1.0, "energy_per_unit": 0.0,
                        "emission_factor_id": "e1"}],
            emission_factors=[{"id": "e1", "process_id": "P1", "e": 0.0,
                               "stage": "collection"}],
        )
        lp = compile_to_lp(parse_scenario(doc))
        assert lp.rows == ()

    def test_co2_cap_appends_row(self):
        doc = alloc_doc()
        doc["targets"] = {"co2_cap_kg": 7.0}
        lp = compile_to_lp(parse_scenario(doc))
        assert len(lp.rows) == 3
        assert lp.rows[-1] == ((0.5, 1.5, 1.0), 7.0)

    def test_integer_bounds_take_tightest_row(self):
        doc = alloc_doc()
        doc["targets"] = {"co2_cap_kg": 2.0}
        lp = compile_to_lp(parse_scenario(doc))
        # pA: labor 10/2, machine 6/1, cap 2/0.5; pB: cap 2/1.5, rounded
        # down; pC: cap 2/1
        assert lp.upper_bounds == (4.0, 1.0, 2.0)

    def test_row_count_matches_limits(self):
        lp = compile_to_lp(parse_scenario(alloc_doc()))
        assert len(lp.rows) == 2
        assert len(lp.objective) == 3

    def test_dangling_limit_reference(self):
        doc = minimal_doc(
            limits=[{"resource_id": "r", "availability": 1.0, "consumption": {"ghost": 1.0}}]
        )
        with pytest.raises(CompileError, match="ghost"):
            compile_to_lp(parse_scenario(doc))

    def test_dangling_factor_under_a_cap(self):
        # only the emission cap row reads the factors
        doc = alloc_doc()
        doc["processes"][0]["emission_factor_id"] = "efX"
        doc["targets"] = {"co2_cap_kg": 10.0}
        with pytest.raises(
            CompileError, match="process 'pA' references unknown emission factor 'efX'"
        ):
            compile_to_lp(parse_scenario(doc))

    def test_unbounded_integer_process_rejected(self):
        doc = minimal_doc(
            processes=[{"id": "P1", "unit_cost": -1.0, "energy_per_unit": 0.0,
                        "emission_factor_id": "e1"}],
            emission_factors=[{"id": "e1", "process_id": "P1", "e": 0.0,
                               "stage": "collection"}],
            integrality=["P1"],
        )
        with pytest.raises(CompileError, match="bounding"):
            compile_to_lp(parse_scenario(doc))

    def test_compile_deterministic(self):
        a = compile_to_lp(parse_scenario(alloc_doc()))
        b = compile_to_lp(parse_scenario(alloc_doc()))
        assert a == b

    def test_alloc_small_milp_matches_enumeration_oracle(self):
        lp = compile_to_lp(parse_scenario(alloc_doc()))
        solution = solve_milp(lp)
        assert solution.status is SolveStatus.OPTIMAL
        best_obj, best_point = enumerate_integer_optimum(lp)
        assert solution.objective_value == pytest.approx(best_obj, abs=1e-6)


def knapsack_doc(costs, limits, integer, cap=None):
    """Processes p0, p1, ... with the given unit costs, each with a factor
    of e = 1; limits holds (availability, {process index: consumption});
    integer holds the indices of the integer processes."""
    pids = [f"p{j}" for j in range(len(costs))]
    doc = minimal_doc(
        processes=[{"id": pid, "unit_cost": c, "energy_per_unit": 1.0,
                    "emission_factor_id": f"e{pid}"} for pid, c in zip(pids, costs)],
        emission_factors=[{"id": f"e{pid}", "process_id": pid, "e": 1.0,
                           "stage": "processing"} for pid in pids],
        limits=[{"resource_id": f"r{i}", "availability": rhs,
                 "consumption": {pids[j]: c for j, c in row.items()}}
                for i, (rhs, row) in enumerate(limits)],
        integrality=[pids[j] for j in integer],
    )
    if cap is not None:
        doc["targets"] = {"co2_cap_kg": cap}
    return doc


class TestIntegralLimits:
    """compile_to_lp states an integer process's limits in integers."""

    def test_bounds_round_down_within_the_integrality_tolerance(self):
        doc = knapsack_doc([-1.0] * 6, [
            (21.0, {0: 2.0}), (0.3, {1: 0.1}), (10.0, {2: 2.0}), (0.7, {3: 1.0}),
            (1.0, {5: 1.0}),
        ], integer=range(5))
        s = parse_scenario(doc)
        # 0.3 / 0.1 is 2.9999999999999996, a level the solver takes as 3
        assert integer_upper_bounds(s) == {
            "p0": 10.0, "p1": 3.0, "p2": 5.0, "p3": 0.0, "p4": math.inf
        }
        # the unbounded p4 keeps its diagnostic and its compile error
        message = "integer process 'p4' has no limit row bounding it"
        assert [(d.path, d.message.split(";")[0]) for d in validate_scenario(s)] == [
            ("integrality", message)
        ]
        with pytest.raises(CompileError, match=message):
            compile_to_lp(s)

    def test_integral_rows_over_integer_processes_are_divided_by_their_gcd(self):
        lp = compile_to_lp(parse_scenario(knapsack_doc([-1.0] * 4, [
            (21.0, {0: 2.0, 1: 2.0, 2: 2.0}),  # 2 sum(x) <= 21 -> sum(x) <= 10
            (15.0, {0: 4.0, 2: 6.0}),           # -> 2 x0 + 3 x2 <= 7
            (21.0, {0: 2.0, 3: 2.0}),           # p3 is continuous
            (21.0, {0: 2.0, 1: 2.5}),           # one non-integral coefficient
            (10.5, {0: 2.0, 1: 3.0, 2: 1.0}),   # gcd 1, rhs rounded down
            (10.0, {0: 2.0, 1: 3.0, 2: 1.0}),   # gcd 1, integral rhs
        ], integer=range(3), cap=7.5)))
        assert lp.rows == (
            ((1.0, 1.0, 1.0, 0.0), 10.0),
            ((2.0, 0.0, 3.0, 0.0), 7.0),
            ((2.0, 0.0, 0.0, 2.0), 21.0),
            ((2.0, 2.5, 0.0, 0.0), 21.0),
            ((2.0, 3.0, 1.0, 0.0), 10.0),
            ((2.0, 3.0, 1.0, 0.0), 10.0),
            ((1.0, 1.0, 1.0, 1.0), 7.5),  # the cap row touches p3
        )


def untightened_lp(doc) -> LinearProgram:
    """The allocation program of doc with its limits as written: each row
    as the document gives it, each integer process bounded by its
    tightest row's ratio, not rounded."""
    pids = [p["id"] for p in doc["processes"]]
    rows = [
        (tuple(lim["consumption"].get(pid, 0.0) for pid in pids), lim["availability"])
        for lim in doc["limits"]
    ]
    if "targets" in doc:
        e = {f["process_id"]: f["e"] for f in doc["emission_factors"]}
        rows.append((tuple(e[pid] for pid in pids), doc["targets"]["co2_cap_kg"]))
    upper = tuple(
        min((rhs / row[j] for row, rhs in rows if row[j] > 0), default=math.inf)
        if pid in doc["integrality"] else math.inf
        for j, pid in enumerate(pids)
    )
    return LinearProgram(
        objective=tuple(p["unit_cost"] for p in doc["processes"]),
        rows=tuple(rows),
        lower_bounds=(0.0,) * len(pids),
        upper_bounds=upper,
        integer_mask=tuple(pid in doc["integrality"] for pid in pids),
        variable_names=tuple(pids),
    )


@st.composite
def alloc_documents(draw):
    """Allocation scenarios shaped like perfbench's alloc-milp ones, small
    enough to solve untightened: 2-7 processes, most of them integer, 1-4
    limits whose coefficients are either all 3-decimal or all integral,
    availability 10-60% of a limit's full consumption (3 decimals), and
    sometimes an emission cap. Every integer process has a row."""
    n = draw(st.integers(2, 7))
    integer = [j for j in range(n) if draw(st.integers(0, 3))]
    m = draw(st.integers(1, 4))
    milli = st.integers(500, 5000).map(lambda k: k / 1000)
    whole = st.integers(1, 6).map(float)
    limits = []
    for _ in range(m):
        coeff = whole if draw(st.booleans()) else milli
        row = {j: draw(coeff) for j in range(n) if draw(st.booleans())}
        limits.append(row)
    for j in integer:
        if not any(j in row for row in limits):
            limits[draw(st.integers(0, m - 1))][j] = draw(whole)
    share = st.integers(100, 600).map(lambda k: k / 1000)
    limits = [(round(sum(row.values()) * draw(share), 3), row) for row in limits]
    costs = [-k / 1000 for k in draw(st.lists(st.integers(1000, 10000), min_size=n, max_size=n))]
    cap = draw(st.none() | st.integers(1, 30).map(float))
    doc = knapsack_doc(costs, limits, integer, cap)
    if cap is not None:
        for f in doc["emission_factors"]:
            f["e"] = draw(whole | milli)
    return doc


@settings(deadline=None, max_examples=150)
@given(doc=alloc_documents())
def test_integral_limits_keep_the_optimum(doc):
    tight = solve_milp(compile_to_lp(parse_scenario(doc)))
    loose_lp = untightened_lp(doc)
    loose = solve_milp(loose_lp)
    assert tight.status is loose.status
    if tight.status is SolveStatus.OPTIMAL:
        tol = 1e-9 * max(1.0, abs(loose.objective_value))
        assert abs(tight.objective_value - loose.objective_value) <= tol
        assert check_solution(loose_lp, tight) == []


class TestRoundTrip:
    def full_doc(self):
        doc = alloc_doc()
        doc["materials"] = [{
            "id": "m1", "name": "cell", "category": "battery-cell", "mass_kg": 15.0,
            "composition": {"cobalt": 0.15, "lithium": 0.05, "nickel": 0.25, "other": 0.55},
            "lifecycle_stage": "collected",
        }]
        doc["collection_graph"] = {
            "nodes": [
                {"id": "depot", "fill_level": 0.0, "is_depot": True},
                {"id": "b1", "fill_level": 0.4, "is_depot": False},
            ],
            "edges": [{"a": "depot", "b": "b1", "distance_km": 3.0,
                       "emission_rate_kg_per_km": 0.8}],
        }
        doc["targets"] = {"co2_cap_kg": 100.0}
        doc["facility"] = {
            "throughput_kg_per_step": 500.0,
            "stations": [{
                "id": "recover",
                "recovery_efficiency": {"cobalt": 0.8, "lithium": 0.7, "nickel": 0.75},
                "energy_kwh_per_kg": 1.0,
                "loss_fraction": 0.05,
            }],
        }
        # the carbon stage needs a factor for each station that processes cells
        doc["emission_factors"].append(
            {"id": "efR", "process_id": "recover", "e": 0.2, "stage": "recovery"}
        )
        doc["energy_model"] = {
            "alpha": 0.0015, "beta": 0.0001,
            "stage_costs": {"simulate": {"compute_seconds": 10.0, "transferred_mb": 5.0}},
        }
        return doc

    def test_save_load_round_trip(self, tmp_path):
        s1 = parse_scenario(self.full_doc())
        p = tmp_path / "round.json"
        save_scenario(s1, p)
        s2 = load_scenario(p)
        assert s1 == s2

    def test_round_trip_is_stable(self, tmp_path):
        s1 = parse_scenario(self.full_doc())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(s1, p1)
        save_scenario(load_scenario(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def sparse_doc():
    """Every section, each optional key omitted somewhere, nested maps non-empty."""
    doc = alloc_doc()
    doc["materials"] = [
        {"id": "m1", "category": "battery-cell", "mass_kg": 2},
        {"id": "m2", "name": "pack", "category": "metal", "mass_kg": 4.5,
         "composition": {"other": 1.0}, "lifecycle_stage": "recovered"},
    ]
    doc["limits"].append({"resource_id": "idle", "availability": 1.0})
    doc["collection_graph"] = {
        "nodes": [{"id": "depot", "is_depot": True}, {"id": "b1"},
                  {"id": "b2", "fill_level": 0.25, "is_depot": False}],
        "edges": [{"a": "depot", "b": "b1", "distance_km": 2.0,
                   "emission_rate_kg_per_km": 0.5},
                  {"a": "b2", "b": "b1", "distance_km": 1, "emission_rate_kg_per_km": 0.5}],
    }
    doc["targets"] = {"nickel": 0.9, "co2_cap_kg": 50}
    doc["integrality"] = ["pB", "pA"]
    doc["facility"] = {
        "throughput_kg_per_step": 100.0,
        "stations": [{"id": "sort", "recovery_efficiency": {},
                      "energy_kwh_per_kg": 0.1, "loss_fraction": 0.0},
                     {"id": "leach", "recovery_efficiency": {"nickel": 0.8, "cobalt": 0.7},
                      "energy_kwh_per_kg": 2, "loss_fraction": 0.1}],
    }
    features = ("weight_kg", "metal_response", "moisture", "opacity", "rigidity", "volume_l")
    doc["waste_stream"] = {
        "category_mix": {"plastic": 0.75, "glass": 0.25},
        "fill_increment_mean": 0.05,
        "fill_increment_std": 0.01,
        "feature_means": {"plastic": dict.fromkeys(features, 0.5),
                          "glass": dict.fromkeys(features, 1)},
        "feature_stds": dict.fromkeys(features, 0.2),
    }
    doc["energy_model"] = {
        "alpha": 0.002, "beta": 0.0001,
        "stage_costs": {"route": {"compute_seconds": 3.0},
                        "simulate": {"transferred_mb": 1.5}, "carbon": {}},
    }
    return doc


class TestScenarioDigest:
    """The bytes a scenario writes back, pinned where no run golden covers them."""

    DIGESTS = {
        "alloc_small.json": "864205833e7eef862a2e31bfdbffc6c2ae1cff4a692966b5e5c1f13ac6b79a16",
        "sparse": "ce92cfee8520ab57c03950b23ea80a3b9b212f8fbab0b4dfc27839ea346b963d",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_written_back_bytes(self, name):
        if name == "sparse":
            doc = sparse_doc()
        else:
            doc = json.loads(
                (resources.files("greenloop") / "fixtures" / name).read_text("utf-8")
            )
        text = canonical_dumps(scenario_to_dict(parse_scenario(doc)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[name]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.cls.__name__)
def test_record_table_names_every_field(record):
    """A field without a key in its table would never be parsed or written."""
    assert sorted(record.keys) == sorted(f.name for f in dataclasses.fields(record.cls))


def _graph(nodes, edges):
    return {"nodes": nodes, "edges": edges}


def _facility(stations, throughput):
    return {"stations": stations, "throughput_kg_per_step": throughput}


BAD_STATION = {"id": "s", "recovery_efficiency": {}, "energy_kwh_per_kg": "x",
               "loss_fraction": 0.0}
DEPOT = {"id": "D", "is_depot": True}


class TestFirstFaultReported:
    """A document with faults in two keys of one section reports the first read."""

    @pytest.mark.parametrize("section, value, error, text", [
        (
            "collection_graph",
            _graph([{"id": "D", "is_depot": "yes"}],
                   [{"a": "D", "b": 7, "distance_km": 1.0, "emission_rate_kg_per_km": 0.1}]),
            ParseError,
            "'is_depot' must be a boolean (at collection_graph.nodes[0])",
        ),
        (
            "facility",
            _facility([BAD_STATION], "fast"),
            ParseError,
            "'energy_kwh_per_kg' must be a number (at facility.stations[0])",
        ),
        (
            "energy_model",
            {"alpha": "a", "beta": 0.0, "stage_costs": {"route": {"compute_seconds": "x"}}},
            ParseError,
            "'compute_seconds' must be a number (at energy_model.stage_costs['route'])",
        ),
        (
            "collection_graph",
            _graph([DEPOT, {"id": "E", "is_depot": True}], []),
            ValidationError,
            "graph needs exactly one depot, found 2 (at collection_graph)",
        ),
        (
            "facility",
            _facility([], -1),
            ValidationError,
            "throughput_kg_per_step must be > 0 (at facility)",
        ),
        (
            "energy_model",
            {"alpha": -1, "beta": 0.0},
            ValidationError,
            "energy model weights must be >= 0 (at energy_model)",
        ),
    ])
    def test_section_fault(self, section, value, error, text):
        with pytest.raises(error) as caught:
            parse_scenario(minimal_doc(**{section: value}))
        assert str(caught.value) == text
        assert caught.value.locus == text[text.index("(at ") + 4:-1]

    def test_graph_fault_before_facility_and_energy_model(self):
        doc = minimal_doc(
            collection_graph=_graph([DEPOT, {"id": "E", "is_depot": True}], []),
            facility=_facility([], -1),
            energy_model={"alpha": -1, "beta": 0.0},
        )
        with pytest.raises(ValidationError, match=r"depot.*\(at collection_graph\)$"):
            parse_scenario(doc)


def test_written_back_bytes_of_a_mirrored_edge():
    """No stage_costs key reads as {}, and both directions of an edge are kept."""
    doc = minimal_doc(
        collection_graph=_graph([{"id": "depot", "is_depot": True}, {"id": "b1"}], [
            {"a": "b1", "b": "depot", "distance_km": 2.0, "emission_rate_kg_per_km": 0.8},
            {"a": "depot", "b": "b1", "distance_km": 2.0, "emission_rate_kg_per_km": 0.5},
        ]),
        energy_model={"alpha": 0.0015, "beta": 0.0001},
    )
    written = scenario_to_dict(parse_scenario(doc))
    assert written["energy_model"]["stage_costs"] == {}
    assert [(e["a"], e["b"]) for e in written["collection_graph"]["edges"]] == [
        ("b1", "depot"), ("depot", "b1"),
    ]
    text = canonical_dumps(written)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "c268a206560e94c5f6537d058e645214998078a61c7082a18d0dce519cb14f02"
    )


each_listed_record = pytest.mark.parametrize(
    "record", [MATERIAL, PROCESS, LIMIT, FACTOR, NODE, STATION],
    ids=lambda record: record.cls.__name__,
)


class Label(str):
    """A str subclass, which the column-wise path leaves to the per-record one."""


# Values each reader of a list of records takes as they are
VALID = {
    _string: st.sampled_from(["a", "cobalt", "", "recovery"]),  # "a" is no factor stage
    _boolean: st.booleans(),
    _number: st.sampled_from([0.0, 0.25, 1.0, 2.0]),  # 2.0 fails a [0, 1] range check
    _number_map: st.dictionaries(
        st.sampled_from(["cobalt", "lithium", "nickel"]), st.sampled_from([0.0, 0.25, 0.5]),
        max_size=3,
    ),
}
# Each mutation with the types of value it changes; None changes the item
MUTATIONS = {
    "int": (float, dict), "nan": (float, dict), "inf": (float, dict), "-inf": (float, dict),
    "bool": (float, dict), "drop": (str, float, bool, dict), "unknown": None,
    "str-subclass": (str,), "not-a-dict": None, "empty-map": (dict,),
    "other-type": (str, float, bool, dict),
}
NUMBERS = {"int": 1, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "bool": True}


def _mutate(item, mutation: str, key: str):
    """item with one mutation at key; an item that is no longer a dict, or
    whose key was dropped or changed type, stays as it is."""
    if type(item) is not dict:
        return item
    if mutation == "not-a-dict":
        return [item]
    if mutation == "unknown":
        return {**item, "origin": "x"}
    if key not in item or type(item[key]) not in MUTATIONS[mutation]:
        return item
    item, value = dict(item), item[key]
    if mutation == "drop":
        del item[key]
    elif mutation == "str-subclass":
        item[key] = Label(value)
    elif mutation == "empty-map":
        item[key] = {}
    elif mutation == "other-type":
        item[key] = 0.5 if type(value) is str else "x"
    elif type(value) is dict:
        item[key] = {**value, "cobalt": NUMBERS[mutation]}
    else:
        item[key] = NUMBERS[mutation]
    return item


@st.composite
def record_lists(draw, record: _Record):
    """One to four items of record's list as written, then up to two mutations,
    each of one key of one item or of every item."""
    docs = [
        {key: draw(VALID[read]) for key, read, _ in record._reads}
        for _ in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        mutation = draw(st.sampled_from(sorted(MUTATIONS)))
        key = draw(st.sampled_from(record.keys))
        every = draw(st.booleans())
        for i in range(len(docs)) if every else [draw(st.integers(0, len(docs) - 1))]:
            docs[i] = _mutate(docs[i], mutation, key)
    return docs


def _typed(value):
    """value with the exact type of each part, so 1 and 1.0 or a str subclass differ."""
    if dataclasses.is_dataclass(value):
        return type(value), [_typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return type(value), sorted((k, _typed(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def _outcome(parse):
    try:
        return "objects", _typed(parse())
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), exc.locus


@each_listed_record
@given(data=st.data())
def test_column_wise_parse_matches_the_per_record_parse(record, data):
    _assert_parses_alike(record, data.draw(record_lists(record)))


def _assert_parses_alike(record: _Record, docs: list) -> None:
    expected = _outcome(
        lambda: tuple(record.parse(doc, f"items[{i}]") for i, doc in enumerate(docs))
    )
    assert _outcome(lambda: record.parse_all(docs, "items")) == expected
    columns = record._parse_columns(docs)
    if columns is not None:
        assert ("objects", _typed(columns)) == expected
        # each map is a copy, as the per-record parse makes it
        maps = {id(v) for obj in columns for v in vars(obj).values() if type(v) is dict}
        assert not maps & {id(v) for doc in docs for v in doc.values()}


@each_listed_record
def test_each_mutation_of_one_key_matches_the_per_record_parse(record):
    """Every mutation of every key, at the last of three items or at all three."""
    fixed = {_string: "recovery", _boolean: False, _number: 0.25, _number_map: {"nickel": 0.5}}
    item = {key: fixed[read] for key, read, _ in record._reads}
    for key in record.keys:
        for mutation in MUTATIONS:
            for mutated in ([item, item, _mutate(item, mutation, key)],
                            [_mutate(item, mutation, key)] * 3):
                _assert_parses_alike(record, mutated)


@pytest.mark.parametrize("name", [
    "alloc_small.json", "battery_baseline.json", "battery_framework.json",
    "waste_baseline.json", "waste_framework.json",
])
def test_fixture_lists_take_the_column_wise_path(monkeypatch, name):
    """No item of a bundled fixture's record lists is parsed on its own."""
    parse = _Record.parse

    def sections_only(self, doc, locus):
        assert not locus.endswith("]"), f"{locus} parsed item by item"
        return parse(self, doc, locus)

    monkeypatch.setattr(_Record, "parse", sections_only)
    load_scenario(resources.files("greenloop") / "fixtures" / name)
