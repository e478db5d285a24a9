"""Pipeline orchestration tests: modes, stages, comparison, feedback."""

import dataclasses
import gc
import json
import math
import weakref
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenloop.carbon import EmissionFactor
from greenloop.energy import STAGE_ORDER, UNIT_COSTS, EnergyModel, StageUsage
from greenloop.errors import (
    MissingArtifacts,
    ModeMismatch,
    ModeUnsupported,
    SolverError,
)
from greenloop import pipeline
from greenloop.classify import evaluate_accuracy_records
from greenloop.pipeline import (
    BIN_HORIZON,
    DISTRICT_MAX_BINS,
    MODES,
    RunArtifacts,
    compare_runs,
    feedback_update,
    partition_districts,
    planned_workload,
    run_full,
    workload_diagnostics,
)
from greenloop.routing import CollectionGraph, RLConfig
from greenloop.scenario import (
    MaterialSpec,
    ProcessSpec,
    ResourceLimit,
    ScenarioSpec,
    parse_scenario,
)
from greenloop.serialize import canonical_dumps
from greenloop.report import run_result_to_dict
from greenloop.twin import FacilityModel, Station, simulate_bins, simulate_recycling


def load_fixture(name):
    text = (resources.files("greenloop") / "fixtures" / name).read_text("utf-8")
    return parse_scenario(json.loads(text))


def battery(i, mass=15.0):
    return MaterialSpec(
        id=f"bat{i:04d}",
        name="",
        category="battery-cell",
        mass_kg=mass,
        composition={"cobalt": 0.15, "lithium": 0.05, "nickel": 0.25, "other": 0.55},
        lifecycle_stage="collected",
    )


def mini_battery_scenario(n=10, seed=3):
    facility = FacilityModel(
        stations=(
            Station(
                id="recover",
                recovery_efficiency={"cobalt": 0.8, "lithium": 0.7, "nickel": 0.75},
                energy_kwh_per_kg=1.5,
                loss_fraction=0.1,
            ),
        ),
        throughput_kg_per_step=100.0,
    )
    return ScenarioSpec(
        materials=tuple(battery(i) for i in range(n)),
        emission_factors=(EmissionFactor("ef", "recover", 0.5, "recovery"),),
        rng_seed=seed,
        facility=facility,
    )


# Bin coordinates alternate east/west so the ascending-id tour zigzags;
# any learned tour has room to beat it.
_BIN_COORDS = {
    "b0": (10.0, 0.0),
    "b1": (-10.0, 1.0),
    "b2": (11.0, -1.0),
    "b3": (-11.0, 0.5),
    "b4": (9.0, 2.0),
}


def city_scenario(n_bins=5, seed=11):
    names = [f"b{i}" for i in range(n_bins)]
    coords = {"depot": (0.0, 0.0)} | {b: _BIN_COORDS[b] for b in names}
    nodes = [{"id": "depot", "fill_level": 0.0, "is_depot": True}] + [
        {"id": b, "fill_level": 0.1, "is_depot": False} for b in names
    ]
    edges = []
    ids = ["depot"] + names
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            (xa, ya), (xb, yb) = coords[a], coords[b]
            d = max(1.0, float(round(math.hypot(xa - xb, ya - yb))))
            edges.append(
                {"a": a, "b": b, "distance_km": d, "emission_rate_kg_per_km": 0.8}
            )
    return parse_scenario(
        {"rng_seed": seed, "collection_graph": {"nodes": nodes, "edges": edges}}
    )


class TestRunModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ModeUnsupported, match="turbo"):
            run_full(ScenarioSpec(), "turbo")

    def test_cells_without_facility(self):
        s = ScenarioSpec(materials=(battery(0),))
        with pytest.raises(ModeUnsupported, match="facility"):
            run_full(s, "framework")

    def test_empty_scenario_zero_totals(self):
        r = run_full(ScenarioSpec(), "baseline")[0]
        assert r.recovery == {}
        assert r.process_energy_kwh == 0.0
        assert r.co2_kg == 0.0
        assert r.classification_accuracy is None
        assert r.transport_emissions_kg is None
        assert r.waste_reduction_fraction == 0.0
        # the pipeline's own metering still runs
        assert r.pipeline_energy.total_kwh > 0.0
        assert tuple(stage for stage, _, _ in r.pipeline_energy.stages) == STAGE_ORDER

    def test_seed_override_recorded(self):
        s = dataclasses.replace(mini_battery_scenario(), rng_seed=99)
        r = run_full(s, "baseline")[0]
        assert r.seed == 99


class TestBatteryStages:
    def test_baseline_metrics_from_facility(self):
        s = mini_battery_scenario(n=10)
        r, artifacts = run_full(s, "baseline")
        total_kg = 150.0
        assert r.recovery == pytest.approx(
            {"cobalt": 0.8, "lithium": 0.7, "nickel": 0.75}
        )
        assert r.process_energy_kwh == pytest.approx(total_kg * 1.5)
        assert r.co2_kg == pytest.approx(total_kg * 0.5)
        assert r.classification_accuracy is None
        assert r.transport_emissions_kg is None
        trace = simulate_recycling(s, s.facility)
        assert r.waste_reduction_fraction == pytest.approx(
            1.0 - trace.residual_kg / sum(trace.input_totals.values())
        )
        # composition jitter is +/-0.05 per element around the nominal mix
        nominal = total_kg * (0.1 + 0.15 * 0.8 + 0.05 * 0.7 + 0.25 * 0.75)
        spread = total_kg * 0.05 * (0.8 + 0.7 + 0.75)
        assert abs(r.waste_reduction_fraction * total_kg - nominal) <= spread
        assert trace is not None
        assert artifacts.classifier is None
        assert artifacts.allocation is None

    def test_recovery_limited_to_targeted_elements(self):
        r = run_full(mini_battery_scenario(), "baseline")[0]
        assert "other" not in r.recovery


ALLOC = dict(
    processes=(
        ProcessSpec("pA", -3.0, 0.0, "ef"),
        ProcessSpec("pB", -4.0, 0.0, "ef"),
    ),
    limits=(
        ResourceLimit("labor", 10.0, {"pA": 2.0, "pB": 3.0}),
        ResourceLimit("machine", 6.0, {"pA": 1.0, "pB": 2.0}),
    ),
    integrality=frozenset({"pA", "pB"}),
)


class TestAllocation:
    def test_framework_solves_exactly(self):
        s = ScenarioSpec(**ALLOC)
        _, artifacts = run_full(s, "framework")
        levels = artifacts.allocation
        for lim in s.limits:
            used = sum(lim.consumption[p] * levels[p] for p in levels)
            assert used <= lim.availability + 1e-7
        for p in levels:
            assert levels[p] == pytest.approx(round(levels[p]), abs=1e-6)

    def test_baseline_declaration_fill(self):
        s = ScenarioSpec(**ALLOC)
        _, artifacts = run_full(s, "baseline")
        levels = artifacts.allocation
        # fills pA first: labor 10/2 = 5, machine 6/1 = 6 -> 5 units
        assert levels == {"pA": 5.0, "pB": 0.0}

    def test_framework_cost_dominates_baseline(self):
        s = ScenarioSpec(**ALLOC)
        _, base = run_full(s, "baseline")
        _, frame = run_full(s, "framework")
        cost = lambda lv: sum(p.unit_cost * lv[p.id] for p in s.processes)
        assert cost(frame.allocation) <= cost(base.allocation) + 1e-9

    def test_infeasible_allocation_is_solver_error(self):
        s = ScenarioSpec(
            processes=(ProcessSpec("p", -1.0, 0.0, "ef"),),
            limits=(ResourceLimit("r", -5.0, {"p": 1.0}),),
        )
        with pytest.raises(SolverError, match="allocation solve ended INFEASIBLE"):
            run_full(s, "framework")


class TestRouting:
    def test_framework_beats_naive_tour(self):
        s = city_scenario()
        rb, ab = run_full(s, "baseline")
        rf, af = run_full(s, "framework")
        assert rb.transport_emissions_kg is not None
        assert rf.transport_emissions_kg < rb.transport_emissions_kg
        assert len(ab.district_routes) == 1
        assert len(af.district_routes) == len(af.district_qtables) == 1
        route = af.district_routes[0]
        assert route[0] == route[-1] == "depot"
        assert sorted(route[1:-1]) == list(s.collection_graph.bin_ids())

    def test_classifier_at_least_matches_rule(self):
        s = city_scenario()
        rb = run_full(s, "baseline")[0]
        rf = run_full(s, "framework")[0]
        assert rb.classification_accuracy is not None
        assert rf.classification_accuracy >= rb.classification_accuracy


class TestPartition:
    def test_fixture_city_partition(self):
        g = load_fixture("waste_baseline.json").collection_graph
        districts = partition_districts(g)
        assert len(districts) == 5
        seen = []
        for d in districts:
            bins = d.bin_ids()
            assert 0 < len(bins) <= DISTRICT_MAX_BINS
            assert d.depot == g.depot
            seen.extend(bins)
        assert sorted(seen) == list(g.bin_ids())

    def test_small_graph_single_district(self):
        g = city_scenario().collection_graph
        districts = partition_districts(g)
        assert len(districts) == 1
        assert districts[0].bin_ids() == g.bin_ids()

    def test_depot_only_graph(self):
        g = CollectionGraph(
            nodes=(dataclasses.replace(
                city_scenario().collection_graph.nodes[0]),),
            edges={},
        )
        assert partition_districts(g) == ()


class TestDeterminism:
    def test_framework_run_byte_identical(self):
        s = city_scenario()
        r1, a1 = run_full(s, "framework")
        r2, a2 = run_full(s, "framework")
        d1 = canonical_dumps(run_result_to_dict(r1))
        d2 = canonical_dumps(run_result_to_dict(r2))
        assert d1 == d2
        assert a1.district_routes == a2.district_routes
        assert a1.district_qtables[0].values == a2.district_qtables[0].values

    def test_seed_changes_stream(self):
        s = city_scenario()
        r1 = run_full(s, "baseline")[0]
        r2 = run_full(dataclasses.replace(s, rng_seed=12), "baseline")[0]
        assert r1.classification_accuracy != r2.classification_accuracy


class TestCompare:
    def test_mode_mismatch(self):
        r = run_full(ScenarioSpec(), "baseline")[0]
        with pytest.raises(ModeMismatch):
            compare_runs(r, r)

    def test_empty_runs_compare_empty(self):
        rb = run_full(ScenarioSpec(), "baseline")[0]
        rf = run_full(ScenarioSpec(), "framework")[0]
        rep = compare_runs(rb, rf)
        assert rep.deltas == ()
        assert rep.annotations == ()

    def test_self_comparison_is_neutral(self):
        s = mini_battery_scenario()
        rf = run_full(s, "framework")[0]
        relabeled = dataclasses.replace(rf, mode="baseline")
        rep = compare_runs(relabeled, rf)
        assert rep.deltas
        for d in rep.deltas:
            assert d.delta_pp in (None, 0.0)
            assert d.delta_relative in (None, 0.0)

    def test_battery_row_order(self):
        s = mini_battery_scenario()
        rb = run_full(s, "baseline")[0]
        rf = dataclasses.replace(run_full(s, "framework")[0], mode="framework")
        labels = [d.label for d in compare_runs(rb, rf).deltas]
        assert labels == [
            "Cobalt Recovery Rate (%)",
            "Nickel Recovery Rate (%)",
            "Lithium Recovery Rate (%)",
            "Energy Consumption (kWh)",
            "CO2 Emissions (kg)",
            "Waste Reduction (%)",
        ]

    def test_annotation_fires_beyond_one_point(self):
        s = mini_battery_scenario()
        rb = run_full(s, "baseline")[0]
        rf = run_full(s, "framework")[0]
        rep = compare_runs(
            rb, rf, {"cobalt_recovery": {"form": "pp", "value": 5.0}}
        )
        assert len(rep.annotations) == 1
        assert "reference target +5.0 pp" in rep.annotations[0]

    def test_annotation_suppressed_within_one_point(self):
        s = mini_battery_scenario()
        rb = run_full(s, "baseline")[0]
        rf = run_full(s, "framework")[0]
        rep = compare_runs(
            rb, rf, {"cobalt_recovery": {"form": "pp", "value": 0.5}}
        )
        assert rep.annotations == ()


class TestFeedback:
    def test_requires_artifacts(self):
        with pytest.raises(MissingArtifacts):
            feedback_update(city_scenario(), RunArtifacts())

    def test_requires_graph(self):
        s = city_scenario()
        _, artifacts = run_full(s, "framework")
        no_graph = dataclasses.replace(s, collection_graph=None)
        with pytest.raises(MissingArtifacts, match="graph"):
            feedback_update(no_graph, artifacts)

    def test_round_keeps_held_out_accuracy(self):
        s = city_scenario()
        _, artifacts = run_full(s, "framework")
        updated, diagnostics = feedback_update(s, artifacts)
        assert updated.version == 2
        events = simulate_bins(s, BIN_HORIZON).events
        cut = int(0.7 * BIN_HORIZON)
        eval_recs = [
            (ev.sensor_record, ev.true_label)
            for ev in events
            if ev.time_step >= cut
        ]
        before = evaluate_accuracy_records(artifacts.classifier, eval_recs)
        after = evaluate_accuracy_records(updated.classifier, eval_recs)
        if diagnostics:
            assert "regressed" in diagnostics[0]
            assert after < before
        else:
            assert after >= before

    @pytest.mark.parametrize("entry", ["feedback_update", "run_full"])
    def test_sensor_stream_is_freed_before_route_learning(self, entry, monkeypatch):
        """No sensor record the classifier saw is alive once routes learn."""

        class Record(dict):
            """A sensor record a weak reference can watch."""

        watched = []
        real_simulate = pipeline.simulate_bins

        def simulate(s, horizon):
            stream = real_simulate(s, horizon)
            events = []
            for ev in stream.events:
                rec = Record(ev.sensor_record)
                watched.append(weakref.ref(rec))
                events.append(dataclasses.replace(ev, sensor_record=rec))
            return dataclasses.replace(stream, events=tuple(events))

        def checked(real):
            def learn(*args, **kwargs):
                gc.collect()
                alive = sum(ref() is not None for ref in watched)
                assert watched and alive == 0, f"{alive} of {len(watched)} records alive"
                return real(*args, **kwargs)

            return learn

        s = city_scenario()
        _, artifacts = run_full(s, "framework")
        monkeypatch.setattr(pipeline, "simulate_bins", simulate)
        if entry == "feedback_update":
            monkeypatch.setattr(pipeline, "_train_districts", checked(pipeline._train_districts))
            updated, _ = feedback_update(s, artifacts)
            assert updated.version == 2
        else:
            monkeypatch.setattr(pipeline, "train_routing", checked(pipeline.train_routing))
            result, _ = run_full(s, "framework")
            assert result.transport_emissions_kg is not None

    def test_district_count_mismatch(self, monkeypatch):
        """The stored tables are checked before anything is simulated or trained."""
        s = city_scenario()
        _, artifacts = run_full(s, "framework")
        bigger = load_fixture("waste_baseline.json")

        def called(*args):
            pytest.fail("feedback_update worked before checking the districts")

        monkeypatch.setattr(pipeline, "simulate_bins", called)
        monkeypatch.setattr(pipeline, "train_on_records", called)
        with pytest.raises(MissingArtifacts, match="districts"):
            feedback_update(bigger, artifacts)


class TestStageUsageOverride:
    def test_configured_costs_win(self):
        model = EnergyModel(
            alpha=2.0, beta=0.0,
            stage_costs={"metrics": StageUsage(compute_seconds=3.0)},
        )
        r = run_full(ScenarioSpec(energy_model=model), "baseline")[0]
        by_stage = {stage: kwh for stage, _, kwh in r.pipeline_energy.stages}
        assert by_stage["metrics"] == pytest.approx(6.0)

    def test_unconfigured_stage_takes_per_unit_default(self):
        # ALLOC declares 2 processes: the optimize workload is 2 units
        model = EnergyModel(
            alpha=2.0, beta=0.5,
            stage_costs={"metrics": StageUsage(compute_seconds=3.0)},
        )
        r = run_full(ScenarioSpec(**ALLOC, energy_model=model), "baseline")[0]
        usage = {stage: u for stage, u, _ in r.pipeline_energy.stages}
        seconds, mb = UNIT_COSTS["optimize"]
        assert usage["optimize"] == StageUsage(seconds * 2, mb * 2)
        assert usage["metrics"] == StageUsage(3.0, 0.0)


class TestPlannedWorkload:
    @pytest.mark.parametrize("mode", MODES)
    def test_run_meters_the_planned_stages(self, mode):
        s = dataclasses.replace(city_scenario(5), **ALLOC)
        planned = planned_workload(s, mode)
        assert planned["preprocess"] == 5 * BIN_HORIZON and planned["optimize"] == 2
        seconds = {
            stage: u.compute_seconds for stage, u, _ in run_full(s, mode)[0].pipeline_energy.stages
        }
        for stage in ("preprocess", "optimize", "route", "metrics"):
            assert seconds[stage] == UNIT_COSTS[stage][0] * planned[stage]

    @pytest.mark.parametrize("mode", MODES)
    def test_twin_stages_are_planned_from_the_cells(self, mode):
        # 15,000 kg at 500 kg per step: 30 chunks, each through both stations
        s = load_fixture("battery_framework.json")
        planned = planned_workload(s, mode)
        trace = simulate_recycling(s, s.facility)
        assert planned["simulate"] == 30 and len(trace.steps) == 60
        assert planned["carbon"] == len(trace.activity_ledger.entries) == 2
        # the run meters what it counted, not the plan
        seconds = {
            stage: u.compute_seconds for stage, u, _ in run_full(s, mode)[0].pipeline_energy.stages
        }
        assert seconds["simulate"] == UNIT_COSTS["simulate"][0] * 60
        assert seconds["carbon"] == UNIT_COSTS["carbon"][0] * 2

    @settings(deadline=None, max_examples=150)
    @given(
        exponent=st.integers(-14, 3),
        scale=st.floats(1.0, 10.0),
        chunks=st.lists(st.floats(0.0, 20.0) | st.integers(0, 20).map(float), min_size=1, max_size=6),
        stations=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counted_steps_are_never_below_the_plan(self, exponent, scale, chunks, stations, seed):
        # each cell holds a drawn number of chunks, whole ones included, at
        # throughputs down to where the twin's end tolerance is many chunks
        throughput = scale * 10.0**exponent
        base = mini_battery_scenario()
        facility = FacilityModel(
            stations=tuple(
                dataclasses.replace(base.facility.stations[0], id=f"s{i}") for i in range(stations)
            ),
            throughput_kg_per_step=throughput,
        )
        s = dataclasses.replace(
            base,
            materials=tuple(battery(i, c * throughput) for i, c in enumerate(chunks)),
            facility=facility,
            rng_seed=seed,
        )
        planned = planned_workload(s, "framework")
        trace = simulate_recycling(s, facility)
        assert len(trace.steps) >= planned["simulate"]
        assert len(trace.activity_ledger.entries) == planned["carbon"] == stations

    @pytest.mark.parametrize("n_bins", [1, 9, 10, 11, 20, 23, 50])
    def test_route_counts_the_partitioned_districts(self, n_bins):
        doc = json.loads(
            (resources.files("greenloop") / "fixtures" / "waste_framework.json").read_text("utf-8")
        )
        graph = doc["collection_graph"]
        graph["nodes"] = graph["nodes"][: n_bins + 1]
        kept = {node["id"] for node in graph["nodes"]}
        graph["edges"] = [e for e in graph["edges"] if e["a"] in kept and e["b"] in kept]
        s = parse_scenario(doc)
        districts = partition_districts(s.collection_graph)
        assert len(s.collection_graph.bin_ids()) == n_bins
        assert planned_workload(s, "framework")["route"] == RLConfig().episodes * len(districts)
        assert planned_workload(s, "baseline")["route"] == n_bins

    def test_diagnostics_name_each_mode_that_overflows(self):
        # 1e308 kWh per compute-second: the framework plan's 1.25 route
        # seconds overflow on top of 5,000 bin events, the baseline's 0.0025 do not
        s = dataclasses.replace(
            load_fixture("waste_framework.json"), energy_model=EnergyModel(alpha=1e308, beta=0.0)
        )
        (d,) = workload_diagnostics(s)
        assert d.path == "energy_model"
        assert d.message == "framework run: stage energy sums to inf kWh through stage 'route'"
        assert workload_diagnostics(load_fixture("waste_framework.json")) == []
