"""Facility and bin simulator tests: conservation, limits, determinism, and
equality with the reference facility run and bin generator in reference_twin."""

import dataclasses
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_twin as reference
from greenloop.classify import FEATURES
from greenloop import twin
from greenloop.errors import NoGraph, StepBudgetExceeded
from greenloop.scenario import MaterialSpec, ScenarioSpec, load_scenario, parse_scenario
from greenloop.twin import (
    DEFAULT_WASTE_STREAM,
    ELEMENTS,
    FacilityModel,
    Station,
    calibrate_facility,
    check_mass_conservation,
    recovery_rates,
    simulate_bins,
    simulate_recycling,
)


def battery(i, mass=15.0, composition=None):
    return MaterialSpec(
        id=f"bat{i:04d}",
        name="",
        category="battery-cell",
        mass_kg=mass,
        composition=(
            {"cobalt": 0.15, "lithium": 0.05, "nickel": 0.25, "other": 0.55}
            if composition is None
            else composition
        ),
        lifecycle_stage="collected",
    )


def battery_scenario(n=20, seed=42):
    return ScenarioSpec(materials=tuple(battery(i) for i in range(n)), rng_seed=seed)


def one_station_facility(eff=None, loss=0.0, energy=1.0, throughput=100.0):
    return FacilityModel(
        stations=(
            Station(
                id="recover",
                recovery_efficiency=eff or {"cobalt": 0.8, "lithium": 0.7, "nickel": 0.75},
                energy_kwh_per_kg=energy,
                loss_fraction=loss,
            ),
        ),
        throughput_kg_per_step=throughput,
    )


def graph_scenario(n_bins=4, seed=7, waste_stream=None):
    doc = {
        "rng_seed": seed,
        "collection_graph": {
            "nodes": [{"id": "depot", "fill_level": 0.0, "is_depot": True}]
            + [{"id": f"b{i}", "fill_level": 0.1, "is_depot": False} for i in range(n_bins)],
            "edges": [
                {"a": "depot", "b": f"b{i}", "distance_km": 2.0 + i,
                 "emission_rate_kg_per_km": 0.8}
                for i in range(n_bins)
            ],
        },
    }
    s = parse_scenario(doc)
    if waste_stream is not None:
        s = dataclasses.replace(s, waste_stream=waste_stream)
    return s


class TestFacilityInvariants:
    def test_efficiency_out_of_range(self):
        with pytest.raises(ValueError, match="efficiency"):
            Station("s", {"cobalt": 1.2}, 0.0, 0.0)

    def test_recovery_plus_loss_over_one(self):
        with pytest.raises(ValueError, match="recovery \\+ loss"):
            Station("s", {"cobalt": 0.9}, 0.0, 0.2)

    def test_nonpositive_throughput(self):
        with pytest.raises(ValueError, match="throughput"):
            FacilityModel(stations=(), throughput_kg_per_step=0.0)


class TestStepBudget:
    """20 cells of 15 kg: 300 kg, so 100 kg per step takes exactly 3 steps."""

    def test_budget_reached_exactly_runs(self, monkeypatch):
        monkeypatch.setattr(twin, "MAX_FACILITY_STEPS", 3)
        trace = simulate_recycling(battery_scenario(), one_station_facility())
        assert len(trace.steps) == 3

    def test_one_step_over_budget_raises(self, monkeypatch):
        monkeypatch.setattr(twin, "MAX_FACILITY_STEPS", 2)
        with pytest.raises(StepBudgetExceeded, match="budget of 2"):
            simulate_recycling(battery_scenario(), one_station_facility())

    def test_tiny_throughput_fails_before_simulating(self):
        # 15 t at 1e-9 kg per step would be 1.5e13 steps.
        s = battery_scenario(1000)
        with pytest.raises(StepBudgetExceeded, match="1.5e\\+13 steps"):
            simulate_recycling(s, one_station_facility(throughput=1e-9))

    def test_bundled_fixtures_within_budget(self):
        for name in ("battery_baseline.json", "battery_framework.json"):
            s = load_scenario(str(resources.files("greenloop") / "fixtures" / name))
            cells_kg = sum(m.mass_kg for m in s.materials if m.category == "battery-cell")
            steps = cells_kg / s.facility.throughput_kg_per_step
            assert 1000 * steps < twin.MAX_FACILITY_STEPS


class TestSimulateRecycling:
    def test_zero_batteries(self):
        trace = simulate_recycling(battery_scenario(0), one_station_facility())
        assert trace.steps == ()
        assert all(v == 0.0 for v in trace.recovered_totals.values())
        assert trace.residual_kg == 0.0

    def test_perfect_recovery_limit(self):
        f = one_station_facility(
            eff={"cobalt": 1.0, "lithium": 0.0, "nickel": 0.0}, loss=0.0
        )
        s = battery_scenario(5)
        trace = simulate_recycling(s, f)
        assert trace.recovered_totals["cobalt"] == pytest.approx(trace.input_totals["cobalt"])
        assert trace.residual_by_element["cobalt"] == pytest.approx(0.0, abs=1e-12)

    def test_recovery_rate_equals_efficiency_despite_jitter(self):
        # linear flows: the rate ignores the composition draw entirely
        f = one_station_facility()
        for seed in (1, 2, 3):
            s = battery_scenario(10, seed=seed)
            rates = recovery_rates(simulate_recycling(s, f))
            assert rates["cobalt"] == pytest.approx(0.8, abs=1e-12)
            assert rates["nickel"] == pytest.approx(0.75, abs=1e-12)

    def test_mass_conservation(self):
        f = one_station_facility(loss=0.1)
        trace = simulate_recycling(battery_scenario(12), f)
        assert check_mass_conservation(trace) == []

    def test_energy_accumulates_per_kg(self):
        f = one_station_facility(energy=2.0, throughput=50.0)
        s = battery_scenario(10)  # 150 kg total
        trace = simulate_recycling(s, f)
        assert trace.energy_kwh == pytest.approx(300.0)

    def test_activity_ledger_records_processed_kg(self):
        f = one_station_facility(throughput=50.0)
        trace = simulate_recycling(battery_scenario(10), f)
        assert trace.activity_ledger.entries["recover"] == pytest.approx(150.0)

    def test_throughput_chunks_step_count(self):
        f = one_station_facility(throughput=40.0)
        trace = simulate_recycling(battery_scenario(10), f)  # 150 kg -> 4 chunks
        assert len(trace.steps) == 4
        assert set(trace.steps) == {"recover"}

    def test_multi_station_forwarding(self):
        f = FacilityModel(
            stations=(
                Station("shred", {el: 0.0 for el in ELEMENTS}, 0.5, 0.0),
                Station("recover", {"cobalt": 0.8, "lithium": 0.7, "nickel": 0.75}, 1.0, 0.0),
            ),
            throughput_kg_per_step=100.0,
        )
        s = battery_scenario(10)
        trace = simulate_recycling(s, f)
        rates = recovery_rates(trace)
        assert rates["cobalt"] == pytest.approx(0.8, abs=1e-12)
        # both stations see the full stream when nothing is removed upstream
        assert trace.activity_ledger.entries["shred"] == pytest.approx(150.0)
        assert trace.activity_ledger.entries["recover"] == pytest.approx(150.0)
        assert trace.energy_kwh == pytest.approx(150.0 * 1.5)

    def test_trace_holds_no_per_step_record(self):
        # 300 kg in 5,000 chunks through one station. A step costs the trace
        # one reference; a record of the step's flows would take hundreds of bytes.
        f = one_station_facility(throughput=300.0 / 5000)
        s = battery_scenario(20)
        simulate_recycling(s, f)  # numpy's one-time allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = simulate_recycling(s, f)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.steps) == 5000
        assert held < 64 * len(trace.steps)

    def test_same_seed_identical_trace(self):
        f = one_station_facility()
        a = simulate_recycling(battery_scenario(8, seed=5), f)
        b = simulate_recycling(battery_scenario(8, seed=5), f)
        assert a == b

    def test_seed_isolation_structure_stable(self):
        f = one_station_facility(loss=0.05)
        a = simulate_recycling(battery_scenario(8, seed=1), f)
        b = simulate_recycling(battery_scenario(8, seed=2), f)
        assert len(a.steps) == len(b.steps)
        assert a.steps == b.steps
        assert a != b

    def test_zero_input_element_absent_from_rates(self):
        comp = {"cobalt": 0.5, "other": 0.5}
        s = ScenarioSpec(
            materials=(battery(0, composition=comp),), rng_seed=3
        )
        rates = recovery_rates(simulate_recycling(s, one_station_facility()))
        assert "lithium" not in rates

    def test_hand_built_rate_arithmetic(self):
        # 10 kg of cobalt in, efficiency 0.4 -> rate 0.4
        comp = {"cobalt": 1.0}
        s = ScenarioSpec(materials=(battery(0, mass=10.0, composition=comp),), rng_seed=1)
        f = one_station_facility(eff={"cobalt": 0.4}, throughput=6.0)
        rates = recovery_rates(simulate_recycling(s, f))
        assert rates["cobalt"] == pytest.approx(0.4, abs=1e-12)


class TestMonotoneEfficiency:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 1000),
        eff_lo=st.floats(0.0, 0.6),
        bump=st.floats(0.0, 0.3),
        loss=st.floats(0.0, 0.1),
    )
    def test_raising_efficiency_never_lowers_rate(self, seed, eff_lo, bump, loss):
        s = battery_scenario(6, seed=seed)
        base_eff = {"cobalt": eff_lo, "lithium": 0.5, "nickel": 0.5}
        f1 = one_station_facility(eff=base_eff, loss=loss)
        bumped = dict(base_eff, cobalt=min(eff_lo + bump, 1.0 - loss))
        f2 = one_station_facility(eff=bumped, loss=loss)
        r1 = recovery_rates(simulate_recycling(s, f1))
        r2 = recovery_rates(simulate_recycling(s, f2))
        assert r2["cobalt"] >= r1["cobalt"] - 1e-12


class TestConservationProperty:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 15),
        loss1=st.floats(0.0, 0.3),
        loss2=st.floats(0.0, 0.3),
        eff=st.floats(0.0, 0.7),
    )
    def test_random_facilities_conserve_mass(self, seed, n, loss1, loss2, eff):
        s = battery_scenario(n, seed=seed)
        f = FacilityModel(
            stations=(
                Station("a", {"cobalt": eff, "lithium": eff / 2, "nickel": eff / 3}, 0.2, loss1),
                Station("b", {"cobalt": eff / 2, "lithium": eff, "nickel": eff}, 0.4, loss2),
            ),
            throughput_kg_per_step=37.0,
        )
        trace = simulate_recycling(s, f)
        assert check_mass_conservation(trace) == []


def same_stream(a, b):
    return (a.events.tobytes(), a.readings.tobytes(), a.categories) == (
        b.events.tobytes(), b.readings.tobytes(), b.categories
    )


class TestSimulateBins:
    def test_no_graph_raises(self):
        with pytest.raises(NoGraph):
            simulate_bins(battery_scenario(1), horizon=5)

    def test_zero_horizon_empty(self):
        stream = simulate_bins(graph_scenario(), horizon=0)
        assert len(stream.events) == 0
        assert stream.readings.shape == (0, len(FEATURES))

    def test_event_schema_and_order(self):
        stream = simulate_bins(graph_scenario(n_bins=3), horizon=4)
        ev = stream.events
        assert len(ev) == 12
        assert ev.dtype.names == ("time_step", "bin", "fill_level", "label")
        assert stream.readings.shape == (12, len(FEATURES))
        assert stream.readings.flags.c_contiguous
        assert ev["time_step"].tolist() == [t for t in range(4) for _ in range(3)]
        assert ev["bin"].tolist() == [0, 1, 2] * 4
        assert ((0.0 <= ev["fill_level"]) & (ev["fill_level"] <= 1.0)).all()
        assert stream.categories == tuple(sorted(DEFAULT_WASTE_STREAM.category_mix))
        assert set(ev["label"].tolist()) <= set(range(len(stream.categories)))

    def test_same_seed_identical_stream(self):
        a = simulate_bins(graph_scenario(seed=9), horizon=20)
        b = simulate_bins(graph_scenario(seed=9), horizon=20)
        assert same_stream(a, b)

    def test_fill_levels_monotone_per_bin(self):
        ev = simulate_bins(graph_scenario(n_bins=2), horizon=30).events
        for b in range(2):
            assert (np.diff(ev["fill_level"][ev["bin"] == b]) >= -1e-12).all()

    def test_negative_zero_fill_std_draws_as_zero(self):
        # numpy's Generator.normal refuses a scale of -0.0, which the config admits
        stream, negative = (
            simulate_bins(graph_scenario(waste_stream=dataclasses.replace(
                DEFAULT_WASTE_STREAM, fill_increment_std=std,
            )), horizon=20)
            for std in (0.0, -0.0)
        )
        assert same_stream(negative, stream)

    def test_category_proportions_match_mix(self):
        stream = simulate_bins(graph_scenario(n_bins=10, seed=3), horizon=1000)
        counts = np.bincount(stream.events["label"], minlength=len(stream.categories))
        total = len(stream.events)
        for cat, n in zip(stream.categories, counts.tolist()):
            assert n / total == pytest.approx(DEFAULT_WASTE_STREAM.category_mix[cat], abs=0.02)


CATEGORY_NAMES = ("glass", "metal", "organic", "paper", "plastic", "textile")


@st.composite
def waste_streams(draw):
    """Mixes with zero-probability categories that sum to 1 within 1e-9."""
    names = draw(st.lists(st.sampled_from(CATEGORY_NAMES), min_size=1, max_size=6, unique=True))
    weights = draw(
        st.lists(st.integers(0, 5), min_size=len(names), max_size=len(names)).filter(any)
    )
    skew = 1.0 + draw(st.floats(-4e-10, 4e-10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return twin.WasteStreamConfig(
        category_mix={c: w / sum(weights) * skew for c, w in zip(names, weights)},
        fill_increment_mean=draw(st.floats(0.0, 0.5)),
        fill_increment_std=draw(st.floats(0.0, 0.2)),
        feature_means={c: dict(zip(FEATURES, rng.normal(size=6).tolist())) for c in names},
        feature_stds=dict(zip(FEATURES, rng.uniform(0.01, 2.0, size=6).tolist())),
    )


class TestReferenceSimulator:
    """simulate_bins draws what the eight-call reference generator draws,
    row for row."""

    @settings(deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**64 - 1),
        horizon=st.integers(0, 20),
        n_bins=st.integers(1, 6),
        stream=st.none() | waste_streams(),
    )
    def test_events_match_reference(self, seed, horizon, n_bins, stream):
        s = graph_scenario(n_bins=n_bins, seed=seed, waste_stream=stream)
        got = simulate_bins(s, horizon)
        bin_ids = s.collection_graph.bin_ids()
        rows = [
            (t, bin_ids[b], repr(fill), [repr(v) for v in readings], got.categories[k])
            for (t, b, fill, k), readings in zip(got.events.tolist(), got.readings.tolist())
        ]
        want = [
            (ev.time_step, ev.bin_id, repr(ev.fill_level),
             [repr(ev.sensor_record[f]) for f in FEATURES], ev.true_label)
            for ev in reference.simulate_bins(s, horizon).events
        ]
        assert rows == want


@st.composite
def battery_cells(draw):
    """0-30 cells in shuffled id order among other materials.

    A cell's composition may name every element, leave mass unassigned, or
    put all of it in the named elements so that a positive jitter overdraws
    the empty remainder pool and the base split is kept. It may also name
    only some elements, or none, and hold -0.0 fractions, which JSON
    carries and validation accepts; a cell may weigh nothing.
    """
    n = draw(st.integers(0, 30))
    materials = []
    for i in draw(st.permutations(range(n))):
        named = draw(st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3))
        composition = dict(zip(ELEMENTS, named))
        style = draw(st.sampled_from(["other", "unassigned", "named only", "some"]))
        if style == "other":
            composition["other"] = max(0.0, 1.0 - sum(named))
        elif style == "named only":
            composition = {el: v / (sum(named) or 1.0) for el, v in composition.items()}
        elif style == "some":
            composition["other"] = max(0.0, 1.0 - sum(named))
            kept = draw(st.lists(st.sampled_from(ELEMENTS), max_size=4, unique=True))
            composition = {el: composition[el] for el in kept}
        for el in draw(st.sets(st.sampled_from(ELEMENTS))) & composition.keys():
            composition[el] = -0.0
        mass = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.01, 50.0))
        materials.append(battery(i, mass, composition))
    for i in range(draw(st.integers(0, 3))):
        materials.append(
            MaterialSpec(id=f"pet{i}", name="", category="plastic", mass_kg=5.0)
        )
    return tuple(materials)


class TestReferenceFacility:
    """simulate_recycling draws what the three-call-per-cell reference draws."""

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**64 - 1), materials=battery_cells())
    # -0.0 kg of each element: a total is 0.0 + -0.0, which is 0.0
    @example(seed=0, materials=(battery(0, -0.0, {"cobalt": -0.0, "other": 1.0}),))
    def test_trace_matches_reference(self, seed, materials):
        s = ScenarioSpec(materials=materials, rng_seed=seed)
        f = one_station_facility(loss=0.05)
        got = simulate_recycling(s, f)
        assert repr(got) == repr(reference.simulate_recycling(s, f))

    @pytest.mark.parametrize("name", ["battery_baseline.json", "battery_framework.json"])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_fixture_traces_match_reference(self, name, seed):
        # 1,000 cells through the fixture's own facility
        s = load_scenario(str(resources.files("greenloop") / "fixtures" / name))
        s = dataclasses.replace(s, rng_seed=seed)
        got = simulate_recycling(s, s.facility)
        assert repr(got) == repr(reference.simulate_recycling(s, s.facility))


def random_facility(rng):
    """1-4 stations with random loss; every station may recover every element."""
    stations = []
    for i in range(int(rng.integers(1, 5))):
        loss = float(rng.uniform(0.0, 0.3))
        eff = {el: float(rng.uniform(0.0, 1.0 - loss)) for el in ELEMENTS}
        stations.append(Station(f"s{i}", eff, energy_kwh_per_kg=1.0, loss_fraction=loss))
    return FacilityModel(tuple(stations), throughput_kg_per_step=float(rng.uniform(20, 200)))


class TestCalibration:
    def test_solve_hits_targets(self):
        s = battery_scenario(10, seed=4)
        f = one_station_facility(eff={"cobalt": 0.5, "lithium": 0.5, "nickel": 0.5})
        targets = {"cobalt": 0.85, "lithium": 0.88, "nickel": 0.90}
        calibrated, achieved = calibrate_facility(s, f, targets)
        for el, target in targets.items():
            assert achieved[el] == pytest.approx(target, abs=1e-12)

    def test_fixture_calibrates_to_its_own_efficiencies(self):
        # battery_framework's last station already recovers at its targets
        s = load_scenario(str(resources.files("greenloop") / "fixtures" / "battery_framework.json"))
        calibrated, achieved = calibrate_facility(s, s.facility, s.targets)
        eff = calibrated.stations[-1].recovery_efficiency
        assert s.targets == {"cobalt": 0.85, "lithium": 0.88, "nickel": 0.90}
        for el, target in s.targets.items():
            assert eff[el] == pytest.approx(target, abs=1e-12)
            assert achieved[el] == pytest.approx(target, abs=1e-12)
        assert calibrated.stations[:-1] == s.facility.stations[:-1]

    def test_random_facilities_reach_or_clamp(self):
        rng = np.random.default_rng(15015)
        reached = clamped = 0
        for _ in range(60):
            s = battery_scenario(int(rng.integers(1, 8)), seed=int(rng.integers(2**32)))
            f = random_facility(rng)
            names = [el for el in ELEMENTS if rng.random() < 0.7] or ["cobalt"]
            targets = {el: float(rng.uniform(0.0, 1.0)) for el in names}
            calibrated, achieved = calibrate_facility(s, f, targets)
            last = calibrated.stations[-1]
            headroom = 1.0 - last.loss_fraction
            assert calibrated.stations[:-1] == f.stations[:-1]
            for el, target in targets.items():
                got, eff = achieved[el], last.recovery_efficiency[el]
                if abs(got - target) <= 1e-12:
                    reached += 1
                    continue
                # out of reach: clamped to the end of [0, headroom] nearest it
                clamped += 1
                assert (eff, got > target) in ((0.0, True), (headroom, False))
            for el, eff in f.stations[-1].recovery_efficiency.items():
                if el not in targets:
                    assert last.recovery_efficiency[el] == eff
        assert reached and clamped

    def test_flat_lines_take_an_end(self):
        # the first station recovers all cobalt, and the cells hold no nickel:
        # neither rate moves with the last station's efficiency
        s = ScenarioSpec(
            materials=tuple(
                battery(i, composition={"cobalt": 0.2, "other": 0.8}) for i in range(3)
            ),
            rng_seed=5,
        )
        first = Station("first", {"cobalt": 1.0}, energy_kwh_per_kg=1.0, loss_fraction=0.0)
        last = Station("last", {"cobalt": 0.5, "nickel": 0.5}, 1.0, loss_fraction=0.2)
        f = FacilityModel((first, last), throughput_kg_per_step=10.0)
        calibrated, achieved = calibrate_facility(s, f, {"cobalt": 0.5, "nickel": 0.5})
        assert calibrated.stations[-1].recovery_efficiency == {"cobalt": 0.0, "nickel": 0.8}
        assert achieved["cobalt"] == pytest.approx(1.0, abs=1e-12)
        assert "nickel" not in achieved

    def test_calibration_respects_loss_headroom(self):
        s = battery_scenario(5, seed=4)
        f = one_station_facility(eff={"cobalt": 0.2}, loss=0.1)
        calibrated, achieved = calibrate_facility(s, f, {"cobalt": 0.85})
        st0 = calibrated.stations[-1]
        assert st0.recovery_efficiency["cobalt"] + st0.loss_fraction <= 1.0 + 1e-9
