"""Acceptance gate: ten criteria, one recorded pass/fail line each.

Each criterion prints (and registers for the terminal summary) a single
line of the form "criterion NN: PASS - detail". Oracle suites are seeded
and self-contained; table numbers come from the bundled fixtures. Golden
digests of the artifacts of every bundled fixture pin their bytes on top.
"""

import hashlib
import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from conftest import record_acceptance
from reference_routing import brute_force_route, optimal_route
from reference_solver import enumerate_integer_optimum

from greenloop.carbon import (
    LIFECYCLE_STAGES,
    ActivityLedger,
    EmissionFactor,
    carbon_footprint,
)
from greenloop.classify import FEATURES, _loss_and_grad, predict, train_on_records
from greenloop.cli import main
from greenloop.pipeline import (
    BIN_HORIZON,
    compare_runs,
    feedback_update,
    partition_districts,
    run_full,
)
from greenloop.routing import (
    BinNode,
    CollectionGraph,
    EdgeAttrs,
    RLConfig,
    greedy_route,
    qtable_to_dict,
    route_emissions,
    train_routing,
)
from greenloop.classify import evaluate_accuracy_records
from greenloop.scenario import MaterialSpec, ScenarioSpec, parse_scenario, scenario_to_dict
from greenloop import serialize
from greenloop.serialize import canonical_dumps
from greenloop.solver import LinearProgram, SolveStatus, solve_milp
from greenloop.twin import (
    FacilityModel,
    Station,
    check_mass_conservation,
    simulate_bins,
    simulate_recycling,
)


def check(num: int, passed: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}"
    record_acceptance(line)
    print(line)
    assert passed, line


def load_fixture(name):
    text = (resources.files("greenloop") / "fixtures" / name).read_text("utf-8")
    return parse_scenario(json.loads(text))


def load_expectations(family):
    text = (
        resources.files("greenloop") / "fixtures" / f"expectations_{family}.json"
    ).read_text("utf-8")
    return json.loads(text)


@pytest.fixture(scope="module")
def battery_runs():
    baseline = run_full(load_fixture("battery_baseline.json"), "baseline")
    framework = run_full(load_fixture("battery_framework.json"), "framework")
    return baseline, framework


@pytest.fixture(scope="module")
def waste_runs():
    s = load_fixture("waste_baseline.json")
    baseline = run_full(s, "baseline")
    framework = run_full(load_fixture("waste_framework.json"), "framework")
    return s, baseline, framework


def test_criterion_01_milp_oracle():
    rng = np.random.default_rng(77001)
    t0 = time.monotonic()
    total, matches, infeasible = 500, 0, 0
    for _ in range(total):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        instance = LinearProgram(
            objective=tuple(rng.integers(-5, 6, size=n).astype(float)),
            rows=tuple(
                (tuple(rng.integers(-3, 4, size=n).astype(float)),
                 float(rng.integers(-2, 13)))
                for _ in range(m)
            ),
            lower_bounds=(0.0,) * n,
            upper_bounds=(3.0,) * n,
            integer_mask=(True,) * n,
        )
        expected, _ = enumerate_integer_optimum(instance)
        sol = solve_milp(instance)
        if math.isinf(expected):
            infeasible += 1
            matches += sol.status is SolveStatus.INFEASIBLE
        else:
            matches += (
                sol.status is SolveStatus.OPTIMAL
                and abs(sol.objective_value - expected) <= 1e-6
            )
    elapsed = time.monotonic() - t0
    check(
        1,
        matches == total and elapsed < 60.0,
        f"{matches}/{total} MILP objectives match enumeration within 1e-6 "
        f"({infeasible} infeasible agreed) in {elapsed:.1f}s",
    )


def random_complete_graph(rng, n_bins):
    names = ["depot"] + [f"b{i:02d}" for i in range(n_bins)]
    nodes = tuple(
        BinNode(nm, fill_level=float(rng.uniform(0.2, 1.0)), is_depot=(nm == "depot"))
        for nm in names
    )
    rate = float(rng.uniform(0.4, 1.2))
    edges = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            edges[(a, b)] = EdgeAttrs(
                distance_km=float(rng.integers(1, 11)),
                emission_rate_kg_per_km=rate,
            )
    return CollectionGraph(nodes=nodes, edges=edges)


def scale_rates(g, factor):
    edges = {
        k: EdgeAttrs(v.distance_km, v.emission_rate_kg_per_km * factor)
        for k, v in g.edges.items()
    }
    return CollectionGraph(nodes=g.nodes, edges=edges)


def test_criterion_02_rl_oracle():
    t0 = time.monotonic()
    instances, optimal_hits, invariant_hits = 50, 0, 0
    for k in range(instances):
        rng = np.random.default_rng(1000 + k)
        n_bins = int(rng.integers(3, 7))
        g = random_complete_graph(rng, n_bins)
        cfg = RLConfig(rng_seed=2000 + k)
        q = train_routing(g, cfg)
        route = greedy_route(q, g)
        got = route_emissions(g, route)
        _, best = brute_force_route(g)
        optimal_hits += abs(got - best) <= 1e-9 * max(1.0, abs(best))
        # scaling every reward by an exact power of two must not move the argmax
        scaled = scale_rates(g, 4.0)
        invariant_hits += greedy_route(train_routing(scaled, cfg), scaled) == route
    elapsed = time.monotonic() - t0
    check(
        2,
        optimal_hits >= 0.95 * instances
        and invariant_hits == instances
        and elapsed < 120.0,
        f"{optimal_hits}/{instances} routes match the exhaustive optimum, "
        f"{invariant_hits}/{instances} argmax-invariant under reward scaling "
        f"in {elapsed:.1f}s",
    )


def test_held_karp_finds_the_exhaustive_optimum():
    """optimal_route's least cost is brute_force_route's on criterion 02's
    graphs, complete and with every third edge dropped."""
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        g = random_complete_graph(rng, int(rng.integers(3, 7)))
        kept = {e: at for i, (e, at) in enumerate(sorted(g.edges.items())) if i % 3}
        for graph in (g, CollectionGraph(nodes=g.nodes, edges=kept)):
            route, cost = optimal_route(graph)
            best_route, best = brute_force_route(graph)
            assert cost == best
            if math.isinf(best):
                assert route == best_route
            else:
                assert sorted(route[1:-1]) == sorted(graph.bin_ids())
                assert route_emissions(graph, route) == cost


def test_learned_routes_against_the_optimum(waste_runs):
    """Each district route the framework run learned costs at least its
    Held-Karp optimum; on the fixture the learned routes cost 1.32 times it."""
    _, _, (rf, artifacts) = waste_runs
    districts = partition_districts(load_fixture("waste_framework.json").collection_graph)
    learned = [route_emissions(d, r) for d, r in zip(districts, artifacts.district_routes)]
    optima = [optimal_route(d)[1] for d in districts]
    assert all(cost >= best for cost, best in zip(learned, optima))
    assert learned == pytest.approx([32.0, 32.0, 31.2, 30.4, 31.2])
    assert optima == pytest.approx([23.2, 24.0, 23.2, 23.2, 24.8])
    assert sum(learned) == pytest.approx(156.8)
    assert sum(learned) == pytest.approx(rf.transport_emissions_kg)
    assert sum(optima) == pytest.approx(118.4)


def test_criterion_03_lca_exactness():
    rng = np.random.default_rng(5150)
    factors = tuple(
        EmissionFactor(
            f"ef{i}", f"p{i}", float(rng.uniform(0.01, 5.0)),
            LIFECYCLE_STAGES[i % len(LIFECYCLE_STAGES)],
        )
        for i in range(8)
    )

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    failures = 0
    for _ in range(1000):
        pids = [f"p{i}" for i in range(int(rng.integers(1, 9)))]
        a = ActivityLedger({p: float(rng.uniform(0.0, 100.0)) for p in pids})
        b = ActivityLedger({p: float(rng.uniform(0.0, 100.0)) for p in pids})
        k = float(rng.uniform(0.1, 10.0))
        ra, rb = carbon_footprint(factors, a), carbon_footprint(factors, b)
        merged = carbon_footprint(
            factors,
            ActivityLedger({p: a.entries[p] + b.entries[p] for p in pids}),
        )
        scaled = carbon_footprint(
            factors, ActivityLedger({p: k * a.entries[p] for p in pids})
        )
        ok = close(merged.total_kg, ra.total_kg + rb.total_kg)
        ok = ok and close(scaled.total_kg, k * ra.total_kg)
        ok = ok and all(
            close(
                merged.by_stage.get(st, 0.0),
                ra.by_stage.get(st, 0.0) + rb.by_stage.get(st, 0.0),
            )
            for st in LIFECYCLE_STAGES
        )
        ok = ok and all(
            close(scaled.by_process[p], k * ra.by_process[p]) for p in pids
        )
        failures += not ok
    check(
        3,
        failures == 0,
        "1000/1000 random ledgers satisfy additivity and linearity within 1e-9",
    )


def test_criterion_04_classifier_gradients():
    rng = np.random.default_rng(90210)
    worst = 0.0
    pairs = 20
    for _ in range(pairs):
        c = int(rng.integers(2, 5))
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 13))
        w = rng.normal(0.0, 1.0, size=(c, d))
        bias = rng.normal(0.0, 1.0, size=c)
        x = rng.normal(0.0, 1.0, size=(n, d))
        y = rng.integers(0, c, size=n)
        _, gw, gb = _loss_and_grad(w, bias, x, y)
        h = 1e-6
        num_w = np.zeros_like(w)
        for i in range(c):
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                lp, _, _ = _loss_and_grad(wp, bias, x, y)
                lm, _, _ = _loss_and_grad(wm, bias, x, y)
                num_w[i, j] = (lp - lm) / (2 * h)
        num_b = np.zeros_like(bias)
        for i in range(c):
            bp, bm = bias.copy(), bias.copy()
            bp[i] += h
            bm[i] -= h
            lp, _, _ = _loss_and_grad(w, bp, x, y)
            lm, _, _ = _loss_and_grad(w, bm, x, y)
            num_b[i] = (lp - lm) / (2 * h)
        rel_w = np.linalg.norm(num_w - gw) / max(np.linalg.norm(gw), 1e-12)
        rel_b = np.linalg.norm(num_b - gb) / max(np.linalg.norm(gb), 1e-12)
        worst = max(worst, rel_w, rel_b)

    records = [
        ({"weight_kg": float(rng.uniform(0.1, 2.0)),
          "volume_l": float(rng.uniform(0.5, 8.0)),
          "metal_response": float(rng.uniform(0.0, 1.0)),
          "moisture": float(rng.uniform(0.0, 1.0)),
          "opacity": float(rng.uniform(0.0, 1.0)),
          "rigidity": float(rng.uniform(0.0, 1.0))},
         ("glass", "metal", "organic", "plastic")[int(rng.integers(0, 4))])
        for _ in range(80)
    ]
    features = np.array([[raw[f] for f in FEATURES] for raw, _ in records])
    model = train_on_records(features, [label for _, label in records], 0)
    worst_sum = 0.0
    for _ in range(200):
        _, probs = predict(model, rng.normal(0.0, 2.0, size=model.weights.shape[1]))
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
    check(
        4,
        worst <= 1e-5 and worst_sum <= 1e-12,
        f"{pairs} gradient checks (worst rel err {worst:.2e}) and softmax "
        f"sums within {worst_sum:.1e} of 1",
    )


def test_criterion_05_battery_table(battery_runs):
    (rb, _), (rf, _) = battery_runs
    base_ok = (
        abs(rb.recovery["cobalt"] * 100 - 68) <= 0.5
        and abs(rb.recovery["nickel"] * 100 - 70) <= 0.5
        and abs(rb.recovery["lithium"] * 100 - 72) <= 0.5
        and abs(rb.process_energy_kwh - 20000) <= 200
        and abs(rb.co2_kg - 30000) <= 300
    )
    frame_ok = (
        abs(rf.recovery["cobalt"] * 100 - 85) <= 0.5
        and abs(rf.recovery["nickel"] * 100 - 90) <= 0.5
        and abs(rf.recovery["lithium"] * 100 - 88) <= 0.5
        and abs(rf.process_energy_kwh - 15000) <= 150
        and abs(rf.co2_kg - 22000) <= 220
    )
    report = compare_runs(rb, rf, load_expectations("battery"))
    by_metric = {d.metric: d for d in report.deltas}
    deltas_ok = (
        abs(by_metric["cobalt_recovery"].delta_pp - 17) <= 0.5
        and abs(by_metric["nickel_recovery"].delta_pp - 20) <= 0.5
        and abs(by_metric["lithium_recovery"].delta_pp - 16) <= 0.5
        and abs(by_metric["process_energy_kwh"].delta_relative + 25) <= 0.5
    )
    annotation_ok = any(
        "-26.7" in a and "-28" in a for a in report.annotations
    )
    check(
        5,
        base_ok and frame_ok and deltas_ok and annotation_ok,
        "battery fixtures reproduce the reference table "
        "(68/70/72 -> 85/90/88 pp, 20000 -> 15000 kWh, CO2 delta -26.7% "
        "annotated against -28%)",
    )


def test_criterion_06_waste_table(waste_runs):
    _, (rb, _), (rf, _) = waste_runs
    ratio = rf.transport_emissions_kg / rb.transport_emissions_kg
    base_acc = rb.classification_accuracy * 100
    frame_acc = rf.classification_accuracy * 100
    check(
        6,
        abs(base_acc - 75) <= 2.0 and frame_acc >= 88.0 and ratio <= 0.75,
        f"waste fixtures: baseline accuracy {base_acc:.1f}% (75 +/- 2), "
        f"framework {frame_acc:.1f}% (>= 88), transport ratio {ratio:.3f} "
        f"(<= 0.75)",
    )


def test_criterion_07_mass_conservation():
    traces = [
        simulate_recycling(s, s.facility)
        for s in (load_fixture("battery_baseline.json"), load_fixture("battery_framework.json"))
    ]
    rng = np.random.default_rng(31337)
    for _ in range(40):
        stations = []
        for j in range(int(rng.integers(1, 4))):
            loss = float(rng.uniform(0.0, 0.2))
            eff = {
                el: float(rng.uniform(0.0, 1.0 - loss))
                for el in ("cobalt", "lithium", "nickel")
            }
            stations.append(
                Station(f"st{j}", eff, float(rng.uniform(0.1, 3.0)), loss)
            )
        facility = FacilityModel(
            stations=tuple(stations),
            throughput_kg_per_step=float(rng.uniform(20.0, 200.0)),
        )
        n = int(rng.integers(1, 40))
        frac = rng.dirichlet(np.ones(4))
        s = ScenarioSpec(
            materials=tuple(
                MaterialSpec(
                    f"m{i}", "", "battery-cell",
                    float(rng.uniform(1.0, 30.0)),
                    {"cobalt": float(frac[0]), "lithium": float(frac[1]),
                     "nickel": float(frac[2]), "other": float(frac[3])},
                )
                for i in range(n)
            ),
            rng_seed=int(rng.integers(0, 2**32)),
        )
        traces.append(simulate_recycling(s, facility))
    problems = [p for t in traces if t for p in check_mass_conservation(t)]
    check(
        7,
        not problems,
        f"{len(traces)} simulation traces conserve mass within 1e-6 relative",
    )


def test_criterion_08_cli_determinism(tmp_path):
    def invoke(out):
        for mode in ("baseline", "framework"):
            code = main(
                ["run", "--scenario", f"battery_{mode}.json", "--mode", mode,
                 "--out", str(out)]
            )
            assert code == 0
        dirs = {}
        for p in out.glob("*/manifest.json"):
            doc = json.loads(p.read_text("utf-8"))
            dirs[doc["mode"]] = p.parent
        for kind in ("recovery", "comparison"):
            assert main(
                ["chart", "--baseline", str(dirs["baseline"]),
                 "--framework", str(dirs["framework"]), "--kind", kind,
                 "--output", str(out / f"{kind}.svg")]
            ) == 0
        return dirs

    d1 = invoke(tmp_path / "a")
    d2 = invoke(tmp_path / "b")
    same_ids = {m: d.name for m, d in d1.items()} == {
        m: d.name for m, d in d2.items()
    }
    same_metrics = all(
        (d1[m] / "metrics.json").read_bytes() == (d2[m] / "metrics.json").read_bytes()
        for m in d1
    )
    same_svg = all(
        (tmp_path / "a" / f"{k}.svg").read_bytes()
        == (tmp_path / "b" / f"{k}.svg").read_bytes()
        for k in ("recovery", "comparison")
    )
    check(
        8,
        same_ids and same_metrics and same_svg,
        "re-invoking run/chart yields identical run ids, metrics bytes, "
        "and SVG bytes",
    )


def test_criterion_09_method_table(tmp_path):
    assert main(["table3", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "table3.md").read_text(encoding="utf-8")
    rows_ok = (
        "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 |" in text
        and "| Material recovery rate (%) | 60 | 80 | 88 |" in text
        and "| CO2 emission reduction (%) | — | 25 | 28 |" in text
    )
    check(
        9,
        rows_ok,
        "method table renders 5.5/4.0/3.6 GJ per tonne, 60/80/88 recovery, "
        "and the dash/25/28 CO2 row byte-exactly from the fixture",
    )


@pytest.fixture(scope="module")
def waste_feedback(waste_runs):
    s, _, (_, artifacts) = waste_runs
    return feedback_update(s, artifacts)


def test_criterion_10_feedback_round(waste_runs, waste_feedback):
    s, _, (_, artifacts) = waste_runs
    updated, diagnostics = waste_feedback
    stream = simulate_bins(s, BIN_HORIZON)
    held_out = stream.events["time_step"] >= int(0.7 * BIN_HORIZON)
    eval_x = stream.readings[held_out]
    eval_y = [stream.categories[k] for k in stream.events["label"][held_out].tolist()]
    before = evaluate_accuracy_records(artifacts.classifier, eval_x, eval_y)
    after = evaluate_accuracy_records(updated.classifier, eval_x, eval_y)
    check(
        10,
        after >= before and updated.version == artifacts.version + 1 and not diagnostics,
        f"feedback round keeps held-out accuracy ({before:.4f} -> {after:.4f}) "
        f"and bumps artifact version to {updated.version}",
    )


# sha256 of the artifacts of a CLI run of each bundled fixture in the mode
# it is named for, at the fixture seed, and of the route tables after one
# default feedback round. numpy does not promise the same Generator streams
# across releases (NEP 19), so the digests hold only under the numpy
# version they were taken with. Change them only together with a
# deliberate change of the outputs.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_RUNS = (
    ("waste_framework.json", "framework",
     ("scenario.json", "metrics.json", "routes.json", "qtables.json", "classifier.json")),
    ("waste_baseline.json", "baseline", ("metrics.json",)),
    ("battery_baseline.json", "baseline", ("scenario.json", "metrics.json")),
    ("battery_framework.json", "framework", ("scenario.json", "metrics.json")),
    ("alloc_small.json", "framework", ("metrics.json", "allocation.json")),
)
GOLDEN_DIGESTS = {
    "waste_framework.json framework scenario.json":
        "92b160b1212e28fd212bf378db37f63b14f8d516e3e2edcf17ee28d8f4d95c05",
    "waste_framework.json framework metrics.json":
        "0928336e461e56c929172f771279a67db03f54f6f6b8ee6fa5e9fa0b53d91fe5",
    "waste_framework.json framework routes.json":
        "2974318d7df400da1546a69812cf511afe4b3a6d0513881e38112adb60bdc4d3",
    "waste_framework.json framework qtables.json":
        "2e6ac796f05a112a3c153692883215c79899440b3d06e5e39cddf3faebd56c9c",
    "waste_framework.json framework classifier.json":
        "0bdbed036b829b1b395d807a080bc4ebb6832986e5ba7319c2ec0220c21260e9",
    "waste_baseline.json baseline metrics.json":
        "6378ead810f112bb440f7bdde1eeaf00bbf00010a53a199dd147080808a3129a",
    "battery_baseline.json baseline scenario.json":
        "9e8d92acffe45ab8032bed0195ff37c6d9238e5dff6344ddbfbdd681b307eb25",
    "battery_baseline.json baseline metrics.json":
        "ade8aa4db6289ce3e682aef751fcf0595a6fae8f2c8d89c8cc830bcab29a590b",
    "battery_framework.json framework scenario.json":
        "820c36f145b0f36eb00783d8d7a8cc75168c8f4dc87f9efff5d463386c2ac9d3",
    "battery_framework.json framework metrics.json":
        "1a27291c7af1bfdd6cceb328af12c4fcc86a5a6b7de8f649550ef5873ac120bd",
    "alloc_small.json framework metrics.json":
        "b33b55c079011fa2821f5c89e71fb96ccf5839eb2544a3a23a761516614ab9c6",
    "alloc_small.json framework allocation.json":
        "25561c9f53966cf439af6b0bb2314ae8d543f3fc1e99ec70e531c953eaacc4ce",
    "feedback qtables.json":
        "e1f0d616569c905ff75397678088c533380cddb801e9fe9d8c73186b883b04e8",
}


def test_golden_digests(tmp_path, waste_feedback):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(
            f"digests pinned under numpy {GOLDEN_NUMPY}, running {np.__version__}; "
            "Generator streams may differ across numpy releases (NEP 19)"
        )
    got = {}
    for fixture, mode, names in GOLDEN_RUNS:
        out = tmp_path / f"{fixture}-{mode}"
        assert main(
            ["run", "--scenario", fixture, "--mode", mode, "--out", str(out)]
        ) == 0
        (run_dir,) = [p.parent for p in out.glob("*/manifest.json")]
        for name in names:
            got[f"{fixture} {mode} {name}"] = hashlib.sha256(
                (run_dir / name).read_bytes()
            ).hexdigest()
    updated, _ = waste_feedback
    v = updated.version
    tables = {"version": v, "tables": [qtable_to_dict(q, v) for q in updated.district_qtables]}
    got["feedback qtables.json"] = hashlib.sha256(
        canonical_dumps(tables).encode("utf-8")
    ).hexdigest()
    assert got == GOLDEN_DIGESTS


# sha256 of the reports of a CLI compare (auto expectations) and chart of
# each bundled study's baseline and framework runs: the reports are pure
# functions of the two runs' metrics, so these move only with the metrics
# pinned above or with a deliberate change of the rendering.
REPORT_PAIRS = {
    "battery": ("battery_baseline.json", "battery_framework.json"),
    "waste": ("waste_baseline.json", "waste_framework.json"),
}
REPORT_DIGESTS = {
    "battery compare.md":
        "2f88a3b3b1280f666f9a959b3cd43a976a2bc8c675b8b5872a507cbe4b35cd00",
    "battery compare.csv":
        "82ac9e02b24e22dbbb5d65eac71cc0769861675855d6bf35be140e0838a35473",
    "battery chart_comparison.svg":
        "cd39ffeabaccc3da87bb9e2b349228eedb239d6f257d961aa67c250b3022ca49",
    "battery chart_recovery.svg":
        "a657e60c2923f8c186b59f6fe10da7cd3a6ae9f2705e8655c87d0252f02643ea",
    "waste compare.md":
        "5155e1ac28ca377ac6ad59dc424f2ffca46ce1d83cce225a2c5de9b8526c44b0",
    "waste compare.csv":
        "cc9a6bf95fca4633628676c501a3fbf153a137ee3d83fc584f5b734fa6a43af6",
    "waste chart_comparison.svg":
        "c05dc1a2825772caf39e38abaf924848b6ae285d51340b6175a4792eea0e9ebb",
}


def test_report_digests(tmp_path, capsys):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(
            f"digests pinned under numpy {GOLDEN_NUMPY}, running {np.__version__}; "
            "Generator streams may differ across numpy releases (NEP 19)"
        )
    got = {}
    for study, (baseline, framework) in REPORT_PAIRS.items():
        runs = tmp_path / study / "runs"
        for fixture, mode in ((baseline, "baseline"), (framework, "framework")):
            assert main(
                ["run", "--scenario", fixture, "--mode", mode, "--out", str(runs / mode)]
            ) == 0
        (b,) = (runs / "baseline").glob("*/manifest.json")
        (f,) = (runs / "framework").glob("*/manifest.json")
        reports = tmp_path / study / "reports"
        pair = ["--baseline", str(b), "--framework", str(f), "--out", str(reports)]
        assert main(["compare", *pair]) == 0
        kinds = ("comparison", "recovery") if study == "battery" else ("comparison",)
        for kind in kinds:
            assert main(["chart", *pair, "--kind", kind]) == 0
        for name in sorted(p.name for p in reports.iterdir()):
            got[f"{study} {name}"] = hashlib.sha256(
                (reports / name).read_bytes()
            ).hexdigest()
    capsys.readouterr()
    assert got == REPORT_DIGESTS


def test_artifacts_never_fall_back_to_the_stdlib(waste_runs, monkeypatch):
    """The bundled scenarios and the route tables take canonical_dumps's own
    paths: with the standard library encoder patched to raise, they still
    write byte for byte what they wrote before."""
    _, _, (_, artifacts) = waste_runs
    docs = [scenario_to_dict(load_fixture(fixture)) for fixture, _, _ in GOLDEN_RUNS]
    docs.append({"version": 1, "tables": [qtable_to_dict(q) for q in artifacts.district_qtables]})
    want = [canonical_dumps(doc) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("canonical_dumps fell back to json.dumps")

    monkeypatch.setattr(serialize.json, "dumps", refuse)
    assert [canonical_dumps(doc) for doc in docs] == want
