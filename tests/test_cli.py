"""CLI tests: subcommands, exit codes, persistence, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from greenloop import cli, errors, pipeline
from greenloop.cli import main
from greenloop.serialize import read_json


def run_battery(tmp_path, mode):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--scenario",
            f"battery_{mode}.json",
            "--mode",
            mode,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifests = sorted(out.glob("*/manifest.json"))
    latest = [p for p in manifests if read_json(p)["mode"] == mode]
    return latest[-1].parent


def slow_facility(tmp_path):
    """The battery framework scenario at 1e-9 kg per step: 1.5e13 steps."""
    doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
    doc["facility"]["throughput_kg_per_step"] = 1e-9
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def small_waste(doc):
    """Cut the waste fixture's graph to the depot and its first three bins."""
    graph = doc["collection_graph"]
    graph["nodes"] = graph["nodes"][:4]
    kept = {node["id"] for node in graph["nodes"]}
    graph["edges"] = [e for e in graph["edges"] if e["a"] in kept and e["b"] in kept]


def unreachable_bin(doc):
    small_waste(doc)
    graph = doc["collection_graph"]
    graph["edges"] = [e for e in graph["edges"] if "b02" not in (e["a"], e["b"])]


def one_category(doc):
    small_waste(doc)
    doc["waste_stream"]["category_mix"] = {"plastic": 1.0}


def no_limits(doc):
    doc["integrality"] = []
    doc["limits"] = []


def unbounded_integer(doc):
    for lim in doc["limits"]:
        del lim["consumption"]["pC"]


# A metrics document run_result_from_dict accepts.
METRICS = {
    "mode": "baseline",
    "seed": 0,
    "recovery": {},
    "process_energy_kwh": 1.0,
    "pipeline_energy": {"total_kwh": 0.0, "stages": []},
    "co2_kg": 1.0,
    "waste_reduction_fraction": 0.0,
}
FRAMEWORK_METRICS = {**METRICS, "mode": "framework"}

# Deeper than the JSON decoder's recursion limit: it raises RecursionError.
DEEP_JSON = "[" * 100_000

# Not UTF-8: a byte order mark of UTF-16 before "{".
NOT_UTF8 = b"\xff\xfe{"


def manifest_file(path, metrics):
    path.write_text(
        json.dumps({"version": 1, "mode": metrics["mode"], "metrics": metrics}), "utf-8"
    )
    return path


class TestRun:
    def test_writes_manifest_and_artifacts(self, tmp_path, capsys):
        run_dir = run_battery(tmp_path, "baseline")
        manifest = read_json(run_dir / "manifest.json")
        assert manifest["run_id"] == run_dir.name
        assert manifest["mode"] == "baseline"
        for rel in manifest["artifacts"].values():
            assert (run_dir / rel).is_file()
        metrics = read_json(run_dir / "metrics.json")
        assert metrics == manifest["metrics"]
        assert metrics["recovery"]["cobalt"] == pytest.approx(0.68)
        assert run_dir.name in capsys.readouterr().out

    def test_rerun_identical_id_and_metrics_bytes(self, tmp_path):
        d1 = run_battery(tmp_path, "baseline")
        first = (d1 / "metrics.json").read_bytes()
        d2 = run_battery(tmp_path, "baseline")
        assert d1 == d2
        assert (d2 / "metrics.json").read_bytes() == first

    @pytest.mark.parametrize("fixture, mode", [
        ("battery_framework.json", "framework"), ("waste_baseline.json", "baseline"),
    ])
    def test_scenario_hash_is_the_digest_of_scenario_json(self, tmp_path, fixture, mode):
        argv = ["run", "--scenario", fixture, "--mode", mode, "--out", str(tmp_path)]
        assert main(argv) == 0
        (first,) = tmp_path.glob("*/manifest.json")
        manifest = read_json(first)
        written = (first.parent / "scenario.json").read_bytes()
        assert manifest["scenario_hash"] == hashlib.sha256(written).hexdigest()[:16]
        assert main(argv) == 0
        assert [p.parent.name for p in tmp_path.glob("*/manifest.json")] == [manifest["run_id"]]

    @pytest.mark.parametrize("fixture, edit", [
        ("waste_framework.json", small_waste), ("alloc_small.json", None),
    ])
    def test_every_artifact_but_the_scenario_goes_through_write_json(
        self, tmp_path, monkeypatch, fixture, edit
    ):
        doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
        if edit is not None:
            edit(doc)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        seen = []
        write_json = cli.write_json

        def recorder(path, obj):
            seen.append(Path(path).name)
            return write_json(path, obj)

        monkeypatch.setattr(cli, "write_json", recorder)
        assert main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(tmp_path / "out")]) == 0
        (manifest,) = (tmp_path / "out").glob("*/manifest.json")
        artifacts = set(read_json(manifest)["artifacts"].values()) - {"scenario.json"}
        assert sorted(seen[:-1]) == sorted(artifacts) and seen[-1] == "manifest.json"

    def test_missing_scenario_exit_3(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", "missing.json", "--mode", "baseline",
             "--out", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "missing.json" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_directory_scenario_exit_3(self, tmp_path, capsys, monkeypatch, command):
        # named like a bundled fixture, which it must not fall back to
        (tmp_path / "waste_framework.json").mkdir()
        monkeypatch.chdir(tmp_path)
        argv = [command, "--scenario", "waste_framework.json"]
        if command == "run":
            argv += ["--mode", "framework", "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "not a regular file: waste_framework.json" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_facility_step_budget_exit_4(self, tmp_path, capsys, command):
        argv = [command, "--scenario", str(slow_facility(tmp_path)),
                "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--mode", "framework"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "1.5e+13 steps, over the budget" in err
        assert "facility.throughput_kg_per_step" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fixture, edit, code, problem",
        [
            ("alloc_small.json", no_limits, 5, "allocation solve ended UNBOUNDED"),
            ("waste_framework.json", unreachable_bin, 6,
             "bins unreachable from depot: ['b02']"),
            ("waste_framework.json", one_category, 9, "need >= 2 classes, got ('plastic',)"),
            ("alloc_small.json", unbounded_integer, 4,
             "integer process 'pC' has no limit row bounding it"),
        ],
        ids=["unbounded-allocation", "unreachable-bin", "one-category", "unbounded-integer"],
    )
    def test_failing_stage_exits_with_family_code(
        self, tmp_path, capsys, fixture, edit, code, problem
    ):
        doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
        edit(doc)
        scenario = tmp_path / "failing.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == (4 if code == 4 else 0)
        listed = capsys.readouterr().out
        assert (problem in listed) == (code == 4)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert problem in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_mode_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["run", "--scenario", "alloc_small.json", "--mode", "warp"])
        assert info.value.code == 2

    def test_seed_flag_changes_run_id(self, tmp_path):
        out = tmp_path / "out"
        main(["run", "--scenario", "alloc_small.json", "--mode", "baseline",
              "--out", str(out)])
        main(["run", "--scenario", "alloc_small.json", "--mode", "baseline",
              "--seed", "77", "--out", str(out)])
        seeds = {read_json(p)["seed"] for p in out.glob("*/manifest.json")}
        assert seeds == {11, 77}

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "seven"])
    def test_seed_out_of_range_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["run", "--scenario", "alloc_small.json", "--mode", "baseline",
                  "--seed", seed, "--out", str(out)])
        assert info.value.code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs_and_validates(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--scenario", "alloc_small.json", "--mode", "baseline",
                     "--seed", str(2**64 - 1), "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        assert read_json(run_dir / "manifest.json")["seed"] == 2**64 - 1
        assert main(["validate", "--scenario", str(run_dir / "scenario.json")]) == 0

    def test_negative_zero_fill_std_runs(self, tmp_path, capsys):
        doc = json.loads((cli._FIXTURES / "waste_framework.json").read_text("utf-8"))
        small_waste(doc)
        doc["waste_stream"]["fill_increment_std"] = -0.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["run", "--scenario", str(path), "--mode", "framework",
                     "--out", str(tmp_path / "out")]) == 0


class TestCompare:
    def test_battery_compare_files(self, tmp_path, capsys):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        capsys.readouterr()
        code = main(
            ["compare", "--baseline", str(b), "--framework", str(f),
             "--out", str(tmp_path / "cmp")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| Energy Consumption (kWh) | 20,000 | 15,000 | -25% |" in out
        assert "-26.7% differs from" in out
        md = (tmp_path / "cmp" / "compare.md").read_text("utf-8")
        csv_text = (tmp_path / "cmp" / "compare.csv").read_text("utf-8")
        assert md == out
        assert csv_text.startswith("Metric,Baseline,Framework,Improvement")

    def test_csv_format_flag(self, tmp_path, capsys):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        capsys.readouterr()
        code = main(
            ["compare", "--baseline", str(b), "--framework", str(f),
             "--out", str(tmp_path / "cmp"), "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("Metric,Baseline,")

    def test_unreadable_manifest_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "nope"
        code = main(
            ["compare", "--baseline", str(bad), "--framework", str(bad)]
        )
        assert code == 3
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "metrics",
        [
            {},
            [],
            {"mode": "baseline", "seed": 0, "recovery": {}},
            {**METRICS, "pipeline_energy": {}},
            {**METRICS, "pipeline_energy": {"total_kwh": 0.0, "stages": [{}]}},
            {**METRICS, "recovery": 5},
            {**METRICS, "process_energy_kwh": "x"},
            {**METRICS, "co2_kg": True},
            {**METRICS, "recovery": {"cobalt": "0.9"}},
            {**METRICS, "transport_emissions_kg": [1.0]},
        ],
    )
    def test_incomplete_metrics_exit_3(self, tmp_path, capsys, metrics):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps({"version": 1, "mode": "baseline", "metrics": metrics}), "utf-8"
        )
        code = main(
            ["compare", "--baseline", str(path), "--framework", str(path),
             "--out", str(tmp_path / "cmp")]
        )
        assert code == 3
        assert "metrics" in capsys.readouterr().err

    def test_mode_mismatch_exit_10(self, tmp_path, capsys):
        f = run_battery(tmp_path, "framework")
        code = main(
            ["compare", "--baseline", str(f), "--framework", str(f),
             "--out", str(tmp_path / "cmp")]
        )
        assert code == 10

    @pytest.mark.parametrize(
        "expectations",
        [
            {"co2_kg": {"value": 1}},
            {"co2_kg": 5},
            {"co2_kg": {"form": "relative", "value": "x"}},
            [1, 2],
            {"co2_kg": {"form": "relative", "value": True}},
            {"co2_kg": {"form": "percent", "value": 1}},
        ],
    )
    def test_malformed_expectations_exit_3(self, tmp_path, capsys, expectations):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        path = tmp_path / "expectations.json"
        path.write_text(json.dumps(expectations), "utf-8")
        capsys.readouterr()
        code = main(["compare", "--baseline", str(b), "--framework", str(f),
                     "--out", str(tmp_path / "cmp"), "--expectations", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: expectations {path}: ")
        assert not (tmp_path / "cmp").exists()

    def test_expectations_file_annotates(self, tmp_path, capsys):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        path = tmp_path / "expectations.json"
        path.write_text(json.dumps({"co2_kg": {"form": "relative", "value": 5}}), "utf-8")
        capsys.readouterr()
        assert main(["compare", "--baseline", str(b), "--framework", str(f),
                     "--out", str(tmp_path / "cmp"), "--expectations", str(path)]) == 0
        assert "the reference target +5.0%" in capsys.readouterr().out

    def test_expectations_none_drops_targets(self, tmp_path, capsys):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        capsys.readouterr()
        main(["compare", "--baseline", str(b), "--framework", str(f),
              "--out", str(tmp_path / "cmp"), "--expectations", "none"])
        out = capsys.readouterr().out
        assert "Reference targets" not in out
        assert "- none" in out


    def test_deeply_nested_manifest_exit_3(self, tmp_path, capsys):
        deep = tmp_path / "manifest.json"
        deep.write_text(DEEP_JSON, "utf-8")
        good = manifest_file(tmp_path / "framework.json", FRAMEWORK_METRICS)
        code = main(["compare", "--baseline", str(deep), "--framework", str(good),
                     "--out", str(tmp_path / "cmp")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: manifest not readable: {deep}")

    def test_deeply_nested_expectations_exit_3(self, tmp_path, capsys):
        b = manifest_file(tmp_path / "baseline.json", METRICS)
        f = manifest_file(tmp_path / "framework.json", FRAMEWORK_METRICS)
        path = tmp_path / "expectations.json"
        path.write_text(DEEP_JSON, "utf-8")
        code = main(["compare", "--baseline", str(b), "--framework", str(f),
                     "--out", str(tmp_path / "cmp"), "--expectations", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: expectations not readable: {path}")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("command", ["compare", "chart"])
    def test_non_utf8_manifest_exit_3(self, tmp_path, capsys, command):
        bad = tmp_path / "manifest.json"
        bad.write_bytes(NOT_UTF8)
        good = manifest_file(tmp_path / "framework.json", FRAMEWORK_METRICS)
        code = main([command, "--baseline", str(bad), "--framework", str(good),
                     "--out", str(tmp_path / "cmp")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest not readable: {bad}")
        assert "not UTF-8" in err

    def test_non_utf8_expectations_exit_3(self, tmp_path, capsys):
        b = manifest_file(tmp_path / "baseline.json", METRICS)
        f = manifest_file(tmp_path / "framework.json", FRAMEWORK_METRICS)
        path = tmp_path / "expectations.json"
        path.write_bytes(NOT_UTF8)
        code = main(["compare", "--baseline", str(b), "--framework", str(f),
                     "--out", str(tmp_path / "cmp"), "--expectations", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: expectations not readable: {path}")
        assert not (tmp_path / "cmp").exists()


class TestChart:
    def test_chart_written_and_deterministic(self, tmp_path):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        svg_path = tmp_path / "rec.svg"
        args = ["chart", "--baseline", str(b), "--framework", str(f),
                "--kind", "recovery", "--output", str(svg_path)]
        assert main(args) == 0
        first = svg_path.read_bytes()
        assert main(args) == 0
        assert svg_path.read_bytes() == first
        assert b"Recovery Rate by Element" in first

    def test_default_output_path(self, tmp_path):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        out = tmp_path / "charts"
        assert main(["chart", "--baseline", str(b), "--framework", str(f),
                     "--kind", "comparison", "--out", str(out)]) == 0
        assert (out / "chart_comparison.svg").is_file()

    def test_nested_broken_metrics_exit_3(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        metrics = {**METRICS, "pipeline_energy": {}}
        path.write_text(
            json.dumps({"version": 1, "mode": "baseline", "metrics": metrics}), "utf-8"
        )
        code = main(
            ["chart", "--baseline", str(path), "--framework", str(path),
             "--out", str(tmp_path / "charts")]
        )
        assert code == 3
        assert "metrics" in capsys.readouterr().err

    def test_missing_metric_exit_11(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--scenario", "alloc_small.json", "--mode", "baseline",
              "--out", str(out)])
        main(["run", "--scenario", "alloc_small.json", "--mode", "framework",
              "--out", str(out)])
        dirs = {read_json(p)["mode"]: p.parent
                for p in out.glob("*/manifest.json")}
        code = main(
            ["chart", "--baseline", str(dirs["baseline"]),
             "--framework", str(dirs["framework"]),
             "--kind", "recovery", "--out", str(out)]
        )
        assert code == 11


# Numbers no reader takes: NaN, both infinities and an int past the float range.
NON_FINITE = [
    pytest.param(math.nan, id="NaN"),
    pytest.param(math.inf, id="Infinity"),
    pytest.param(-math.inf, id="-Infinity"),
    pytest.param(10**400, id="int-beyond-float"),
]


class TestNonFiniteNumbers:
    """Manifest metrics and expectation values follow the scenario's number rule."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("metric", ["co2_kg", "cobalt"])
    @pytest.mark.parametrize("command", [
        pytest.param(["compare"], id="compare"),
        pytest.param(["chart", "--kind", "comparison"], id="chart-comparison"),
        pytest.param(["chart", "--kind", "recovery"], id="chart-recovery"),
    ])
    def test_metric_exit_3(self, tmp_path, capsys, command, metric, value):
        metrics = {**METRICS, "recovery": {"cobalt": 0.5}}
        bad = {**metrics, "recovery": {"cobalt": value}} if metric == "cobalt" else {
            **metrics, metric: value
        }
        b = manifest_file(tmp_path / "baseline.json", bad)
        f = manifest_file(tmp_path / "framework.json", {**metrics, "mode": "framework"})
        out = tmp_path / "out"
        code = main([*command, "--baseline", str(b), "--framework", str(f), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: manifest metrics unreadable: {b}")
        assert not out.exists()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_expectation_exit_3(self, tmp_path, capsys, value):
        b = manifest_file(tmp_path / "baseline.json", METRICS)
        f = manifest_file(tmp_path / "framework.json", FRAMEWORK_METRICS)
        path = tmp_path / "expectations.json"
        path.write_text(json.dumps({"co2_kg": {"form": "relative", "value": value}}), "utf-8")
        code = main(["compare", "--baseline", str(b), "--framework", str(f),
                     "--out", str(tmp_path / "cmp"), "--expectations", str(path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: expectations {path}: ")
        assert not (tmp_path / "cmp").exists()


class TestTable3:
    ROWS = (
        "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 |",
        "| Material recovery rate (%) | 60 | 80 | 88 |",
        "| CO2 emission reduction (%) | — | 25 | 28 |",
    )

    def test_without_runs_measured_na(self, tmp_path, capsys):
        out = tmp_path / "empty"
        assert main(["table3", "--out", str(out)]) == 0
        text = (out / "table3.md").read_text("utf-8")
        for row in self.ROWS:
            assert row + " n/a |" in text

    def test_with_runs_measured_filled(self, tmp_path, capsys):
        run_battery(tmp_path, "baseline")
        run_battery(tmp_path, "framework")
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in text
        assert "| CO2 emission reduction (%) | — | 25 | 28 | 26.67 |" in text
        assert "| Material recovery rate (%) | 60 | 80 | 88 | 88.11 |" in text

    def test_material_outside_the_facility_not_counted(self, tmp_path, capsys):
        """Only battery cells go through the facility, so only they are measured."""
        doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
        doc["materials"].append(
            {"id": "bag", "category": "plastic", "mass_kg": 15000.0,
             "composition": {"nickel": 0.5}}
        )
        diluted = tmp_path / "diluted.json"
        diluted.write_text(json.dumps(doc), "utf-8")
        run_battery(tmp_path, "baseline")
        assert main(["run", "--scenario", str(diluted), "--mode", "framework",
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in text
        assert "| Material recovery rate (%) | 60 | 80 | 88 | 88.11 |" in text

    @pytest.mark.parametrize(
        "manifest",
        [
            {"mode": "framework"},
            {"mode": "framework", "artifacts": {"scenario": "scenario.json"},
             "metrics": {}},
            {"mode": "framework", "artifacts": [], "metrics": FRAMEWORK_METRICS},
            {"mode": "framework", "artifacts": {"scenario": 5},
             "metrics": FRAMEWORK_METRICS},
            {"mode": "framework", "artifacts": {"scenario": "scenario.json"},
             "metrics": FRAMEWORK_METRICS, "created_at": 99991231},
        ],
    )
    def test_broken_newer_manifest_skipped(self, tmp_path, capsys, manifest):
        run_battery(tmp_path, "baseline")
        good = run_battery(tmp_path, "framework")
        broken = tmp_path / "out" / "broken"
        broken.mkdir()
        (broken / "scenario.json").write_bytes((good / "scenario.json").read_bytes())
        (broken / "manifest.json").write_text(
            json.dumps({"created_at": "9999-12-31T00:00:00+00:00", **manifest}),
            "utf-8",
        )
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in text


    def test_unparsable_newer_scenario_skipped(self, tmp_path, capsys):
        """The newest run whose scenario parses fills the measured column."""
        run_battery(tmp_path, "baseline")
        good = run_battery(tmp_path, "framework")
        manifest = read_json(good / "manifest.json")
        manifest["created_at"] = "9999-12-31T00:00:00+00:00"
        manifest["metrics"]["co2_kg"] *= 2
        broken = tmp_path / "out" / "broken"
        broken.mkdir()
        (broken / "scenario.json").write_text("{}", "utf-8")
        (broken / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in text
        assert "| CO2 emission reduction (%) | — | 25 | 28 | 26.67 |" in text


    @pytest.mark.parametrize("deep_file", ["manifest.json", "scenario.json"])
    def test_deeply_nested_newer_run_skipped(self, tmp_path, capsys, deep_file):
        run_battery(tmp_path, "baseline")
        good = run_battery(tmp_path, "framework")
        manifest = read_json(good / "manifest.json")
        manifest["created_at"] = "9999-12-31T00:00:00+00:00"
        manifest["metrics"]["co2_kg"] *= 2
        broken = tmp_path / "out" / "broken"
        broken.mkdir()
        (broken / "scenario.json").write_bytes((good / "scenario.json").read_bytes())
        (broken / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        (broken / deep_file).write_text(DEEP_JSON, "utf-8")
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| CO2 emission reduction (%) | — | 25 | 28 | 26.67 |" in text

    @pytest.mark.parametrize("bad_file", ["manifest.json", "scenario.json"])
    def test_non_utf8_newer_run_skipped(self, tmp_path, capsys, bad_file):
        run_battery(tmp_path, "baseline")
        good = run_battery(tmp_path, "framework")
        manifest = read_json(good / "manifest.json")
        manifest["created_at"] = "9999-12-31T00:00:00+00:00"
        manifest["metrics"]["co2_kg"] *= 2
        broken = tmp_path / "out" / "broken"
        broken.mkdir()
        (broken / "scenario.json").write_bytes((good / "scenario.json").read_bytes())
        (broken / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        (broken / bad_file).write_bytes(NOT_UTF8)
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| CO2 emission reduction (%) | — | 25 | 28 | 26.67 |" in text

    @staticmethod
    def run_newest(tmp_path, scenario, mode):
        """Run scenario, then date its manifest after every other run in out."""
        staging = tmp_path / "staging"
        assert main(["run", "--scenario", scenario, "--mode", mode,
                     "--out", str(staging)]) == 0
        (run_dir,) = staging.iterdir()
        manifest = read_json(run_dir / "manifest.json")
        manifest["created_at"] = "9999-12-31T00:00:00+00:00"
        (run_dir / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        run_dir.rename(tmp_path / "out" / run_dir.name)

    def test_newest_framework_of_another_study_has_no_baseline(self, tmp_path, capsys):
        run_battery(tmp_path, "baseline")
        run_battery(tmp_path, "framework")
        self.run_newest(tmp_path, "alloc_small.json", "framework")
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        assert "| CO2 emission reduction (%) | — | 25 | 28 | n/a |" in capsys.readouterr().out

    def test_baseline_comes_from_the_framework_runs_study(self, tmp_path, capsys):
        run_battery(tmp_path, "baseline")
        run_battery(tmp_path, "framework")
        self.run_newest(tmp_path, "waste_baseline.json", "baseline")
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        assert "| CO2 emission reduction (%) | — | 25 | 28 | 26.67 |" in capsys.readouterr().out


class TestValidateCalibrate:
    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--scenario", "waste_baseline.json"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_broken_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["validate", "--scenario", str(bad)]) == 4

    def test_validate_diagnostics(self, tmp_path, capsys):
        doc = {
            "rng_seed": 1,
            "materials": [
                {"id": "m", "category": "battery-cell", "mass_kg": 1.0,
                 "composition": {"cobalt": 0.6, "nickel": 0.6}}
            ],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 4
        out = capsys.readouterr().out
        assert "fractions sum > 1" in out
        assert "problem" in out

    def test_validate_reports_step_budget(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(slow_facility(tmp_path))]) == 4
        out = capsys.readouterr().out
        assert "facility.throughput_kg_per_step: 15000 kg at 1e-09 kg per step" in out
        assert "1 problem(s) found" in out

    @pytest.mark.parametrize("command", ["run", "calibrate", "validate"])
    def test_unknown_stage_cost_exit_4(self, tmp_path, capsys, command):
        doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
        doc["energy_model"]["stage_costs"] = {"simulaton": {"compute_seconds": 99.0}}
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--scenario", str(path)]
        if command == "run":
            argv += ["--mode", "framework"]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 4
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "energy_model.stage_costs['simulaton']" in text
        assert "unknown stage 'simulaton'" in text and "'preprocess'" in text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "calibrate", "validate"])
    @pytest.mark.parametrize("stage_costs, problem", [
        pytest.param(
            {"route": {"compute_seconds": 1e308, "transferred_mb": 1e308},
             "metrics": {"compute_seconds": 1e308, "transferred_mb": 1e308}},
            "energy_model.stage_costs['route']: fixed usage of stage 'route' prices to inf kWh",
            id="per-stage",
        ),
        pytest.param(
            {"route": {"compute_seconds": 1e308}, "metrics": {"compute_seconds": 1e308}},
            "energy_model.stage_costs: fixed stage usage sums to inf kWh",
            id="summed",
        ),
    ])
    def test_non_finite_metered_energy_exit_4(
        self, tmp_path, capsys, command, stage_costs, problem
    ):
        doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
        doc["energy_model"] = {"alpha": 1.0, "beta": 1.0, "stage_costs": stage_costs}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--scenario", str(path)]
        if command == "run":
            argv += ["--mode", "framework"]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 4
        captured = capsys.readouterr()
        if command == "validate":
            assert problem in captured.out
        else:
            where, message = problem.split(": ", 1)
            assert message in captured.err and f"(at {where})" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["baseline", "framework"])
    def test_energy_overflow_on_the_run_workload_exit_4(self, tmp_path, capsys, mode):
        # 1.79 fixed compute-seconds at 1e308 kWh each are finite; the
        # 0.015 compute-seconds of the 30 steps the plan counts for the
        # facility's 30 chunks push the total past the float range, so
        # validate refuses what run refuses, with its 60 counted steps
        doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
        doc["energy_model"] = {
            "alpha": 1e308, "beta": 0.0,
            "stage_costs": {"metrics": {"compute_seconds": 1.79}},
        }
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 4
        assert capsys.readouterr().out == (
            "energy_model: baseline run: stage energy sums to inf kWh through stage 'metrics'\n"
            "energy_model: framework run: stage energy sums to inf kWh through stage 'metrics'\n"
            "2 problem(s) found\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", mode,
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == (
            "error: stage energy sums to inf kWh through stage 'metrics' (at energy_model)\n"
        )
        assert not out.exists()

    def test_validate_flags_the_mode_whose_planned_workload_overflows(self, tmp_path, capsys):
        # at 1e308 kWh per compute-second the framework plan's 25,000 route
        # episodes overflow, the baseline's 50-bin tour does not
        doc = json.loads((cli._FIXTURES / "waste_framework.json").read_text("utf-8"))
        doc["energy_model"] = {"alpha": 1e308, "beta": 0.0}
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 4
        assert capsys.readouterr().out == (
            "energy_model: framework run: stage energy sums to inf kWh through stage 'route'\n"
            "1 problem(s) found\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", "baseline",
                     "--out", str(out)]) == 0
        assert main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(tmp_path / "refused")]) == 4
        assert not (tmp_path / "refused").exists()

    def test_run_refuses_an_overflowing_plan_before_any_stage(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = json.loads((cli._FIXTURES / "waste_framework.json").read_text("utf-8"))
        doc["energy_model"] = {"alpha": 1e308, "beta": 0.0}
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps(doc), "utf-8")

        def unreached(*args, **kwargs):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(pipeline, "simulate_bins", unreached)
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: stage energy sums to inf kWh through stage 'route' (at energy_model)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", [
        "alloc_small.json", "battery_baseline.json", "battery_framework.json",
        "waste_baseline.json", "waste_framework.json",
    ])
    def test_bundled_fixtures_validate(self, capsys, name):
        assert main(["validate", "--scenario", str(cli._FIXTURES / name)]) == 0
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("category_mix", "glass"), math.nan, id="mix-nan"),
            pytest.param(("fill_increment_mean",), math.nan, id="fill-mean-nan"),
            pytest.param(("fill_increment_std",), math.inf, id="fill-std-inf"),
            pytest.param(("feature_means", "glass", "weight_kg"), math.inf, id="means-inf"),
            pytest.param(("feature_stds", "opacity"), -math.inf, id="stds-neg-inf"),
        ],
    )
    def test_non_finite_waste_stream_exit_4(self, tmp_path, capsys, command, path, value):
        doc = json.loads((cli._FIXTURES / "waste_framework.json").read_text("utf-8"))
        target = doc["waste_stream"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = tmp_path / "non_finite.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--mode", "framework", "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "must be finite" in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, code, message",
        [
            # the mean of the run's 3,500 training weights overflows
            pytest.param(("feature_means", "glass", "weight_kg"), 9,
                         "feature 'weight_kg' has a non-finite mean (inf)", id="means"),
            # a draw beyond one standard deviation overflows its reading
            pytest.param(("feature_stds", "weight_kg"), 8,
                         "sensor readings of feature 'weight_kg' overflow", id="stds"),
        ],
    )
    def test_overflowing_waste_stream_names_the_feature(
        self, tmp_path, capsys, path, code, message
    ):
        # finite, so validate passes it; the suite's "error" warning filter
        # makes any RuntimeWarning on the way exit 1
        doc = json.loads((cli._FIXTURES / "waste_framework.json").read_text("utf-8"))
        target = doc["waste_stream"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 1e308
        scenario = tmp_path / "overflow.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", "framework",
                     "--out", str(out)]) == code
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize(
        "fixture, path, value",
        [
            pytest.param("waste_framework.json", ("waste_stream", "category_mix", "glass"),
                         10**400, id="mix-int-beyond-float"),
            pytest.param("alloc_small.json", ("processes", 0, "unit_cost"), math.nan,
                         id="unit-cost-nan"),
            pytest.param("alloc_small.json", ("limits", 0, "availability"), math.inf,
                         id="availability-inf"),
            pytest.param("alloc_small.json", ("limits", 1, "consumption", "pB"), math.nan,
                         id="consumption-nan"),
            pytest.param("alloc_small.json", ("emission_factors", 0, "e"), math.nan,
                         id="factor-nan"),
        ],
    )
    def test_non_finite_number_exit_4(self, tmp_path, capsys, command, fixture, path, value):
        doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scenario = tmp_path / "non_finite.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--mode", "framework", "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "must be finite" in err and repr(path[-1]) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_deeply_nested_scenario_exit_4(self, tmp_path, capsys, command):
        scenario = tmp_path / "deep.json"
        scenario.write_text(DEEP_JSON, "utf-8")
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--mode", "framework", "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        assert "nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate", "calibrate"])
    def test_non_utf8_scenario_exit_4(self, tmp_path, capsys, command):
        scenario = tmp_path / "bytes.json"
        scenario.write_bytes(NOT_UTF8)
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--mode", "framework"]
        if command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 4
        assert "not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def bad_fixtures(self, tmp_path, monkeypatch):
        """Bundled fixtures replaced by an invalid and an undecodable one."""
        doc = json.loads(
            (cli._FIXTURES / "battery_framework.json").read_text("utf-8")
        )
        doc["materials"][0]["composition"] = {"cobalt": 0.6, "nickel": 0.6}
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        (fixtures / "invalid.json").write_text(json.dumps(doc), "utf-8")
        (fixtures / "undecodable.json").write_text("{not json", "utf-8")
        monkeypatch.setattr(cli, "_FIXTURES", fixtures)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("command", ["run", "calibrate", "validate"])
    @pytest.mark.parametrize("name", ["invalid.json", "undecodable.json"])
    def test_bundled_fixture_validated(self, bad_fixtures, capsys, command, name):
        argv = [command, "--scenario", name]
        if command == "run":
            argv += ["--mode", "framework"]
        if command != "validate":
            argv += ["--out", "out"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        if name == "invalid.json":
            assert "fractions sum > 1" in captured.out + captured.err
        else:
            assert "invalid JSON" in captured.err
        assert not (Path("out") / "calibrated_scenario.json").exists()
        assert not list(Path("out").glob("*/manifest.json"))

    @pytest.mark.parametrize(
        "fixture, edit, mode, problem",
        [
            ("alloc_small.json",
             lambda doc: doc["limits"][0]["consumption"].update(ghost=1.0),
             "framework", "limit 'labor' references unknown process 'ghost'"),
            ("alloc_small.json",
             lambda doc: doc["emission_factors"].append(
                 {"id": "efA2", "process_id": "pA", "e": 0.1, "stage": "processing"}),
             "baseline", "process 'pA' has factors 'efA' and 'efA2'"),
            ("battery_baseline.json",
             lambda doc: doc["emission_factors"].pop(0),
             "baseline", "station 'disassembly' has no emission factor"),
        ],
        ids=["limit-process", "two-factors", "station-factor"],
    )
    def test_dangling_reference_stops_run_before_stages(
        self, tmp_path, capsys, fixture, edit, mode, problem
    ):
        doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
        edit(doc)
        scenario = tmp_path / "dangling.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 4
        assert problem in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--mode", mode,
                     "--out", str(out)]) == 4
        assert problem in capsys.readouterr().err
        assert not out.exists()

    def test_working_directory_file_before_fixture(self, bad_fixtures, capsys):
        Path("invalid.json").write_text(json.dumps({"rng_seed": 3}), "utf-8")
        assert main(["validate", "--scenario", "invalid.json"]) == 0

    def test_calibrate_writes_scenario(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate", "--scenario", "battery_framework.json",
                     "--out", str(out)]) == 0
        assert (out / "calibrated_scenario.json").is_file()
        assert "achieved" in capsys.readouterr().out

    def test_calibrate_needs_facility(self, tmp_path):
        assert main(["calibrate", "--scenario", "alloc_small.json",
                     "--out", str(tmp_path)]) == 4

    @staticmethod
    def battery_framework(tmp_path, edit):
        doc = json.loads((cli._FIXTURES / "battery_framework.json").read_text("utf-8"))
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_calibrate_leaves_the_emission_cap_alone(self, tmp_path, capsys):
        path = self.battery_framework(
            tmp_path, lambda doc: doc["targets"].update(co2_cap_kg=1000.0)
        )
        out = tmp_path / "cal"
        assert main(["calibrate", "--scenario", path, "--out", str(out)]) == 0
        assert "co2_cap_kg" not in capsys.readouterr().out
        doc = read_json(out / "calibrated_scenario.json")
        assert doc["targets"]["co2_cap_kg"] == 1000.0
        for st in doc["facility"]["stations"]:
            assert "co2_cap_kg" not in st["recovery_efficiency"]

    def test_calibrate_needs_an_element_target(self, tmp_path, capsys):
        path = self.battery_framework(
            tmp_path, lambda doc: doc.update(targets={"co2_cap_kg": 1000.0})
        )
        out = tmp_path / "cal"
        assert main(["calibrate", "--scenario", path, "--out", str(out)]) == 4
        assert "element recovery targets" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "targets, problem",
        [
            ({"cobat": 0.85}, "unknown target 'cobat'"),
            ({"cobalt": 1.5}, "recovery rate target must be <= 1, got 1.5"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "calibrate"])
    def test_bad_target_exit_4(self, tmp_path, capsys, command, targets, problem):
        path = self.battery_framework(tmp_path, lambda doc: doc.update(targets=targets))
        out = tmp_path / "cal"
        argv = [command, "--scenario", path]
        if command == "calibrate":
            argv += ["--out", str(out)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert problem in captured.out + captured.err
        assert not out.exists()

    def test_calibrate_needs_a_station(self, tmp_path, capsys):
        path = self.battery_framework(
            tmp_path, lambda doc: doc["facility"].update(stations=[])
        )
        assert main(["validate", "--scenario", path]) == 0
        out = tmp_path / "cal"
        assert main(["calibrate", "--scenario", path, "--out", str(out)]) == 4
        assert "at least one station" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fixture, edit, problem",
        [
            ("alloc_small.json",
             lambda doc: doc["materials"].append(
                 {"id": "m", "category": "plastic", "mass_kg": 1.0,
                  "composition": {"nickle": 0.1}}),
             "materials[0].composition: unknown element 'nickle'"),
            ("alloc_small.json",
             lambda doc: doc["emission_factors"].append(
                 {"id": "efA", "process_id": "pD", "e": 0.1, "stage": "processing"}),
             "emission_factors[3].id: duplicate factor id 'efA'"),
            ("alloc_small.json",
             lambda doc: doc["processes"].append(dict(doc["processes"][0])),
             "processes[3].id: duplicate process id 'pA'"),
            ("alloc_small.json",
             lambda doc: doc["processes"][1].update(energy_per_unit=-2.0),
             "processes[1].energy_per_unit: energy_per_unit must be >= 0, got -2.0"),
            ("alloc_small.json",
             lambda doc: doc["limits"][1].update(availability=-6.0),
             "limits[1].availability: availability must be >= 0, got -6.0"),
            ("alloc_small.json",
             lambda doc: doc["limits"][0]["consumption"].update(pB=-3.0),
             "limits[0].consumption['pB']: consumption coefficient must be >= 0, got -3.0"),
            ("waste_baseline.json",
             lambda doc: doc["collection_graph"]["edges"].append(
                 dict(doc["collection_graph"]["edges"][0])),
             "duplicate edge (b00, b01) (at collection_graph.edges["),
        ],
        ids=["unknown-element", "duplicate-factor", "duplicate-process",
             "negative-energy", "negative-availability", "negative-consumption",
             "duplicate-edge"],
    )
    def test_validate_reports_path(self, tmp_path, capsys, fixture, edit, problem):
        doc = json.loads((cli._FIXTURES / fixture).read_text("utf-8"))
        edit(doc)
        scenario = tmp_path / "edited.json"
        scenario.write_text(json.dumps(doc), "utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 4
        captured = capsys.readouterr()
        assert problem in captured.out + captured.err

    @staticmethod
    def cells_without_facility(doc):
        del doc["facility"]
        doc["materials"] = doc["materials"][:3]

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_cells_need_a_facility(self, tmp_path, capsys, command):
        path = self.battery_framework(tmp_path, self.cells_without_facility)
        argv = [command, "--scenario", path]
        if command == "run":
            argv += ["--mode", "framework", "--out", str(tmp_path / "out")]
        assert main(argv) == 4
        captured = capsys.readouterr()
        problem = "scenario has battery-cell materials but no facility to process them"
        if command == "validate":
            assert f"facility: {problem}" in captured.out
        else:
            assert f"{problem} (at facility)" in captured.err
        assert not (tmp_path / "out").exists()

    def test_calibrate_target_in_no_cell(self, tmp_path, capsys):
        def drop_nickel(doc):
            for material in doc["materials"]:
                material["composition"].pop("nickel", None)

        path = self.battery_framework(tmp_path, drop_nickel)
        assert main(["validate", "--scenario", path]) == 0
        out = tmp_path / "cal"
        assert main(["calibrate", "--scenario", path, "--out", str(out)]) == 4
        assert "no battery cell holds targeted element(s) nickel" in capsys.readouterr().err
        assert not out.exists()

class TestOptions:
    """Each subcommand takes only the shared options it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--scenario", "alloc_small.json", "--seed", "1"],
            ["validate", "--scenario", "alloc_small.json", "--out", "elsewhere"],
            ["validate", "--scenario", "alloc_small.json", "--format", "csv"],
            ["calibrate", "--scenario", "battery_framework.json", "--seed", "1"],
            ["table3", "--format", "csv"],
            ["chart", "--baseline", "b", "--framework", "f", "--seed", "1"],
            ["compare", "--baseline", "b", "--framework", "f", "--seed", "1"],
            # calibration solves exactly, so it has no tolerance to set
            ["calibrate", "--scenario", "battery_framework.json", "--tol", "0.01"],
        ],
    )
    def test_unread_option_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """main builds its parser once per process: nothing one call parses
    reaches the next, and the command runs as named at call time."""

    GOOD = ["run", "--scenario", "alloc_small.json", "--mode", "baseline"]

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_seed_does_not_leak_into_the_next_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*self.GOOD, "--seed", "7", "--out", str(out)]) == 0
        assert main([*self.GOOD, "--out", str(out)]) == 0
        # alloc_small.json's own rng_seed is 11
        assert re.findall(r", seed (\d+)\)", capsys.readouterr().out) == ["7", "11"]

    def test_usage_error_between_good_calls_changes_neither(self, tmp_path, capsys):
        assert main([*self.GOOD, "--out", str(tmp_path / "before")]) == 0
        with pytest.raises(SystemExit) as info:
            # --seed and --out parse before --mode fails
            main(["run", "--scenario", "alloc_small.json", "--seed", "9",
                  "--out", str(tmp_path / "bad"), "--mode", "warp"])
        assert info.value.code == 2
        assert main([*self.GOOD, "--out", str(tmp_path / "after")]) == 0
        (before,) = (tmp_path / "before").iterdir()
        (after,) = (tmp_path / "after").iterdir()
        assert before.name == after.name
        assert (before / "metrics.json").read_bytes() == (after / "metrics.json").read_bytes()
        assert read_json(after / "manifest.json")["seed"] == 11
        assert not (tmp_path / "bad").exists()

    def test_command_patched_after_the_first_call_runs(self, tmp_path, monkeypatch):
        assert main([*self.GOOD, "--out", str(tmp_path / "out")]) == 0
        seen = []

        def fake_run(args):
            seen.append(args.seed)
            return 0

        monkeypatch.setattr(cli, "cmd_run", fake_run)
        assert main([*self.GOOD, "--seed", "5", "--out", str(tmp_path / "fake")]) == 0
        assert seen == [5]
        assert not (tmp_path / "fake").exists()


class TestHelp:
    def test_exit_codes_documented(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "exit codes" in text
        for command in ("run", "compare", "chart", "table3", "validate",
                        "calibrate"):
            assert command in text

    def test_exit_code_table_matches_mapping(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        table = re.findall(r"^  (\d+) +\S", capsys.readouterr().out, re.M)
        family_codes = {code for _, code in cli._FAMILY_CODES}
        assert sorted(map(int, table)) == sorted({0, 1, 2, 3} | family_codes)
        # every library error lands on a listed family code, none on 1
        for cls in vars(errors).values():
            if isinstance(cls, type) and issubclass(cls, errors.GreenloopError):
                if cls is not errors.GreenloopError:
                    assert cli._exit_code_for(cls("x")) in family_codes, cls
        with pytest.raises(SystemExit) as info:
            main(["validate"])
        assert info.value.code == 2
        assert main(["validate", "--scenario", str(tmp_path / "absent.json")]) == 3

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_validate", boom)
        assert main(["validate", "--scenario", "alloc_small.json"]) == 1


@pytest.mark.parametrize("mode", ["baseline", "framework"])
def test_depot_only_graph_runs(tmp_path, capsys, mode):
    """A graph with no bins skips preprocess and route alike, in either mode."""
    scenario = tmp_path / "depot.json"
    scenario.write_text(json.dumps({
        "rng_seed": 3,
        "collection_graph": {"nodes": [{"id": "D", "is_depot": True}], "edges": []},
    }), "utf-8")
    assert main(["validate", "--scenario", str(scenario)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--mode", mode, "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    metrics = read_json(run_dir / "metrics.json")
    assert "classification_accuracy" not in metrics
    assert "transport_emissions_kg" not in metrics


def test_cli_import_leaves_out_xml_and_urllib_request():
    """charts escapes its own text: xml.sax would pull in urllib, http and email."""
    code = (
        "import sys, greenloop.cli; "
        "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert done.stdout == "[]\n"
