"""CLI tests: subcommands, exit codes, persistence, determinism."""

import json
from pathlib import Path

import pytest

from greenloop import cli
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

    def test_missing_scenario_exit_3(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", "missing.json", "--mode", "baseline",
             "--out", str(tmp_path)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "missing.json" in err
        assert err.count("\n") == 1

    def test_facility_step_budget_exit_10(self, tmp_path, capsys):
        doc = json.loads(
            (cli._FIXTURES / "battery_framework.json").read_text("utf-8")
        )
        doc["facility"]["throughput_kg_per_step"] = 1e-9
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(
            ["run", "--scenario", str(path), "--mode", "framework",
             "--out", str(tmp_path / "out")]
        )
        assert code == 10
        err = capsys.readouterr().err
        assert "stage 'simulate' failed" in err
        assert "budget" in err

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

    def test_expectations_none_drops_targets(self, tmp_path, capsys):
        b = run_battery(tmp_path, "baseline")
        f = run_battery(tmp_path, "framework")
        capsys.readouterr()
        main(["compare", "--baseline", str(b), "--framework", str(f),
              "--out", str(tmp_path / "cmp"), "--expectations", "none"])
        out = capsys.readouterr().out
        assert "Reference targets" not in out
        assert "- none" in out


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

    @pytest.mark.parametrize(
        "manifest",
        [
            {"mode": "framework"},
            {"mode": "framework", "artifacts": {"scenario": "scenario.json"},
             "metrics": {}},
        ],
    )
    def test_broken_newer_manifest_skipped(self, tmp_path, capsys, manifest):
        run_battery(tmp_path, "baseline")
        good = run_battery(tmp_path, "framework")
        broken = tmp_path / "out" / "broken"
        broken.mkdir()
        (broken / "scenario.json").write_bytes((good / "scenario.json").read_bytes())
        (broken / "manifest.json").write_text(
            json.dumps({**manifest, "created_at": "9999-12-31T00:00:00+00:00"}),
            "utf-8",
        )
        capsys.readouterr()
        assert main(["table3", "--out", str(tmp_path / "out")]) == 0
        text = capsys.readouterr().out
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in text


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
        argv = [command, "--scenario", name, "--out", "out"]
        if command == "run":
            argv += ["--mode", "framework"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        if name == "invalid.json":
            assert "fractions sum > 1" in captured.out + captured.err
        else:
            assert "invalid JSON" in captured.err
        assert not (Path("out") / "calibrated_scenario.json").exists()
        assert not list(Path("out").glob("*/manifest.json"))

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
