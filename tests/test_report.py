"""Rendering tests: number display, comparison tables, method table, SVG."""

import csv
import io
import json
import xml.etree.ElementTree as ET
from importlib import resources

import pytest

from greenloop.charts import chart_from_report, render_grouped_bars
from greenloop.errors import MissingMetric
from greenloop.pipeline import ImprovementReport, MetricDelta, run_full
from greenloop.report import (
    comparison_csv,
    comparison_markdown,
    format_number,
    format_signed,
    improvement_cell,
    measured_metrics,
    render_table3,
    run_result_from_dict,
    run_result_to_dict,
)
from greenloop.scenario import MaterialSpec, ScenarioSpec


class TestFormatNumber:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (20000.000000000004, "20,000"),
            (15000.0, "15,000"),
            (75.3, "75.3"),
            (-26.666666666666668, "-26.67"),
            (0.0, "0"),
            (-0.0001, "0"),
            (3.6, "3.6"),
            (1234567.891, "1,234,567.89"),
            (88.1054, "88.11"),
        ],
    )
    def test_display(self, value, expected):
        assert format_number(value) == expected

    def test_signed(self):
        assert format_signed(16.99999999999997) == "+17"
        assert format_signed(-25.0) == "-25"
        assert format_signed(0.0) == "0"
        assert format_signed(-0.0001) == "0"


def delta(metric, label, baseline, framework, percent=True):
    pp = framework - baseline if percent else None
    rel = (framework - baseline) / baseline * 100.0 if baseline else None
    return MetricDelta(metric, label, baseline, framework, pp, rel)


BATTERY_REPORT = ImprovementReport(
    deltas=(
        delta("cobalt_recovery", "Cobalt Recovery Rate (%)", 68.0, 85.0),
        delta(
            "process_energy_kwh",
            "Energy Consumption (kWh)",
            20000.0,
            15000.0,
            percent=False,
        ),
    ),
    annotations=(
        "CO2 Emissions (kg): computed change -26.7% differs from "
        "the reference target -28.0%",
    ),
)


class TestComparisonTables:
    def test_markdown_energy_row_exact(self):
        md = comparison_markdown(BATTERY_REPORT)
        assert "| Energy Consumption (kWh) | 20,000 | 15,000 | -25% |" in md

    def test_markdown_percent_row_has_both_forms(self):
        md = comparison_markdown(BATTERY_REPORT)
        assert "| Cobalt Recovery Rate (%) | 68 | 85 | +17 pp (+25%) |" in md

    def test_markdown_header_and_annotations(self):
        md = comparison_markdown(BATTERY_REPORT)
        assert "| Metric | Baseline | Framework | Improvement |" in md
        assert "## Annotations" in md
        assert "-26.7% differs from" in md

    def test_markdown_no_annotations_says_none(self):
        rep = ImprovementReport(deltas=BATTERY_REPORT.deltas, annotations=())
        md = comparison_markdown(rep)
        assert "- none" in md

    def test_reference_targets_section(self):
        md = comparison_markdown(
            BATTERY_REPORT,
            {"process_energy_kwh": {"form": "relative", "value": -25.0}},
        )
        assert "## Reference targets" in md
        assert "- Energy Consumption (kWh): -25% expected change" in md

    def test_no_reference_section_without_expectations(self):
        assert "Reference targets" not in comparison_markdown(BATTERY_REPORT)

    def test_csv_cells_match_markdown(self):
        rows = list(csv.reader(io.StringIO(comparison_csv(BATTERY_REPORT))))
        assert rows[0] == ["Metric", "Baseline", "Framework", "Improvement"]
        assert rows[1] == ["Cobalt Recovery Rate (%)", "68", "85", "+17 pp (+25%)"]
        assert rows[2] == ["Energy Consumption (kWh)", "20,000", "15,000", "-25%"]

    def test_improvement_cell_shapes(self):
        assert improvement_cell(delta("m", "M", 50.0, 60.0)) == "+10 pp (+20%)"
        assert (
            improvement_cell(delta("m", "M", 100.0, 80.0, percent=False))
            == "-20%"
        )
        assert improvement_cell(delta("m", "M", 0.0, 5.0)) == "+5 pp"
        assert (
            improvement_cell(delta("m", "M", 0.0, 5.0, percent=False)) == "n/a"
        )


class TestRunResultSerialization:
    def test_optionals_omitted_and_timings_excluded(self):
        r = run_full(ScenarioSpec(), "baseline")[0]
        doc = run_result_to_dict(r)
        assert "classification_accuracy" not in doc
        assert "transport_emissions_kg" not in doc
        assert "timings" not in doc
        assert doc["pipeline_energy"]["total_kwh"] == r.pipeline_energy.total_kwh

    def test_roundtrip(self):
        r = run_full(ScenarioSpec(), "framework")[0]
        back = run_result_from_dict(run_result_to_dict(r))
        assert back.mode == r.mode
        assert back.seed == r.seed
        assert back.co2_kg == r.co2_kg
        assert back.pipeline_energy == r.pipeline_energy


class TestMeasuredMetrics:
    SCENARIO = ScenarioSpec(
        materials=(
            MaterialSpec("m1", "", "battery-cell", 500.0, {"cobalt": 0.2}),
            MaterialSpec("m2", "", "battery-cell", 500.0, {"cobalt": 0.1}),
        )
    )
    METRICS = {
        "process_energy_kwh": 1000.0,
        "recovery": {"cobalt": 0.9},
        "co2_kg": 70.0,
    }

    def test_all_three_metrics(self):
        out = measured_metrics(self.METRICS, self.SCENARIO, {"co2_kg": 100.0})
        assert out == {
            "energy_intensity_gj_per_tonne": "3.6",
            "recovery_rate_pct": "90",
            "co2_reduction_pct": "30",
        }

    def test_without_baseline_no_co2(self):
        out = measured_metrics(self.METRICS, self.SCENARIO)
        assert "co2_reduction_pct" not in out

    def test_without_scenario_only_co2(self):
        out = measured_metrics(self.METRICS, None, {"co2_kg": 100.0})
        assert set(out) == {"co2_reduction_pct"}

    def test_zero_baseline_co2_skipped(self):
        out = measured_metrics(self.METRICS, None, {"co2_kg": 0.0})
        assert out == {}


def table3_fixture():
    text = (resources.files("greenloop") / "fixtures" / "table3.json").read_text(
        "utf-8"
    )
    return json.loads(text)


class TestTable3:
    def test_fixture_rows_byte_exact(self):
        md = render_table3(table3_fixture())
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | n/a |" in md
        assert "| Material recovery rate (%) | 60 | 80 | 88 | n/a |" in md
        assert "| CO2 emission reduction (%) | — | 25 | 28 | n/a |" in md

    def test_measured_column_filled(self):
        md = render_table3(
            table3_fixture(), {"energy_intensity_gj_per_tonne": "3.6"}
        )
        assert "| Energy intensity (GJ/tonne) | 5.5 | 4.0 | 3.6 | 3.6 |" in md
        assert "| Material recovery rate (%) | 60 | 80 | 88 | n/a |" in md

    def test_note_rendered(self):
        assert "literature values" in render_table3(table3_fixture())


class TestCharts:
    def test_recovery_chart_structure(self):
        rep = ImprovementReport(
            deltas=(
                delta("cobalt_recovery", "Cobalt Recovery Rate (%)", 68.0, 85.0),
                delta("nickel_recovery", "Nickel Recovery Rate (%)", 70.0, 90.0),
                delta("lithium_recovery", "Lithium Recovery Rate (%)", 72.0, 88.0),
            ),
            annotations=(),
        )
        svg = chart_from_report(rep, "recovery")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f".//{ns}rect")
        # 3 groups x 2 bars + 2 legend swatches + background
        assert len(rects) == 9
        texts = [t.text for t in root.findall(f".//{ns}text")]
        for expected in ("Cobalt", "Nickel", "Lithium", "85", "90", "88",
                         "Baseline", "Framework", "Recovery Rate by Element"):
            assert expected in texts

    def test_comparison_kind_uses_all_rows(self):
        svg = chart_from_report(BATTERY_REPORT, "comparison")
        assert "Energy Consumption (kWh)" in svg
        assert "20,000" in svg

    def test_empty_report_missing_metric(self):
        empty = ImprovementReport(deltas=(), annotations=())
        with pytest.raises(MissingMetric):
            chart_from_report(empty, "recovery")
        with pytest.raises(MissingMetric):
            chart_from_report(empty, "comparison")

    def test_no_recovery_rows_missing_metric(self):
        rep = ImprovementReport(
            deltas=(
                delta("co2_kg", "CO2 Emissions (kg)", 100.0, 70.0, percent=False),
            ),
            annotations=(),
        )
        with pytest.raises(MissingMetric):
            chart_from_report(rep, "recovery")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            chart_from_report(BATTERY_REPORT, "pie")

    def test_byte_deterministic(self):
        a = chart_from_report(BATTERY_REPORT, "comparison")
        b = chart_from_report(BATTERY_REPORT, "comparison")
        assert a == b

    def test_labels_escaped_as_the_xml_library_escapes_them(self):
        from xml.sax.saxutils import escape

        labels = ["R&D <pilot>", "a > b && c", "&amp;", "é<€>"]
        svg = render_grouped_bars("t&t", "y<", labels, [("s&p", [1.0, 2.0, 3.0, 4.0])])
        for text in [*labels, "t&t", "y<", "s&p"]:
            assert f">{escape(text)}</text>" in svg
        assert [t.text for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
                if t.text in labels] == labels

    def test_series_must_cover_groups(self):
        with pytest.raises(MissingMetric):
            render_grouped_bars("t", "y", ["g1", "g2"], [("s", [1.0])])

    def test_zero_values_still_render(self):
        svg = render_grouped_bars(
            "t", "y", ["g"], [("a", [0.0]), ("b", [0.0])]
        )
        assert ET.fromstring(svg) is not None
