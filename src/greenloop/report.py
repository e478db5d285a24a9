"""Report rendering: metric serialization, comparison tables, method table.

All output here is a pure function of its inputs. Numbers are displayed
with at most two decimals and thousands separators, trailing zeros
stripped; the serialized artifacts keep full float precision. Generated
prose uses plain ASCII; the only non-ASCII bytes that can appear in a
rendered table come verbatim from fixture data cells.
"""

from __future__ import annotations

from typing import Mapping

from .energy import ledger_from_dict, ledger_to_dict
from .pipeline import ImprovementReport, MetricDelta, RunResult
from .scenario import ScenarioSpec

KWH_TO_GJ = 0.0036


def format_number(v: float) -> str:
    """Two-decimal display with thousands separators, trailing zeros dropped.

    20000.000000000004 -> "20,000"; 75.3 -> "75.3"; -26.666... -> "-26.67".
    """
    text = f"{v:,.2f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text == "-0":
        text = "0"
    return text


def format_signed(v: float) -> str:
    """format_number with an explicit sign; exact zero renders unsigned."""
    body = format_number(abs(v))
    if body == "0":
        return "0"
    return ("+" if v > 0 else "-") + body


def run_result_to_dict(r: RunResult) -> dict:
    """Serializable metrics snapshot."""
    doc = {
        "mode": r.mode,
        "seed": r.seed,
        "recovery": {k: r.recovery[k] for k in sorted(r.recovery)},
        "process_energy_kwh": r.process_energy_kwh,
        "pipeline_energy": ledger_to_dict(r.pipeline_energy),
        "co2_kg": r.co2_kg,
        "waste_reduction_fraction": r.waste_reduction_fraction,
    }
    if r.classification_accuracy is not None:
        doc["classification_accuracy"] = r.classification_accuracy
    if r.transport_emissions_kg is not None:
        doc["transport_emissions_kg"] = r.transport_emissions_kg
    return doc


def _number(name: str, value):
    """A numeric metric value as stored; bools and non-numbers raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"metric {name!r} must be a number, got {value!r}")
    return value


def _optional_number(name: str, value):
    return None if value is None else _number(name, value)


def run_result_from_dict(doc: Mapping) -> RunResult:
    """The run a metrics document records; a non-numeric metric raises TypeError."""
    return RunResult(
        mode=doc["mode"],
        seed=doc["seed"],
        recovery={
            el: _number(f"recovery.{el}", v) for el, v in dict(doc["recovery"]).items()
        },
        process_energy_kwh=_number("process_energy_kwh", doc["process_energy_kwh"]),
        pipeline_energy=ledger_from_dict(doc["pipeline_energy"]),
        co2_kg=_number("co2_kg", doc["co2_kg"]),
        classification_accuracy=_optional_number(
            "classification_accuracy", doc.get("classification_accuracy")
        ),
        transport_emissions_kg=_optional_number(
            "transport_emissions_kg", doc.get("transport_emissions_kg")
        ),
        waste_reduction_fraction=_number(
            "waste_reduction_fraction", doc["waste_reduction_fraction"]
        ),
    )


def improvement_cell(d: MetricDelta) -> str:
    """One Improvement-column cell.

    Percentage metrics show the point change and the relative change
    side by side; absolute metrics show the relative change alone.
    """
    if d.delta_pp is not None:
        cell = f"{format_signed(d.delta_pp)} pp"
        if d.delta_relative is not None:
            cell += f" ({format_signed(d.delta_relative)}%)"
        return cell
    if d.delta_relative is not None:
        return f"{format_signed(d.delta_relative)}%"
    return "n/a"


def _table_rows(report: ImprovementReport) -> list[tuple[str, str, str, str]]:
    return [
        (
            d.label,
            format_number(d.baseline),
            format_number(d.framework),
            improvement_cell(d),
        )
        for d in report.deltas
    ]


def comparison_markdown(
    report: ImprovementReport,
    expectations: Mapping[str, Mapping] | None = None,
) -> str:
    """Markdown comparison: metric table, annotations, reference targets."""
    lines = [
        "# Baseline vs Framework",
        "",
        "| Metric | Baseline | Framework | Improvement |",
        "| --- | ---: | ---: | ---: |",
    ]
    for label, base, frame, improvement in _table_rows(report):
        lines.append(f"| {label} | {base} | {frame} | {improvement} |")
    lines += ["", "## Annotations", ""]
    if report.annotations:
        lines += [f"- {a}" for a in report.annotations]
    else:
        lines.append("- none")
    if expectations:
        lines += ["", "## Reference targets", ""]
        for d in report.deltas:
            exp = expectations.get(d.metric)
            if not exp:
                continue
            unit = " pp" if exp["form"] == "pp" else "%"
            lines.append(
                f"- {d.label}: {format_signed(float(exp['value']))}{unit} "
                f"expected change"
            )
    lines.append("")
    return "\n".join(lines)


def comparison_csv(report: ImprovementReport) -> str:
    """The same cells as the markdown table, one CSV row per metric."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Metric", "Baseline", "Framework", "Improvement"])
    writer.writerows(_table_rows(report))
    return buf.getvalue()


def measured_metrics(
    framework_metrics: Mapping,
    scenario: ScenarioSpec | None = None,
    baseline_metrics: Mapping | None = None,
) -> dict[str, str]:
    """Display values for the measured column of the method table.

    Energy intensity is the process energy in GJ per tonne of battery cells,
    the facility's only input; recovery is the rate over the recovered
    elements, weighted by their mass in the cells; the CO2 reduction needs a
    baseline run. Metrics whose inputs are unavailable are simply absent.
    """
    out: dict[str, str] = {}
    if scenario is not None:
        cells = [m for m in scenario.materials if m.category == "battery-cell"]
        cell_kg = sum(m.mass_kg for m in cells)
        if cell_kg > 0:
            gj = framework_metrics["process_energy_kwh"] * KWH_TO_GJ
            out["energy_intensity_gj_per_tonne"] = format_number(gj / (cell_kg / 1000.0))
        recovery = framework_metrics.get("recovery", {})
        element_kg = {
            el: sum(m.mass_kg * m.composition.get(el, 0.0) for m in cells) for el in recovery
        }
        mass_in = sum(element_kg.values())
        if mass_in > 0:
            recovered = sum(recovery[el] * element_kg[el] for el in recovery)
            out["recovery_rate_pct"] = format_number(recovered / mass_in * 100.0)
    if baseline_metrics is not None:
        base_co2 = baseline_metrics.get("co2_kg", 0.0)
        if base_co2 > 0:
            cut = (1.0 - framework_metrics["co2_kg"] / base_co2) * 100.0
            out["co2_reduction_pct"] = format_number(cut)
    return out


def render_table3(doc: Mapping, measured: Mapping[str, str] | None = None) -> str:
    """Method-comparison table: fixture cells verbatim plus a measured column.

    Fixture value cells are emitted byte-for-byte as stored; the measured
    column shows this artifact's own framework numbers where available
    and "n/a" otherwise.
    """
    measured = measured or {}
    columns = [*doc["columns"], "Measured"]
    lines = [
        "# Method Comparison",
        "",
        "| " + " | ".join(columns) + " |",
        "| --- |" + " ---: |" * (len(columns) - 1),
    ]
    for row in doc["rows"]:
        cells = [row["metric"], *row["values"]]
        cells.append(measured.get(row["measured_key"], "n/a"))
        lines.append("| " + " | ".join(cells) + " |")
    note = doc.get("note")
    if note:
        lines += ["", note]
    lines.append("")
    return "\n".join(lines)
