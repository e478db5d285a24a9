"""Command-line front end: run scenarios, compare runs, render reports.

Every run is persisted under an output directory keyed by a run id, the
content hash of the effective scenario, seed, mode, and tool version.
Re-running the same invocation rewrites byte-identical metrics and
artifacts; only the manifest's creation timestamp moves. Reports and
charts are pure functions of their inputs and never embed timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import __version__
from .charts import CHART_KINDS, chart_from_report
from .classify import model_to_dict
from .errors import (
    CarbonError,
    ClassifierError,
    CompileError,
    GreenloopError,
    ManifestUnreadable,
    MissingMetric,
    ParseError,
    PipelineError,
    RoutingError,
    SolverError,
    TwinError,
    ValidationError,
)
from .pipeline import compare_runs, run_full
from .report import (
    REQUIRED_METRIC_KEYS,
    comparison_csv,
    comparison_markdown,
    measured_metrics,
    render_table3,
    run_result_from_dict,
    run_result_to_dict,
)
from .routing import qtable_to_dict
from .scenario import (
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from .serialize import content_hash, read_json, write_json
from .twin import calibrate_facility

_FIXTURES = resources.files("greenloop") / "fixtures"

# One exit code per error family; listed in --help. Subclass entries must
# precede their base class (StageError and friends fall under 10).
_FAMILY_CODES: tuple[tuple[type, int], ...] = (
    (ManifestUnreadable, 3),
    (ParseError, 4),
    (ValidationError, 4),
    (CompileError, 4),
    (SolverError, 5),
    (RoutingError, 6),
    (CarbonError, 7),
    (TwinError, 8),
    (ClassifierError, 9),
    (PipelineError, 10),
    (MissingMetric, 11),
)

_EPILOG = """\
exit codes:
  0   success
  1   unexpected error
  2   bad command-line usage
  3   missing or unreadable input file or run manifest
  4   invalid scenario (parse, validation, or compile failure)
  5   allocation solver failure
  6   route learning failure
  7   carbon accounting failure
  8   facility or bin simulation failure
  9   classifier training failure
  10  pipeline orchestration failure (mode, stage, or artifacts)
  11  requested metric absent from the runs
"""


def _exit_code_for(exc: Exception) -> int:
    for cls, code in _FAMILY_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def _read_scenario_doc(path_str: str) -> dict:
    """Decode a scenario document from disk or the bundled fixtures."""
    p = Path(path_str)
    if p.exists():
        try:
            return json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON: {exc.msg}", locus=f"{p}:{exc.lineno}:{exc.colno}"
            ) from exc
    if "/" not in path_str:
        bundled = _FIXTURES / path_str
        if bundled.is_file():
            return json.loads(bundled.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"scenario file not found: {path_str}")


def _resolve_scenario(path_str: str):
    """Load and validate a scenario, falling back to the bundled fixtures."""
    p = Path(path_str)
    if p.exists():
        return load_scenario(p)
    return parse_scenario(_read_scenario_doc(path_str))


def _load_manifest(path_str: str) -> tuple[dict, Path]:
    p = Path(path_str)
    if p.is_dir():
        p = p / "manifest.json"
    if not p.is_file():
        raise ManifestUnreadable(f"manifest not found: {p}")
    try:
        doc = read_json(p)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestUnreadable(f"manifest not readable: {p} ({exc})") from exc
    if not isinstance(doc, dict) or "metrics" not in doc or "mode" not in doc:
        raise ManifestUnreadable(f"manifest missing required keys: {p}")
    metrics = doc["metrics"] if isinstance(doc["metrics"], dict) else {}
    missing = [k for k in REQUIRED_METRIC_KEYS if k not in metrics]
    if missing:
        raise ManifestUnreadable(f"manifest metrics missing {', '.join(missing)}: {p}")
    return doc, p.parent


def _load_expectations(arg: str, baseline, framework):
    """Reference deltas to annotate against.

    "auto" picks the bundled battery or waste reference table by the shape
    of the runs: element recovery means the battery study, transport
    emissions the waste study. Anything else is a file path.
    """
    if arg == "none":
        return None
    if arg == "auto":
        if baseline.recovery and framework.recovery:
            arg = "battery"
        elif (
            baseline.transport_emissions_kg is not None
            and framework.transport_emissions_kg is not None
        ):
            arg = "waste"
        else:
            return None
    if arg in ("battery", "waste"):
        return json.loads(
            (_FIXTURES / f"expectations_{arg}.json").read_text(encoding="utf-8")
        )
    try:
        return read_json(arg)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestUnreadable(f"expectations not readable: {arg} ({exc})") from exc


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def cmd_run(args) -> int:
    s = _resolve_scenario(args.scenario)
    seed = args.seed if args.seed is not None else s.rng_seed
    s = dataclasses.replace(s, rng_seed=seed)
    result, artifacts = run_full(s, args.mode)

    scenario_doc = scenario_to_dict(s)
    run_id = content_hash(
        {
            "scenario": scenario_doc,
            "seed": seed,
            "mode": args.mode,
            "tool_version": __version__,
        }
    )
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    metrics_doc = run_result_to_dict(result)
    paths = {"scenario": "scenario.json", "metrics": "metrics.json"}
    write_json(run_dir / "scenario.json", scenario_doc)
    write_json(run_dir / "metrics.json", metrics_doc)
    if artifacts.classifier is not None:
        paths["classifier"] = "classifier.json"
        write_json(run_dir / "classifier.json", model_to_dict(artifacts.classifier))
    if artifacts.district_qtables:
        paths["qtables"] = "qtables.json"
        write_json(
            run_dir / "qtables.json",
            {
                "version": 1,
                "tables": [qtable_to_dict(q) for q in artifacts.district_qtables],
            },
        )
    if artifacts.district_routes:
        paths["routes"] = "routes.json"
        write_json(
            run_dir / "routes.json",
            {"version": 1, "routes": [list(r) for r in artifacts.district_routes]},
        )
    if artifacts.allocation is not None:
        paths["allocation"] = "allocation.json"
        write_json(
            run_dir / "allocation.json",
            {"version": 1, "levels": dict(sorted(artifacts.allocation.items()))},
        )

    manifest = {
        "version": 1,
        "run_id": run_id,
        "mode": args.mode,
        "seed": seed,
        "tool_version": __version__,
        "scenario_hash": content_hash(scenario_doc),
        "created_at": _timestamp(),
        "artifacts": paths,
        "metrics": metrics_doc,
    }
    write_json(run_dir / "manifest.json", manifest)
    print(f"run {run_id} ({args.mode}, seed {seed}) -> {run_dir / 'manifest.json'}")
    return 0


def cmd_compare(args) -> int:
    b_doc, _ = _load_manifest(args.baseline)
    f_doc, _ = _load_manifest(args.framework)
    rb = run_result_from_dict(b_doc["metrics"])
    rf = run_result_from_dict(f_doc["metrics"])
    expectations = _load_expectations(args.expectations, rb, rf)
    report = compare_runs(rb, rf, expectations)
    md = comparison_markdown(report, expectations)
    csv_text = comparison_csv(report)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.md").write_text(md, encoding="utf-8")
    (out / "compare.csv").write_text(csv_text, encoding="utf-8")
    print(md if args.format == "md" else csv_text, end="")
    return 0


def cmd_chart(args) -> int:
    b_doc, _ = _load_manifest(args.baseline)
    f_doc, _ = _load_manifest(args.framework)
    report = compare_runs(
        run_result_from_dict(b_doc["metrics"]),
        run_result_from_dict(f_doc["metrics"]),
    )
    svg = chart_from_report(report, args.kind)
    out_path = (
        Path(args.output) if args.output else Path(args.out) / f"chart_{args.kind}.svg"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg, encoding="utf-8")
    print(f"chart written to {out_path}")
    return 0


def _latest_manifest(out_dir: Path, mode: str) -> tuple[dict, Path] | None:
    best = None
    for path in sorted(out_dir.glob("*/manifest.json")):
        try:
            doc = read_json(path)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(doc, dict) or doc.get("mode") != mode:
            continue
        key = (doc.get("created_at", ""), doc.get("run_id", ""))
        if best is None or key > best[0]:
            best = (key, doc, path.parent)
    return (best[1], best[2]) if best else None


def cmd_table3(args) -> int:
    doc = json.loads((_FIXTURES / "table3.json").read_text(encoding="utf-8"))
    out = Path(args.out)

    measured: dict[str, str] = {}
    if out.is_dir():
        framework = _latest_manifest(out, "framework")
        baseline = _latest_manifest(out, "baseline")
        if framework is not None:
            f_doc, f_dir = framework
            scenario = None
            rel = f_doc.get("artifacts", {}).get("scenario")
            if rel and (f_dir / rel).is_file():
                scenario = parse_scenario(read_json(f_dir / rel))
            measured = measured_metrics(
                f_doc["metrics"],
                scenario,
                baseline[0]["metrics"] if baseline else None,
            )

    text = render_table3(doc, measured)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table3.md").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_validate(args) -> int:
    # bypass load_scenario's fail-fast so every finding gets listed
    s = parse_scenario(_read_scenario_doc(args.scenario))
    diagnostics = validate_scenario(s)
    for d in diagnostics:
        print(d)
    if diagnostics:
        print(f"{len(diagnostics)} problem(s) found")
        return 4
    print("ok")
    return 0


def cmd_calibrate(args) -> int:
    s = _resolve_scenario(args.scenario)
    if s.facility is None or not s.targets:
        raise ValidationError(
            "calibration needs a scenario with a facility and recovery targets"
        )
    facility, achieved = calibrate_facility(s, s.facility, s.targets, tol=args.tol)
    calibrated = dataclasses.replace(s, facility=facility)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibrated_scenario.json"
    save_scenario(calibrated, path)
    for el in sorted(s.targets):
        print(
            f"{el}: target {s.targets[el]:.4f} achieved {achieved.get(el, 0.0):.4f}"
        )
    print(f"calibrated scenario written to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument(
        "--format", choices=("md", "csv"), default="md", help="stdout table format"
    )

    parser = argparse.ArgumentParser(
        prog="greenloop",
        description="Deterministic recycling-pipeline runner and report generator.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"greenloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="execute one pipeline run")
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")
    p.add_argument("--mode", required=True, choices=("baseline", "framework"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", parents=[common], help="compare two persisted runs")
    p.add_argument("--baseline", required=True, help="baseline manifest file or run dir")
    p.add_argument("--framework", required=True, help="framework manifest file or run dir")
    p.add_argument(
        "--expectations",
        default="auto",
        metavar="PATH|auto|battery|waste|none",
        help="reference deltas to annotate against (default: auto)",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("chart", parents=[common], help="render an SVG bar chart")
    p.add_argument("--baseline", required=True, help="baseline manifest file or run dir")
    p.add_argument("--framework", required=True, help="framework manifest file or run dir")
    p.add_argument("--kind", choices=CHART_KINDS, default="recovery")
    p.add_argument("--output", default=None, help="SVG path (default: OUT/chart_KIND.svg)")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser(
        "table3", parents=[common], help="render the method-comparison table"
    )
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("validate", parents=[common], help="lint a scenario file")
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "calibrate", parents=[common], help="tune facility efficiencies to targets"
    )
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")
    p.add_argument("--tol", type=float, default=0.005, help="target tolerance")
    p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GreenloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
