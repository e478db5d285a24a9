"""Command-line front end: run scenarios, compare runs, render reports.

Every run is persisted under an output directory keyed by a run id, the
content hash of the effective scenario's hash, seed, mode, and tool version.
The scenario hash is the digest of the run's scenario.json bytes.
Re-running the same invocation rewrites byte-identical metrics and
artifacts; only the manifest's creation timestamp moves. Reports and
charts are pure functions of their inputs and never embed timestamps.

The argument parser is built once per process (build_parser is cached):
building it takes over ten times as long as one parse. Each parse still
starts from a fresh namespace, so nothing one call sets reaches the next.
The parser holds no command function: main looks up cmd_<command> among
the module's names at call time, so a cmd_* replaced after the first
call, by a test or a tracer, is the one that runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
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
from .pipeline import MODES, RunResult, compare_runs, run_full, workload_diagnostics
from .report import (
    comparison_csv,
    comparison_markdown,
    measured_metrics,
    render_table3,
    run_result_from_dict,
    run_result_to_dict,
)
from .routing import qtable_to_dict
from .scenario import (
    ScenarioSpec,
    finite_float,
    is_rng_seed,
    load_scenario,
    parse_scenario,
    read_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from .serialize import (
    canonical_dumps,
    content_hash,
    digest,
    read_json_checked,
    write_json,
)
from .twin import ELEMENTS, calibrate_facility

_FIXTURES = resources.files("greenloop") / "fixtures"

# One exit code per error family; listed in --help. A failing run stage
# raises its own family, so PipelineError is left with the mode and artifact
# checks around the stages.
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
  10  pipeline orchestration failure (mode or artifacts)
  11  requested metric absent from the runs
"""


def _exit_code_for(exc: Exception) -> int:
    for cls, code in _FAMILY_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def _scenario_path(name: str) -> Path:
    """The scenario file `name`, else the bundled fixture of that name.

    A path that exists but is not a regular file, such as a directory, is
    refused like a missing one and never stands aside for a fixture.
    """
    p = Path(name)
    if p.is_file():
        return p
    if p.exists():
        raise FileNotFoundError(f"scenario path is not a regular file: {name}")
    if "/" not in name:
        bundled = _FIXTURES / name
        if bundled.is_file():
            return bundled
    raise FileNotFoundError(f"scenario file not found: {name}")


def _read_manifest(p: Path) -> tuple[dict, RunResult]:
    """A manifest document and the run its metrics record.

    Anything short of a complete run, or an artifacts map, created_at or
    run_id of another type than cmd_run writes, raises ManifestUnreadable.
    """
    doc = read_json_checked(p, ManifestUnreadable, "manifest")
    if not isinstance(doc, dict) or "metrics" not in doc or "mode" not in doc:
        raise ManifestUnreadable(f"manifest missing required keys: {p}")
    artifacts = doc.get("artifacts", {})
    if not isinstance(artifacts, dict) or not all(
        isinstance(rel, str) for rel in artifacts.values()
    ):
        raise ManifestUnreadable(f"manifest artifacts must map names to paths: {p}")
    for key in ("created_at", "run_id"):
        if not isinstance(doc.get(key, ""), str):
            raise ManifestUnreadable(f"manifest {key!r} must be a string: {p}")
    try:
        result = run_result_from_dict(doc["metrics"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestUnreadable(f"manifest metrics unreadable: {p} ({exc!r})") from exc
    return doc, result


def _load_manifest(path_str: str) -> RunResult:
    p = Path(path_str)
    if p.is_dir():
        p = p / "manifest.json"
    if not p.is_file():
        raise ManifestUnreadable(f"manifest not found: {p}")
    return _read_manifest(p)[1]


def _study(*runs: RunResult) -> str | None:
    """The runs' study: battery if each recovers elements, else waste if
    each has transport emissions, else None."""
    if all(r.recovery for r in runs):
        return "battery"
    if all(r.transport_emissions_kg is not None for r in runs):
        return "waste"
    return None


def _load_expectations(arg: str, baseline, framework):
    """Reference deltas to annotate against.

    "auto" picks the bundled battery or waste reference table by the
    runs' _study. Anything else is a file path whose object maps metric
    keys to {"form": "pp"|"relative", "value": number}; any other shape
    raises ManifestUnreadable.
    """
    if arg == "auto":
        arg = _study(baseline, framework) or "none"
    if arg == "none":
        return None
    if arg in ("battery", "waste"):
        return json.loads(
            (_FIXTURES / f"expectations_{arg}.json").read_text(encoding="utf-8")
        )
    doc = read_json_checked(arg, ManifestUnreadable, "expectations")
    if not isinstance(doc, dict):
        raise ManifestUnreadable(f"expectations {arg}: must map metric keys to entries")
    for metric, entry in doc.items():
        if not isinstance(entry, dict) or entry.get("form") not in ("pp", "relative"):
            raise ManifestUnreadable(
                f"expectations {arg}: {metric!r} needs a 'form' of 'pp' or 'relative'"
            )
        try:
            finite_float(entry.get("value"))
        except (TypeError, ValueError):
            raise ManifestUnreadable(
                f"expectations {arg}: {metric!r} needs a finite numeric 'value'"
            ) from None
    return doc


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def cmd_run(args) -> int:
    """Run a scenario and persist its metrics and artifacts in a run directory.

    Every artifact after scenario.json is written by write_json. The
    route tables go as qtable_to_dict, whose entries are Records, so
    qtables.json, the largest artifact, is written from the Q tables'
    columns and its ~81k entries never exist as dicts.
    """
    s = load_scenario(_scenario_path(args.scenario))
    seed = args.seed if args.seed is not None else s.rng_seed
    s = dataclasses.replace(s, rng_seed=seed)
    result, artifacts = run_full(s, args.mode)

    # scenario.json holds these bytes and scenario_hash is their digest,
    # so the scenario is encoded once
    scenario_bytes = canonical_dumps(scenario_to_dict(s)).encode("utf-8")
    scenario_hash = digest(scenario_bytes)
    run_id = content_hash(
        {
            "scenario_hash": scenario_hash,
            "seed": seed,
            "mode": args.mode,
            "tool_version": __version__,
        }
    )
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    docs = {"metrics": run_result_to_dict(result)}
    if artifacts.classifier is not None:
        docs["classifier"] = model_to_dict(artifacts.classifier)
    if artifacts.district_qtables:
        docs["qtables"] = {
            "version": 1,
            "tables": [qtable_to_dict(q) for q in artifacts.district_qtables],
        }
    if artifacts.district_routes:
        docs["routes"] = {"version": 1, "routes": [list(r) for r in artifacts.district_routes]}
    if artifacts.allocation is not None:
        docs["allocation"] = {"version": 1, "levels": dict(sorted(artifacts.allocation.items()))}
    manifest = {
        "version": 1,
        "run_id": run_id,
        "mode": args.mode,
        "seed": seed,
        "tool_version": __version__,
        "scenario_hash": scenario_hash,
        "created_at": _timestamp(),
        "artifacts": {"scenario": "scenario.json", **{name: f"{name}.json" for name in docs}},
        "metrics": docs["metrics"],
    }
    (run_dir / "scenario.json").write_bytes(scenario_bytes)
    for name, doc in [*docs.items(), ("manifest", manifest)]:
        write_json(run_dir / f"{name}.json", doc)
    print(f"run {run_id} ({args.mode}, seed {seed}) -> {run_dir / 'manifest.json'}")
    return 0


def cmd_compare(args) -> int:
    rb = _load_manifest(args.baseline)
    rf = _load_manifest(args.framework)
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
    report = compare_runs(
        _load_manifest(args.baseline), _load_manifest(args.framework)
    )
    svg = chart_from_report(report, args.kind)
    out_path = (
        Path(args.output) if args.output else Path(args.out) / f"chart_{args.kind}.svg"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg, encoding="utf-8")
    print(f"chart written to {out_path}")
    return 0


def _manifests_newest_first(out_dir: Path) -> list[tuple[dict, RunResult, Path]]:
    """Readable manifests under out_dir with their runs, newest created first.

    Unreadable manifests are skipped; a tie in created_at puts the larger run id first.
    """
    found = []
    for path in sorted(out_dir.glob("*/manifest.json")):
        try:
            doc, result = _read_manifest(path)
        except ManifestUnreadable:
            continue
        found.append((doc, result, path.parent))
    found.sort(
        key=lambda run: (run[0].get("created_at", ""), run[0].get("run_id", "")),
        reverse=True,
    )
    return found


def _run_scenario(doc: dict, run_dir: Path) -> ScenarioSpec | None:
    """The scenario a run's artifacts name, or None if they name none."""
    rel = doc.get("artifacts", {}).get("scenario")
    if rel and (run_dir / rel).is_file():
        return parse_scenario(read_json_checked(run_dir / rel, ParseError, "scenario"))
    return None


def cmd_table3(args) -> int:
    doc = json.loads((_FIXTURES / "table3.json").read_text(encoding="utf-8"))
    out = Path(args.out)

    measured: dict[str, str] = {}
    if out.is_dir():
        runs = _manifests_newest_first(out)
        baselines = [(doc, _study(run)) for doc, run, _ in runs if doc["mode"] == "baseline"]
        # The newest framework run whose scenario parses fills the column,
        # against the newest baseline run of its study.
        for f_doc, f_run, f_dir in runs:
            if f_doc["mode"] != "framework":
                continue
            try:
                scenario = _run_scenario(f_doc, f_dir)
            except GreenloopError:
                continue
            base = next((doc["metrics"] for doc, s in baselines if s == _study(f_run)), None)
            measured = measured_metrics(f_doc["metrics"], scenario, base)
            break

    text = render_table3(doc, measured)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table3.md").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_validate(args) -> int:
    # bypass load_scenario's fail-fast so every finding gets listed
    s = read_scenario(_scenario_path(args.scenario))
    diagnostics = validate_scenario(s)
    # each mode's planned workload, priced once the fixed stage costs price finitely
    if not any(d.path.startswith("energy_model") for d in diagnostics):
        diagnostics += workload_diagnostics(s)
    for d in diagnostics:
        print(d)
    if diagnostics:
        print(f"{len(diagnostics)} problem(s) found")
        return 4
    print("ok")
    return 0


def cmd_calibrate(args) -> int:
    s = load_scenario(_scenario_path(args.scenario))
    # co2_cap_kg, the allocation's emission cap, is the one non-element target
    targets = {el: t for el, t in s.targets.items() if el in ELEMENTS}
    if s.facility is None or not s.facility.stations or not targets:
        raise ValidationError(
            "calibration needs a scenario with a facility, at least one station "
            "and element recovery targets"
        )
    facility, achieved = calibrate_facility(s, s.facility, targets)
    absent = [el for el in sorted(targets) if el not in achieved]
    if absent:
        raise ValidationError(f"no battery cell holds targeted element(s) {', '.join(absent)}")
    calibrated = dataclasses.replace(s, facility=facility)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "calibrated_scenario.json"
    save_scenario(calibrated, path)
    for el in sorted(targets):
        print(f"{el}: target {targets[el]:.4f} achieved {achieved[el]:.4f}")
    print(f"calibrated scenario written to {path}")
    return 0


def _seed(text: str) -> int:
    """A --seed value, held to the range a scenario's rng_seed must lie in."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None
    if not is_rng_seed(seed):
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; main dispatches by name."""
    with_out = argparse.ArgumentParser(add_help=False)
    with_out.add_argument("--out", default="out", help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="greenloop",
        description="Deterministic recycling-pipeline runner and report generator.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"greenloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[with_out], help="execute one pipeline run")
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--seed", type=_seed, default=None, help="override the scenario rng seed")

    p = sub.add_parser("compare", parents=[with_out], help="compare two persisted runs")
    p.add_argument("--baseline", required=True, help="baseline manifest file or run dir")
    p.add_argument("--framework", required=True, help="framework manifest file or run dir")
    p.add_argument(
        "--expectations",
        default="auto",
        metavar="PATH|auto|battery|waste|none",
        help="reference deltas to annotate against (default: auto)",
    )
    p.add_argument("--format", choices=("md", "csv"), default="md", help="stdout table format")

    p = sub.add_parser("chart", parents=[with_out], help="render an SVG bar chart")
    p.add_argument("--baseline", required=True, help="baseline manifest file or run dir")
    p.add_argument("--framework", required=True, help="framework manifest file or run dir")
    p.add_argument("--kind", choices=CHART_KINDS, default="recovery")
    p.add_argument("--output", default=None, help="SVG path (default: OUT/chart_KIND.svg)")

    sub.add_parser("table3", parents=[with_out], help="render the method-comparison table")

    p = sub.add_parser("validate", help="lint a scenario file")
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")

    p = sub.add_parser(
        "calibrate", parents=[with_out], help="tune facility efficiencies to targets"
    )
    p.add_argument("--scenario", required=True, help="scenario file or bundled fixture name")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a cmd_* replaced after the parser was
    # built is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except GreenloopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
