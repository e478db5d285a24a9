"""greenloop: a deterministic toolkit for circular-economy recycling studies.

Scenario files describe materials, processes, emission factors, a
collection graph, and a recycling facility. The pipeline classifies
waste, allocates processes with an exact MILP solver, learns collection
routes with tabular Q-learning, simulates material recovery, and accounts
for carbon and energy, in a baseline mode and a framework mode whose
results are meant to be compared.
"""

__version__ = "0.1.0"

from .carbon import (
    LIFECYCLE_STAGES,
    ActivityLedger,
    CarbonReport,
    EmissionFactor,
    carbon_footprint,
)
from .charts import chart_from_report, render_grouped_bars
from .classify import (
    SoftmaxModel,
    evaluate_accuracy_records,
    model_from_dict,
    model_to_dict,
    train_on_records,
)
from .energy import (
    EnergyLedger,
    EnergyModel,
    StageUsage,
    energy_of,
    ledger_from_dict,
    ledger_to_dict,
    meter,
)
from .errors import Diagnostic, GreenloopError
from .pipeline import (
    ImprovementReport,
    MetricDelta,
    RunArtifacts,
    RunResult,
    compare_runs,
    feedback_update,
    partition_districts,
    run_full,
)
from .report import (
    comparison_csv,
    comparison_markdown,
    format_number,
    measured_metrics,
    render_table3,
    run_result_from_dict,
    run_result_to_dict,
)
from .routing import (
    BinNode,
    CollectionGraph,
    EdgeAttrs,
    QTable,
    RLConfig,
    greedy_route,
    qtable_from_dict,
    qtable_to_dict,
    route_emissions,
    train_routing,
)
from .scenario import (
    MaterialSpec,
    ProcessSpec,
    ResourceLimit,
    ScenarioSpec,
    compile_to_lp,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_to_dict,
    validate_scenario,
)
from .serialize import canonical_dumps, content_hash, read_json, write_json
from .solver import (
    LinearProgram,
    MilpSolution,
    SolveStatus,
    check_solution,
    solve_lp,
    solve_milp,
)
from .twin import (
    BinEventStream,
    FacilityModel,
    SimulationTrace,
    Station,
    WasteStreamConfig,
    calibrate_facility,
    check_mass_conservation,
    recovery_rates,
    simulate_bins,
    simulate_recycling,
)

__all__ = [
    "__version__",
    "ActivityLedger",
    "BinEventStream",
    "BinNode",
    "CarbonReport",
    "CollectionGraph",
    "Diagnostic",
    "EdgeAttrs",
    "EmissionFactor",
    "EnergyLedger",
    "EnergyModel",
    "FacilityModel",
    "GreenloopError",
    "ImprovementReport",
    "LIFECYCLE_STAGES",
    "LinearProgram",
    "MaterialSpec",
    "MetricDelta",
    "MilpSolution",
    "ProcessSpec",
    "QTable",
    "ResourceLimit",
    "RLConfig",
    "RunArtifacts",
    "RunResult",
    "ScenarioSpec",
    "SimulationTrace",
    "SoftmaxModel",
    "SolveStatus",
    "StageUsage",
    "Station",
    "WasteStreamConfig",
    "calibrate_facility",
    "canonical_dumps",
    "carbon_footprint",
    "chart_from_report",
    "check_mass_conservation",
    "check_solution",
    "compare_runs",
    "comparison_csv",
    "comparison_markdown",
    "compile_to_lp",
    "content_hash",
    "energy_of",
    "evaluate_accuracy_records",
    "feedback_update",
    "format_number",
    "greedy_route",
    "ledger_from_dict",
    "ledger_to_dict",
    "load_scenario",
    "measured_metrics",
    "meter",
    "model_from_dict",
    "model_to_dict",
    "parse_scenario",
    "partition_districts",
    "qtable_from_dict",
    "qtable_to_dict",
    "read_json",
    "recovery_rates",
    "render_grouped_bars",
    "render_table3",
    "route_emissions",
    "run_full",
    "run_result_from_dict",
    "run_result_to_dict",
    "save_scenario",
    "scenario_to_dict",
    "simulate_bins",
    "simulate_recycling",
    "solve_lp",
    "solve_milp",
    "train_on_records",
    "train_routing",
    "validate_scenario",
    "write_json",
]
