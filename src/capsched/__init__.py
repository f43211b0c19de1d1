"""Offline capacity scheduling for slotted conference workloads.

The package covers the full loop: generating synthetic arrival/departure
workloads, planning capacity with heuristic or exact strategies, simulating
first-in-first-out admission against a schedule, checking feasibility, and
exporting the underlying integer program in LP format for external solvers.
"""

from .cli import (
    CSV_HEADER,
    CompareRow,
    CompareSpec,
    SCENARIO_PRESETS,
    compare_instance,
    main,
    run_compare,
)
from .ilp import (
    INTEGRALITY_TOLERANCE,
    ConstraintViolation,
    IlpModel,
    SolutionFormatError,
    SolutionMatrices,
    build_model,
    export_lp,
    matrices_to_schedule,
    objective_value,
    parse_solution,
    validate_solution,
)
from .schedule import (
    CostReport,
    Schedule,
    ScheduleFormatError,
    SimulationReport,
    Violation,
    check_feasibility,
    evaluate,
    format_schedule,
    parse_schedule,
    resource_cost,
    simulate,
)
from .solvers import (
    LiftError,
    OracleLimitError,
    adaptive_schedule,
    exact_oracle,
    greedy_schedule,
    lift_schedule,
)
from .workload import (
    Config,
    ConfigurationError,
    ScenarioParams,
    Workload,
    WorkloadFormatError,
    format_workload,
    generate_workload,
    mandatory_load,
    occupancy,
    parse_workload,
    segment_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CompareRow",
    "CompareSpec",
    "Config",
    "ConfigurationError",
    "ConstraintViolation",
    "CostReport",
    "INTEGRALITY_TOLERANCE",
    "IlpModel",
    "LiftError",
    "OracleLimitError",
    "SCENARIO_PRESETS",
    "ScenarioParams",
    "Schedule",
    "ScheduleFormatError",
    "SimulationReport",
    "SolutionFormatError",
    "SolutionMatrices",
    "Violation",
    "Workload",
    "WorkloadFormatError",
    "adaptive_schedule",
    "build_model",
    "check_feasibility",
    "compare_instance",
    "evaluate",
    "exact_oracle",
    "export_lp",
    "format_schedule",
    "format_workload",
    "generate_workload",
    "greedy_schedule",
    "lift_schedule",
    "main",
    "mandatory_load",
    "matrices_to_schedule",
    "objective_value",
    "occupancy",
    "parse_schedule",
    "parse_solution",
    "parse_workload",
    "resource_cost",
    "run_compare",
    "segment_lengths",
    "simulate",
    "validate_solution",
]
