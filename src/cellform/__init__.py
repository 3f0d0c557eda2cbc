"""Exact solver for the cell formation problem with a variable number of
production cells, maximizing grouping efficacy.

The pipeline: a heuristic seed, which climbs from the groupings its own
branch-and-bound tree finds and from random restarts only when that tree
stalls, starts a parametric (ratio-fixing) outer loop whose subproblems
are solved exactly by branch-and-bound over machine partitions, resuming
the seed's tree. An exact oracle, which enumerates every machine partition
and labels the parts of each by a dynamic program over the parts, checks
instances up to 8x48, and a two-index 0-1 model with LP export supports
external solvers.
"""

from .bnb import (SubproblemResult, SubproblemStats, label_cap, make_weights,
                  solve_subproblem)
from .dinkelbach import (IterationRecord, SolveOutcome, SolveStatus,
                         raw_ratio, solve, trivial_solution)
from .heuristic import SearchConfig, fit_parts, heuristic_solve
from .instances import (FormatError, Instance, ValidationReport,
                        load_instance, parse_instance, validate_instance,
                        write_instance)
from .model import (DecodeError, LinearModel, ModelRow, RelationAssignment,
                    build_model, decode, encode, export_lp, objective_value,
                    read_assignment, violated_rows)
from .oracle import OracleSizeError, oracle_solve
from .rational import Ratio, parse_ratio
from .solutions import (Regime, Solution, canonicalize, check_feasible,
                        efficacy, efficacy_counts, efficacy_ratio,
                        parse_solution, report_line, void_upper_bound,
                        write_solution)

__version__ = "0.1.0"

__all__ = [
    "FormatError", "Instance", "ValidationReport", "load_instance",
    "parse_instance", "validate_instance", "write_instance",
    "Ratio", "parse_ratio",
    "Regime", "Solution", "canonicalize", "check_feasible", "efficacy",
    "efficacy_counts", "efficacy_ratio", "parse_solution", "report_line",
    "void_upper_bound", "write_solution",
    "SubproblemResult", "SubproblemStats", "label_cap", "make_weights",
    "solve_subproblem",
    "SolveOutcome", "SolveStatus", "IterationRecord", "raw_ratio",
    "solve", "trivial_solution",
    "SearchConfig", "fit_parts", "heuristic_solve",
    "LinearModel", "ModelRow", "RelationAssignment", "DecodeError",
    "build_model", "decode", "encode", "export_lp", "objective_value",
    "read_assignment", "violated_rows",
    "OracleSizeError", "oracle_solve",
    "__version__",
]
