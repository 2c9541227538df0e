"""Self-contained LP/MILP machinery: problem container, bounded-variable
revised simplex, branch-and-bound, MPS interchange, and feasibility checks."""

from .branch_bound import solve_milp
from .mps import MpsFormatError, export_mps, float_texts, parse_mps
from .problem import (
    BOUND_INF,
    FeasibilityReport,
    LpError,
    LpProblem,
    LpSolution,
    SolverStats,
    SolveSettings,
    check_point,
)
from .simplex import dual_objective, solve_lp

__all__ = [
    "BOUND_INF",
    "FeasibilityReport",
    "LpError",
    "LpProblem",
    "LpSolution",
    "MpsFormatError",
    "SolverStats",
    "SolveSettings",
    "check_point",
    "dual_objective",
    "export_mps",
    "float_texts",
    "parse_mps",
    "solve_lp",
    "solve_milp",
]
