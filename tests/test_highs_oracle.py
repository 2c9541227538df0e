"""Differential tests against scipy's HiGHS on the deterministic equivalent.

HiGHS serves only as an independent oracle here: each case builds the
full problem, solves it with ``scipy.optimize.milp`` (which also takes
pure LPs), and compares the optimum with what ``solve_stochastic``
reports, in each of the three solve paths.  The joint day-ahead-chp LP at
case-study shape, the largest basis in the suite, goes to ``linprog``.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from conftest import make_config, make_genspec
from mgsched.experiments import solve_stochastic
from mgsched.formulation import FormulationOptions, build
from mgsched.lpcore import solve_lp
from mgsched.scenario import generate


def highs_objective(problem):
    integrality = np.zeros(problem.n_cols)
    integrality[sorted(problem.binary_cols)] = 1
    lo, hi = problem.row_bounds()
    res = milp(problem.objective, integrality=integrality,
               constraints=LinearConstraint(problem.matrix_csc(), lo, hi),
               bounds=Bounds(problem.lower_inf(), problem.upper_inf()),
               options={"mip_rel_gap": 1e-9})
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("shape, S, options, decomposed", [
    (dict(T=24, n_chp=3, n_phev=20, n_def=3), 4, FormulationOptions(), True),
    (dict(T=24, n_chp=3, n_phev=10, n_def=2), 3,
     FormulationOptions(stage_mode="day-ahead-chp"), False),
    (dict(T=12, n_chp=1, n_phev=2, n_def=1), 2,
     FormulationOptions(exclusivity_binaries=True), True),
], ids=["fully-adaptive", "day-ahead-chp", "exclusivity"])
def test_objective_matches_highs(shape, S, options, decomposed):
    cfg = make_config(**shape)
    scenarios = generate(make_genspec(cfg, seed=61), cfg, S)
    _, report = solve_stochastic(cfg, scenarios, options)
    assert report.status == "optimal"
    assert report.decomposed == decomposed
    problem, _ = build(cfg, scenarios, options)
    assert bool(problem.binary_cols) == options.exclusivity_binaries
    reference = highs_objective(problem)
    assert report.objective == pytest.approx(reference, rel=1e-6)


def test_joint_day_ahead_chp_lp_at_case_study_shape_matches_highs():
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    scenarios = generate(make_genspec(cfg, seed=4242), cfg, 3)
    problem, _ = build(cfg, scenarios, FormulationOptions(stage_mode="day-ahead-chp"))
    assert (problem.n_rows, problem.n_cols) == (4053, 11520)
    sol = solve_lp(problem)
    assert sol.status == "optimal"
    # steepest edge took 1751 iterations from exact initial weights, 1273
    # from a reference start (every weight 1), and takes about 946 with
    # boxed columns starting on the bound their violated rows ask for
    assert sol.iterations <= 1100

    A = problem.matrix_csc().tocsr()
    lo, hi = problem.row_bounds()
    eq = lo == hi
    upper, lower = ~eq & np.isfinite(hi), ~eq & np.isfinite(lo)
    res = linprog(problem.objective, A_ub=sp.vstack([A[upper], -A[lower]]),
                  b_ub=np.concatenate([hi[upper], -lo[lower]]), A_eq=A[eq], b_eq=lo[eq],
                  bounds=np.column_stack([problem.lower_inf(), problem.upper_inf()]),
                  method="highs")
    assert res.status == 0, res.message
    assert sol.objective == pytest.approx(res.fun, rel=1e-7)
