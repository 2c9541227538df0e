"""Differential tests against scipy's HiGHS on the deterministic equivalent.

HiGHS serves only as an independent oracle here: each case builds the
full problem, solves it with ``scipy.optimize.milp`` (which also takes
pure LPs), and compares the optimum with what ``solve_stochastic``
reports, in each of the three solve paths.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import make_config, make_genspec
from mgsched.experiments import solve_stochastic
from mgsched.formulation import FormulationOptions, build
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
     FormulationOptions(exclusivity_binaries=True), False),
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
