import numpy as np
import pytest

from conftest import make_config, make_genspec
from mgsched.formulation import build as build_formulation
from mgsched.lpcore import (
    LpError,
    LpProblem,
    SolveSettings,
    check_point,
    dual_objective,
    solve_lp,
)
from mgsched.lpcore.simplex import _Core
from mgsched.scenario import generate
from oracles import brute_force_lp


def build(c, A, senses, b, lo, hi, **kw):
    A = np.asarray(A, dtype=float)
    trips = [(i, j, A[i, j]) for i in range(A.shape[0]) for j in range(A.shape[1])
             if A[i, j] != 0.0]
    return LpProblem(A.shape[1], A.shape[0], c, trips, senses, b, lo, hi, **kw)


def random_instance(rng, feasible=False):
    m = int(rng.integers(1, 7))
    n = int(rng.integers(2, 9))
    A = np.round(rng.normal(size=(m, n)) * 2, 2)
    A[rng.random(size=A.shape) < 0.25] = 0.0
    senses = [["<=", ">=", "="][int(rng.integers(0, 3))] for _ in range(m)]
    lo = np.round(rng.uniform(-4, 0, size=n), 1)
    hi = lo + np.round(rng.uniform(0.5, 5, size=n), 1)
    if feasible:
        x0 = rng.uniform(lo, hi)
        margin = rng.uniform(0, 1.5, size=m)
        b = A @ x0
        b = np.where([s == "<=" for s in senses], b + margin, b)
        b = np.where([s == ">=" for s in senses], A @ x0 - margin, b)
        b = np.round(b, 3)
    else:
        b = np.round(rng.normal(size=m) * 3, 2)
    c = np.round(rng.normal(size=n), 2)
    return c, A, senses, b, lo, hi


def test_minimize_single_bounded_variable():
    p = build([1.0], [[1.0]], [">="], [3.0], [0.0], [np.inf])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_contradictory_rows_are_infeasible():
    p = build([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0], [-np.inf], [np.inf])
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    assert sol.infeasible_rows  # names at least one of the clashing rows


def test_unbounded_direction_detected():
    p = build([-1.0, 0.0], [[0.0, 1.0]], ["<="], [5.0], [0.0, 0.0], [np.inf, np.inf])
    assert solve_lp(p).status == "unbounded"


def test_no_rows_solves_by_bounds():
    p = LpProblem(2, 0, [1.0, -1.0], [], [], [], [0.0, 0.0], [2.0, 3.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0)


def test_oracle_equivalence_random_lps():
    rng = np.random.default_rng(42)
    optimal_seen = 0
    for k in range(60):
        c, A, senses, b, lo, hi = random_instance(rng, feasible=(k % 2 == 0))
        p = build(c, A, senses, b, lo, hi)
        sol = solve_lp(p)
        st, obj, _ = brute_force_lp(c, A, senses, b, lo, hi)
        assert sol.status == st, f"instance {k}"
        if st == "optimal":
            optimal_seen += 1
            assert sol.objective == pytest.approx(obj, abs=1e-6)
            assert check_point(p, sol.x, 1e-7).ok(1e-6)
    assert optimal_seen >= 25


def test_weak_duality_on_optimal_solves():
    rng = np.random.default_rng(7)
    for k in range(30):
        c, A, senses, b, lo, hi = random_instance(rng, feasible=True)
        p = build(c, A, senses, b, lo, hi)
        sol = solve_lp(p)
        if sol.status != "optimal":
            continue
        gap = sol.objective - dual_objective(p, sol)
        assert abs(gap) <= 1e-6 * max(1.0, abs(sol.objective))


def test_deterministic_repeat_solves():
    rng = np.random.default_rng(5)
    c, A, senses, b, lo, hi = random_instance(rng, feasible=True)
    p = build(c, A, senses, b, lo, hi)
    s1 = solve_lp(p)
    s2 = solve_lp(p)
    assert s1.status == s2.status
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.x, s2.x)


def test_case_study_scenario_lp_repeats_bit_for_bit():
    # one scenario of the case study: 1303 rows x 3840 columns; guards
    # against any run-to-run variation in the sparse basis factorization
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    p, _ = build_formulation(cfg, generate(make_genspec(cfg, seed=4242), cfg, 1))
    assert (p.n_rows, p.n_cols) == (1303, 3840)
    s1, s2 = solve_lp(p), solve_lp(p)
    assert s1.status == s2.status == "optimal"
    assert s1.iterations == s2.iterations
    assert s1.objective == s2.objective
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)


def test_beale_degenerate_example_terminates():
    # classic cycling-prone instance; optimum -0.05
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -1 / 25.0, 9.0],
         [0.5, -90.0, -1 / 50.0, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    p = build(c, A, ["<=", "<=", "<="], [0.0, 0.0, 1.0], [0.0] * 4, [np.inf] * 4)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_ranged_row_equals_two_inequalities():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 3
        a = np.round(rng.normal(size=n), 2)
        c = np.round(rng.normal(size=n), 2)
        lo, hi = np.full(n, -2.0), np.full(n, 2.0)
        bhi = 1.5
        r = 2.5
        ranged = build(c, a[None, :], ["<="], [bhi], lo, hi, row_range=[r])
        pair = build(c, np.vstack([a, a]), ["<=", ">="], [bhi, bhi - r], lo, hi)
        s1, s2 = solve_lp(ranged), solve_lp(pair)
        assert s1.status == s2.status
        if s1.status == "optimal":
            assert s1.objective == pytest.approx(s2.objective, abs=1e-8)


def test_fixed_and_free_columns():
    # x0 fixed at 2, x1 free, x0 + x1 = 5 -> x1 = 3
    p = build([0.0, 1.0], [[1.0, 1.0]], ["="], [5.0],
              [2.0, -np.inf], [2.0, np.inf])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x.tolist() == pytest.approx([2.0, 3.0])


def test_iteration_limit_reports_limit_status():
    rng = np.random.default_rng(3)
    c, A, senses, b, lo, hi = random_instance(rng, feasible=True)
    p = build(c, A, senses, b, lo, hi)
    sol = solve_lp(p, SolveSettings(iteration_limit=1))
    assert sol.status in ("limit", "optimal")  # tiny instances may finish in 1


def test_singular_basis_raises_lp_error():
    # columns 0 and 1 are equal, so a basis holding both is singular
    p = build([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["<=", "<="], [1.0, 2.0],
              [0.0, 0.0], [1.0, 1.0])
    core = _Core(p, SolveSettings())
    core.basis[:] = [0, 1]
    with pytest.raises(LpError, match="basis factorization failed"):
        core._refactor()
