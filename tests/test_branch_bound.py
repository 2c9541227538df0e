import numpy as np
import pytest

import mgsched.lpcore.branch_bound as bb
from mgsched.lpcore import LpProblem, SolveSettings, check_point, solve_lp, solve_milp
from oracles import brute_force_milp


def build(c, A, senses, b, lo, hi, binary_cols=(), **kw):
    A = np.asarray(A, dtype=float)
    trips = [(i, j, A[i, j]) for i in range(A.shape[0]) for j in range(A.shape[1])
             if A[i, j] != 0.0]
    return LpProblem(A.shape[1], A.shape[0], c, trips, senses, b, lo, hi,
                     binary_cols=binary_cols, **kw)


def test_fixed_binaries_reduce_to_lp():
    # both binaries pinned by bounds; MILP must agree with the plain LP
    p = build([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0]], ["<="], [2.5],
              [1.0, 0.0, 0.0], [1.0, 0.0, 5.0], binary_cols=[0, 1])
    milp = solve_milp(p)
    lp = solve_lp(p)
    assert milp.status == "optimal"
    assert milp.objective == pytest.approx(lp.objective, abs=1e-9)


def test_knapsack_matches_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = 6
        value = np.round(rng.uniform(1, 10, n), 1)
        weight = np.round(rng.uniform(1, 6, n), 1)
        cap = round(float(weight.sum()) * 0.55, 1)
        p = build(-value, weight[None, :], ["<="], [cap],
                  np.zeros(n), np.ones(n), binary_cols=range(n))
        sol = solve_milp(p)
        st, obj, _ = brute_force_milp(-value, weight[None, :], ["<="], [cap],
                                      np.zeros(n), np.ones(n), range(n))
        assert sol.status == st == "optimal"
        assert sol.objective == pytest.approx(obj, abs=1e-7)


def test_mixed_binary_continuous_matches_oracle():
    rng = np.random.default_rng(23)
    for k in range(20):
        m = int(rng.integers(1, 6))
        nb = int(rng.integers(1, 7))
        nc = int(rng.integers(0, 3))
        n = nb + nc
        A = np.round(rng.normal(size=(m, n)) * 2, 1)
        senses = [["<=", ">="][int(rng.integers(0, 2))] for _ in range(m)]
        lo = np.concatenate([np.zeros(nb), np.round(rng.uniform(-2, 0, nc), 1)])
        hi = np.concatenate([np.ones(nb), lo[nb:] + np.round(rng.uniform(0.5, 3, nc), 1)])
        x0 = rng.uniform(lo, hi)
        pad = np.where([s == "<=" for s in senses], rng.uniform(0, 2, m), -rng.uniform(0, 2, m))
        b = np.round(A @ x0 + pad, 2)
        c = np.round(rng.normal(size=n) * 3, 1)
        p = build(c, A, senses, b, lo, hi, binary_cols=range(nb))
        sol = solve_milp(p)
        st, obj, _ = brute_force_milp(c, A, senses, b, lo, hi, range(nb))
        assert sol.status == st, f"instance {k}"
        if st == "optimal":
            assert abs(sol.objective - obj) <= 1e-6 * max(1.0, abs(obj))
            assert check_point(p, sol.x, 1e-7).ok(1e-6)
            assert sol.best_bound <= sol.objective + 1e-9


def test_integrality_of_reported_solution():
    rng = np.random.default_rng(29)
    A = np.round(rng.normal(size=(3, 5)), 1)
    b = np.abs(A).sum(axis=1)
    p = build(rng.normal(size=5), A, ["<="] * 3, b, np.zeros(5), np.ones(5),
              binary_cols=range(5))
    sol = solve_milp(p)
    assert sol.status == "optimal"
    assert np.all(np.isin(sol.x, (0.0, 1.0)))


def test_infeasible_milp_detected():
    p = build([1.0], [[1.0], [1.0]], [">=", "<="], [0.8, 0.2],
              [0.0], [1.0], binary_cols=[0])
    assert solve_milp(p).status == "infeasible"


def test_infeasible_milp_with_a_feasible_relaxation():
    # x0 + x1 + y = 1.5 with y <= 0.25: the root LP is feasible, no binary
    # assignment is, and every branch ends in an infeasible node
    args = ([1.0, 1.0, 0.5], [[1.0, 1.0, 1.0]], ["="], [1.5], [0.0, 0.0, 0.0],
            [1.0, 1.0, 0.25])
    p = build(*args, binary_cols=[0, 1])
    assert solve_lp(p).status == "optimal"
    assert brute_force_milp(*args, [0, 1])[0] == "infeasible"
    sol = solve_milp(p)
    assert sol.status == "infeasible" and sol.nodes > 1


def test_node_and_iteration_counts_are_the_stats():
    rng = np.random.default_rng(17)
    value, weight = rng.uniform(1, 10, 6), rng.uniform(1, 6, 6)
    p = build(-value, weight[None, :], ["<="], [float(weight.sum()) * 0.5],
              np.zeros(6), np.ones(6), binary_cols=range(6))
    sol = solve_milp(p)
    assert sol.status == "optimal" and sol.stats.nodes >= 3  # it branches
    assert sol.nodes == sol.stats.nodes
    assert sol.iterations == sol.stats.iterations
    # a root that is already infeasible is one node; this one starts with x
    # at its upper bound, which phase 1 proves infeasible without a pivot
    infeasible = build([1.0], [[1.0], [1.0]], [">=", "<="], [1.5, 0.2], [0.0], [1.0],
                       binary_cols=[0])
    root = solve_milp(infeasible)
    assert (root.status, root.nodes) == ("infeasible", 1)
    assert root.iterations == root.stats.iterations
    # here the two rows pull each column both ways, so both start at 0 and
    # phase 1 pivots before it proves the root infeasible
    infeasible = build([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [">=", "<="], [1.5, 0.2],
                       [0.0, 0.0], [1.0, 1.0], binary_cols=[0, 1])
    root = solve_milp(infeasible)
    assert (root.status, root.nodes) == ("infeasible", 1)
    assert root.iterations == root.stats.iterations > 0


def test_node_limit_yields_limit_status():
    rng = np.random.default_rng(31)
    n = 8
    value = rng.uniform(1, 10, n)
    weight = rng.uniform(1, 6, n)
    p = build(-value, weight[None, :], ["<="], [float(weight.sum()) * 0.5],
              np.zeros(n), np.ones(n), binary_cols=range(n))
    full = solve_milp(p)
    N = full.nodes
    assert full.status == "optimal" and N >= 3  # it branches
    bounds = []
    # node_limit counts node LPs, the root included, as iteration_limit counts pivots
    for k in range(N + 2):
        sol = solve_milp(p, SolveSettings(node_limit=k))
        assert sol.nodes == min(k, N), k
        if k >= N:
            assert (sol.status, sol.objective, sol.best_bound, sol.stats) == \
                (full.status, full.objective, full.best_bound, full.stats)
            assert sol.x.tobytes() == full.x.tobytes()
            assert sol.duals.tobytes() == full.duals.tobytes()
        else:
            assert sol.status == "limit" and sol.x is None, k
            assert sol.best_bound <= full.objective + 1e-9
            bounds.append(sol.best_bound)
    assert bounds[0] == -np.inf and bounds == sorted(bounds)

    # a root LP that is already integral is the whole search
    integral = build([1.0, -2.0], [[1.0, 1.0]], ["<="], [1.5], [0.0, 0.0], [1.0, 1.0],
                     binary_cols=[0, 1])
    root = solve_milp(integral, SolveSettings(node_limit=1))
    assert (root.status, root.nodes, root.objective) == ("optimal", 1, -2.0)
    none = solve_milp(integral, SolveSettings(node_limit=0))
    assert (none.status, none.nodes, none.iterations) == ("limit", 0, 0)


@pytest.mark.parametrize("seed", [6, 24])
def test_child_at_iteration_limit_is_not_reported_optimal(seed):
    # with this budget some child LPs stop early; pruning them silently
    # once returned a wrong objective with status "optimal"
    rng = np.random.default_rng(seed)
    A = rng.uniform(0, 5, size=(5, 8))
    b = A.sum(axis=1) / 2
    c = -rng.uniform(1, 5, size=8)
    p = build(c, A, ["<="] * 5, b, np.zeros(8), np.ones(8), binary_cols=range(8))
    st, obj, _ = brute_force_milp(c, A, ["<="] * 5, b, np.zeros(8), np.ones(8), range(8))
    assert st == "optimal"
    sol = solve_milp(p, SolveSettings(iteration_limit=7))
    assert sol.status == "limit"
    assert sol.best_bound <= obj + 1e-9
    if sol.x is not None:
        assert sol.objective >= obj - 1e-9
        assert check_point(p, sol.x, 1e-7).ok(1e-6)
    assert solve_milp(p).objective == pytest.approx(obj, abs=1e-7)


def test_iteration_limit_bounds_the_whole_search(monkeypatch):
    # every node LP needs at most 6 iterations, the whole search 12 (the
    # children start from their parent's basis); a per-node limit of 9
    # would never fire and the result would read optimal
    rng = np.random.default_rng(3)
    n = 8
    value = np.round(rng.uniform(1, 10, n), 1)
    weight = np.round(rng.uniform(1, 6, n), 1)
    cap = round(float(weight.sum()) * 0.5, 1)
    p = build(-value, weight[None, :], ["<="], [cap], np.zeros(n), np.ones(n),
              binary_cols=range(n))
    node_iters = []
    real_solve_lp = bb.solve_lp

    def spy(*args, **kwargs):
        sol = real_solve_lp(*args, **kwargs)
        node_iters.append(sol.iterations)
        return sol

    monkeypatch.setattr(bb, "solve_lp", spy)
    full = solve_milp(p)
    assert full.status == "optimal"
    assert max(node_iters) < 9 < full.iterations

    for limit in (node_iters[0] - 1, 9):  # the root LP alone, then the search
        sol = solve_milp(p, SolveSettings(iteration_limit=limit))
        assert sol.status == "limit"
        assert sol.iterations <= limit
        assert sol.best_bound <= full.objective + 1e-9
    # the limit is checked after pricing: a search that needs exactly the
    # budget finishes, one pivot less does not
    exact = solve_milp(p, SolveSettings(iteration_limit=full.iterations))
    assert exact.status == "optimal" and exact.objective == full.objective
    assert solve_milp(p, SolveSettings(iteration_limit=full.iterations - 1)).status == "limit"
