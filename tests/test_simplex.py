import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from mgsched.lpcore import simplex
from mgsched.lpcore.simplex import AT_LOWER, AT_UPPER, BASIC, _Core
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
    tol = 1e-7
    for k in range(30):
        c, A, senses, b, lo, hi = random_instance(rng, feasible=True)
        p = build(c, A, senses, b, lo, hi)
        sol = solve_lp(p)
        if sol.status != "optimal":
            continue
        gap = sol.objective - dual_objective(p, sol)
        assert abs(gap) <= 1e-6 * max(1.0, abs(sol.objective))
        # reduced costs c - A'y over structural and slack columns, recomputed
        # from the returned duals: each has the sign its column's position asks
        M, rhs, col_lo, col_hi = simplex.equality_form(p)
        z = np.concatenate([p.objective - M.T @ sol.duals, -sol.duals])
        x = np.concatenate([sol.x, rhs - M @ sol.x])
        at_lo, at_hi = np.abs(x - col_lo) <= 1e-9, np.abs(x - col_hi) <= 1e-9
        assert np.all(z[at_lo & ~at_hi] >= -tol), f"instance {k}"
        assert np.all(z[at_hi & ~at_lo] <= tol), f"instance {k}"
        assert np.all(np.abs(z[~at_lo & ~at_hi]) <= tol), f"instance {k}"


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


@pytest.fixture(scope="module")
def case_study_lp():
    cfg = make_config(T=24, n_chp=3, n_phev=50, n_def=5)
    p, _ = build_formulation(cfg, generate(make_genspec(cfg, seed=4242), cfg, 1))
    return p


def test_case_study_scenario_lp_iteration_count(case_study_lp):
    # 2694 iterations from the all-slack start; the crash basis cuts this
    # to 658 with Dantzig pricing, steepest edge from a reference start
    # (every weight 1) to 252, and starting boxed columns on the bound
    # their violated rows ask for to about 180; iteration counts are
    # deterministic
    sol = solve_lp(case_study_lp)
    assert sol.status == "optimal"
    assert sol.iterations <= 220


def test_crash_basis_on_case_study_scenario_lp(case_study_lp):
    p = case_study_lp
    core = _Core(p, SolveSettings())
    crashed = np.nonzero(core.basis < core.n)[0]  # basis position = row
    assert crashed.size == core.n_crash >= 1200
    cols = core.basis[crashed]
    assert np.all(core.x[cols] >= core.lo[cols] - 1e-9)
    assert np.all(core.x[cols] <= core.hi[cols] + 1e-9)
    assert not np.isin(core.art_row, crashed).any()
    assert np.all(core.vstat[core.n + crashed] != BASIC)  # their slacks stay nonbasic
    e = np.ones(core.m)
    assert np.abs(core.lu.solve(core.full[:, core.basis] @ e) - e).max() <= 1e-9
    assert np.abs(core.full @ core.x - core.b).max() <= 1e-9


def test_cold_start_puts_boxed_columns_on_the_bound_violated_rows_ask_for(case_study_lp):
    p = case_study_lp
    core = _Core(p, SolveSettings())
    # at every column's lower bound each heat row (CHP heat >= demand) is
    # violated; the start's upper bounds leave artificials on the five
    # deferrable-energy rows only (29 rows from the all-lower start)
    assert [p.row_names[i] for i in core.art_row] == [f"dsum_j{j}_s0" for j in range(5)]

    # the rule, from the problem's own data: +1 on an inequality row whose
    # activity at the all-lower start is below its range, -1 above it
    A = p.matrix_csc().toarray()
    lo, hi = p.lower_inf(), p.upper_inf()
    rlo, rhi = p.row_bounds()
    act = A @ lo
    ineq = rlo < rhi
    push = np.where(ineq & (act < rlo), 1.0, np.where(ineq & (act > rhi), -1.0, 0.0))
    moved = (lo < hi) & (A.T @ push > 0.0)
    nonbasic = core.vstat[: core.n] != BASIC
    assert np.count_nonzero(moved & nonbasic) >= 24
    assert np.all(core.x[: core.n][moved & nonbasic] == hi[moved & nonbasic])
    assert np.all(core.vstat[: core.n][moved & nonbasic] == AT_UPPER)
    # every other nonbasic structural column starts at its finite lower bound
    rest = ~moved & nonbasic
    assert np.all(core.vstat[: core.n][rest] == AT_LOWER)
    assert np.all(core.x[: core.n][rest] == lo[rest])


def test_cold_start_leaves_a_column_pulled_both_ways_at_its_lower_bound():
    # x0 + x1 >= 3 asks x0 up, x0 - x1 <= -1 asks it down: A'push is 0 for
    # x0 and 2 for x1, so only x1 starts at its upper bound
    p = build([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [">=", "<="], [3.0, -1.0],
              [0.0, 0.0], [4.0, 4.0])
    core = _Core(p, SolveSettings())
    assert list(core.vstat[:2]) == [AT_LOWER, AT_UPPER]
    assert list(core.x[:2]) == [0.0, 4.0]
    assert core.n_art == 0  # x1 = 4 satisfies both rows
    sol = solve_lp(p)
    assert sol.status == "optimal" and sol.objective == pytest.approx(3.0)


def test_infeasible_equality_lp_names_rows():
    # x0 free, x1 in [0, 2]: x0 + x1 = 1 and x0 + x1 = 3 clash; the crash
    # makes x0 basic in the first row, so the clash lands on artificials
    p = build([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]], ["=", "=", "="],
              [1.0, 3.0, 0.5], [-np.inf, 0.0], [np.inf, 2.0])
    sol = solve_lp(p)
    assert sol.status == "infeasible"
    assert sol.infeasible_rows


KINDS = ("bounded", "lower", "upper", "free", "fixed")


@st.composite
def equality_lps(draw):
    """Small LPs, mostly `=` rows, over every column bound kind.

    Integer data keep every sum exact.  Costs are c = A'y + d with a
    dual-feasible (y, d), so each instance is optimal or infeasible, the
    two outcomes the vertex-enumeration oracle can tell apart.
    """
    def ints(k, a, b):
        return np.array(draw(st.lists(st.integers(a, b), min_size=k, max_size=k)), dtype=float)

    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 6))
    kind = np.array(draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n)))
    senses = draw(st.lists(st.sampled_from(["=", "=", "=", "<=", ">="]), min_size=m, max_size=m))
    le, ge = np.array(senses) == "<=", np.array(senses) == ">="
    A = ints(m * n, -3, 3).reshape(m, n)
    free = kind == "free"
    # the oracle keeps free columns basic, so they must be independent
    assume(not free.any() or np.linalg.matrix_rank(A[:, free]) == free.sum())

    base, width, step = ints(n, -3, 3), ints(n, 1, 4), ints(n, 0, 4)
    lo = np.where(np.isin(kind, ["bounded", "lower", "fixed"]), base, -np.inf)
    hi = np.select([kind == "bounded", np.isin(kind, ["upper", "fixed"])],
                   [base + width, base], np.inf)
    x0 = np.select([kind == "bounded", kind == "lower", kind == "upper", free],
                   [base + np.minimum(step, width), base + step, base - step, step - 2], base)
    if draw(st.booleans()):
        b = A @ x0 + np.select([le, ge], [1.0, -1.0], 0.0) * ints(m, 0, 2)
    else:
        b = ints(m, -6, 6)

    y = ints(m, -2, 2)
    y = np.select([le, ge], [-np.abs(y), np.abs(y)], y)
    d = ints(n, -2, 2)
    d = np.select([kind == "lower", kind == "upper", free], [np.abs(d), -np.abs(d), 0.0], d)
    return A.T @ y + d, A, senses, b, lo, hi


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(equality_lps())
def test_equality_dominated_lps_match_oracle(lp):
    assert_matches_oracle(lp)


def assert_matches_oracle(lp):
    c, A, senses, b, lo, hi = lp
    p = build(c, A, senses, b, lo, hi)
    sol = solve_lp(p)
    status, obj, _ = brute_force_lp(c, A, senses, b, lo, hi)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(obj, abs=1e-7)
        assert check_point(p, sol.x, 1e-7).ok(1e-6)


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


def test_zero_column_lps_check_each_row_against_zero():
    def rows_only(senses, rhs, row_range):
        m = len(senses)
        return LpProblem(0, m, [], [], senses, rhs, [], [], row_range=row_range)

    # rows [-inf, 1], [-2, inf], [0, 0] and [-1, 1] all hold 0
    sol = solve_lp(rows_only(["<=", ">=", "=", "="], [1.0, -2.0, 0.0, 1.0],
                             [0.0, 0.0, 0.0, -2.0]))
    assert sol.status == "optimal"
    assert sol.x.shape == (0,) and sol.objective == 0.0
    assert sol.duals.tolist() == [0.0] * 4
    # rows [-inf, -1], [2, inf], [0, 0], [2, 3], [-4, -3]: 0 lies outside 0, 1, 3, 4
    sol = solve_lp(rows_only(["<=", ">=", "=", "=", ">="], [-1.0, 2.0, 0.0, 3.0, -4.0],
                             [0.0, 0.0, 0.0, -1.0, 1.0]))
    assert sol.status == "infeasible"
    assert sol.infeasible_rows == [0, 1, 3, 4]


def test_iteration_limit_reports_limit_status():
    for seed in (3, 5):  # 1 and 5 pivots
        rng = np.random.default_rng(seed)
        c, A, senses, b, lo, hi = random_instance(rng, feasible=True)
        p = build(c, A, senses, b, lo, hi)
        sol = solve_lp(p, SolveSettings(iteration_limit=1))
        assert sol.status in ("limit", "optimal")  # tiny instances may finish in 1
        # the limit is checked after pricing, so the last pivot may use it up
        full = solve_lp(p)
        assert full.status == "optimal" and full.iterations >= 1
        assert solve_lp(p, SolveSettings(iteration_limit=full.iterations)).status == "optimal"
        assert solve_lp(p, SolveSettings(iteration_limit=full.iterations - 1)).status == "limit"


def test_singular_basis_raises_lp_error():
    # columns 0 and 1 are equal, so a basis holding both is singular
    p = build([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["<=", "<="], [1.0, 2.0],
              [0.0, 0.0], [1.0, 1.0])
    core = _Core(p, SolveSettings())
    core.basis[:] = [0, 1]
    with pytest.raises(LpError, match="basis factorization failed"):
        core._refactor()


def single_steps(problem):
    """Drive `_Core` one iteration at a time: phase 1 when the start has
    artificials, then the objective, with no cleanup between the phases.

    Yields (core, k, p) after each iteration: k pivots since the last
    factorization, p the basis position of this iteration's pivot (None
    for a bound flip).  Only the basis, the counters and ftran/btran are
    read, so the check holds for any form of the eta file.
    """
    core = _Core(problem, SolveSettings())
    costs = np.zeros(core.x.size)
    costs[: core.n] = problem.objective
    phases = [(costs, 2)]
    if core.n_art:
        art = np.zeros(core.x.size)
        art[core.n + core.m:] = 1.0
        phases.insert(0, (art, 1))
    k, refactors = 0, core.stats.refactorizations
    for c, phase in phases:
        while True:
            before, done = core.basis.copy(), core.iterations
            core.settings = SolveSettings(iteration_limit=done + 1)
            status = core.run(c, phase)
            if core.iterations == done:  # optimal: no pivot was wanted
                break
            moved = np.nonzero(before != core.basis)[0]
            p = int(moved[0]) if moved.size else None
            if core.stats.refactorizations > refactors:
                k, refactors = 0, core.stats.refactorizations
            elif p is not None:
                k += 1
            yield core, k, p
            if status != "limit":
                break


def assert_eta_form_matches_dense(core, rng):
    B = core.full[:, core.basis].toarray()
    v, w = rng.normal(size=core.m), rng.normal(size=core.m)
    for got, ref in ((core.ftran(v), np.linalg.solve(B, v)),
                     (core.btran(w), np.linalg.solve(B.T, w))):
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_eta_form_matches_dense_solves_on_case_study_lp(case_study_lp):
    rng = np.random.default_rng(0)
    wanted = {1, 25, 49, 0}  # 0: just after a periodic refactorization
    for core, k, p in single_steps(case_study_lp):
        if p is not None and k in wanted and (k or core.stats.refactorizations > 1):
            assert_eta_form_matches_dense(core, rng)
            wanted.discard(k)
            if not wanted:
                break
    assert not wanted


@st.composite
def boxed_lps(draw):
    """Feasible LPs of 1-3 rows over 4-9 boxed columns: few rows and many
    columns make the same row pivot again and again."""
    def ints(k, a, b):
        return np.array(draw(st.lists(st.integers(a, b), min_size=k, max_size=k)), dtype=float)

    m, n = draw(st.integers(1, 3)), draw(st.integers(4, 9))
    A = ints(m * n, -3, 3).reshape(m, n)
    lo = ints(n, -2, 0)
    hi = lo + ints(n, 1, 4)
    senses = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    sign = np.select([np.array(senses) == "<=", np.array(senses) == ">="], [1.0, -1.0], 0.0)
    b = A @ (lo + ints(n, 0, 2) * (hi - lo) / 2) + sign * ints(m, 0, 2)
    return ints(n, -5, 5), A, senses, b, lo, hi


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(boxed_lps())
def test_eta_form_matches_dense_solves_when_a_row_pivots_twice(lp):
    rng = np.random.default_rng(1)
    pivoted, repeated = set(), False
    for core, k, p in single_steps(build(*lp)):
        if k == 0:
            pivoted.clear()
        if p is None:
            continue
        repeated |= p in pivoted
        pivoted.add(p)
        assert_eta_form_matches_dense(core, rng)
    assume(repeated)  # some row pivoted twice within one eta file


BLAND = "switching to Bland's rule"


def test_blands_rule_matches_oracle_and_solves_beale(monkeypatch, caplog):
    # with a stall limit of 1 the first degenerate iteration switches the
    # pricing and the leaving-row choice to Bland's rule
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 1)
    caplog.set_level("DEBUG", logger=simplex.__name__)
    switched = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(equality_lps())
    def check(lp):
        caplog.clear()
        assert_matches_oracle(lp)
        switched.append(BLAND in caplog.text)

    check()
    assert sum(switched) >= 10  # 23 of the 200 examples switch

    caplog.clear()
    test_beale_degenerate_example_terminates()
    assert BLAND in caplog.text


# -- warm starts ------------------------------------------------------------


@st.composite
def warm_cases(draw):
    """A small LP from either generator and a perturbation of it: a B&B
    child ("child": one column bound tightened past the optimum), a
    sibling scenario block ("sibling": rhs and bounds shifted), or a cost
    change that gives a nonbasic column a reduced cost of the wrong sign
    ("cost")."""
    lp = draw(st.one_of(equality_lps(), boxed_lps()))
    kind = draw(st.sampled_from(["child", "sibling", "cost"]))
    j = draw(st.integers(0, 5))
    upper = draw(st.booleans())
    step = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    rhs_shift = draw(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
    bound_shift = draw(st.lists(st.integers(-1, 1), min_size=9, max_size=9))
    return lp, (kind, j, upper, step, rhs_shift, bound_shift)


def perturb(lp, sol, how):
    """The perturbed LP data and what was done to it.  A "cost" change
    on a boxed column that keeps both bounds is a "flip": the warm start
    moves the column to its other bound.  Otherwise the column loses its
    far bound, and the start is dual infeasible ("cost").  With every
    column basic or free, "cost" turns into "child"."""
    c, A, senses, b, lo, hi = lp
    c, b, lo, hi = (np.array(v, dtype=float) for v in (c, b, lo, hi))  # copies
    kind, j, upper, step, rhs_shift, bound_shift = how
    n, m = c.size, b.size
    if kind == "cost":
        z = c - A.T @ sol.duals
        vstat = sol.basis.vstat[:n]
        cols = np.nonzero(((vstat == AT_LOWER) | (vstat == AT_UPPER)) & (lo < hi))[0]
        if cols.size:
            k = int(cols[j % cols.size])
            keep = upper and np.isfinite(lo[k]) and np.isfinite(hi[k])
            if vstat[k] == AT_LOWER:
                hi[k] = hi[k] if keep else np.inf
                c[k] -= z[k] + 1.0
            else:
                lo[k] = lo[k] if keep else -np.inf
                c[k] -= z[k] - 1.0
            return (c, A, senses, b, lo, hi), "flip" if keep else "cost"
        kind = "child"
    if kind == "child":
        k = j % n
        if upper:
            hi[k] = max(sol.x[k] - step, lo[k]) if np.isfinite(lo[k]) else sol.x[k] - step
        else:
            lo[k] = min(sol.x[k] + step, hi[k]) if np.isfinite(hi[k]) else sol.x[k] + step
        return (c, A, senses, b, lo, hi), "child"
    shift = np.array(bound_shift[:n], dtype=float)
    return (c, A, senses, b + np.array(rhs_shift[:m]), lo + shift, hi + shift), "sibling"


def warm_versus_cold(case):
    """Cold-solve the LP, perturb it, and solve the perturbed LP both cold
    and warm from the first basis; returns (kind, perturbed, cold, warm)."""
    lp, how = case
    sol = solve_lp(build(*lp))
    assume(sol.status == "optimal")
    changed, kind = perturb(lp, sol, how)
    p = build(*changed)
    cold, warm = solve_lp(p), solve_lp(p, basis=sol.basis)
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        assert check_point(p, warm.x, 1e-7).ok(1e-6)
    assert warm.stats.warm_starts == 1
    assert warm.iterations == warm.stats.iterations
    if warm.stats.warm_fallbacks:
        # the pivots of the abandoned attempt count against the limit too
        assert warm.iterations == cold.iterations + warm.stats.dual_iterations
    if kind == "cost":
        assert warm.stats.warm_fallbacks == 1
    else:
        # the start is dual feasible (after flips): only an infeasible LP,
        # a dual ray, sends the solve the cold way, and the dual simplex
        # leaves nothing for the primal certificate to do
        assert warm.stats.warm_fallbacks == (cold.status == "infeasible")
        assert warm.stats.warm_fallbacks or warm.stats.phase2_iterations == 0
    return kind, changed, cold, warm


def test_warm_start_from_own_basis_takes_no_pivots(case_study_lp):
    sol = solve_lp(case_study_lp)
    again = solve_lp(case_study_lp, basis=sol.basis)
    assert again.status == "optimal"
    assert again.iterations == 0 and again.stats.warm_fallbacks == 0
    assert abs(again.objective - sol.objective) <= 1e-9 * abs(sol.objective)


def test_warm_start_matches_cold_solves():
    seen = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(warm_cases())
    def check(case):
        kind, _, cold, warm = warm_versus_cold(case)
        seen.append((kind, cold.status, warm.stats.warm_fallbacks, warm.stats.dual_iterations))

    check()
    assert sum(k == "child" and s == "infeasible" for k, s, _, _ in seen) >= 5
    assert sum(k == "child" and s == "optimal" and d > 0 for k, s, _, d in seen) >= 5
    assert sum(k == "sibling" and s == "optimal" and d > 0 for k, s, _, d in seen) >= 5
    assert sum(k == "flip" and d > 0 for k, _, _, d in seen) >= 5
    assert sum(k == "cost" for k, _, _, _ in seen) >= 5  # dual-infeasible starts


def test_warm_start_rejects_a_basis_that_does_not_fit():
    p = build([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [0.0, 0.0], [2.0, 2.0])
    sol = solve_lp(p)
    # wrong shape; a head that repeats a column; a singular basis
    bad = [simplex.Basis(sol.basis.head[:0], sol.basis.vstat),
           simplex.Basis(np.array([0]), np.array([BASIC, BASIC, 0], dtype=np.int8))]
    q = build([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [">=", "<="], [1.0, 3.0],
              [0.0, 0.0], [2.0, 2.0])
    singular = simplex.Basis(np.array([0, 1]), np.array([BASIC, BASIC, 0, 0], dtype=np.int8))
    for problem, basis in [(p, bad[0]), (p, bad[1]), (q, singular)]:
        warm, cold = solve_lp(problem, basis=basis), solve_lp(problem)
        assert warm.stats.warm_fallbacks == 1
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


DUAL_BLAND = "dual: switching to Bland's rule"


def test_dual_blands_rule_matches_oracle(monkeypatch, caplog):
    # with a stall limit of 1 the first dual-degenerate pivot switches the
    # leaving row and the entering column to the lowest index
    monkeypatch.setattr(simplex, "_STALL_LIMIT", 1)
    caplog.set_level("DEBUG", logger=simplex.__name__)
    switched = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(warm_cases().filter(lambda case: case[1][0] != "cost"))  # oracle: no unbounded
    def check(case):
        caplog.clear()
        _, changed, cold, warm = warm_versus_cold(case)
        status, obj, _ = brute_force_lp(*changed)
        assert warm.status == status
        if status == "optimal":
            assert warm.objective == pytest.approx(obj, abs=1e-7)
        switched.append(DUAL_BLAND in caplog.text)

    check()
    assert sum(switched) >= 3  # 5 of the 150 examples switch
