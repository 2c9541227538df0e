from itertools import product

import numpy as np
import pytest

from mgsched.lpcore import LpError, LpProblem, SolveSettings, check_point, solve_lp
from mgsched.lpcore.problem import SENSES
from oracles import row_bounds_by_row


def tiny_problem():
    return LpProblem(
        n_cols=2, n_rows=2,
        objective=[1.0, 2.0],
        triplets=[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)],
        row_sense=[">=", "<="],
        rhs=[2.0, 3.0],
        col_lower=[0.0, 0.0],
        col_upper=[10.0, 10.0],
    )


def test_triplets_are_canonicalized():
    p = LpProblem(
        n_cols=2, n_rows=1,
        objective=[0.0, 0.0],
        triplets=[(0, 1, 2.0), (0, 0, 1.0), (0, 1, 3.0), (0, 0, -1.0)],
        row_sense=["="], rhs=[1.0],
        col_lower=[0, 0], col_upper=[1, 1],
    )
    # duplicates merged, zeros dropped, sorted by (col, row)
    assert p.matrix_csc().indptr.tolist() == [0, 0, 1]  # one entry, in column 1
    assert p.matrix_csc().indices.tolist() == [0]
    assert p.tri_vals.tolist() == [5.0]


@pytest.mark.parametrize("mutate,msg", [
    (dict(objective=[1.0]), "objective"),
    (dict(rhs=[1.0, 2.0]), "rhs"),
    (dict(row_sense=["<<"]), "sense"),
    (dict(triplets=[(5, 0, 1.0)]), "row index"),
    (dict(triplets=[(0, 7, 1.0)]), "column index"),
    (dict(triplets=[(0, 0, np.nan)]), "NaN"),
    (dict(col_lower=[5.0, 5.0], col_upper=[0.0, 0.0]), "col_lower"),
    (dict(row_sense=["<=="]), "sense"),  # would pass if cut to two characters first
    (dict(triplets=[(0, 0.5, 1.0)]), "not an integer"),
    (dict(triplets=np.array([[0.0, 0.0]])), r"\(row, col, value\) triples"),
    (dict(col_lower=[np.nan, 0.0]), "NaN column bound"),
    (dict(col_upper=[1.0, np.nan]), "NaN column bound"),
])
def test_malformed_problems_rejected(mutate, msg):
    base = dict(
        n_cols=2, n_rows=1, objective=[1.0, 1.0], triplets=[(0, 0, 1.0)],
        row_sense=["="], rhs=[1.0], col_lower=[0.0, 0.0], col_upper=[1.0, 1.0],
    )
    base.update(mutate)
    with pytest.raises(LpError, match=msg):
        LpProblem(**base)


def test_matrix_entries_are_triples_in_every_form():
    # a tuple of exactly three entries once read as (rows, cols, vals)
    entries = [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]

    def matrix(triplets):
        return LpProblem(3, 3, [0.0] * 3, triplets, ["="] * 3, [1.0] * 3, [0.0] * 3,
                         [1.0] * 3).matrix_csc().toarray()

    assert matrix(entries).tolist() == np.diag([1.0, 2.0, 3.0]).tolist()
    assert matrix(tuple(entries)).tolist() == matrix(entries).tolist()
    assert matrix(np.array(entries)).tolist() == matrix(entries).tolist()


def test_unnamed_problem_has_default_names_shared_by_copies():
    p = LpProblem(2, 2, [1.0, 2.0], [(0, 0, 1.0), (1, 1, 1.0)], ["=", "="], [1.0, 1.0],
                  [0.0, 0.0], [5.0, 5.0])
    assert p.row_names == ["R0001", "R0002"]
    assert p.col_names == ["C0001", "C0002"]
    q = p.with_data(rhs=[2.0, 2.0])
    assert q.row_names is p.row_names and q.col_names is p.col_names


def test_nan_bounds_rejected_by_with_data():
    # solve_lp once took a NaN lower bound as "optimal" at the upper bound
    p = LpProblem(1, 1, [1.0], [(0, 0, 1.0)], [">="], [1.0], [0.0], [5.0])
    for bounds in (dict(col_lower=[np.nan]), dict(col_upper=[np.nan])):
        with pytest.raises(LpError, match="NaN column bound"):
            p.with_data(**bounds)


@pytest.mark.parametrize("rhs", [np.inf, -np.inf])
def test_infinite_rhs_rejected_at_construction(rhs):
    with pytest.raises(LpError, match="infinite right-hand side"):
        LpProblem(1, 1, [1.0], [(0, 0, 1.0)], ["<="], [rhs], [0.0], [1.0])


def test_nan_row_range_rejected_at_construction():
    # a NaN range would otherwise solve as if the row had no far side
    with pytest.raises(LpError, match="NaN row range"):
        LpProblem(1, 1, [1.0], [(0, 0, 1.0)], [">="], [1.0], [0.0], [5.0], row_range=[np.nan])


def test_binary_bounds_must_fit_unit_interval():
    with pytest.raises(LpError, match="binary"):
        LpProblem(1, 0, [1.0], [], [], [], [0.0], [2.0], binary_cols=[0])


def test_bounds_beyond_bound_inf_read_as_infinite():
    # min -x0 + x1 s.t. x0 + x1 <= 4, x0 free, x1 >= -1: x = (5, -1)
    def problem(lower, upper):
        return LpProblem(2, 1, [-1.0, 1.0], [(0, 0, 1.0), (0, 1, 1.0)], ["<="], [4.0],
                         lower, upper)

    ref = problem([-np.inf, -1.0], [np.inf, np.inf])
    given = problem([-1e30, -1.0], [1e30, 2e30])
    patched = ref.with_data(col_lower=[-1e30, -1.0], col_upper=[1e30, 2e30])
    want = solve_lp(ref)
    assert want.x.tolist() == [5.0, -1.0]
    for p in (given, patched):
        assert p.lower_inf().tolist() == [-np.inf, -1.0]
        assert p.upper_inf().tolist() == [np.inf, np.inf]
        assert check_point(p, [-1e31, 3e30]).max_bound_violation == 0.0
        sol = solve_lp(p)
        assert sol.x.tobytes() == want.x.tobytes()
        assert sol.iterations == want.iterations


def test_check_point_on_optimal_point():
    p = tiny_problem()
    sol = solve_lp(p, SolveSettings())
    rep = check_point(p, sol.x, 1e-7)
    assert rep.ok(1e-7)
    assert rep.objective == pytest.approx(sol.objective)


def test_check_point_localizes_perturbation():
    p = tiny_problem()
    sol = solve_lp(p, SolveSettings())
    x = sol.x.copy()
    x[1] += 1.0  # touches row 0 (>=, helps) and row 1 (<=) only
    rep = check_point(p, x, 1e-7)
    assert set(rep.row_violations) <= {1}
    # perturbing in the harmful direction flags the <= row it touches
    x2 = sol.x.copy()
    x2[0] -= 1.0
    rep2 = check_point(p, x2, 1e-7)
    assert 0 in rep2.row_violations or rep2.max_bound_violation > 0


def test_check_point_respects_ranges():
    p = LpProblem(
        n_cols=1, n_rows=1, objective=[0.0], triplets=[(0, 0, 1.0)],
        row_sense=["<="], rhs=[3.0], col_lower=[-10], col_upper=[10],
        row_range=[2.0],
    )
    assert check_point(p, np.array([2.5]), 1e-9).ok(1e-9)
    assert not check_point(p, np.array([0.0]), 1e-9).ok(1e-9)  # below 3 - 2
    assert not check_point(p, np.array([3.5]), 1e-9).ok(1e-9)


def rows_only(senses, rhs, row_range=None):
    m = len(senses)
    return LpProblem(n_cols=0, n_rows=m, objective=[], triplets=[], row_sense=senses, rhs=rhs,
                     col_lower=[], col_upper=[], row_range=row_range)


def assert_row_bounds_match_per_row_rule(p):
    for got, ref in zip(p.row_bounds(), row_bounds_by_row(p)):
        assert got.tobytes() == ref.tobytes()  # bit for bit, signed zeros too


def test_row_bounds_match_per_row_rule_for_every_sense_and_range_sign():
    pairs = list(product(SENSES, (0.0, -0.0, 2.5, -2.5), (1.5, -1.5, 0.0)))
    senses, ranges, rhs = (list(v) for v in zip(*pairs))
    assert_row_bounds_match_per_row_rule(rows_only(senses, rhs, ranges))
    assert_row_bounds_match_per_row_rule(rows_only(senses, rhs))  # no ranges at all


def test_row_bounds_match_per_row_rule_on_random_ranged_rows():
    rng = np.random.default_rng(7)
    m = 400
    senses = [SENSES[i] for i in rng.integers(0, 3, m)]
    rhs = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4, m)
    ranges = np.where(rng.random(m) < 0.3, 0.0, rng.normal(size=m) * 10.0 ** rng.integers(-3, 4, m))
    rhs[:5] = [1e308, -1e308, 0.0, 1e300, -1e300]  # extreme, but finite
    assert_row_bounds_match_per_row_rule(rows_only(senses, rhs, ranges))

