from pathlib import Path

import numpy as np
import pytest

from mgsched.lpcore import (
    LpError,
    LpProblem,
    MpsFormatError,
    export_mps,
    parse_mps,
    solve_lp,
)
from oracles import export_mps_by_column

GOLDEN = Path(__file__).parent / "golden"


def test_empty_problem_round_trips():
    p = LpProblem(0, 0, [], [], [], [], [], [], name="EMPTY")
    text = export_mps(p)
    q = parse_mps(text)
    assert q.n_cols == 0 and q.n_rows == 0
    assert export_mps(q) == text
    assert "ROWS" in text and "ENDATA" in text


def golden_single():
    return LpProblem(1, 1, [2.5], [(0, 0, 1.0)], [">="], [3.0], [0.0], [10.0],
                     name="SINGLE")


def golden_mixed():
    return LpProblem(
        4, 3,
        [1.0, -2.5, 0.0035, 0.0],
        [(0, 0, 1.0), (0, 1, 2.0), (1, 1, -1.0), (1, 2, 1 / 0.9), (2, 3, 4.0)],
        ["<=", "=", ">="], [4.0, 1.5, -2.0],
        [0.0, -np.inf, 0.5, -np.inf], [1.0, 3.0, 0.5, np.inf],
        binary_cols=[0], row_range=[2.0, 0.0, 0.0], name="MIXED",
    )


@pytest.mark.parametrize("name,maker", [
    ("single", golden_single),
    ("mixed", golden_mixed),
])
def test_golden_files_byte_exact(name, maker):
    expected = (GOLDEN / f"{name}.mps").read_text()
    assert export_mps(maker()) == expected


def test_golden_microgrid_fixture_round_trips():
    text = (GOLDEN / "microgrid.mps").read_text()
    p = parse_mps(text)
    assert export_mps(p) == text
    sol = solve_lp(p)
    assert sol.status == "optimal"


def test_round_trip_preserves_problem_semantics():
    rng = np.random.default_rng(13)
    for _ in range(15):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        A = np.round(rng.normal(size=(m, n)), 3)
        A[rng.random(size=A.shape) < 0.4] = 0.0
        senses = [["<=", ">=", "="][int(rng.integers(0, 3))] for _ in range(m)]
        b = np.round(rng.normal(size=m), 3)
        lo = np.round(rng.uniform(-3, 0, n), 2)
        hi = lo + np.round(rng.uniform(0, 4, n), 2)
        lo[rng.random(n) < 0.2] = -np.inf
        hi[rng.random(n) < 0.2] = np.inf
        c = rng.normal(size=n)  # full-precision floats must survive
        trips = [(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0]
        p = LpProblem(n, m, c, trips, senses, b, lo, hi)
        text = export_mps(p)
        q = parse_mps(text)
        assert export_mps(q) == text
        assert np.array_equal(q.objective, p.objective)
        assert np.array_equal(q.tri_vals, p.tri_vals)
        assert np.array_equal(q.tri_rows, p.tri_rows)
        assert np.array_equal(q.tri_cols, p.tri_cols)
        assert np.array_equal(q.lower_inf(), p.lower_inf())
        assert np.array_equal(q.upper_inf(), p.upper_inf())
        assert np.array_equal(q.row_sense, p.row_sense)


def test_binary_columns_emit_bv_and_round_trip():
    p = LpProblem(2, 1, [1.0, 1.0], [(0, 0, 1.0), (0, 1, 1.0)], ["<="], [1.0],
                  [0.0, 0.0], [1.0, 1.0], binary_cols=[0, 1])
    text = export_mps(p)
    assert " BV " in text
    q = parse_mps(text)
    assert q.binary_cols == frozenset({0, 1})
    assert export_mps(q) == text


def test_fixed_binary_keeps_its_bounds():
    p = LpProblem(1, 0, [1.0], [], [], [], [1.0], [1.0], binary_cols=[0])
    q = parse_mps(export_mps(p))
    assert q.binary_cols == frozenset({0})
    assert q.col_lower[0] == q.col_upper[0] == 1.0


def test_parser_accepts_integer_markers():
    text = """NAME          EXT
ROWS
 N  obj
 L  r1
COLUMNS
    x1        obj       1.0   r1        1.0
    MARKER1   'MARKER'  'INTORG'
    y1        obj       2.0   r1        1.0
    MARKER2   'MARKER'  'INTEND'
RHS
    RHS       r1        1.0
BOUNDS
 UP BND       y1        1.0
ENDATA
"""
    p = parse_mps(text)
    assert p.n_cols == 2
    assert 1 in p.binary_cols
    # two-pairs-per-line form parsed
    assert p.tri_vals.tolist() == [1.0, 1.0]


def test_nan_bound_token_rejected():
    text = export_mps(golden_single()).replace(" UP BND       C0001     10.0",
                                               " UP BND       C0001     nan")
    assert "nan" in text
    with pytest.raises(LpError, match="NaN column bound"):
        parse_mps(text)


def test_parser_rejects_garbage():
    with pytest.raises(MpsFormatError):
        parse_mps("GIBBERISH\n FOO\n")
    with pytest.raises(MpsFormatError):
        parse_mps("NAME X\nROWS\n Z  r1\nENDATA\n")
    with pytest.raises(MpsFormatError):
        parse_mps("NAME X\nROWS\n N obj\nCOLUMNS\n    c1 missing 1.0\nENDATA\n")


# (lower, upper) pairs that reach every BOUNDS branch: FX (also at -0.0 and
# at an infinity), FR, MI + UP, LO + UP with a negative UP, LO alone, UP
# alone, and -0.0 bounds that are written as 0.0
CONTINUOUS_BOUNDS = [(0.0, np.inf), (-np.inf, np.inf), (-np.inf, 3.5), (-np.inf, -0.0),
                     (2.0, 2.0), (-0.0, -0.0), (np.inf, np.inf), (-np.inf, -np.inf),
                     (-5.0, -2.0), (0.0, 7.0), (-0.0, 7.0), (1.5, np.inf), (-1.0, -0.0)]
# binary columns: plain, FX at 1 and 0, LO, UP, both, and -0.0 bounds
BINARY_BOUNDS = [(0.0, 1.0), (1.0, 1.0), (0.0, 0.0), (-0.0, -0.0), (0.5, 1.0), (0.0, 0.5),
                 (0.25, 0.75), (-0.0, 1.0)]


def oracle_cases():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m, n = int(rng.integers(0, 7)), int(rng.integers(1, 12))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.5)
        A[:, rng.random(n) < 0.25] = 0.0  # empty columns
        A[rng.random((m, n)) < 0.1] = 1.0  # repeated values
        trips = [(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0]

        def draw(size, *specials):
            v = rng.normal(size=size)
            pick = rng.random(size) < 0.5
            v[pick] = rng.choice(np.array([0.0, -0.0, 1.0, *specials]), size=int(pick.sum()))
            return v

        binary = rng.random(n) < 0.3
        pools = [BINARY_BOUNDS if b else CONTINUOUS_BOUNDS for b in binary]
        pairs = np.array([pool[rng.integers(len(pool))] for pool in pools]).reshape(n, 2)
        senses = [("=", "<=", ">=")[k] for k in rng.integers(0, 3, m)]
        ranges = draw(m, 1e16, 5e-324) if rng.random() < 0.5 else None
        yield LpProblem(n, m, draw(n, 1e16), trips, senses, draw(m, 5e-324), pairs[:, 0],
                        pairs[:, 1], binary_cols=np.flatnonzero(binary), row_range=ranges, name="ORACLE")


def test_export_matches_the_per_column_writer():
    kinds = set()
    for p in oracle_cases():
        text = export_mps(p)
        assert text == export_mps_by_column(p)
        assert export_mps(parse_mps(text)) == text
        kinds.update(line[:4] for line in text.splitlines() if line[:1] == " ")
        kinds.update(line for line in text.splitlines() if line == "RANGES")
    assert {" BV ", " FX ", " FR ", " MI ", " LO ", " UP ", "RANGES"} <= kinds


@pytest.mark.parametrize("name", ["single", "mixed", "microgrid"])
def test_golden_files_match_the_per_column_writer(name):
    p = parse_mps((GOLDEN / f"{name}.mps").read_text())
    assert export_mps(p) == export_mps_by_column(p)
