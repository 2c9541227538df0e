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
from oracles import export_mps_by_column, parse_mps_by_branch

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
        assert np.array_equal(q.matrix_csc().indices, p.matrix_csc().indices)
        assert np.array_equal(q.matrix_csc().indptr, p.matrix_csc().indptr)
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


# Mutations of exported MPS text that stay well formed line by line: every
# data line keeps its fields, and a row name is declared once.  Each takes
# the text's lines (section headers at column 0) and an rng.
def _is_header(line):
    return line[:1] not in " \t*" and line.strip()


def _data_lines(lines, sections):
    """Indices of the data lines under any of `sections`."""
    at, section = [], None
    for i, line in enumerate(lines):
        if _is_header(line):
            section = line.split()[0].upper()
        elif section in sections and line.strip() and not line.lstrip().startswith("*"):
            at.append(i)
    return at


def _header(lines, name):
    """The index of a section's header, or the end of the text."""
    return next((i for i, line in enumerate(lines)
                 if _is_header(line) and line.split()[0].upper() == name), len(lines))


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def _comment(lines, rng):
    lines.insert(int(rng.integers(len(lines) + 1)),
                 str(rng.choice(["* a comment", "   * indented comment", "", "  \t ", "*"])))


def _extra_n_row(lines, rng):
    at = min(_header(lines, "ROWS") + 1 + int(rng.integers(3)), _header(lines, "COLUMNS"))
    lines.insert(at, f" {rng.choice(['N', 'n'])}  FREE{rng.integers(1000)}")


def _objective_rhs(lines, rng):
    value = rng.choice(["5.0", "-0.0", "not-a-number"])  # never converted
    lines.insert(_header(lines, "RHS") + 1, f"    RHS       COST      {value}")


def _pl_or_mi_bound(lines, rng):
    """A PL or MI line anywhere in BOUNDS, for a column or a new one."""
    at = int(rng.integers(_header(lines, "BOUNDS"), _header(lines, "ENDATA"))) + 1
    line = f" {rng.choice(['PL', 'MI'])} BND       {rng.choice(['C0001', 'C0002', 'NEWCOL'])}"
    lines.insert(at, line)


def _marker_block(lines, rng):
    at = _data_lines(lines, {"COLUMNS"})
    if at:
        i, k = sorted(int(v) for v in rng.choice(at, 2))
        lines.insert(k + 1, "    MARKER2   'MARKER'                 'INTEND'")
        lines.insert(i, "    MARKER1   'MARKER'  " + rng.choice(["'INTORG'", "'OTHER'"]))


def _pairs_per_line(lines, rng):
    at = _data_lines(lines, {"COLUMNS", "RHS", "RANGES"})
    for i in at[int(rng.integers(len(at))) if at else 0:]:
        if i + 1 in at and lines[i].split()[0] == lines[i + 1].split()[0]:
            lines[i:i + 2] = ["    " + "  ".join(lines[i].split() + lines[i + 1].split()[1:])]
            return


def _unknown_row(lines, rng):
    """An undeclared row, and at times a bad value beside it: COLUMNS
    converts the value first, RHS and RANGES look up the row first."""
    at = _data_lines(lines, {"COLUMNS", "RHS", "RANGES"})
    if at:
        i = int(rng.choice(at))
        tok = lines[i].split()
        tok[1] = "COST" if i in _data_lines(lines, {"RANGES"}) else "NOSUCH"
        tok[2] = str(rng.choice([tok[2], "x"]))
        lines[i] = "    " + "  ".join(tok)


def _bound_kind(lines, rng):
    at = _data_lines(lines, {"BOUNDS"})
    if at:
        i = int(rng.choice(at))
        tok = lines[i].split()
        # a valued kind keeps its value; an unvalued kind ignores one
        kinds = ["lo", "Up", "FX", "XX"] if len(tok) > 3 else ["BV", "fr", "MI", "PL", "XX"]
        lines[i] = " " + "  ".join([str(rng.choice(kinds))] + tok[1:])


def _unknown_section(lines, rng):
    lines.insert(1 + int(rng.integers(len(lines) - 1)), str(rng.choice(["FOO", "OBJSENSE"])))


def _data_before_sections(lines, rng):
    lines.insert(int(rng.integers(2)), str(rng.choice([" N  COST", "    C0001  COST  1.0"])))


def _bad_number(lines, rng):
    at = _data_lines(lines, {"COLUMNS", "RHS", "RANGES", "BOUNDS"})
    at = [i for i in at if _is_number(lines[i].split()[-1])]
    if at:
        i = int(rng.choice(at))
        lines[i] = lines[i].rsplit(None, 1)[0] + "  " + rng.choice(["1.0.0", "x", "nan"])


def _repeat_line(lines, rng):
    at = _data_lines(lines, {"COLUMNS", "RHS", "RANGES", "BOUNDS"})
    if at:
        i = int(rng.choice(at))
        line = lines[i]
        if _is_number(line.split()[-1]):
            line = line.rsplit(None, 1)[0] + "  " + repr(float(rng.normal()))
        lines.insert(i + int(rng.integers(2)), line)


def _layout(lines, rng):
    """Tabs, lower-case headers, a bare NAME, no ENDATA or text after it."""
    choice = int(rng.integers(5))
    if choice == 0:
        lines[:] = [line.replace("    ", "\t", 1) for line in lines]
    elif choice == 1:
        lines[:] = [line.lower() if line in ("ROWS", "RHS", "BOUNDS") else line for line in lines]
    elif choice == 2:
        lines[_header(lines, "NAME")] = str(rng.choice(["NAME", "name  lower  extra"]))
    elif choice == 3:
        del lines[_header(lines, "ENDATA"):]
    else:
        lines += ["GARBAGE", " ?? after the end"]


MUTATIONS = [_comment, _extra_n_row, _objective_rhs, _pl_or_mi_bound, _marker_block,
             _pairs_per_line, _unknown_row, _bound_kind, _unknown_section, _data_before_sections,
             _bad_number, _repeat_line, _layout]


def parity_corpus():
    rng = np.random.default_rng(2024)
    bases = [p.read_text() for p in sorted(GOLDEN.rglob("*.mps"))]
    bases += [export_mps(p) for p in oracle_cases()]
    for text in bases:
        yield text, ()
        for _ in range(12):
            lines = text.splitlines()
            applied = rng.choice(MUTATIONS, int(rng.integers(1, 4)))
            for mutate in applied:
                mutate(lines, rng)
            yield "\n".join(lines) + "\n", [m.__name__ for m in applied]


def _outcome(parse, text):
    """A problem's arrays, marks and names as bytes, or the raised
    exception's type and message."""
    try:
        p = parse(text)
    except Exception as e:  # compared, never swallowed
        return type(e), str(e)
    A = p.matrix_csc()
    arrays = (p.objective, p.rhs, p.col_lower, p.col_upper, p.row_sense, A.data, A.indices,
              A.indptr, p.row_range if p.row_range is not None else np.zeros(0, dtype=np.int8))
    return ([a.dtype.str + a.tobytes().hex() for a in arrays], p.row_range is None,
            sorted(p.binary_cols), p.row_names, p.col_names, p.name, p.n_rows, p.n_cols)


def test_parser_matches_the_branch_per_section_reference():
    corpus = list(parity_corpus())
    applied, parsed, raised = set(), set(), []
    for text, mutations in corpus:
        expected = _outcome(parse_mps_by_branch, text)
        assert _outcome(parse_mps, text) == expected, (mutations, text)
        applied.update(mutations)
        if isinstance(expected[0], type):
            raised.append(expected[0])
        else:
            parsed.update(mutations)
    names = {m.__name__ for m in MUTATIONS}
    assert applied == names
    # every mutation that can leave a text valid did so at least once
    assert parsed == names - {"_unknown_row", "_unknown_section", "_data_before_sections",
                              "_bad_number"}
    assert set(raised) == {MpsFormatError, ValueError, LpError}
    assert 0.2 * len(corpus) < len(raised) < 0.8 * len(corpus)


@pytest.mark.parametrize("lines, section", [
    ("COLUMNS\n    C1  COST  1.0  R1\n", "COLUMNS"),
    ("COLUMNS\n    C1  R1  1.0\nRHS\n    R1  2.0\n", "RHS"),
    ("COLUMNS\n    C1  R1  1.0\nRANGES\n    RNG  R1  2.0  R1\n", "RANGES"),
    ("ROWS\n L  R1\nCOLUMNS\n    C1  R1  1.0\n", "duplicate row 'R1'"),
    ("ROWS\n G\nCOLUMNS\n    C1  R1  1.0\n", "ROWS line"),
    ("COLUMNS\n    C1  R1  1.0\nBOUNDS\n UP BND  C1\n", "BOUNDS line"),
    ("COLUMNS\n    C1  R1  1.0\nBOUNDS\n FR BND\n", "BOUNDS line"),
], ids=["columns-dangling-row", "rhs-without-set-name", "ranges-dangling-row",
        "row-declared-twice", "rows-missing-name", "bound-missing-value",
        "bound-missing-column"])
def test_parser_rejects_malformed_data_lines(lines, section):
    text = "NAME  BAD\nROWS\n N  COST\n L  R1\n" + lines + "ENDATA\n"
    with pytest.raises(MpsFormatError, match=section):
        parse_mps(text)
