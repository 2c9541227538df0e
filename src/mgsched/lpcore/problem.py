"""Sparse linear-program container and point feasibility checks.

A problem takes its matrix as (row, col, value) entries and holds it as
one canonical scipy CSC matrix, with per-column bounds, optional binary
marks, and row and column names.  Minimization is the only objective
sense.  Bounds with magnitude >= BOUND_INF are infinite, mirroring the
convention of most solver interchange formats: the constructor and
`LpProblem.with_data` store them as infinities, so the given bound
arrays are converted, never kept as they are.

Problems that differ only in rhs and bounds (the scenario blocks of one
template, the nodes of one branch-and-bound search) are shallow copies
made by `LpProblem.with_data`.  They share the matrix and the simplex's
sparse workspace, which is built on the first solve of any of them.
"""

import copy
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

BOUND_INF = 1e30

# the solver's fixed tolerances
FEASIBILITY_TOL = 1e-7  # on rows, bounds and phase 1's artificials
OPTIMALITY_TOL = 1e-7  # on the reduced costs that decide optimality
INTEGRALITY_TOL = 1e-6  # on a binary column's distance from 0 or 1

SENSES = ("=", "<=", ">=")


class LpError(ValueError):
    """Malformed problem or an operation applied to an unusable solution."""


@dataclass(frozen=True)
class SolveSettings:
    """Work limits, None for none (the `branch_bound` module doc says what
    each counts); the tolerances are the constants above, not settings."""
    node_limit: int | None = None
    iteration_limit: int | None = None

    def __post_init__(self):
        for name in ("node_limit", "iteration_limit"):
            limit = getattr(self, name)
            if limit is not None and (isinstance(limit, bool)
                                      or not isinstance(limit, numbers.Integral) or limit < 0):
                raise LpError(f"{name} must be null or an integer >= 0, got {limit!r}")


class LpProblem:
    """Immutable sparse LP: min c'x s.t. row senses/ranges, l <= x <= u.

    `triplets` are the (row, col, value) entries of the matrix, a sequence
    of triples or one (nnz, 3) array.  The matrix is held once, as a
    canonical CSC matrix: entries sorted by (column, row), duplicates
    summed, exact zeros dropped.  Exporters rely on this order being
    stable.  Senses are one read-only "U2" array, bounds beyond
    +-BOUND_INF are stored as infinities, and names default to
    R0001.../C0001....
    """

    def __init__(self, n_cols, n_rows, objective, triplets, row_sense, rhs,
                 col_lower, col_upper, binary_cols=(), row_range=None,
                 row_names=None, col_names=None, name="LP"):
        self.n_cols = n = int(n_cols)
        self.n_rows = m = int(n_rows)
        self.objective = np.array(objective, dtype=float)
        if self.objective.shape != (n,):
            raise LpError("objective length != n_cols")
        if not np.all(np.isfinite(self.objective)):
            raise LpError("NaN or infinite objective coefficient")
        # checked before the conversion, which would cut "<==" to "<="
        sense = np.asarray(row_sense)
        if sense.shape != (m,):
            raise LpError("row_sense length != n_rows")
        unknown = sense[~np.isin(sense, SENSES)]
        if unknown.size:
            raise LpError(f"unknown row sense {unknown[0].item()!r}")
        self.row_sense = _read_only(sense.astype("U2"))
        self._set_data(np.array(rhs, dtype=float), col_lower, col_upper)
        if row_range is None:
            self.row_range = None
        else:
            self.row_range = np.array(row_range, dtype=float)
            if self.row_range.shape != (m,):
                raise LpError("row_range length != n_rows")
            if np.any(np.isnan(self.row_range)):
                raise LpError("NaN row range")
        self._matrix = _csc(triplets, m, n)
        bins = np.fromiter(binary_cols, dtype=np.int64)
        if np.any((bins < 0) | (bins >= n)):
            raise LpError("binary column index out of range")
        outside = bins[(self.col_lower[bins] < -1e-12) | (self.col_upper[bins] > 1 + 1e-12)]
        if outside.size:
            raise LpError(f"binary column {outside.min()} has bounds outside [0, 1]")
        self.binary_cols = frozenset(bins.tolist())
        self.row_names = (list(row_names) if row_names is not None
                          else [f"R{i + 1:04d}" for i in range(m)])
        self.col_names = (list(col_names) if col_names is not None
                          else [f"C{j + 1:04d}" for j in range(n)])
        if len(self.row_names) != m:
            raise LpError("row_names length != n_rows")
        if len(self.col_names) != n:
            raise LpError("col_names length != n_cols")
        self.name = name
        # the simplex workspace, filled on first use and shared by copies
        self._workspace = []

    def _set_data(self, rhs, col_lower, col_upper):
        """Check and store the rhs and the column bounds, the data that
        `with_data` replaces; bounds beyond +-BOUND_INF become infinite."""
        self.rhs = np.asarray(rhs, dtype=float)
        if self.rhs.shape != (self.n_rows,):
            raise LpError("rhs length != n_rows")
        if not np.all(np.isfinite(self.rhs)):
            raise LpError("NaN or infinite right-hand side")
        lo = np.asarray(col_lower, dtype=float)
        hi = np.asarray(col_upper, dtype=float)
        if lo.shape != (self.n_cols,) or hi.shape != (self.n_cols,):
            raise LpError("bounds length != n_cols")
        self.col_lower = _read_only(np.where(lo <= -BOUND_INF, -np.inf, lo))
        self.col_upper = _read_only(np.where(hi >= BOUND_INF, np.inf, hi))
        if not np.all(self.col_lower <= self.col_upper):  # false for a NaN bound too
            raise LpError("col_lower > col_upper, or a NaN column bound")

    def with_data(self, rhs=None, col_lower=None, col_upper=None):
        """This problem with another rhs and column bounds, where given.

        A shallow copy: the matrix, objective, senses, names, binary marks
        and the simplex workspace are the same objects as this problem's.
        The new data get the construction checks; the bounds are converted
        to infinities like the constructor's, into new arrays, while a
        given rhs is taken as it is (not copied), so treat it as read-only.
        """
        new = copy.copy(self)
        new._set_data(self.rhs if rhs is None else rhs,
                      self.col_lower if col_lower is None else col_lower,
                      self.col_upper if col_upper is None else col_upper)
        return new

    # -- derived views ----------------------------------------------------

    def lower_inf(self):
        """Lower bounds, -inf where unbounded (the stored array)."""
        return self.col_lower

    def upper_inf(self):
        """Upper bounds, +inf where unbounded (the stored array)."""
        return self.col_upper

    @property
    def tri_vals(self):
        """Value of each matrix entry, in (column, row) order."""
        return self._matrix.data

    def row_bounds(self):
        """Per-row activity interval [blo, bhi] implied by sense and range.

        An `=` row with range r spans [b, b + r] for r > 0 and [b + r, b]
        for r < 0; a `<=` row [b - |r|, b] and a `>=` row [b, b + |r|],
        open on the far side when r is 0.
        """
        sense = self.row_sense
        eq, le, ge = sense == "=", sense == "<=", sense == ">="
        b = self.rhs
        r = np.zeros(self.n_rows) if self.row_range is None else self.row_range
        ranged = r != 0.0
        # np.select's rule (the first true case wins) as nested np.where,
        # which costs less on the short rows of a scenario block
        blo = np.where(ge | (eq & (r >= 0.0)), b,
                       np.where(eq, b + r, np.where(ranged, b - np.abs(r), -np.inf)))
        bhi = np.where(le | (eq & ~(r > 0.0)), b,
                       np.where(eq, b + r, np.where(ranged, b + np.abs(r), np.inf)))
        return blo, bhi

    def matrix_csc(self):
        """The constraint matrix as a read-only scipy CSC matrix, the same
        object on every call and in every copy `with_data` makes."""
        return self._matrix

    def workspace(self):
        """([A | I], [A | I]'): the matrix with one slack column per row
        appended, and its transpose, as the simplex's equality form
        A x + s = b uses them.  Built on the first call and then shared by
        this problem and every copy `with_data` makes of it, before or
        after; read-only."""
        if not self._workspace:
            import scipy.sparse as sp

            full = sp.hstack([self._matrix, sp.identity(self.n_rows, format="csc")],
                             format="csc")
            self._workspace.append((full, full.T))
        return self._workspace[0]


def _read_only(a):
    a.flags.writeable = False
    return a


def _csc(triplets, m, n):
    """The m x n CSC matrix of (row, col, value) entries, a sequence of
    triples or one (nnz, 3) array, checked and made canonical."""
    import scipy.sparse as sp

    entries = np.asarray(triplets, dtype=float)
    if entries.shape == (0,):  # an empty sequence
        entries = entries.reshape(0, 3)
    if entries.ndim != 2 or entries.shape[1] != 3:
        raise LpError(f"matrix entries must be (row, col, value) triples, not {entries.shape}")
    index = entries[:, :2]
    if not np.array_equal(index, np.trunc(index)):  # NaN fails too
        raise LpError("triplet index is not an integer")
    for k, (axis, size) in enumerate((("row", m), ("column", n))):
        if np.any((index[:, k] < 0) | (index[:, k] >= size)):
            raise LpError(f"triplet {axis} index out of range")
    rows, cols = index.astype(np.int64).T
    vals = entries[:, 2]
    if not np.all(np.isfinite(vals)):
        raise LpError("NaN or infinite coefficient in matrix")
    # sorts by (column, row) and sums duplicates
    A = sp.csc_matrix((vals, (rows, cols)), shape=(m, n))
    A.eliminate_zeros()
    for a in (A.data, A.indices, A.indptr):
        _read_only(a)
    return A


@dataclass
class SolverStats:
    """Counters of one LP solve, or summed over several with `add`.

    `warm_starts` counts LPs started from a given basis, `warm_fallbacks`
    those of them that went on to the cold path; iterations spent before
    a fallback stay counted.  `nodes` counts branch-and-bound node LPs,
    the root included; a plain LP solve leaves it at 0.
    """
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    dual_iterations: int = 0
    refactorizations: int = 0
    bland_switches: int = 0
    warm_starts: int = 0
    warm_fallbacks: int = 0
    nodes: int = 0

    @property
    def iterations(self):
        return self.phase1_iterations + self.phase2_iterations + self.dual_iterations

    def add(self, other: "SolverStats"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class Basis:
    """A simplex basis over the structural and slack columns (n + m):
    `head[i]` is the column basic in row i, `vstat` the status of every
    column (see simplex.AT_LOWER and friends)."""
    head: np.ndarray
    vstat: np.ndarray


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | limit
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float = np.nan
    best_bound: float = np.nan
    infeasible_rows: list = field(default_factory=list)
    basis: Basis | None = None  # the final basis of an optimal LP solve
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def iterations(self):
        return self.stats.iterations

    @property
    def nodes(self):
        return self.stats.nodes

    @property
    def ok(self):
        return self.status == "optimal"


@dataclass
class FeasibilityReport:
    objective: float
    max_row_violation: float
    max_bound_violation: float
    row_violations: dict  # row index -> violation amount (> 0 only)

    def ok(self, tol=FEASIBILITY_TOL):
        return self.max_row_violation <= tol and self.max_bound_violation <= tol


def check_point(problem: LpProblem, x, tol: float = FEASIBILITY_TOL) -> FeasibilityReport:
    """Evaluate a point against all rows and bounds of a problem."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n_cols,):
        raise LpError("point length != n_cols")
    act = problem.matrix_csc() @ x
    blo, bhi = problem.row_bounds()
    below = np.maximum(blo - act, 0.0)
    above = np.maximum(act - bhi, 0.0)
    rowviol = np.maximum(below, above)
    lo = problem.lower_inf()
    up = problem.upper_inf()
    bndviol = np.maximum(np.maximum(lo - x, 0.0), np.maximum(x - up, 0.0))
    return FeasibilityReport(
        objective=float(problem.objective @ x),
        max_row_violation=float(rowviol.max()) if problem.n_rows else 0.0,
        max_bound_violation=float(bndviol.max()) if problem.n_cols else 0.0,
        row_violations={int(i): float(rowviol[i]) for i in np.nonzero(rowviol > tol)[0]},
    )
