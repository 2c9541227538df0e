"""Sparse linear-program container and point feasibility checks.

Problems are stored in triplet form with per-column bounds and optional
binary marks.  Minimization is the only objective sense.  Bounds with
magnitude >= BOUND_INF are treated as infinite, mirroring the convention
of most solver interchange formats.

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

SENSES = ("=", "<=", ">=")


class LpError(ValueError):
    """Malformed problem or an operation applied to an unusable solution."""


@dataclass(frozen=True)
class SolveSettings:
    feasibility_tol: float = 1e-7
    optimality_tol: float = 1e-7
    integrality_tol: float = 1e-6
    mip_gap: float = 1e-6
    node_limit: int | None = None
    iteration_limit: int | None = None

    def __post_init__(self):
        for name in ("feasibility_tol", "optimality_tol", "integrality_tol", "mip_gap"):
            if not getattr(self, name) > 0:
                raise LpError(f"{name} must be positive")
        for name in ("node_limit", "iteration_limit"):
            limit = getattr(self, name)
            if limit is not None and (isinstance(limit, bool)
                                      or not isinstance(limit, numbers.Integral) or limit < 0):
                raise LpError(f"{name} must be null or an integer >= 0, got {limit!r}")


class LpProblem:
    """Immutable sparse LP: min c'x s.t. row senses/ranges, l <= x <= u.

    Triplets are canonicalized at construction: sorted by (column, row),
    duplicates merged, exact zeros dropped.  Exporters rely on this order
    being stable.
    """

    def __init__(self, n_cols, n_rows, objective, triplets, row_sense, rhs,
                 col_lower, col_upper, binary_cols=(), row_range=None,
                 row_names=None, col_names=None, name="LP"):
        self.n_cols = int(n_cols)
        self.n_rows = int(n_rows)
        self.objective = np.asarray(objective, dtype=float).copy()
        self.row_sense = list(row_sense)
        self.rhs = np.asarray(rhs, dtype=float).copy()
        self.col_lower = np.asarray(col_lower, dtype=float).copy()
        self.col_upper = np.asarray(col_upper, dtype=float).copy()
        self.binary_cols = frozenset(int(j) for j in binary_cols)
        if row_range is None:
            self.row_range = None
        else:
            self.row_range = np.asarray(row_range, dtype=float).copy()
        self.row_names = list(row_names) if row_names is not None else None
        self.col_names = list(col_names) if col_names is not None else None
        self.name = name
        # the simplex workspace, filled on first use and shared by copies
        self._workspace = []

        rows, cols, vals = self._canonicalize(triplets)
        self.tri_rows = rows
        self.tri_cols = cols
        self.tri_vals = vals
        self._validate()

    def _canonicalize(self, triplets):
        if isinstance(triplets, tuple) and len(triplets) == 3:
            rows, cols, vals = triplets
        else:
            trip = list(triplets)
            if trip:
                rows, cols, vals = zip(*trip)
            else:
                rows, cols, vals = (), (), ()
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if rows.size == 0:
            return rows, cols, vals
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        # merge duplicates
        key_change = np.empty(rows.size, dtype=bool)
        key_change[0] = True
        key_change[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(key_change) - 1
        merged = np.zeros(group[-1] + 1)
        np.add.at(merged, group, vals)
        rows = rows[key_change]
        cols = cols[key_change]
        vals = merged
        keep = vals != 0.0
        return rows[keep], cols[keep], vals[keep]

    def _validate(self):
        n, m = self.n_cols, self.n_rows
        if self.objective.shape != (n,):
            raise LpError("objective length != n_cols")
        if len(self.row_sense) != m:
            raise LpError("row_sense length != n_rows")
        self._validate_data()
        if self.row_range is not None:
            if self.row_range.shape != (m,):
                raise LpError("row_range length != n_rows")
            if np.any(np.isnan(self.row_range)):
                raise LpError("NaN row range")
        for s in self.row_sense:
            if s not in SENSES:
                raise LpError(f"unknown row sense {s!r}")
        if self.tri_rows.size:
            if self.tri_rows.min() < 0 or self.tri_rows.max() >= m:
                raise LpError("triplet row index out of range")
            if self.tri_cols.min() < 0 or self.tri_cols.max() >= n:
                raise LpError("triplet column index out of range")
        if not np.all(np.isfinite(self.tri_vals)):
            raise LpError("NaN or infinite coefficient in matrix")
        if not np.all(np.isfinite(self.objective)):
            raise LpError("NaN or infinite objective coefficient")
        lo, up = self.lower_inf(), self.upper_inf()
        for j in self.binary_cols:
            if j < 0 or j >= n:
                raise LpError("binary column index out of range")
            if lo[j] < -1e-12 or up[j] > 1 + 1e-12:
                raise LpError(f"binary column {j} has bounds outside [0, 1]")
        if self.row_names is not None and len(self.row_names) != m:
            raise LpError("row_names length != n_rows")
        if self.col_names is not None and len(self.col_names) != n:
            raise LpError("col_names length != n_cols")

    def _validate_data(self):
        """The checks of the rhs and the bounds, which `with_data` replaces."""
        if self.rhs.shape != (self.n_rows,):
            raise LpError("rhs length != n_rows")
        if self.col_lower.shape != (self.n_cols,) or self.col_upper.shape != (self.n_cols,):
            raise LpError("bounds length != n_cols")
        if not np.all(np.isfinite(self.rhs)):
            raise LpError("NaN or infinite right-hand side")
        if np.any(self.lower_inf() > self.upper_inf()):
            raise LpError("col_lower > col_upper")

    def with_data(self, rhs=None, col_lower=None, col_upper=None):
        """This problem with another rhs and column bounds, where given.

        A shallow copy: the matrix, objective, senses, names, binary marks
        and the simplex workspace are the same objects as this problem's,
        and the given arrays are taken as they are (not copied), so treat
        them as read-only.  The new data get the construction checks.
        """
        new = copy.copy(self)
        for name, value in (("rhs", rhs), ("col_lower", col_lower), ("col_upper", col_upper)):
            if value is not None:
                setattr(new, name, np.asarray(value, dtype=float))
        new._validate_data()
        return new

    # -- derived views ----------------------------------------------------

    def lower_inf(self):
        """Lower bounds with the infinity convention applied."""
        return np.where(self.col_lower <= -BOUND_INF, -np.inf, self.col_lower)

    def upper_inf(self):
        return np.where(self.col_upper >= BOUND_INF, np.inf, self.col_upper)

    def row_bounds(self):
        """Per-row activity interval [blo, bhi] implied by sense and range.

        An `=` row with range r spans [b, b + r] for r > 0 and [b + r, b]
        for r < 0; a `<=` row [b - |r|, b] and a `>=` row [b, b + |r|],
        open on the far side when r is 0.
        """
        sense = np.asarray(self.row_sense, dtype="U2")
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
        import scipy.sparse as sp

        return sp.csc_matrix(
            (self.tri_vals, (self.tri_rows, self.tri_cols)),
            shape=(self.n_rows, self.n_cols),
        )

    def workspace(self):
        """(A, [A | I], [A | I]'): the matrix in CSC form, with one slack
        column per row appended, and that matrix's transpose, as the
        simplex's equality form A x + s = b uses them.  Built on the first
        call and then shared by this problem and every copy `with_data`
        makes of it, before or after; read-only."""
        if not self._workspace:
            import scipy.sparse as sp

            A = self.matrix_csc()
            full = sp.hstack([A, sp.identity(self.n_rows, format="csc")], format="csc")
            self._workspace.append((A, full, full.T))
        return self._workspace[0]

    def row_activity(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise LpError("point length != n_cols")
        act = np.zeros(self.n_rows)
        np.add.at(act, self.tri_rows, self.tri_vals * x[self.tri_cols])
        return act

    def row_name(self, i):
        if self.row_names is not None:
            return self.row_names[i]
        return f"R{i + 1:04d}"

    def col_name(self, j):
        if self.col_names is not None:
            return self.col_names[j]
        return f"C{j + 1:04d}"


@dataclass
class SolverStats:
    """Counters of one LP solve, or summed over several with `add`.

    `warm_starts` counts LPs started from a given basis, `warm_fallbacks`
    those of them that went on to the cold path; iterations spent before
    a fallback stay counted.
    """
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    dual_iterations: int = 0
    refactorizations: int = 0
    bland_switches: int = 0
    warm_starts: int = 0
    warm_fallbacks: int = 0

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
    iterations: int = 0
    nodes: int = 0
    best_bound: float = np.nan
    infeasible_rows: list = field(default_factory=list)
    basis: Basis | None = None  # the final basis of an optimal LP solve
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def ok(self):
        return self.status == "optimal"


@dataclass
class FeasibilityReport:
    objective: float
    max_row_violation: float
    max_bound_violation: float
    row_violations: dict  # row index -> violation amount (> 0 only)
    bound_violations: dict  # col index -> violation amount (> 0 only)

    def ok(self, tol):
        return self.max_row_violation <= tol and self.max_bound_violation <= tol


def check_point(problem: LpProblem, x, tol: float = 1e-7) -> FeasibilityReport:
    """Evaluate a point against all rows and bounds of a problem."""
    x = np.asarray(x, dtype=float)
    act = problem.row_activity(x)
    blo, bhi = problem.row_bounds()
    below = np.maximum(blo - act, 0.0)
    above = np.maximum(act - bhi, 0.0)
    rowviol = np.maximum(below, above)
    lo = problem.lower_inf()
    up = problem.upper_inf()
    bndviol = np.maximum(np.maximum(lo - x, 0.0), np.maximum(x - up, 0.0))
    rows = {int(i): float(rowviol[i]) for i in np.nonzero(rowviol > tol)[0]}
    bounds = {int(j): float(bndviol[j]) for j in np.nonzero(bndviol > tol)[0]}
    return FeasibilityReport(
        objective=float(problem.objective @ x),
        max_row_violation=float(rowviol.max()) if problem.n_rows else 0.0,
        max_bound_violation=float(bndviol.max()) if problem.n_cols else 0.0,
        row_violations=rows,
        bound_violations=bounds,
    )
