"""Revised simplex method for LPs with general column bounds.

Two-phase method on the equality form A x + s = b, where one slack column
is appended per row.  Each structural column starts on a bound (Maros,
*Computational Techniques of the Simplex Method*, 2003, ch. 9): its
lower one if finite, else its upper one, else free at 0.  A boxed column
starts at its upper bound instead when raising it moves the inequality
rows violated at that start towards their ranges on balance: with push
+1 on a row whose activity lies below its range and -1 above it, when
(A' push)_j > 0.  The starting basis then comes from a triangular crash
(Bixby 1992): structural columns take the place of the fixed slacks of
equality rows wherever that keeps the basis lower-triangular and the
column within its bounds.  The other rows start on their slack, and
artificial columns absorb any bound violation of those slacks.  The
columns [A | I | artificials] are held in one sparse matrix.  The basis
is stored in pivot-row order (basis[i] is the column basic in row i), so
the crash basis is triangular as stored and needs no fill-reducing
ordering: it is factorized by SuperLU with the NATURAL column order.
Pivots since the last factorization form a product-form eta file, kept
as one rank-k correction: with h_j = eta_j - e_{p_j} in the columns of
H, the pivot rows in P and G the unit lower-triangular k x k matrix with
G[i, j] = -h_j[p_i] for j < i, the product of the k eta matrices is
I + H G^-1 P', so ftran and btran each add one dense correction to an LU
solve.  G^-1 grows by one row per pivot, and a fresh LU replaces the
file after a fixed number of pivots.

Pricing is steepest edge (Forrest & Goldfarb 1992): over a per-column
sign array, the entering column maximizes gain^2 / gamma_j with the
reference weight gamma_j ~ 1 + |B^-1 a_j|^2.  The reference weights
start at 1 (a Devex reference framework; Harris 1973) and each pivot
updates them in Devex form, gamma_j <- max(gamma_j, (alpha_rj /
alpha_rq)^2 gamma_q) with the exact gamma_q = 1 + |d|^2, where alpha_r
is the pivot row of B^-1 [A | I].  The same row updates the reduced
costs, which are recomputed from scratch after each refactorization;
only freshly computed reduced costs may declare a basis optimal.  The
weights carry from phase 1 into phase 2.  The ratio test breaks ties by
the largest pivot.  After a run of stalled
(degenerate) iterations the solver falls back to Bland's rule, which
guarantees termination.  All tie-breaks resolve to the lowest column
index, so repeated solves of the same problem are bit-identical.

A solve may instead start from a given basis (`solve_lp(..., basis=)`,
typically the `LpSolution.basis` of a problem that differs only in rhs
and bounds: a branch-and-bound parent, the previous scenario block).
Then the columns are [A | I] with no crash and no artificials, each
nonbasic column sits on a finite bound of the new problem, and boxed
ones move to the bound their reduced cost asks for.  That basis is still
dual feasible, so a bounded dual simplex (Koberstein 2005) restores
primal feasibility: the basic column furthest outside its bounds leaves,
the entering column comes from the dual ratio test over row r of
B^-1 [A | I], and after a run of dual-degenerate pivots it switches to a
dual Bland rule.  The primal loop then certifies optimality with the
same test as a cold solve.  The basis is only a hint: a basis that does
not fit or is singular, a column left dual infeasible (one-sided or
free), or a dual ray (the LP is infeasible) sends the solve to the cold
path, so phase 1 still names the infeasible rows, and the iterations
already spent still count against `iteration_limit`.

[A | I] and its transpose come from the problem's workspace
(`LpProblem.workspace`), which the copies of one problem made by
`LpProblem.with_data` share.  So a run of warm solves over scenario
blocks or branch-and-bound nodes builds them once, and a cold solve only
appends its artificials to them.

The two loops differ only in how they choose the pivot: they share the
sign array, the stall count, the pivot row and one basis exchange.  Both
price first and check `iteration_limit` after, so "limit" means a pivot
was still wanted: a solve optimal after exactly that many pivots is
"optimal".
"""

import logging

import numpy as np

from .problem import (FEASIBILITY_TOL, OPTIMALITY_TOL, Basis, LpError, LpProblem, LpSolution,
                      SolveSettings, SolverStats)

log = logging.getLogger(__name__)

_PIVOT_TOL = 1e-9
_DRIFT_CLEAN = 1e-11
_REFACTOR_INTERVAL = 50  # eta-file length that triggers a fresh LU
_STALL_LIMIT = 1000  # degenerate iterations in a row before Bland's rule

AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3


class _NoWarmStart(Exception):
    """The given basis cannot start the dual simplex; solve cold instead."""


def equality_form(problem: LpProblem):
    """The problem as A x + s = b over the columns [A | I].

    Returns (A, b, lo, hi): A is the problem's shared CSC matrix (see
    `LpProblem.matrix_csc`), b takes each row's finite upper activity
    bound, else its lower one, and lo, hi are the bounds of the
    structural columns followed by those of the slacks.
    """
    blo, bhi = problem.row_bounds()
    fin_hi = np.isfinite(bhi)
    b = np.where(fin_hi, bhi, blo)
    lo = np.concatenate([problem.lower_inf(), np.where(fin_hi, 0.0, -np.inf)])
    hi = np.concatenate([problem.upper_inf(), np.where(fin_hi, bhi - blo, 0.0)])
    return problem.matrix_csc(), b, lo, hi


class _Core:
    """Equality-form workspace shared by the phases and both loops.

    Without `start` the columns are [A | I | artificials] from the crash;
    with a `Basis` they are [A | I] from that basis (see `dual`).  [A | I]
    and its transpose come from the problem's shared workspace, so the
    copies of one problem build them once; only artificials add columns.
    Counts go to `stats`, which a fallback hands on to the cold core.
    """

    def __init__(self, problem: LpProblem, settings: SolveSettings,
                 stats: SolverStats | None = None, start: Basis | None = None):
        self.settings = settings
        self.stats = stats if stats is not None else SolverStats()
        self.m = m = problem.n_rows
        self.n = problem.n_cols
        A, self.b, lo, hi = equality_form(problem)
        # eta file: k pivots since the last factorization (see module doc)
        self.H = np.empty((m, _REFACTOR_INTERVAL), order="F")
        self.P = np.empty(_REFACTOR_INTERVAL, dtype=np.int64)
        self.Gi = np.eye(_REFACTOR_INTERVAL)
        self.k = 0
        sign = self._cold(A, lo, hi) if start is None else self._warm(lo, hi, start)
        self.gamma = np.ones(self.x.size)  # steepest-edge reference weights
        self.n_art = n_art = sign.size  # artificial k is sign[k] * e_(art_row[k])
        self.objective = np.concatenate([problem.objective, np.zeros(m + n_art)])
        self.full, self.fullT = problem.workspace()
        if n_art:
            # scipy.sparse is imported on first use, as in LpProblem.workspace,
            # so that importing the package does not load it
            import scipy.sparse as sp

            art = sp.csc_matrix((sign, (self.art_row, np.arange(n_art))), shape=(m, n_art))
            self.full = sp.hstack([self.full, art], format="csc")
            self.fullT = self.full.T
        self._refactor()
        if not np.all(np.isfinite(self.x)):
            raise LpError("basis is numerically singular")

    @property
    def iterations(self):
        return self.stats.iterations

    def _cold(self, A, lo, hi):
        """Starting bounds, crash basis, and an artificial column for each
        row whose slack would leave its bounds; returns the signs of the
        artificials.  Each column starts at its lower bound if finite, else
        at its upper one, else free at 0.  A boxed column with (A' push)_j
        > 0, where push is +1 on each inequality row whose activity at
        that start is below its range and -1 on each above it, starts at
        its upper bound instead, so fewer rows need an artificial."""
        n, m, b = self.n, self.m, self.b
        slack_lo, slack_hi = lo[n:], hi[n:]
        fin_lo, fin_hi = np.isfinite(lo[:n]), np.isfinite(hi[:n])
        x = np.where(fin_lo, lo[:n], np.where(fin_hi, hi[:n], 0.0))
        vstat = np.full(n + m, AT_LOWER, dtype=np.int8)
        vstat[:n][~fin_lo & fin_hi] = AT_UPPER
        vstat[:n][~fin_lo & ~fin_hi] = FREE

        # boxed columns start on the bound their violated inequality rows
        # ask for; a slack above its range means activity below the row's
        cand = b - A @ x
        ineq = slack_lo < slack_hi
        push = np.where(ineq & (cand > slack_hi), 1.0,
                        np.where(ineq & (cand < slack_lo), -1.0, 0.0))
        up = fin_lo & fin_hi & (lo[:n] < hi[:n]) & (A.T @ push > 0.0)
        x[up] = hi[:n][up]
        vstat[:n][up] = AT_UPPER

        crash_cols, crash_rows = _crash(A, b, lo[:n], hi[:n], x, eq_row=slack_lo == slack_hi)
        vstat[crash_cols] = BASIC
        self.n_crash = crash_cols.size

        # candidate slack values of the rows the crash left; violations get
        # an artificial column.  Crashed rows keep their slack nonbasic at 0.
        open_row = np.ones(m, dtype=bool)
        open_row[crash_rows] = False
        cand = b - A @ x
        inside = open_row & (slack_lo - 1e-12 <= cand) & (cand <= slack_hi + 1e-12)
        above = open_row & ~inside & (cand > slack_hi)
        slack = np.where(inside, cand, np.where(above, slack_hi, slack_lo))
        vstat[n:][inside] = BASIC
        vstat[n:][above] = AT_UPPER
        self.art_row = art_row = np.nonzero(open_row & ~inside)[0]
        n_art = art_row.size

        self.lo = np.concatenate([lo, np.zeros(n_art)])
        self.hi = np.concatenate([hi, np.full(n_art, np.inf)])
        art_val = np.where(above, cand - slack_hi, slack_lo - cand)[art_row]
        self.x = np.concatenate([x, slack, art_val])
        self.vstat = np.concatenate([vstat, np.full(n_art, BASIC, dtype=np.int8)])
        self.basis = n + np.arange(m)
        self.basis[art_row] = n + m + np.arange(n_art)
        self.basis[crash_rows] = crash_cols
        return np.where(above[art_row], 1.0, -1.0)

    def _warm(self, lo, hi, start):
        """The start's basis, checked to fit; each nonbasic column sits on
        a finite bound of this problem, the side `start.vstat` names
        first.  There are no artificials."""
        n, m = self.n, self.m
        head = np.asarray(start.head, dtype=np.int64)
        vstat = np.asarray(start.vstat, dtype=np.int8)
        if head.shape != (m,) or vstat.shape != (n + m,):
            raise _NoWarmStart("basis does not fit the problem")
        basic = np.zeros(n + m, dtype=bool)
        basic[head[(head >= 0) & (head < n + m)]] = True
        if np.count_nonzero(basic) != m or not np.array_equal(basic, vstat == BASIC):
            raise _NoWarmStart("basis head and column statuses disagree")
        self.n_crash = 0
        self.art_row = np.zeros(0, dtype=np.int64)
        self.lo, self.hi = lo, hi
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
        upper = fin_hi & ((vstat == AT_UPPER) | ~fin_lo)
        self.vstat = np.where(basic, BASIC, np.where(
            upper, AT_UPPER, np.where(fin_lo, AT_LOWER, FREE))).astype(np.int8)
        self.x = np.where(upper, hi, np.where(fin_lo, lo, 0.0))
        self.basis = head.copy()
        return np.zeros(0)

    # -- columns and factorization ---------------------------------------

    def column(self, j):
        f = self.full
        v = np.zeros(self.m)
        v[f.indices[f.indptr[j]:f.indptr[j + 1]]] = f.data[f.indptr[j]:f.indptr[j + 1]]
        return v

    def _refactor(self):
        from scipy.sparse.linalg import splu

        try:
            self.lu = splu(self.full[:, self.basis], permc_spec="NATURAL")
        except RuntimeError as e:
            raise LpError("basis factorization failed") from e
        self.stats.refactorizations += 1
        self.k = 0
        self._recompute_basics()

    def _recompute_basics(self):
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.ftran(self.b - self.full @ xn)

    def ftran(self, v):
        k = self.k
        r = self.lu.solve(v)
        if k:
            r += self.H[:, :k] @ (self.Gi[:k, :k] @ r[self.P[:k]])
        return r

    def btran(self, w):
        k = self.k
        t = (self.H[:, :k].T @ w) @ self.Gi[:k, :k]
        return self.lu.solve(w + np.bincount(self.P[:k], t, minlength=self.m), trans="T")

    def _add_eta(self, p, d):
        """Record the pivot on row p with entering column d = ftran(a_q)."""
        k = self.k
        h = self.H[:, k]
        np.divide(d, -d[p], out=h)
        h[p] = 1.0 / d[p] - 1.0
        self.P[k] = p
        self.Gi[k, :k] = self.H[p, :k] @ self.Gi[:k, :k]
        self.k = k + 1

    # -- the step both loops share -----------------------------------------

    def _enter(self, loop):
        """Loop-entry state: the movable columns, the sign array, the
        nonbasic free columns, and a fresh stall count."""
        self.loop, self.stall, self.bland = loop, 0, False
        vstat = self.vstat
        self.movable = movable = (self.hi - self.lo) > 0.0
        # sgn is -1 at a lower bound, +1 at an upper one, 0 for basic and
        # fixed columns: moving a column off its bound changes v'x at the
        # rate -v * sgn (see _gain).  Nonbasic free columns move either
        # way; once basic they never leave (their ratios are inf).
        self.sgn = np.where(movable & (vstat == AT_LOWER), -1.0,
                            np.where(movable & (vstat == AT_UPPER), 1.0, 0.0))
        self.free = np.nonzero(vstat == FREE)[0]

    def _gain(self, v):
        """Rate at which moving each nonbasic column off its bound (either
        way if free) decreases v'x: v * sgn, and |v| for free columns."""
        gain = v * self.sgn
        if self.free.size:
            gain[self.free] = np.abs(v[self.free])
        return gain

    def _reduced_costs(self, costs):
        """z = c - A'y over all columns, from scratch."""
        return costs - self.fullT @ self.btran(costs[self.basis])

    def row(self, r):
        """alpha_r, row r of B^-1 [A | I | artificials]: the pivot row."""
        e = np.zeros(self.m)
        e[r] = 1.0
        return self.fullT @ self.btran(e)

    def _stalled(self, degenerate):
        """Count degenerate pivots in a row; after _STALL_LIMIT of them the
        loop switches to Bland's rule, which guarantees termination."""
        if not degenerate:
            self.stall = 0
            return
        self.stall += 1
        if self.stall >= _STALL_LIMIT and not self.bland:
            self.bland = True
            self.stats.bland_switches += 1
            log.debug("%s: switching to Bland's rule after %d stalled iterations",
                      self.loop, self.stall)

    def _exchange(self, p, q, d, t, xb, to_lower):
        """Column q enters in row p, moved by t, with d = ftran(a_q) and xb
        the basic values before the move; the leaving column goes to its
        lower bound if `to_lower`, else to its upper one."""
        x, vstat, sgn = self.x, self.vstat, self.sgn
        leaving = int(self.basis[p])
        x[q] += t
        x[self.basis] = xb - t * d
        x[leaving] = self.lo[leaving] if to_lower else self.hi[leaving]
        vstat[leaving] = AT_LOWER if to_lower else AT_UPPER
        sgn[leaving] = (-1.0 if to_lower else 1.0) if self.movable[leaving] else 0.0
        if vstat[q] == FREE:
            self.free = self.free[self.free != q]
        self.basis[p] = q
        vstat[q] = BASIC
        sgn[q] = 0.0
        self._add_eta(p, d)
        if self.k == _REFACTOR_INTERVAL:
            self._refactor()

    # -- the two loops -----------------------------------------------------

    def run(self, costs, phase):
        """Primal simplex to optimality of `costs` with steepest-edge
        pricing (see the module doc); returns a status string.  `fresh`
        says z was computed from scratch, which "optimal" requires."""
        limit = self.settings.iteration_limit
        self._enter("primal")
        vstat, sgn = self.vstat, self.sgn
        ratios = np.empty(self.m)
        z, fresh = self._reduced_costs(costs), True

        while True:
            gain = self._gain(z)
            cand = gain > OPTIMALITY_TOL
            if not cand.any():
                if fresh:
                    return "optimal"
                z, fresh = self._reduced_costs(costs), True
                continue
            if self.bland:
                q = int(np.argmax(cand))
            else:
                score = np.where(cand, gain, 0.0)
                q = int(np.argmax(score * score / self.gamma))
            if limit is not None and self.iterations >= limit:
                return "limit"
            direction = 1.0 if z[q] < 0 else -1.0

            d = self.ftran(self.column(q))
            if phase == 1:
                self.stats.phase1_iterations += 1
            else:
                self.stats.phase2_iterations += 1

            # ratio test over basic positions plus the entering bound flip
            xb = self.x[self.basis]
            g = direction * d
            lo_b = self.lo[self.basis]
            hi_b = self.hi[self.basis]
            ratios.fill(np.inf)
            with np.errstate(invalid="ignore"):
                np.divide(xb - lo_b, g, out=ratios, where=g > _PIVOT_TOL)
                np.divide(xb - hi_b, g, out=ratios, where=g < -_PIVOT_TOL)
            np.maximum(ratios, 0.0, out=ratios)  # shave tiny drift
            rmin = ratios.min()
            own = self.hi[q] - self.lo[q]
            step = min(own, rmin)
            if not np.isfinite(step):
                if phase == 1:
                    raise LpError("phase-1 subproblem unbounded; numerical failure")
                return "unbounded"
            self._stalled(step <= 1e-10)

            if own < np.inf and own <= rmin:
                # entering variable flips to its other bound; the basis,
                # and so z and the weights, stay as they are
                self.x[q] += direction * own
                self.x[self.basis] = xb - own * g
                vstat[q] = AT_UPPER if direction > 0 else AT_LOWER
                sgn[q] = direction
                continue

            cands = np.nonzero(ratios <= step + 1e-12)[0]
            if self.bland:
                p = int(cands[np.argmin(self.basis[cands])])
            else:
                best = np.abs(d[cands])
                top = cands[best >= best.max() - 1e-12]
                p = int(top[np.argmin(self.basis[top])])

            # Devex-form weight update from the exact gamma_q = 1 + |d|^2,
            # and the reduced costs moved along the pivot row
            alpha = self.row(p)
            rho = alpha / d[p]
            gamma_q = 1.0 + d @ d
            np.maximum(self.gamma, rho * rho * gamma_q, out=self.gamma)
            self.gamma[self.basis[p]] = max(gamma_q / (d[p] * d[p]), 1.0)
            z -= z[q] * rho
            z[q] = 0.0
            fresh = False
            self._exchange(p, q, d, direction * step, xb, g[p] > 0)
            if self.k == 0:  # refactorized
                z, fresh = self._reduced_costs(costs), True

    def dual(self, costs):
        """Bounded dual simplex from a warm start to primal feasibility.

        Boxed nonbasic columns first move to the bound their reduced cost
        asks for; any other column with a reduced cost of the wrong sign
        makes the start dual infeasible.  Each iteration the basic column
        furthest outside its bounds leaves (Bland: the lowest such row)
        and goes to that bound; the entering column is the first
        breakpoint of the dual ratio test over alpha, row r of B^-1 [A | I]
        (ties: largest |alpha|, then the lowest index; Bland: the lowest
        index).  Returns "feasible" or "limit"; raises _NoWarmStart on a
        dual-infeasible start, a dual ray (the LP is infeasible) or a
        vanished pivot, which the cold path then sorts out.
        """
        limit = self.settings.iteration_limit
        lo, hi, x, vstat = self.lo, self.hi, self.x, self.vstat
        self._enter("dual")
        sgn = self.sgn
        z = self._reduced_costs(costs)

        boxed = np.isfinite(lo) & np.isfinite(hi)
        to_hi = boxed & (sgn < 0) & (z < -OPTIMALITY_TOL)
        to_lo = boxed & (sgn > 0) & (z > OPTIMALITY_TOL)
        if to_hi.any() or to_lo.any():
            vstat[to_hi], x[to_hi], sgn[to_hi] = AT_UPPER, hi[to_hi], 1.0
            vstat[to_lo], x[to_lo], sgn[to_lo] = AT_LOWER, lo[to_lo], -1.0
            self._recompute_basics()
        if np.any(self._gain(z) > OPTIMALITY_TOL):
            raise _NoWarmStart("start is not dual feasible")

        while True:
            xb = x[self.basis]
            lo_b, hi_b = lo[self.basis], hi[self.basis]
            below, above = lo_b - xb, xb - hi_b
            infeas = np.maximum(below, above)
            r = int(np.argmax(infeas > FEASIBILITY_TOL)) if self.bland else int(np.argmax(infeas))
            if not infeas[r] > FEASIBILITY_TOL:
                return "feasible"
            if limit is not None and self.iterations >= limit:
                return "limit"
            to_lower = below[r] > 0.0
            delta = xb[r] - (lo_b[r] if to_lower else hi_b[r])

            alpha = self.row(r)
            # nonbasic moves dx change row r's basic value by -alpha'dx, so
            # _gain(g) is the rate at which each column pushes that value
            # towards the bound it leaves to
            g = alpha if to_lower else -alpha
            cand = np.nonzero(self._gain(g) > _PIVOT_TOL)[0]
            if cand.size == 0:
                raise _NoWarmStart("dual ray: the LP is infeasible")
            ratios = np.maximum(-z[cand] / g[cand], 0.0)
            cands = cand[ratios <= ratios.min() + 1e-12]
            if self.bland:
                q = int(cands[0])
            else:
                best = np.abs(alpha[cands])
                q = int(cands[np.argmax(best >= best.max() - 1e-12)])

            d = self.ftran(self.column(q))
            if not abs(d[r]) > _PIVOT_TOL:
                raise _NoWarmStart("pivot element vanished")
            self.stats.dual_iterations += 1
            theta = z[q] / alpha[q]
            self._stalled(abs(theta) <= 1e-10)
            z -= theta * alpha
            z[q] = 0.0
            self._exchange(r, q, d, delta / d[r], xb, to_lower)
            if self.k == 0:  # refactorized
                z = self._reduced_costs(costs)

    def final_basis(self):
        """The basis over [A | I]; a basic artificial becomes its row's
        slack, the same column up to sign."""
        n, m = self.n, self.m
        head = self.basis.copy()
        art = head >= n + m
        head[art] = n + self.art_row[head[art] - n - m]
        vstat = self.vstat[: n + m].copy()
        vstat[head] = BASIC
        return Basis(head, vstat)

    def cleanup(self):
        """Refactorize and snap basic values onto bounds they sit beside."""
        self._refactor()
        snap = np.abs(self.x - self.lo) < _DRIFT_CLEAN
        self.x[snap] = self.lo[snap]
        snap = np.abs(self.x - self.hi) < _DRIFT_CLEAN
        self.x[snap] = self.hi[snap]


def _crash(A, b, lo, hi, x, eq_row):
    """Triangular crash: structural columns made basic in equality rows.

    Candidates are columns with lo < hi whose largest entry in an equality
    row is at least 0.1 of their largest entry overall; that entry's row
    (lowest on ties) is the column's pivot row.  They are tried by
    decreasing bound range, lowest index first on ties.  A column is taken
    when none of its nonzeros lies in a row already taken, which keeps the
    crash basis lower-triangular and so nonsingular, and when the value
    that makes its pivot row exact, with every other column at its current
    value, lies within its bounds.  `x` is updated in place to those
    values.  Returns (cols, rows): column cols[k] is basic in row rows[k].
    """
    A.sort_indices()
    n = A.shape[1]
    nnz = np.diff(A.indptr)
    starts = A.indptr[:-1][nnz > 0]
    mag = np.abs(A.data)
    eq_mag = np.where(eq_row[A.indices], mag, 0.0)
    col_max = np.zeros(n)
    eq_max = np.zeros(n)
    col_max[nnz > 0] = np.maximum.reduceat(mag, starts)
    eq_max[nnz > 0] = np.maximum.reduceat(eq_mag, starts)
    ok = (lo < hi) & (eq_max > 0.0) & (eq_max >= 0.1 * col_max)

    # pivot entry: first (lowest-row) entry of the column attaining eq_max
    entry_col = np.repeat(np.arange(n), nnz)
    hit = np.nonzero((eq_mag > 0.0) & (eq_mag == eq_max[entry_col]) & ok[entry_col])[0]
    pcols, first = np.unique(entry_col[hit], return_index=True)
    pivot = hit[first]
    order = np.argsort(-(hi[pcols] - lo[pcols]), kind="stable")
    pcols, pivot = pcols[order], pivot[order]

    indptr, indices, data = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    resid = (b - A @ x).tolist()
    xs = x.tolist()
    taken = bytearray(len(resid))
    cols, rows = [], []
    for j, i, a, lj, hj in zip(pcols.tolist(), A.indices[pivot].tolist(), A.data[pivot].tolist(),
                               lo[pcols].tolist(), hi[pcols].tolist()):
        s, e = indptr[j], indptr[j + 1]
        col_rows = indices[s:e]
        if any(map(taken.__getitem__, col_rows)):
            continue
        delta = resid[i] / a
        v = xs[j] + delta
        if not lj <= v <= hj:
            continue
        for r, ar in zip(col_rows, data[s:e]):
            resid[r] -= ar * delta
        xs[j] = v
        taken[i] = 1
        cols.append(j)
        rows.append(i)
    cols = np.array(cols, dtype=np.int64)
    x[cols] = np.array(xs)[cols]
    return cols, np.array(rows, dtype=np.int64)


def solve_lp(problem: LpProblem, settings: SolveSettings | None = None,
             basis: Basis | None = None) -> LpSolution:
    """Solve a pure LP (binary marks ignored) to proven optimality.

    Returns a solution with status one of optimal / infeasible /
    unbounded / limit.  On optimal, `x` holds the structural columns,
    `duals` the row multipliers of the equality form (d obj / d rhs) and
    `basis` the final basis.  Given a `basis`, typically that of a
    problem differing only in bounds and rhs, the solve starts from it
    with the dual simplex; a basis that cannot start it is only a hint,
    and the solve goes the cold way.  `stats` counts the work.
    """
    settings = settings or SolveSettings()
    if problem.n_rows == 0:  # the core cannot factor a 0 x 0 basis
        lo, hi = problem.lower_inf(), problem.upper_inf()
        c = problem.objective
        x = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi, 0.0))
        x = np.where(c < 0, np.where(np.isfinite(hi), hi, np.inf), x)
        x = np.where(c > 0, np.where(np.isfinite(lo), lo, -np.inf), x)
        if not np.all(np.isfinite(x)):
            return LpSolution(status="unbounded")
        return LpSolution(
            status="optimal", x=x, duals=np.zeros(0), objective=float(c @ x)
        )

    stats = SolverStats()
    sol = None
    if basis is not None:
        stats.warm_starts = 1
        try:
            core = _Core(problem, settings, stats, start=basis)
            if core.dual(core.objective) == "limit":
                sol = LpSolution(status="limit")
            else:
                sol = _phase2(core, problem)
        except (_NoWarmStart, LpError) as e:
            stats.warm_fallbacks = 1
            log.debug("LP %s: warm start abandoned: %s", problem.name, e)
    if sol is None:
        core = _Core(problem, settings, stats)
        sol = _two_phase(core, problem)
    sol.stats = stats
    log.debug("LP %s %s: %d crash columns, %d artificials, %s",
              problem.name, sol.status, core.n_crash, core.n_art, stats)
    return sol


def _two_phase(core, problem):
    """Phase 1 on the artificials, if there are any, then phase 2."""
    scale = max(1.0, np.abs(core.b).max())

    if core.n_art:
        phase1 = np.zeros(core.x.size)
        phase1[core.n + core.m :] = 1.0
        status = core.run(phase1, phase=1)
        if status == "limit":
            return LpSolution(status="limit")
        core.cleanup()
        art_vals = core.x[core.n + core.m :]
        if art_vals.sum() > FEASIBILITY_TOL * scale:
            rows = sorted(int(core.art_row[k])
                          for k in np.nonzero(art_vals > FEASIBILITY_TOL)[0])
            return LpSolution(status="infeasible", infeasible_rows=rows)
        # pin artificials at zero for phase 2
        core.lo[core.n + core.m :] = 0.0
        core.hi[core.n + core.m :] = 0.0
        core.x[core.n + core.m :] = 0.0

    return _phase2(core, problem)


def _phase2(core, problem):
    """Primal simplex on the objective from a primal feasible basis; it
    proves optimality the same way for cold and warm starts."""
    status = core.run(core.objective, phase=2)
    if status != "optimal":  # limit or unbounded
        return LpSolution(status=status)

    core.cleanup()
    y = core.btran(core.objective[core.basis])
    x = core.x[: core.n].copy()
    return LpSolution(
        status="optimal",
        x=x,
        duals=y,
        objective=float(problem.objective @ x),
        basis=core.final_basis(),
    )


def dual_objective(problem: LpProblem, solution: LpSolution) -> float:
    """Value of the bound-dual at the solution's row multipliers.

    For min c'x, Ax + s = b, l <= x <= u the dual reads
    max y'b + sum_j (z_j^+ l_j - z_j^- u_j) with z = c - A'y taken over
    structural and slack columns.  Multipliers paired with an infinite
    bound are dropped; at optimality they vanish up to tolerance anyway.
    """
    if not solution.ok:
        raise LpError("dual objective needs an optimal solution")
    y = solution.duals
    A, b, lo, hi = equality_form(problem)
    z = np.concatenate([problem.objective - A.T @ y, -y])
    pos = np.where(np.isfinite(lo), np.maximum(z, 0.0) * np.where(np.isfinite(lo), lo, 0.0), 0.0)
    neg = np.where(np.isfinite(hi), np.maximum(-z, 0.0) * np.where(np.isfinite(hi), hi, 0.0), 0.0)
    return float(y @ b + pos.sum() - neg.sum())
