"""Branch-and-bound over binary columns on top of the LP solver.

Best-bound node selection with most-fractional branching; every tie
resolves to the lowest column index, and nodes of equal bound leave the
heap in the order they were made, so runs are reproducible.  Nodes are
LP relaxations with tightened binary bounds, made by
`LpProblem.with_data`, so every node shares the problem's matrix and
simplex workspace; solve_lp ignores their binary marks.  The root starts
cold, and each child starts from its parent's optimal basis, which stays
dual feasible after the one bound change, so the dual simplex needs few
pivots.  Nodes leave the heap in bound order, so the first node popped
whose binary columns are all within `INTEGRALITY_TOL` of 0 or 1 is
optimal: the search returns it, with its LP bound as `best_bound`.

The root and every child go through one node step.  `node_limit` counts
the node LPs, the root included, and `iteration_limit` the simplex
iterations of all of them, each node LP getting what is left.  Status
"limit" means a node LP was still wanted when the nodes ran out, or that
a node LP stopped at its iteration limit; `best_bound` is then the
lowest bound of the open nodes and the parent being branched (-inf
before the root LP is solved).  An unbounded node LP makes the whole
problem "unbounded".  The solution's `stats` sums the counters of every
node LP and counts those LPs in `stats.nodes`.
"""

import dataclasses
import heapq

import numpy as np

from .problem import INTEGRALITY_TOL, LpProblem, LpSolution, SolveSettings, SolverStats
from .simplex import solve_lp


def solve_milp(problem: LpProblem, settings: SolveSettings | None = None) -> LpSolution:
    """Solve an LP with binary columns; plain solve_lp when there are none."""
    settings = settings or SolveSettings()
    bincols = np.array(sorted(problem.binary_cols), dtype=np.int64)
    if bincols.size == 0:
        return solve_lp(problem, settings)

    stats = SolverStats()

    def node(lo, hi, basis=None):
        # the node's LP solution; None if the node or iteration budget ends the search
        if settings.node_limit is not None and stats.nodes >= settings.node_limit:
            return None
        node_settings = settings
        if settings.iteration_limit is not None:
            node_settings = dataclasses.replace(
                settings, iteration_limit=settings.iteration_limit - stats.iterations)
        sol = solve_lp(problem.with_data(col_lower=lo, col_upper=hi), node_settings,
                       basis=basis)
        stats.add(sol.stats)
        stats.nodes += 1
        return None if sol.status == "limit" else sol

    root_lo = problem.col_lower.copy()
    root_hi = problem.col_upper.copy()
    root_lo[bincols] = np.maximum(root_lo[bincols], 0.0)
    root_hi[bincols] = np.minimum(root_hi[bincols], 1.0)
    root = node(root_lo, root_hi)
    if root is None:
        return LpSolution(status="limit", best_bound=-np.inf, stats=stats)
    if root.status in ("infeasible", "unbounded"):
        return dataclasses.replace(root, stats=stats)  # keeps phase 1's infeasible_rows

    counter = 0
    heap = [(root.objective, counter, root, root_lo, root_hi)]
    while heap:
        bound, _, sol, lo, hi = heapq.heappop(heap)
        frac = np.abs(sol.x[bincols] - np.round(sol.x[bincols]))
        if frac.max() <= INTEGRALITY_TOL:
            x = sol.x.copy()
            x[bincols] = np.round(x[bincols])
            return LpSolution(status="optimal", x=x, duals=sol.duals,
                              objective=float(problem.objective @ x),
                              best_bound=float(bound), stats=stats)

        j = int(bincols[np.argmax(frac)])
        for fix in (0.0, 1.0):
            child_lo = lo.copy()
            child_hi = hi.copy()
            if fix == 0.0:
                child_hi[j] = 0.0
            else:
                child_lo[j] = 1.0
            child = node(child_lo, child_hi, sol.basis)
            if child is None:
                # the parent stays open at its bound
                return LpSolution(status="limit", stats=stats,
                                  best_bound=min(bound, heap[0][0]) if heap else bound)
            if child.status == "unbounded":
                return LpSolution(status="unbounded", stats=stats)
            if child.status == "optimal":
                counter += 1
                heapq.heappush(heap, (child.objective, counter, child, child_lo, child_hi))
    return LpSolution(status="infeasible", stats=stats)
