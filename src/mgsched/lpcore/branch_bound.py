"""Branch-and-bound over binary columns on top of the LP solver.

Best-bound node selection with most-fractional branching; every tie
resolves to the lowest column index so runs are reproducible.  Nodes are
LP relaxations with tightened binary bounds, made by
`LpProblem.with_data`, so every node shares the problem's matrix and
simplex workspace; solve_lp ignores their binary marks.  The root starts
cold, and each child starts from its parent's optimal basis, which stays
dual feasible after the one bound change, so the dual simplex needs few
pivots.  The incumbent is accepted when all binary columns are integral
within the integrality tolerance, and the search stops once the relative
gap between incumbent and best open bound is below mip_gap.  Nodes leave
the heap in bound order, so no open node is below an incumbent: the
search ends at the next pop, and no node is ever pruned against one.
`iteration_limit` bounds the simplex iterations of the whole search:
each node LP gets what is left of it, and a node LP that stops at its
limit ends the search with status "limit" (its parent stays open, so the
best bound stays valid).  An unbounded node LP makes the whole problem
"unbounded".  The solution's `stats` sums the counters of every node LP
and counts those LPs, the root included, in `stats.nodes`.
"""

import dataclasses
import heapq
import logging

import numpy as np

from .problem import LpProblem, LpSolution, SolveSettings, SolverStats
from .simplex import solve_lp

log = logging.getLogger(__name__)


def _gap(incumbent, bound):
    return (incumbent - bound) / max(1.0, abs(incumbent))


def solve_milp(problem: LpProblem, settings: SolveSettings | None = None) -> LpSolution:
    """Solve an LP with binary columns; plain solve_lp when there are none."""
    settings = settings or SolveSettings()
    bincols = np.array(sorted(problem.binary_cols), dtype=np.int64)
    if bincols.size == 0:
        return solve_lp(problem, settings)

    itol = settings.integrality_tol

    root_lo = problem.col_lower.copy()
    root_hi = problem.col_upper.copy()
    root_lo[bincols] = np.maximum(root_lo[bincols], 0.0)
    root_hi[bincols] = np.minimum(root_hi[bincols], 1.0)

    stats = SolverStats()
    incumbent = None
    incumbent_obj = np.inf
    counter = 0
    heap = []

    root = solve_lp(problem.with_data(col_lower=root_lo, col_upper=root_hi), settings)
    stats.add(root.stats)
    stats.nodes += 1
    if root.status in ("infeasible", "unbounded"):
        return dataclasses.replace(root, stats=stats)
    if root.status == "limit":
        return LpSolution(status="limit", best_bound=-np.inf, stats=stats)
    heapq.heappush(heap, (root.objective, counter, root, root_lo, root_hi))

    status = "optimal"
    while heap:
        best_bound = heap[0][0]
        if incumbent is not None and _gap(incumbent_obj, best_bound) <= settings.mip_gap:
            break
        if settings.node_limit is not None and stats.nodes >= settings.node_limit:
            status = "limit"
            break

        _, _, sol, lo, hi = heapq.heappop(heap)
        frac = np.abs(sol.x[bincols] - np.round(sol.x[bincols]))
        if frac.max() <= itol:
            if sol.objective < incumbent_obj - 1e-12:
                incumbent = sol
                incumbent_obj = sol.objective
                log.debug("incumbent %.9g after %d nodes", incumbent_obj, stats.nodes)
            continue

        j = int(bincols[np.argmax(frac)])
        for fix in (0.0, 1.0):
            child_lo = lo.copy()
            child_hi = hi.copy()
            if fix == 0.0:
                child_hi[j] = 0.0
            else:
                child_lo[j] = 1.0
            node_settings = settings
            if settings.iteration_limit is not None:
                node_settings = dataclasses.replace(
                    settings, iteration_limit=settings.iteration_limit - stats.iterations)
            child = solve_lp(problem.with_data(col_lower=child_lo, col_upper=child_hi),
                             node_settings, basis=sol.basis)
            stats.add(child.stats)
            stats.nodes += 1
            if child.status == "unbounded":
                return LpSolution(status="unbounded", stats=stats)
            if child.status == "limit":
                # the unsolved child keeps the node open at the parent's bound
                status = "limit"
                counter += 1
                heapq.heappush(heap, (sol.objective, counter, sol, lo, hi))
                break
            if child.status != "optimal":
                continue
            counter += 1
            heapq.heappush(heap, (child.objective, counter, child, child_lo, child_hi))
        if status == "limit":
            break

    best_bound = heap[0][0] if heap else incumbent_obj
    if incumbent is None:
        if status == "limit":
            return LpSolution(status="limit", best_bound=best_bound, stats=stats)
        return LpSolution(status="infeasible", stats=stats)

    x = incumbent.x.copy()
    x[bincols] = np.round(x[bincols])
    return LpSolution(
        status=status,
        x=x,
        duals=incumbent.duals,
        objective=float(problem.objective @ x),
        best_bound=float(min(best_bound, incumbent_obj)),
        stats=stats,
    )
