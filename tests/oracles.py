"""Independent brute-force solvers used to cross-check the real ones.

The solvers deliberately share no code with mgsched.lpcore: LPs are
solved by enumerating basic solutions of the equality form over all
basis subsets and nonbasic bound patterns, MILPs by exhausting binary
assignments.
Only practical for a handful of columns, which is all the tests need.
The scenario-reduction greedy is re-derived with exact sums, scenario
distances one pair at a time, row activity bounds one row at a time, and
scenario generation one scenario at a time.  `symbol_audit` maps each
model quantity to where the formulation holds it.  The artifact writers
have per-value references: an MPS writer one column at a time and a
scenario-bundle writer one value at a time; the MPS reader has a
reference with one branch per section and per bound kind.
"""

import csv
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np

from mgsched.lpcore import LpProblem, MpsFormatError
from mgsched.lpcore.mps import SENSE_OF_CODE


def brute_force_lp(c, A, senses, b, lo, hi, tol=1e-9):
    """Minimize c'x over {A x (sense) b, lo <= x <= hi} by vertex enumeration.

    Every structural variable must have at least one finite bound.
    Returns (status, objective, x) with status 'optimal' or 'infeasible'.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    m, n = A.shape

    slack_lo = np.array([0.0 if s in ("<=", "=") else -np.inf for s in senses])
    slack_hi = np.array([0.0 if s in (">=", "=") else np.inf for s in senses])
    M = np.hstack([A, np.eye(m)])
    L = np.concatenate([lo, slack_lo])
    U = np.concatenate([hi, slack_hi])
    cext = np.concatenate([c, np.zeros(m)])
    N = n + m

    best_obj = np.inf
    best_x = None
    scale = max(1.0, np.abs(b).max() if m else 1.0)

    for basis in combinations(range(N), m):
        basis = list(basis)
        nonbasic = [j for j in range(N) if j not in basis]
        cands = []
        ok = True
        for j in nonbasic:
            vals = []
            if np.isfinite(L[j]):
                vals.append(L[j])
            if np.isfinite(U[j]) and U[j] != L[j]:
                vals.append(U[j])
            if not vals:
                ok = False
                break
            cands.append(vals)
        if not ok:
            continue
        Bm = M[:, basis]
        patterns = np.array(list(product(*cands))) if nonbasic else np.zeros((1, 0))
        rhs = b[:, None] - M[:, nonbasic] @ patterns.T
        try:
            XB = np.linalg.solve(Bm, rhs)
        except np.linalg.LinAlgError:
            continue
        resid = np.abs(Bm @ XB - rhs).max(axis=0) if m else np.zeros(patterns.shape[0])
        feas = (
            (resid <= 1e-7 * scale)
            & np.all(XB >= L[basis][:, None] - tol * scale, axis=0)
            & np.all(XB <= U[basis][:, None] + tol * scale, axis=0)
        )
        if not feas.any():
            continue
        objs = cext[basis] @ XB + patterns @ cext[nonbasic]
        objs = np.where(feas, objs, np.inf)
        k = int(np.argmin(objs))
        if objs[k] < best_obj:
            best_obj = objs[k]
            x_full = np.empty(N)
            x_full[basis] = XB[:, k]
            x_full[nonbasic] = patterns[k]
            best_x = x_full[:n]

    if best_x is None:
        return "infeasible", np.nan, None
    return "optimal", float(best_obj), best_x


def brute_force_milp(c, A, senses, b, lo, hi, binary_cols, tol=1e-9):
    """Exhaust all binary assignments, solving the continuous rest by
    brute_force_lp.  Completely independent of the branch-and-bound code."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    binary_cols = sorted(binary_cols)
    cont = [j for j in range(len(c)) if j not in binary_cols]

    best_obj = np.inf
    best_x = None
    for bits in product(*[_bin_values(lo[j], hi[j]) for j in binary_cols]):
        bits = np.array(bits, dtype=float)
        rhs = b - A[:, binary_cols] @ bits
        offset = c[binary_cols] @ bits
        if cont:
            status, obj, xc = brute_force_lp(
                c[cont], A[:, cont], senses, rhs, lo[cont], hi[cont], tol=tol
            )
            if status != "optimal":
                continue
            obj += offset
        else:
            viol = _row_violation(np.zeros(0), rhs, senses)
            if viol > 1e-9:
                continue
            obj, xc = offset, np.zeros(0)
        if obj < best_obj:
            best_obj = obj
            x = np.empty(len(c))
            x[binary_cols] = bits
            x[cont] = xc
            best_x = x
    if best_x is None:
        return "infeasible", np.nan, None
    return "optimal", float(best_obj), best_x


def _bin_values(l, u):
    vals = []
    if l <= 0.0 and u >= 0.0:
        vals.append(0.0)
    if l <= 1.0 and u >= 1.0:
        vals.append(1.0)
    return vals or [np.nan]


def _row_violation(ax, rhs, senses):
    worst = 0.0
    for i, s in enumerate(senses):
        a = 0.0 if ax.size == 0 else ax[i]
        r = rhs[i]
        if s == "=":
            worst = max(worst, abs(a - r))
        elif s == "<=":
            worst = max(worst, a - r)
        else:
            worst = max(worst, r - a)
    return worst


def cost_by_hand(config, scenarios, schedule):
    """Spreadsheet-style expected cost: explicit loops, one term at a time.

    Independent of model.evaluate_cost, which is vectorized.
    """
    h = config.period_hours
    total = 0.0
    for s, prob in enumerate(scenarios.probabilities.tolist()):
        for t in range(config.horizon):
            acc = 0.0
            for i in range(config.n_chp):
                acc += config.chp_units.cost_per_kwh[i] * schedule.chp_power[s, i, t]
            ev = config.phevs
            for m in range(config.n_phev):
                acc += ev.degradation_cost_per_kwh[m] * (
                    schedule.charge[s, m, t] * ev.eta_charge[m]
                    + schedule.discharge[s, m, t] / ev.eta_discharge[m]
                )
            acc += config.tariff.price_buy[t] * schedule.grid_buy[s, t]
            acc -= config.tariff.price_sell[t] * schedule.grid_sell[s, t]
            total += prob * acc * h
    return total


def draw_scenarios(spec, config, count):
    """Scenario generation one scenario at a time, each from its own
    `default_rng([rng_seed, k])` with its transforms applied to that
    scenario's draws alone.  Returns the (probabilities, solar, parking,
    deferrable_energy) arrays of the set."""
    T, n_ev, n_def = config.horizon, config.n_phev, config.n_deferrable
    h = config.period_hours
    prob = np.broadcast_to(np.asarray(spec.parking_prob, dtype=float), (n_ev, T))
    d = config.deferrables
    length = [int(d.t_depart[j]) - int(d.t_arrive[j]) + 1 for j in range(n_def)]
    e_lo = np.array([float(d.rate_min[j]) * length[j] * h for j in range(n_def)])
    e_hi = np.array([float(d.rate_max[j]) * length[j] * h for j in range(n_def)])
    rows = []
    for k in range(count):
        rng = np.random.default_rng([spec.rng_seed, k])
        if spec.solar_noise_model == "multiplicative-lognormal":
            z = rng.standard_normal(T)
            factor = np.exp(spec.solar_sigma * z - 0.5 * spec.solar_sigma**2)
            solar = spec.solar_profile_mean * factor
        elif spec.solar_noise_model == "truncated-normal":
            z = rng.standard_normal(T)
            solar = spec.solar_profile_mean + spec.solar_sigma * z
        else:
            solar = spec.solar_samples[int(rng.integers(0, spec.solar_samples.shape[0]))]
        solar = np.clip(solar, 0.0, config.solar_capacity)
        parking = (rng.random((n_ev, T)) < prob).astype(float)
        if n_def:
            u = rng.random(n_def)
            energy = spec.deferrable_energy_mean + (2 * u - 1) * spec.deferrable_energy_spread
            energy = np.clip(energy, e_lo, e_hi)
        else:
            energy = np.zeros(0)
        rows.append((1.0 / count, solar, parking, energy))
    return tuple(np.array(block) for block in zip(*rows))


def greedy_reduction(C, p, keep, rtol=1e-12):
    """Fast-forward selection from a distance matrix, one exact sum at a time.

    Each candidate's weighted distance is a `math.fsum` of Python floats,
    and the pick is the lowest index within `rtol` (relative, floored at
    1) of the minimum.  Returns (selection order, step distances,
    probabilities of the kept scenarios in index order), with discarded
    mass moved to the nearest kept scenario, the lowest index on ties.
    Independent of mgsched.scenario, which updates the sums in place.
    """
    C = [[float(c) for c in row] for row in C]
    p = [float(v) for v in p]
    S = len(p)
    dmin = [math.inf] * S
    selected, steps = [], []
    for _ in range(keep):
        z = {u: math.fsum(p[k] * min(dmin[k], C[k][u]) for k in range(S))
             for u in range(S) if u not in selected}
        zmin = min(z.values())
        u = min(c for c in z if z[c] <= zmin + rtol * max(1.0, zmin))
        selected.append(u)
        dmin = [min(dmin[k], C[k][u]) for k in range(S)]
        steps.append(math.fsum(p[k] * dmin[k] for k in range(S)))
    kept = sorted(selected)
    mass = {i: [p[i]] for i in kept}
    for k in range(S):
        if k not in mass:
            mass[min(kept, key=lambda i: (C[k][i], i))].append(p[k])
    return selected, steps, [math.fsum(mass[i]) for i in kept]


def scenario_distance(scenario_set, i, j, weights):
    """Weighted L2 distance between scenarios i and j of a set, over
    (solar, flattened parking, deferrable energy): the reference for the
    reduction's vectorized distance matrix."""
    d2 = 0.0
    for w, a in ((weights.solar, scenario_set.solar), (weights.parking, scenario_set.parking),
                 (weights.deferrable, scenario_set.deferrable_energy)):
        d2 += w**2 * float(((a[i] - a[j]) ** 2).sum())
    return float(np.sqrt(d2))


def symbol_audit():
    """Where each model quantity lives in the formulation.

    One entry per quantity: (quantity, element).  Kept as data so a test
    can assert the mapping is complete.
    """
    return [
        ("CHP power output", "column kind 'chp'"),
        ("CHP capacity limits", "bounds of 'chp' columns"),
        ("CHP production cost", "objective coefficient of 'chp'"),
        ("power-to-heat ratio", "coefficients of 'heat' rows"),
        ("PHEV charge rate", "column kind 'charge'"),
        ("PHEV discharge rate", "column kind 'discharge'"),
        ("PHEV stored energy", "column kind 'storage'"),
        ("storage dynamics", "'link' equality rows (rates scaled by period_hours)"),
        ("storage capacity window", "bounds of 'storage' columns"),
        ("rate limits gated by parking", "bounds of 'charge'/'discharge' columns"),
        ("terminal stored energy", "'terminal' equality rows"),
        ("degradation cost", "objective coefficients of 'charge'/'discharge'"),
        ("deferrable serving rate", "column kind 'serve'"),
        ("serving window and rate band", "bounds of 'serve' columns"),
        ("required energy per load", "'defer_sum' equality rows"),
        ("grid import/export", "column kinds 'buy'/'sell'"),
        ("exchange capacity", "bounds of 'buy'/'sell' columns"),
        ("energy prices", "objective coefficients of 'buy'/'sell'"),
        ("power balance with solar and base load", "'balance' equality rows"),
        ("heat demand", "'heat' inequality rows"),
        ("scenario probability", "objective scaling per scenario"),
        ("solar output", "right-hand side of 'balance' rows"),
        ("optional spill", "column kind 'curtail' in 'balance' rows"),
        ("optional mode binary", "column kind 'mode' with coupling rows"),
        ("day-ahead CHP coupling", "'nonanticipative' equality rows"),
    ]


def row_bounds_by_row(problem):
    """Per-row activity interval [blo, bhi] of an LpProblem, one row at a
    time: the reference for the vectorized `LpProblem.row_bounds`."""
    blo = np.full(problem.n_rows, -np.inf)
    bhi = np.full(problem.n_rows, np.inf)
    for i, sense in enumerate(problem.row_sense):
        b = problem.rhs[i]
        r = 0.0 if problem.row_range is None else problem.row_range[i]
        if sense == "=":
            if r == 0.0:
                blo[i] = bhi[i] = b
            elif r > 0:
                blo[i], bhi[i] = b, b + r
            else:
                blo[i], bhi[i] = b + r, b
        elif sense == "<=":
            bhi[i] = b
            if r != 0.0:
                blo[i] = b - abs(r)
        else:  # >=
            blo[i] = b
            if r != 0.0:
                bhi[i] = b + abs(r)
    return blo, bhi


def export_mps_by_column(problem):
    """Canonical MPS text of an LpProblem, one column and one value at a
    time: the reference for the section-at-a-time `export_mps`."""
    def fmt(v):
        v = float(v)
        return repr(0.0 if v == 0.0 else v)  # -0.0 is written 0.0

    def pad(s, width):
        return s.ljust(width) if len(s) < width else s + " "

    codes = {"=": "E", "<=": "L", ">=": "G"}
    cols = problem.col_names
    out = [pad("NAME", 14) + problem.name, "ROWS", " N  COST"]
    for s, name in zip(problem.row_sense.tolist(), problem.row_names):
        out.append(f" {codes[s]}  {name}")
    rows = [pad(name, 10) for name in problem.row_names]
    out.append("COLUMNS")
    A = problem.matrix_csc()
    start, tr, tv = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()
    objective = problem.objective.tolist()
    for j in range(problem.n_cols):
        col = "    " + pad(cols[j], 10)
        if objective[j] != 0.0:
            out.append(col + pad("COST", 10) + fmt(objective[j]))
        elif start[j] == start[j + 1]:
            out.append(col + pad("COST", 10) + "0.0")
        for k in range(start[j], start[j + 1]):
            out.append(col + rows[tr[k]] + fmt(tv[k]))
    out.append("RHS")
    for i, r in enumerate(problem.rhs.tolist()):
        if r != 0.0:
            out.append("    " + pad("RHS", 10) + rows[i] + fmt(r))
    if problem.row_range is not None and np.any(problem.row_range != 0.0):
        out.append("RANGES")
        for i, r in enumerate(problem.row_range.tolist()):
            if r != 0.0:
                out.append("    " + pad("RNG", 10) + rows[i] + fmt(r))
    out.append("BOUNDS")
    lo, hi = problem.lower_inf().tolist(), problem.upper_inf().tolist()
    for j in range(problem.n_cols):
        name = pad("BND", 10) + cols[j]
        namev = pad("BND", 10) + pad(cols[j], 10)
        l, u = lo[j], hi[j]
        if j in problem.binary_cols:
            out.append(" BV " + name)
            if l == u:
                out.append(" FX " + namev + fmt(l))
            else:
                if l != 0.0:
                    out.append(" LO " + namev + fmt(l))
                if u != 1.0:
                    out.append(" UP " + namev + fmt(u))
        elif l == u:
            out.append(" FX " + namev + fmt(l))
        elif l == -math.inf and u == math.inf:
            out.append(" FR " + name)
        elif l == -math.inf:
            out.append(" MI " + name)
            out.append(" UP " + namev + fmt(u))
        else:
            if l != 0.0 or (u < 0.0 and math.isfinite(u)):
                out.append(" LO " + namev + fmt(l))
            if math.isfinite(u):
                out.append(" UP " + namev + fmt(u))
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def save_csv_bundle_by_value(scenario_set, directory):
    """A scenario set's CSV bundle through csv.writer, one repr per value:
    the reference for `scenario.save_csv_bundle`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ss = scenario_set
    _, n_ev, T = ss.parking.shape
    periods = [f"t{t + 1}" for t in range(T)]
    with open(directory / "solar.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario"] + periods)
        for s, row in enumerate(ss.solar):
            w.writerow([s] + [repr(float(v)) for v in row])
    with open(directory / "parking.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario", "phev"] + periods)
        for s, mat in enumerate(ss.parking):
            for m in range(n_ev):
                w.writerow([s, m] + [repr(float(v)) for v in mat[m]])
    with open(directory / "deferrable.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario"] + [f"load{j + 1}" for j in range(ss.deferrable_energy.shape[1])])
        for s, row in enumerate(ss.deferrable_energy):
            w.writerow([s] + [repr(float(v)) for v in row])
    with open(directory / "probabilities.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scenario", "probability"])
        for s, p in enumerate(ss.probabilities):
            w.writerow([s, repr(float(p))])


def parse_mps_by_branch(text):
    """MPS text parsed with one branch per section and per bound kind and
    one loop per array: the reference for `parse_mps`.  It keeps the old
    reader's handling of malformed data lines (an unpaired field is
    dropped, a repeated row name takes the later entries, a missing field
    is an IndexError), which `parse_mps` rejects."""
    name = "LP"
    section = None
    row_names = []
    row_sense = []
    row_index = {}
    obj_name = None
    col_names = []
    col_index = {}
    objective = {}
    triplets = []
    rhs = {}
    ranges = {}
    bounds = {}
    binaries = set()
    in_integer = False

    def col_id(cname):
        if cname not in col_index:
            col_index[cname] = len(col_names)
            col_names.append(cname)
        return col_index[cname]

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in " \t":
            tok = raw.split()
            key = tok[0].upper()
            if key == "NAME":
                name = tok[1] if len(tok) > 1 else "LP"
            elif key in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = key
            elif key == "ENDATA":
                section = None
                break
            else:
                raise MpsFormatError(f"unsupported section {key!r}")
            continue

        tok = raw.split()
        if section == "ROWS":
            code, rname = tok[0].upper(), tok[1]
            if code == "N":
                if obj_name is None:
                    obj_name = rname
                continue
            try:
                sense = SENSE_OF_CODE[code]
            except KeyError:
                raise MpsFormatError(f"unknown row type {code!r}") from None
            row_index[rname] = len(row_names)
            row_names.append(rname)
            row_sense.append(sense)
        elif section == "COLUMNS":
            if len(tok) >= 3 and tok[1] == "'MARKER'":
                in_integer = tok[2] == "'INTORG'"
                continue
            cname = tok[0]
            j = col_id(cname)
            if in_integer:
                binaries.add(j)
            for rname, val in zip(tok[1::2], tok[2::2]):
                v = float(val)
                if rname == obj_name:
                    objective[j] = objective.get(j, 0.0) + v
                elif rname in row_index:
                    triplets.append((row_index[rname], j, v))
                else:
                    raise MpsFormatError(f"coefficient for unknown row {rname!r}")
        elif section == "RHS":
            for rname, val in zip(tok[1::2], tok[2::2]):
                if rname == obj_name:
                    continue
                if rname not in row_index:
                    raise MpsFormatError(f"RHS for unknown row {rname!r}")
                rhs[row_index[rname]] = float(val)
        elif section == "RANGES":
            for rname, val in zip(tok[1::2], tok[2::2]):
                if rname not in row_index:
                    raise MpsFormatError(f"RANGES for unknown row {rname!r}")
                ranges[row_index[rname]] = float(val)
        elif section == "BOUNDS":
            btype = tok[0].upper()
            if btype in ("FR", "MI", "PL", "BV"):
                cname = tok[2]
                j = col_id(cname)
                lo, up = bounds.get(j, (0.0, np.inf))
                if btype == "FR":
                    bounds[j] = (-np.inf, np.inf)
                elif btype == "MI":
                    bounds[j] = (-np.inf, up)
                elif btype == "PL":
                    bounds[j] = (lo, np.inf)
                else:
                    binaries.add(j)
                    bounds[j] = (0.0, 1.0)
            elif btype in ("LO", "UP", "FX"):
                cname, val = tok[2], float(tok[3])
                j = col_id(cname)
                lo, up = bounds.get(j, (0.0, np.inf))
                if btype == "LO":
                    bounds[j] = (val, up)
                elif btype == "UP":
                    bounds[j] = (lo, val)
                else:
                    bounds[j] = (val, val)
            else:
                raise MpsFormatError(f"unsupported bound type {btype!r}")
        elif section is None:
            raise MpsFormatError("data line outside any section")
        else:
            raise MpsFormatError(f"unhandled section {section!r}")

    n, m = len(col_names), len(row_names)
    obj = np.zeros(n)
    for j, v in objective.items():
        obj[j] = v
    rhs_arr = np.zeros(m)
    for i, v in rhs.items():
        rhs_arr[i] = v
    range_arr = None
    if ranges:
        range_arr = np.zeros(m)
        for i, v in ranges.items():
            range_arr[i] = v
    col_lower = np.zeros(n)
    col_upper = np.full(n, np.inf)
    for j, (l, u) in bounds.items():
        col_lower[j], col_upper[j] = l, u
    return LpProblem(
        n_cols=n,
        n_rows=m,
        objective=obj,
        triplets=triplets,
        row_sense=row_sense,
        rhs=rhs_arr,
        col_lower=col_lower,
        col_upper=col_upper,
        binary_cols=binaries,
        row_range=range_arr,
        row_names=row_names,
        col_names=col_names,
        name=name,
    )
