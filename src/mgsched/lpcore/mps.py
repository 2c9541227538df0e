"""MPS fixed-format export and import.

The writer emits a canonical layout: one coefficient per COLUMNS line,
columns in index order with the objective entry first, rows inside a
column in row-index order, RHS/RANGES/BOUNDS entries only where they
differ from the format defaults.  Numeric tokens use shortest
round-tripping decimal notation and may overflow their nominal field
width; fields never contain embedded blanks, so any whitespace-delimited
MPS reader accepts the files.  parse_mps inverts the writer exactly:
export -> parse -> export is byte-identical.
"""

import math

import numpy as np

from .problem import LpProblem

OBJ_NAME = "COST"

SENSE_CODE = {"=": "E", "<=": "L", ">=": "G"}
SENSE_OF_CODE = {code: sense for sense, code in SENSE_CODE.items()}


class MpsFormatError(ValueError):
    """Unparseable or unsupported MPS content."""


def _fmt(v: float) -> str:
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return repr(v)


def _pad(s: str, width: int) -> str:
    return s.ljust(width) if len(s) < width else s + " "


def export_mps(problem: LpProblem) -> str:
    """Serialize a problem to canonical fixed-format MPS text."""
    cols = problem.col_names
    out = []
    out.append(_pad("NAME", 14) + problem.name)
    out.append("ROWS")
    out.append(" N  " + OBJ_NAME)
    for s, name in zip(problem.row_sense.tolist(), problem.row_names):
        out.append(f" {SENSE_CODE[s]}  {name}")
    rows = [_pad(name, 10) for name in problem.row_names]

    out.append("COLUMNS")
    # Python scalars throughout: per-element numpy indexing and ufuncs on
    # scalars cost more than the formatting itself.
    A = problem.matrix_csc()
    start = A.indptr.tolist()
    tr = A.indices.tolist()
    tv = A.data.tolist()
    objective = problem.objective.tolist()
    for j in range(problem.n_cols):
        col = "    " + _pad(cols[j], 10)
        if objective[j] != 0.0:
            out.append(col + _pad(OBJ_NAME, 10) + _fmt(objective[j]))
        elif start[j] == start[j + 1]:
            # declare the column so bounds can attach to it
            out.append(col + _pad(OBJ_NAME, 10) + "0.0")
        for k in range(start[j], start[j + 1]):
            out.append(col + rows[tr[k]] + _fmt(tv[k]))

    out.append("RHS")
    for i, r in enumerate(problem.rhs.tolist()):
        if r != 0.0:
            out.append("    " + _pad("RHS", 10) + rows[i] + _fmt(r))

    if problem.row_range is not None and np.any(problem.row_range != 0.0):
        out.append("RANGES")
        for i, r in enumerate(problem.row_range.tolist()):
            if r != 0.0:
                out.append("    " + _pad("RNG", 10) + rows[i] + _fmt(r))

    out.append("BOUNDS")
    lo = problem.lower_inf().tolist()
    hi = problem.upper_inf().tolist()
    for j in range(problem.n_cols):
        name = _pad("BND", 10) + cols[j]
        namev = _pad("BND", 10) + _pad(cols[j], 10)
        if j in problem.binary_cols:
            out.append(" BV " + name)
            l, u = lo[j], hi[j]
            if l == u:
                out.append(" FX " + namev + _fmt(l))
            else:
                if l != 0.0:
                    out.append(" LO " + namev + _fmt(l))
                if u != 1.0:
                    out.append(" UP " + namev + _fmt(u))
            continue
        l, u = lo[j], hi[j]
        if l == u:
            out.append(" FX " + namev + _fmt(l))
        elif l == -math.inf and u == math.inf:
            out.append(" FR " + name)
        elif l == -math.inf:
            out.append(" MI " + name)
            out.append(" UP " + namev + _fmt(u))
        else:
            if l != 0.0 or (u < 0.0 and math.isfinite(u)):
                out.append(" LO " + namev + _fmt(l))
            if math.isfinite(u):
                out.append(" UP " + namev + _fmt(u))

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_mps(text: str) -> LpProblem:
    """Parse MPS text into a problem; inverse of export_mps on its output."""
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
