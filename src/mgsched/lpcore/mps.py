"""MPS fixed-format export and import.

The writer emits a canonical layout: one coefficient per COLUMNS line,
columns in index order with the objective entry first, rows inside a
column in row-index order, RHS/RANGES/BOUNDS entries only where they
differ from the format defaults.  Numeric tokens use shortest
round-tripping decimal notation and may overflow their nominal field
width; fields never contain embedded blanks, so any whitespace-delimited
MPS reader accepts the files.  parse_mps inverts the writer exactly:
export -> parse -> export is byte-identical.

The writer builds each section an array at a time: every line's fields
are object arrays of shared strings (padded names, one text per distinct
number from `float_texts`), COLUMNS places each column's objective line
before its entries by computed positions, BOUNDS merges one mask per line
kind in column order, and a section's text is one join over its pieces.
`float_texts` is the number formatter of every artifact writer.
"""

import numpy as np

from .problem import LpProblem

OBJ_NAME = "COST"

SENSE_CODE = {"=": "E", "<=": "L", ">=": "G"}
SENSE_OF_CODE = {code: sense for sense, code in SENSE_CODE.items()}


class MpsFormatError(ValueError):
    """Unparseable or unsupported MPS content."""


def float_texts(values, text=repr):
    """text(v) for every value of a float array, as an object array of the
    same shape.  `text` runs once per distinct bit pattern, so -0.0 and 0.0
    stay apart, and every artifact writer formats its numbers this way."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64).ravel(), return_inverse=True)
    table = np.empty(bits.size, dtype=object)
    table[:] = [text(v) for v in bits.view(np.float64).tolist()]
    return table[inverse].reshape(a.shape)


def _fmt(values):
    """The MPS number text of every value, -0.0 written as 0.0."""
    return float_texts(np.asarray(values, dtype=np.float64) + 0.0)


def _pad(s: str, width: int) -> str:
    return (s + " ").ljust(width)


def _lines(*fields) -> str:
    """The text of lines that each concatenate `fields`, given per line as
    equal-length sequences or as one string for every line."""
    n = max((len(f) for f in fields if not isinstance(f, str)), default=0)
    pieces = np.empty((n, len(fields) + 1), dtype=object)
    for k, f in enumerate(fields):
        pieces[:, k] = f
    pieces[:, -1] = "\n"
    return "".join(pieces.ravel().tolist())


def _strings(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _padded(names, width: int) -> np.ndarray:
    """`_pad(name, width)` of every name, as an object array."""
    return _strings([(s + " ").ljust(width) for s in names])


def export_mps(problem: LpProblem) -> str:
    """Serialize a problem to canonical fixed-format MPS text."""
    n = problem.n_cols
    names = _strings(problem.col_names)
    padded = _padded(problem.col_names, 10)
    rows = _padded(problem.row_names, 10)
    code = np.empty(problem.n_rows, dtype=object)
    for sense, c in SENSE_CODE.items():
        code[problem.row_sense == sense] = f" {c}  "
    text = [_pad("NAME", 14) + problem.name + "\nROWS\n N  " + OBJ_NAME + "\n",
            _lines(code, problem.row_names), "COLUMNS\n"]

    # per column its objective entry (also the declaration of an empty
    # column, so bounds can attach to it), then its rows in row order
    A = problem.matrix_csc()
    nnz = np.diff(A.indptr)
    has_obj = (problem.objective != 0.0) | (nnz == 0)
    counts = nnz + has_obj
    obj_at = (np.cumsum(counts) - counts)[has_obj]
    entry = np.ones(counts.sum(), dtype=bool)
    entry[obj_at] = False
    row_text = np.empty(entry.size, dtype=object)
    row_text[obj_at] = _pad(OBJ_NAME, 10)
    row_text[entry] = rows[A.indices]
    values = np.empty(entry.size)
    values[obj_at] = problem.objective[has_obj]
    values[entry] = A.data
    text.append(_lines("    ", np.repeat(padded, counts), row_text, _fmt(values)))

    text.append("RHS\n")
    i = np.flatnonzero(problem.rhs)
    text.append(_lines("    " + _pad("RHS", 10), rows[i], _fmt(problem.rhs[i])))
    if problem.row_range is not None and np.any(problem.row_range):
        i = np.flatnonzero(problem.row_range)
        text += ["RANGES\n",
                 _lines("    " + _pad("RNG", 10), rows[i], _fmt(problem.row_range[i]))]

    # per column its lines in the order of `kinds`; a kind without a bound
    # names the column unpadded and writes no value
    lo, hi = problem.lower_inf(), problem.upper_inf()
    binary = np.zeros(n, dtype=bool)
    binary[list(problem.binary_cols)] = True
    fixed = lo == hi
    below = ~binary & ~fixed & (lo == -np.inf)  # FR or MI
    up_finite = np.isfinite(hi)
    kinds = {
        "BV": (binary, None),
        "FX": (fixed, lo),
        "FR": (below & ~up_finite, None),
        "MI": (below & up_finite, None),
        "LO": (~fixed & (lo != 0.0) & (lo != -np.inf), lo),
        "UP": (~fixed & np.where(binary, hi != 1.0, up_finite), hi),
    }
    masks = np.array([mask for mask, _ in kinds.values()])
    counts = masks.sum(axis=0)
    line_at = (np.cumsum(counts) - counts) + np.cumsum(masks, axis=0) - masks
    label = np.empty(counts.sum(), dtype=object)
    col_text = np.empty(label.size, dtype=object)
    values = np.zeros(label.size)
    valued = np.zeros(label.size, dtype=bool)
    for (kind, (mask, bound)), at in zip(kinds.items(), line_at):
        at = at[mask]
        label[at] = f" {kind} " + _pad("BND", 10)
        if bound is None:
            col_text[at] = names[mask]
        else:
            col_text[at] = padded[mask]
            values[at] = bound[mask]
            valued[at] = True
    value_text = _fmt(values)
    value_text[~valued] = ""
    text += ["BOUNDS\n", _lines(label, col_text, value_text), "ENDATA\n"]
    return "".join(text)


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
