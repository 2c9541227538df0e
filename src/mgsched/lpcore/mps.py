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

BOUND_KINDS = {
    "LO": lambda lo, up, v: (v, up),
    "UP": lambda lo, up, v: (lo, v),
    "FX": lambda lo, up, v: (v, v),
    "FR": lambda lo, up, v: (-np.inf, np.inf),
    "MI": lambda lo, up, v: (-np.inf, up),
    "PL": lambda lo, up, v: (lo, np.inf),
    "BV": lambda lo, up, v: (0.0, 1.0),
}


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
    """Parse MPS text into a problem; inverse of export_mps on its output.
    README's "MPS interchange" lists what else it reads and rejects."""
    name = "LP"
    section = None
    obj_name = None
    row_index = {}  # constraint row name -> index, in declaration order
    row_sense = []
    col_index = {}  # column name -> index, in order of first mention
    objective = {}
    triplets = []
    values = {"RHS": {}, "RANGES": {}}  # row index -> value, per section
    lower = {}
    upper = {}
    binaries = set()
    in_integer = False

    def row(rname, what):
        if rname not in row_index:
            raise MpsFormatError(f"{what} for unknown row {rname!r}")
        return row_index[rname]

    def dense(entries, index, fill=0.0):
        return [entries.get(k, fill) for k in range(len(index))]

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tok = raw.split()
        if raw[0] not in " \t":
            key = tok[0].upper()
            if key == "NAME":
                name = tok[1] if len(tok) > 1 else "LP"
            elif key in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = key
            elif key == "ENDATA":
                break
            else:
                raise MpsFormatError(f"unsupported section {key!r}")
        elif section == "ROWS":
            if len(tok) < 2:
                raise MpsFormatError(f"ROWS line {raw.strip()!r} needs a type and a name")
            code, rname = tok[0].upper(), tok[1]
            if code != "N" and code not in SENSE_OF_CODE:
                raise MpsFormatError(f"unknown row type {code!r}")
            if rname in row_index or rname == obj_name:
                raise MpsFormatError(f"duplicate row {rname!r}")
            if code != "N":
                row_index[rname] = len(row_sense)
                row_sense.append(SENSE_OF_CODE[code])
            elif obj_name is None:
                obj_name = rname
        elif section == "COLUMNS" and len(tok) >= 3 and tok[1] == "'MARKER'":
            in_integer = tok[2] == "'INTORG'"
        elif section in ("COLUMNS", "RHS", "RANGES") and len(tok) % 2 == 0:
            raise MpsFormatError(f"{section} line {raw.strip()!r} has an unpaired field")
        elif section == "COLUMNS":
            j = col_index.setdefault(tok[0], len(col_index))
            if in_integer:
                binaries.add(j)
            for rname, val in zip(tok[1::2], tok[2::2]):
                v = float(val)
                if rname == obj_name:
                    objective[j] = objective.get(j, 0.0) + v
                else:
                    triplets.append((row(rname, "coefficient"), j, v))
        elif section in values:
            for rname, val in zip(tok[1::2], tok[2::2]):
                if section == "RANGES" or rname != obj_name:
                    i = row(rname, section)
                    values[section][i] = float(val)
        elif section == "BOUNDS":
            kind = tok[0].upper()
            if kind not in BOUND_KINDS:
                raise MpsFormatError(f"unsupported bound type {kind!r}")
            valued = kind in ("LO", "UP", "FX")
            if len(tok) < 3 + valued:
                raise MpsFormatError(f"BOUNDS line {raw.strip()!r} is missing a field")
            v = float(tok[3]) if valued else None
            j = col_index.setdefault(tok[2], len(col_index))
            if kind == "BV":
                binaries.add(j)
            lower[j], upper[j] = BOUND_KINDS[kind](lower.get(j, 0.0), upper.get(j, np.inf), v)
        else:
            raise MpsFormatError("data line outside any section")

    return LpProblem(
        n_cols=len(col_index),
        n_rows=len(row_index),
        objective=dense(objective, col_index),
        triplets=triplets,
        row_sense=row_sense,
        rhs=dense(values["RHS"], row_index),
        col_lower=dense(lower, col_index),
        col_upper=dense(upper, col_index, np.inf),
        binary_cols=binaries,
        row_range=dense(values["RANGES"], row_index) if values["RANGES"] else None,
        row_names=list(row_index),
        col_names=list(col_index),
        name=name,
    )
