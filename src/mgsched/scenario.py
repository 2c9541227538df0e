"""Monte Carlo scenario generation and fast-forward scenario reduction.

Uncertainty has three independent blocks: solar output trajectories,
PHEV parking availability (Bernoulli per vehicle and period), and the
energy requested by each deferrable load.  A `ScenarioSet` holds S joint
realizations as one read-only array per input, scenario index first:
probabilities (S,), solar (S, T), parking (S, n_phev, T) and deferrable
energy (S, n_deferrable); there is no per-scenario object.

Reduction follows the greedy fast-forward selection: starting from the
empty set, repeatedly add the scenario that minimizes the
probability-weighted distance between the full set and the kept set,
then move each discarded scenario's probability to its nearest kept
neighbour.  Candidates within a relative 1e-12 of the minimum are tied
and go to the lowest index.  The S x S distance matrix is the only large
array: the feature matrix is filled in place and freed once its Gram
product is taken, the product becomes distances in place, and each
greedy step updates the candidates' distances from just the rows of it
that the last pick brought closer.  Both passes over the matrix work in
blocks of a few dozen rows, each through one reused buffer of about 1 MB.

Every scenario draws from its own substream seeded by (seed, index), so
generation is reproducible regardless of chunking or parallelism; the
draws land in rows of the set's arrays, and the transforms (exp, clip,
Bernoulli threshold) run once over whole arrays.

`write_atomic` is the file writer of every artifact, the scenario
bundle's included.
"""

import csv
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .lpcore import float_texts
from .model import MicrogridConfig, _freeze

NOISE_MODELS = ("multiplicative-lognormal", "truncated-normal", "empirical")


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters of the scenario sampler.

    parking_prob broadcasts to (n_phev, T): give a scalar, a per-period
    row, or the full matrix.  For the empirical noise model supply
    solar_samples with one trajectory per row.
    """

    solar_profile_mean: np.ndarray
    solar_noise_model: str = "multiplicative-lognormal"
    solar_sigma: float = 0.0
    solar_samples: np.ndarray | None = None
    parking_prob: float | np.ndarray = 1.0
    deferrable_energy_mean: np.ndarray = ()
    deferrable_energy_spread: np.ndarray = ()
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "solar_profile_mean",
                           np.asarray(self.solar_profile_mean, dtype=float))
        if self.solar_samples is not None:
            object.__setattr__(self, "solar_samples",
                               np.atleast_2d(np.asarray(self.solar_samples, dtype=float)))
        object.__setattr__(self, "deferrable_energy_mean",
                           np.asarray(self.deferrable_energy_mean, dtype=float))
        object.__setattr__(self, "deferrable_energy_spread",
                           np.asarray(self.deferrable_energy_spread, dtype=float))
        for name in ("solar_profile_mean", "solar_sigma", "solar_samples", "parking_prob",
                     "deferrable_energy_mean", "deferrable_energy_spread"):
            value = getattr(self, name)
            if value is not None and np.isnan(value).any():
                raise ValueError(f"{name} contains NaN")
        if self.solar_noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.solar_noise_model!r}")
        if self.solar_sigma < 0:
            raise ValueError("solar_sigma must be >= 0")
        if np.any(self.solar_profile_mean < 0):
            raise ValueError("solar_profile_mean must be nonnegative")
        prob = np.asarray(self.parking_prob, dtype=float)
        if np.any(prob < 0) or np.any(prob > 1):
            raise ValueError("parking probabilities must lie in [0, 1]")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class ScenarioSet:
    """S joint realizations of the uncertain inputs, one read-only array
    per input: probabilities (S,), solar (S, T) kW, parking (S, n_phev, T)
    0/1 availability and deferrable_energy (S, n_deferrable) kWh actually
    requested."""

    probabilities: np.ndarray
    solar: np.ndarray
    parking: np.ndarray
    deferrable_energy: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _freeze(getattr(self, f.name)))
        shapes = [getattr(self, f.name).shape for f in fields(self)]
        if [len(s) for s in shapes] != [1, 2, 3, 2] or len({s[0] for s in shapes}) != 1 \
                or shapes[1][1] != shapes[2][2]:
            raise ValueError(f"scenario set dimensions do not agree: {shapes}")
        p = self.probabilities
        if np.any(p < 0):
            raise ValueError("scenario probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"scenario probabilities sum to {p.sum()}, not 1")

    def __len__(self):
        return len(self.probabilities)

    def mean(self) -> "ScenarioSet":
        """Probability-weighted mean of all blocks, as a one-scenario set.

        Parking becomes fractional availability; this is the input of the
        expected-value (deterministic) baseline, not a physical scenario.
        """
        p = self.probabilities
        return ScenarioSet(np.ones(1), *(np.tensordot(p, a, axes=(0, 0))[None] for a in (
            self.solar, self.parking, self.deferrable_energy)))

    def single(self, s: int) -> "ScenarioSet":
        """One scenario pulled out with probability 1 (for subproblems)."""
        return ScenarioSet(np.ones(1), self.solar[s:s + 1], self.parking[s:s + 1],
                           self.deferrable_energy[s:s + 1])


def generate(spec: GenerationSpec, config: MicrogridConfig, count: int) -> ScenarioSet:
    """Draw `count` equally probable scenarios, deterministic in rng_seed.

    Scenario k takes its draws, in order, from its own substream
    default_rng([rng_seed, k]): the solar noise (T normals, or one sample
    row), then the parking uniforms, then the deferrable-energy uniforms.
    The raw draws fill preallocated rows; the transforms then run once
    over the whole arrays.
    """
    if count <= 0:
        raise ValueError("count must be >= 1")
    T = config.horizon
    n_ev = config.n_phev
    n_def = config.n_deferrable
    if spec.solar_profile_mean.shape != (T,):
        raise ValueError(f"solar_profile_mean must have length {T}")
    empirical = spec.solar_noise_model == "empirical"
    if empirical:
        if spec.solar_samples is None:
            raise ValueError("empirical noise model needs solar_samples")
        if spec.solar_samples.shape[1] != T:
            raise ValueError("solar_samples rows must have length T")
    prob = np.broadcast_to(np.asarray(spec.parking_prob, dtype=float), (n_ev, T))
    if spec.deferrable_energy_mean.shape != (n_def,):
        raise ValueError(f"deferrable_energy_mean must have length {n_def}")
    if spec.deferrable_energy_spread.shape != (n_def,):
        raise ValueError(f"deferrable_energy_spread must have length {n_def}")

    e_lo, e_hi = config.deferrables.energy_band(config.period_hours)

    if empirical:
        pick = np.empty(count, dtype=int)
    else:
        z = np.empty((count, T))
    parking = np.empty((count, n_ev, T))
    u = np.empty((count, n_def))
    for k in range(count):
        rng = np.random.default_rng([spec.rng_seed, k])
        if empirical:
            pick[k] = rng.integers(0, spec.solar_samples.shape[0])
        else:
            rng.standard_normal(out=z[k])
        rng.random(out=parking[k])
        rng.random(out=u[k])

    if spec.solar_noise_model == "multiplicative-lognormal":
        factor = np.exp(spec.solar_sigma * z - 0.5 * spec.solar_sigma**2)
        solar = spec.solar_profile_mean * factor
    elif spec.solar_noise_model == "truncated-normal":
        solar = spec.solar_profile_mean + spec.solar_sigma * z
    else:
        solar = spec.solar_samples[pick]
    np.clip(solar, 0.0, config.solar_capacity, out=solar)
    np.less(parking, prob, out=parking)
    energy = spec.deferrable_energy_mean + (2 * u - 1) * spec.deferrable_energy_spread
    np.clip(energy, e_lo, e_hi, out=energy)
    return ScenarioSet(np.full(count, 1.0 / count), solar, parking, energy)


# --------------------------------------------------------------------------
# distances and reduction

# Rows per block in the distance matrix and in the greedy update.  Each
# pass reuses one _BAND_ROWS x S buffer (768 kB at S = 3000), so the S x S
# distance matrix stays the only large array; a few dozen rows per block
# keep numpy's per-call overhead small.
_BAND_ROWS = 32

# Relative tolerance under which two greedy candidates count as tied.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class DistanceWeights:
    """Per-block scale factors of the scenario metric."""

    solar: float = 1.0
    parking: float = 1.0
    deferrable: float = 1.0

    @classmethod
    def from_set(cls, scenario_set: ScenarioSet) -> "DistanceWeights":
        """Normalize each block by its pooled standard deviation over the
        set; blocks that never vary get weight 0 (they carry no signal)."""

        def inv_std(a):
            if a.size == 0:
                return 0.0
            s = float(np.std(a))
            return 1.0 / s if s > 0 else 0.0

        return cls(
            solar=inv_std(scenario_set.solar),
            parking=inv_std(scenario_set.parking),
            deferrable=inv_std(scenario_set.deferrable_energy),
        )


def _feature_matrix(scenario_set: ScenarioSet, weights: DistanceWeights) -> np.ndarray:
    S = len(scenario_set)
    blocks = [(weights.solar, scenario_set.solar),
              (weights.parking, scenario_set.parking.reshape(S, -1)),
              (weights.deferrable, scenario_set.deferrable_energy)]
    X = np.empty((S, sum(a.shape[1] for _, a in blocks)))
    lo = 0
    for w, a in blocks:  # each weighted block straight into its columns
        np.multiply(w, a, out=X[:, lo:lo + a.shape[1]])
        lo += a.shape[1]
    return X


def _distance_matrix(scenario_set: ScenarioSet, weights: DistanceWeights) -> np.ndarray:
    """Pairwise distances sqrt(max(|x_i|^2 + |x_j|^2 - 2 x_i.x_j, 0)).

    The Gram matrix is the only S x S allocation, and the feature matrix
    is freed as soon as its Gram product is taken.  The squared row norms,
    and then the distances, are taken _BAND_ROWS rows at a time: the Gram
    matrix is doubled and turned into distances in place, through one
    reused buffer, so each element sees the same operations in the same
    order as the one-shot formula.  The Gram product itself is not banded,
    because a banded gemm rounds differently.
    """
    X = _feature_matrix(scenario_set, weights)
    S = len(X)
    sq = np.empty(S)
    for lo in range(0, S, _BAND_ROWS):
        np.square(X[lo:lo + _BAND_ROWS]).sum(axis=1, out=sq[lo:lo + _BAND_ROWS])
    d = X @ X.T
    del X
    d *= 2.0
    buf = np.empty((min(_BAND_ROWS, S), S))
    for lo in range(0, S, _BAND_ROWS):
        band = d[lo:lo + _BAND_ROWS]
        sums = np.add(sq[lo:lo + _BAND_ROWS, None], sq[None, :], out=buf[:len(band)])
        np.subtract(sums, band, out=band)
        np.maximum(band, 0.0, out=band)
        np.sqrt(band, out=band)
    np.fill_diagonal(d, 0.0)
    return d


def kantorovich_distance(scenario_set: ScenarioSet, subset_indices,
                         weights: DistanceWeights | None = None) -> float:
    """Sum over discarded scenarios of probability times distance to the
    nearest kept scenario."""
    idx = sorted(set(int(i) for i in subset_indices))
    if not idx:
        raise ValueError("subset must be nonempty")
    S = len(scenario_set)
    if idx[0] < 0 or idx[-1] >= S:
        raise ValueError("subset index out of range")
    weights = weights or DistanceWeights.from_set(scenario_set)
    X = _feature_matrix(scenario_set, weights)
    d = np.full(S, np.inf)
    for j in idx:  # one S x F difference at a time, never S x k x F
        np.minimum(d, np.sqrt(((X - X[j]) ** 2).sum(axis=1)), out=d)
    return float(scenario_set.probabilities @ d)


@dataclass
class ReductionReport:
    n_original: int
    n_kept: int
    kept_indices: list
    selection_order: list
    kantorovich_distance: float
    step_distances: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


def reduce_fast_forward(scenario_set: ScenarioSet, keep: int,
                        weights: DistanceWeights | None = None):
    """Greedy fast-forward selection of `keep` scenarios.

    Each step adds the scenario u whose inclusion minimizes the
    probability-weighted distance z[u] = sum_k p_k min(dmin_k, C[k, u])
    of the full set to the kept set, where dmin_k is scenario k's
    distance to its nearest kept scenario.  Candidates within a relative
    1e-12 of the minimum count as tied, and ties resolve to the lowest
    scenario index.  Discarded probability mass moves to the nearest kept
    scenario (the lowest kept index among equally near ones).  Returns
    the reduced set (original index order) and a report with the
    selection order and the distance after every step.

    z is updated incrementally: a pick lowers dmin only on some rows, and
    for each such row, with new <= old, min(new, c) - min(old, c) equals
    new - clip(c, new, old).  So a step reads only the changed rows of C,
    _BAND_ROWS of them at a time, clipped into one reused buffer (straight
    from C when a block's rows are contiguous, else through a gather into
    the same buffer), and the only S x S array in memory is C itself.
    The block size sets only the order in which z sums a step's rows, a
    rounding-level difference that the tie tolerance absorbs.
    """
    S = len(scenario_set)
    if not (1 <= keep <= S):
        raise ValueError(f"keep must lie in [1, {S}], got {keep}")
    weights = weights or DistanceWeights.from_set(scenario_set)
    C = _distance_matrix(scenario_set, weights)
    p = scenario_set.probabilities

    z = p @ C
    dmin = np.full(S, np.inf)
    buf = np.empty((min(_BAND_ROWS, S), S))
    selected = []
    step_distances = []
    for step in range(keep):
        zmin = float(z.min())
        u = int(np.argmax(z <= zmin + _TIE_RTOL * max(1.0, zmin)))
        selected.append(u)
        new = np.minimum(dmin, C[:, u])
        step_distances.append(float(p @ new))
        if step + 1 < keep:
            z[u] = np.inf
            rows = np.flatnonzero(new < dmin)
            for lo in range(0, rows.size, _BAND_ROWS):
                r = rows[lo:lo + _BAND_ROWS]
                band = buf[:r.size]
                if r[-1] - r[0] == r.size - 1:  # contiguous: read C in place
                    src = C[r[0]:r[-1] + 1]
                else:
                    # r is in range (flatnonzero), so "clip" never clips; it
                    # lets take write into `band` directly, where "raise"
                    # buffers it
                    src = np.take(C, r, axis=0, out=band, mode="clip")
                np.clip(src, new[r, None], dmin[r, None], out=band)
                z += p[r] @ new[r] - p[r] @ band
        dmin = new

    kept = sorted(selected)
    near = np.asarray(kept)[np.argmin(C[:, kept], axis=1)]
    gone = np.ones(S, dtype=bool)
    gone[kept] = False
    moved = np.zeros(S)
    moved[kept] = p[kept]
    np.add.at(moved, near[gone], p[gone])  # in index order, as a loop would add

    reduced = ScenarioSet(moved[kept], scenario_set.solar[kept], scenario_set.parking[kept],
                          scenario_set.deferrable_energy[kept])
    report = ReductionReport(
        n_original=S,
        n_kept=keep,
        kept_indices=kept,
        selection_order=selected,
        kantorovich_distance=step_distances[-1],
        step_distances=step_distances,
    )
    return reduced, report


# --------------------------------------------------------------------------
# serialization


def scenario_set_to_dict(scenario_set: ScenarioSet) -> dict:
    ss = scenario_set
    return {
        "scenarios": [
            {"probability": p, "solar": solar, "parking": parking, "deferrable_energy": energy}
            for p, solar, parking, energy in zip(
                ss.probabilities.tolist(), ss.solar.tolist(), ss.parking.tolist(),
                ss.deferrable_energy.tolist())
        ]
    }


def scenario_set_from_dict(data: dict) -> ScenarioSet:
    rows = data["scenarios"]
    if not isinstance(rows, list):
        raise TypeError(f"scenarios: expected a list, got {rows!r}")
    solar = np.array([s["solar"] for s in rows], dtype=float)
    parking = np.array([s["parking"] for s in rows], dtype=float)
    if parking.size == 0:
        parking = parking.reshape(len(rows), 0, solar.shape[-1])
    return ScenarioSet(
        probabilities=np.array([float(s["probability"]) for s in rows]),
        solar=solar,
        parking=parking,
        deferrable_energy=np.array([s.get("deferrable_energy", []) for s in rows], dtype=float),
    )


def write_atomic(path, text: str):
    """Write `text` to `path` as it is, line ends included, through a
    temporary file and a rename, so a failed write leaves the earlier
    file whole and no temporary file beside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(scenario_set: ScenarioSet, path):
    write_atomic(path, json.dumps(scenario_set_to_dict(scenario_set), sort_keys=True) + "\n")


def reject_constant(name):
    """json's parse_constant hook: NaN and +-Infinity are not JSON numbers."""
    raise ValueError(f"{name} is not a JSON number")


def load_json(path) -> ScenarioSet:
    return scenario_set_from_dict(
        json.loads(Path(path).read_text(), parse_constant=reject_constant))


def save_csv_bundle(scenario_set: ScenarioSet, directory):
    """Write solar.csv, parking.csv, deferrable.csv, probabilities.csv."""
    directory = Path(directory)
    ss = scenario_set
    S, n_ev, T = ss.parking.shape
    scenario = [str(s) for s in range(S)]
    periods = [f"t{t + 1}" for t in range(T)]
    _write_table(directory / "solar.csv", ["scenario", *periods], scenario, ss.solar)
    _write_table(directory / "parking.csv", ["scenario", "phev", *periods],
                 [f"{s},{m}" for s in range(S) for m in range(n_ev)],
                 ss.parking.reshape(S * n_ev, T))
    _write_table(directory / "deferrable.csv",
                 ["scenario"] + [f"load{j + 1}" for j in range(ss.deferrable_energy.shape[1])],
                 scenario, ss.deferrable_energy)
    _write_table(directory / "probabilities.csv", ["scenario", "probability"], scenario,
                 ss.probabilities[:, None])


def _write_table(path, header, keys, values):
    """A CSV file as csv.writer writes it (CRLF line ends): the header, then
    per row its key text and the repr of each of its values."""
    lines = [",".join(header)]
    lines += [",".join([key, *row]) for key, row in zip(keys, float_texts(values).tolist())]
    write_atomic(path, "\r\n".join(lines) + "\r\n")


def load_csv_bundle(directory) -> ScenarioSet:
    directory = Path(directory)

    def read(fname):
        with open(directory / fname, newline="") as f:
            rows = list(csv.reader(f))
        return rows[0], rows[1:]

    _, rows = read("solar.csv")
    solar = {int(r[0]): np.array([float(v) for v in r[1:]]) for r in rows}
    _, rows = read("parking.csv")
    parking = {}
    for r in rows:
        parking.setdefault(int(r[0]), {})[int(r[1])] = [float(v) for v in r[2:]]
    _, rows = read("deferrable.csv")
    deferrable = {int(r[0]): np.array([float(v) for v in r[1:]]) for r in rows}
    _, rows = read("probabilities.csv")
    probs = {int(r[0]): float(r[1]) for r in rows}

    def parking_matrix(s):
        if s not in parking:
            return np.zeros((0, solar[s].shape[0]))
        return np.array([parking[s][m] for m in sorted(parking[s])])

    order = sorted(solar)
    return ScenarioSet(
        probabilities=np.array([probs[s] for s in order]),
        solar=np.array([solar[s] for s in order]),
        parking=np.array([parking_matrix(s) for s in order]),
        deferrable_energy=np.array([deferrable.get(s, np.zeros(0)) for s in order]),
    )
