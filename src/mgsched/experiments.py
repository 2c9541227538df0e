"""Experiment pipeline: wire config -> scenarios -> formulation -> solve
-> reports, plus the solar-penetration and serving-window sweeps and the
stochastic-versus-deterministic comparison.

In fully-adaptive mode no decision is shared across scenarios, so the
deterministic equivalent separates by scenario, binaries or not, and
each scenario is a block weighted by its probability; in day-ahead-chp
mode, and for a single scenario, the whole set is one block.  The blocks
differ only in rhs and bounds, so one pass, `solve_blocks`, makes and
solves each as a template with its own rhs and bounds.  Its assembly,
`solve_stochastic`, maps each block to a schedule, checks it against its
own rows and bounds, and joins the schedules; the full problem is built
only for the joint mode and for MPS export.  The deterministic
baseline solves the probability-weighted mean scenario and its rigid
schedule is then priced under every scenario at once with `cost_rates`:
grid exchange re-adjusts within its caps, and anything the rigid plan
cannot absorb (parking shortfalls, storage excursions, energy
mismatches, exchange overflow) is charged at a penalty price and
flagged.  The solar sweep runs that comparison at every level.  Every
artifact write is atomic and timestamp-free, so identical manifests and
seeds produce byte-identical outputs.
"""

import contextlib
import dataclasses
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import scenario as scn
from .config_io import (IngestError, _number, _object, generation_spec_from_dict,
                        load_config, load_generation_spec)
from .formulation import (FormulationOptions, build, extract_schedule, scenario_data,
                          schedule_to_vector)
from .lpcore import (LpError, SolverStats, SolveSettings, check_point, export_mps, float_texts,
                     solve_lp, solve_milp)
from .model import (
    MicrogridConfig,
    Schedule,
    check_balance,
    cost_rates,
    evaluate_cost,
    validate_config,
    validate_scenarios,
)
from .scenario import write_atomic as _write_atomic

log = logging.getLogger(__name__)

@dataclass
class RunManifest:
    """Everything one run needs; mirrors the JSON manifest document.
    `generation` is a spec path or a parsed spec (an inline object)."""

    config_path: str
    generation: scn.GenerationSpec | str | None = None
    scenarios_path: str | None = None
    generate_count: int = 3000
    keep: int = 25
    options: FormulationOptions = field(default_factory=FormulationOptions)
    settings: SolveSettings = field(default_factory=SolveSettings)
    out_dir: str = "out"
    levels: tuple = ()
    widths: tuple = ()
    seed: int | None = None
    write_mps: bool = False

    def __post_init__(self):
        if self.generate_count < 1:
            raise IngestError(f"'generate' must be >= 1, got {self.generate_count}")
        if self.keep < 1:
            raise IngestError(f"'keep' must be >= 1, got {self.keep}")
        if self.seed is not None and self.seed < 0:
            raise IngestError(f"'seed' must be >= 0, got {self.seed}")
        if not isinstance(self.write_mps, bool):
            raise IngestError(f"'write_mps' must be true or false, got {self.write_mps!r}")

    @classmethod
    def from_dict(cls, data: dict, base_dir=".") -> "RunManifest":
        """Parse a manifest document.  Relative paths, those inside an
        inline "generation" object included, resolve against `base_dir`."""
        base = Path(base_dir)

        def resolve(key, default=None):
            # a path field, resolved against base_dir; null or absent is `default`
            p = default if data.get(key) is None else data[key]
            if p is None:
                return None
            if not isinstance(p, str):
                raise IngestError(f"manifest: {key}: expected a path string, got {p!r}")
            p = Path(p)
            return str(p if p.is_absolute() else base / p)

        def parse(key, kind, default):
            return default if data.get(key) is None else _number(data[key], kind,
                                                                 f"manifest: {key}")

        def parse_list(key, kind):
            values = data.get(key)
            if values is None:
                return ()
            if not isinstance(values, list):
                raise IngestError(f"manifest: {key}: expected a list, got {values!r}")
            return tuple(_number(v, kind, f"manifest: {key}[{i}]") for i, v in enumerate(values))

        _object(data, "manifest")
        if data.get("config") is None:
            raise IngestError("manifest: missing required field 'config'")
        try:
            options = FormulationOptions(**data.get("formulation", {}))
        except (TypeError, ValueError) as e:
            raise IngestError(f"formulation options: {e}") from e
        try:
            settings = SolveSettings(**data.get("solver", {}))
        except (TypeError, ValueError) as e:
            raise IngestError(f"solver settings: {e}") from e
        gen = data.get("generation")
        if isinstance(gen, str):
            gen = resolve("generation")
        elif gen is not None:
            gen = generation_spec_from_dict(gen, base)
        return cls(
            config_path=resolve("config"),
            generation=gen,
            scenarios_path=resolve("scenarios"),
            generate_count=parse("generate", int, 3000),
            keep=parse("keep", int, 25),
            options=options,
            settings=settings,
            out_dir=resolve("out", "out"),
            levels=parse_list("levels", float),
            widths=parse_list("widths", int),
            seed=parse("seed", int, None),
            write_mps=data.get("write_mps", False),
        )


@dataclass
class SolveReport:
    status: str
    objective: float
    n_cols: int
    n_rows: int
    decomposed: bool
    max_row_violation: float = 0.0
    max_bound_violation: float = 0.0
    row_violations: dict = field(default_factory=dict)  # row name -> amount
    infeasible_rows: list = field(default_factory=list)
    stats: SolverStats = field(default_factory=SolverStats)  # summed over blocks

    @property
    def iterations(self):
        return self.stats.iterations

    @property
    def nodes(self):
        return self.stats.nodes

    def to_dict(self):
        """The deterministic part, with the iteration and node totals;
        the other counters of `stats` go to trace.json instead."""
        payload = dataclasses.asdict(self)
        del payload["stats"]
        return {**payload, "iterations": self.iterations, "nodes": self.nodes}


class SolveFailure(RuntimeError):
    """A solve that ended without an optimal schedule; each subclass's
    `status` names how, as solution.json and compare.json record it."""


class InfeasibleProblem(SolveFailure):
    status = "infeasible"

    def __init__(self, rows):
        super().__init__(f"problem infeasible; violated rows: {rows[:20]}")
        self.rows = rows


class SolverLimit(SolveFailure):
    status = "limit"


class UnboundedProblem(SolveFailure):
    status = "unbounded"


class NumericalFailure(SolveFailure):
    """The solver gave up on numerical grounds (an `LpError`), or its
    schedule failed the post-solve balance or storage check."""
    status = "numerical"


# --------------------------------------------------------------------------
# scenario preparation


def load_scenario_set(path, config: MicrogridConfig | None = None) -> scn.ScenarioSet:
    """Read a CSV bundle directory or a JSON file and validate every
    scenario, against `config` when given.  Failures, including blocks
    whose shapes differ across scenarios, are IngestError."""
    p = Path(path)
    try:
        sset = scn.load_csv_bundle(p) if p.is_dir() else scn.load_json(p)
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise IngestError(f"cannot load scenario set from {p}: {e}") from e
    errors = [i.message for i in validate_scenarios(sset, config).errors]
    if errors:
        raise IngestError(f"{p}: " + "; ".join(errors))
    return sset


def generate_scenarios(spec: scn.GenerationSpec, config: MicrogridConfig, count: int,
                       seed: int | None = None) -> scn.ScenarioSet:
    """Draw `count` scenarios, with `seed` in place of the spec's rng_seed
    when given.  A spec or count that does not fit the config is an
    IngestError."""
    try:
        if seed is not None:
            spec = dataclasses.replace(spec, rng_seed=seed)
        return scn.generate(spec, config, count)
    except ValueError as e:
        raise IngestError(f"generation spec: {e}") from e


def prepare_scenarios(manifest: RunManifest, config: MicrogridConfig):
    """Load or generate scenarios, then fast-forward reduce to `keep`.

    This is where manifest and config first meet, so options that depend
    on the config are checked here.  Loaded scenarios are validated
    against the config; generated ones are valid by construction.
    """
    penalty = manifest.options.curtailment_penalty
    if penalty is not None and penalty <= config.tariff.price_buy.max():
        raise IngestError("curtailment_penalty must exceed the highest purchase price")
    if manifest.scenarios_path:
        full = load_scenario_set(manifest.scenarios_path, config)
    else:
        spec = manifest.generation
        if spec is None:
            raise IngestError("manifest needs either 'generation' or 'scenarios'")
        if isinstance(spec, str):
            spec = load_generation_spec(spec)
        full = generate_scenarios(spec, config, manifest.generate_count, manifest.seed)
    report = None
    reduced = full
    if manifest.keep < len(full):
        reduced, report = scn.reduce_fast_forward(full, manifest.keep)
    return reduced, full, report


# --------------------------------------------------------------------------
# solving


def solve_blocks(template, rhs, lower, upper, settings: SolveSettings):
    """Yield (problem, solution) for each block of `template` in order:
    block s is the template with `rhs[s]`, `lower[s]` and `upper[s]` as
    its rhs and column bounds.  An LP block starts from the previous
    block's basis, a MILP block's root cold; an `LpError` ends the pass."""
    basis = None
    for s in range(len(rhs)):
        problem = template.with_data(rhs=rhs[s], col_lower=lower[s], col_upper=upper[s])
        sol = (solve_milp(problem, settings) if problem.binary_cols
               else solve_lp(problem, settings, basis=basis))
        basis = sol.basis
        yield problem, sol


def solve_stochastic(config: MicrogridConfig, scenarios: scn.ScenarioSet,
                     options: FormulationOptions | None = None,
                     settings: SolveSettings | None = None):
    """Solve the deterministic equivalent; returns (schedule, report).

    In fully-adaptive mode with more than one scenario, each scenario is
    a block of its own, weighted by its probability: only day-ahead-chp's
    nonanticipativity rows link scenarios.  Otherwise the whole set is one
    block of weight 1.  The blocks share the matrix and the costs, so the
    first, built once, is the template that `solve_blocks` patches with
    each block's rhs and bounds (`formulation.scenario_data`).  This is
    the assembly: it pulls one block at a time, raises on the first that
    is not optimal (so no later block is solved), and checks each block's
    schedule embedding (plus the solver's mode binaries) against the
    block's rows and bounds, with row names carrying the scenario index.

    `node_limit` and `iteration_limit` apply to each block, and the
    report's `stats` sums the blocks' counters.  Each MILP block is
    solved to optimality (`solve_milp`), so the total is optimal too.
    """
    options = options or FormulationOptions()
    settings = settings or SolveSettings()
    decomposed = options.stage_mode == "fully-adaptive" and len(scenarios) > 1
    weights = scenarios.probabilities if decomposed else [1.0]
    report = SolveReport(status="optimal", objective=0.0, n_cols=0, n_rows=0,
                         decomposed=decomposed)
    parts = []
    template, index = build(config, scenarios.single(0) if decomposed else scenarios, options)
    data = (scenario_data(config, scenarios, options) if decomposed
            else (template.rhs[None], template.col_lower[None], template.col_upper[None]))
    blocks = solve_blocks(template, *data, settings)
    for s, weight in enumerate(weights):
        where = f" in scenario {s}" if decomposed else ""
        try:
            problem, sol = next(blocks)
        except LpError as e:
            raise NumericalFailure(f"{e}{where}") from e
        report.stats.add(sol.stats)
        if sol.status == "infeasible":
            raise InfeasibleProblem(
                [_shift_scenario_name(problem.row_names[i], s) for i in sol.infeasible_rows])
        if sol.status == "limit":
            raise SolverLimit(f"node or iteration limit reached{where}")
        if sol.status == "unbounded":
            raise UnboundedProblem(f"deterministic equivalent unbounded{where}")
        try:
            part = extract_schedule(sol, index, config)
        except ValueError as e:  # the storage columns disagree with the recursion
            raise NumericalFailure(f"{e}{where}") from e
        x = schedule_to_vector(part, index)
        mode = index.columns("mode")
        x[mode] = sol.x[mode]
        rep = check_point(problem, x, settings.feasibility_tol)
        report.objective += weight * sol.objective
        report.n_cols += problem.n_cols
        report.n_rows += problem.n_rows
        report.max_row_violation = max(report.max_row_violation, rep.max_row_violation)
        report.max_bound_violation = max(report.max_bound_violation, rep.max_bound_violation)
        report.row_violations.update((_shift_scenario_name(problem.row_names[i], s), v)
                                     for i, v in rep.row_violations.items())
        parts.append(part)
    schedule = Schedule.from_decisions(config, *(
        np.concatenate([getattr(p, name) for p in parts])
        for name in ("chp_power", "charge", "discharge", "serve", "grid_buy", "grid_sell",
                     "curtail")))
    return schedule, report


def _shift_scenario_name(name: str, s: int) -> str:
    return name[: -len("_s0")] + f"_s{s}" if name.endswith("_s0") else name


def solve_deterministic(config: MicrogridConfig, scenarios: scn.ScenarioSet,
                        options: FormulationOptions | None = None,
                        settings: SolveSettings | None = None):
    """Expected-value baseline: one solve against the mean scenario."""
    return solve_stochastic(config, scenarios.mean(), options, settings)


def default_penalty(config: MicrogridConfig) -> float:
    """Recourse price for violations of a rigid schedule: well above any
    energy price so it is never preferred over normal operation."""
    return 10.0 * max(float(config.tariff.price_buy.max()), 0.1)


def evaluate_policy(config: MicrogridConfig, scenarios: scn.ScenarioSet,
                    policy: Schedule, penalty: float | None = None):
    """Price a rigid schedule under every scenario.

    The internal decisions (CHP, charge/discharge, serving) are kept as
    planned, except that charging or discharging while the vehicle is
    away simply does not happen.  Grid exchange re-optimizes each period
    within its caps.  The realized S-scenario schedule is priced with
    `cost_rates`, each scenario's periods summed as `evaluate_cost` sums
    them; remaining imbalance, storage-bound excursions,
    terminal-energy mismatch, and unmet deferrable energy are charged at
    the penalty price and flag the scenario.  Returns (expected_cost,
    per_scenario list of dicts).
    """
    if policy.n_scenarios != 1:
        raise ValueError("policy must be a single-scenario schedule")
    penalty = default_penalty(config) if penalty is None else float(penalty)
    h = config.period_hours
    S = len(scenarios)
    cap = config.tariff.exchange_cap
    charge = policy.charge * scenarios.parking
    discharge = policy.discharge * scenarios.parking
    serve = policy.serve[0]
    demand = config.base_power + charge.sum(axis=1) + serve.sum(axis=0)
    supply = policy.chp_power[0].sum(axis=0) + discharge.sum(axis=1) + scenarios.solar
    net = demand - supply
    buy = np.clip(net, 0.0, cap)
    sell = np.clip(-net, 0.0, cap)
    realized = Schedule.from_decisions(
        config, np.repeat(policy.chp_power, S, axis=0), charge, discharge,
        np.repeat(policy.serve, S, axis=0), buy, sell)

    # kWh of unabsorbable deviation, each scenario's (n_phev, T) summed as
    # one row; every term is 0 for an absent fleet
    ev = config.phevs
    storage = realized.storage
    violation = np.maximum(storage - ev.e_max[:, None], 0.0).reshape(S, -1).sum(axis=1)
    violation += np.maximum(ev.e_min[:, None] - storage, 0.0).reshape(S, -1).sum(axis=1)
    violation += np.abs(storage[:, :, -1] - ev.e_initial).sum(axis=1)
    violation += np.abs(serve.sum(axis=1) * h - scenarios.deferrable_energy).sum(axis=1)
    violation += np.abs(net - (buy - sell)).sum(axis=1) * h

    cost = h * cost_rates(config, realized).sum(axis=1) + penalty * violation
    # a running sum in scenario order; np.sum would add the terms pairwise
    expected = float(np.cumsum(scenarios.probabilities * cost)[-1])
    return expected, [
        {"scenario": s, "cost": c, "violation_kwh": v, "flagged": v > 1e-6}
        for s, (c, v) in enumerate(zip(cost.tolist(), violation.tolist()))
    ]


def compare_policies(config, scenarios, options=None, settings=None):
    """Stochastic solve versus mean-scenario policy; VSS is their gap."""
    options = options or FormulationOptions()
    settings = settings or SolveSettings()
    sched, report = solve_stochastic(config, scenarios, options, settings)
    stochastic_cost = report.objective
    det_sched, det_report = solve_deterministic(config, scenarios, options, settings)
    penalty = options.curtailment_penalty
    policy_cost, per_scenario = evaluate_policy(config, scenarios, det_sched, penalty)
    return {
        "stochastic_cost": stochastic_cost,
        "ev_problem_cost": det_report.objective,
        "deterministic_policy_cost": policy_cost,
        "vss": policy_cost - stochastic_cost,
        "penalty": default_penalty(config) if penalty is None else penalty,
        "scenarios": per_scenario,
        "flagged_scenarios": [r["scenario"] for r in per_scenario if r["flagged"]],
    }


# --------------------------------------------------------------------------
# artifact writing


def _json_float(v: float) -> str:
    """A float as json writes it."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return repr(v)


def _json_array(a: np.ndarray, level: int) -> str:
    """json.dumps(a.tolist(), indent=2) for a float64 array, as it reads
    where its "[" follows text indented `level` steps: the values joined
    by one separator string per roll-over depth (how many trailing axes
    start over between two values)."""
    if a.ndim == 0 or a.size == 0:  # a number, or lists without numbers
        return json.dumps(a.tolist(), indent=2).replace("\n", "\n" + "  " * level)
    k = a.ndim

    def closing(depth):  # close `depth` lists, innermost first
        return "".join("\n" + "  " * (level + k - 1 - i) + "]" for i in range(depth))

    def opening(depth):  # open `depth` lists below the items of list k - depth
        return "".join("[\n" + "  " * (level + k - depth + 1 + i) for i in range(depth))

    seps = np.empty(k, dtype=object)
    seps[:] = [closing(r) + ",\n" + "  " * (level + k - r) + opening(r) for r in range(k)]
    values = float_texts(a, _json_float).ravel()
    i = np.arange(1, a.size)
    depth = sum(i % size == 0 for size in np.cumprod(a.shape[:0:-1]))
    pieces = np.empty(2 * a.size - 1, dtype=object)
    pieces[0::2] = values
    pieces[1::2] = seps[depth]
    return opening(k) + "".join(pieces.tolist()) + closing(k)


def _json_text(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), where a float64
    array may stand anywhere for its list: it is written as that list
    would be, a whole array at a time (`_json_array`)."""
    arrays = []

    def default(o):
        if isinstance(o, np.ndarray) and o.dtype == np.float64:
            arrays.append(o)
            return ""  # a placeholder, the encoder's next chunk
        return json.JSONEncoder.default(encoder, o)

    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=default)
    chunks = []
    line = ""  # the last chunk that started a line: it ends in the line's indent
    for chunk in encoder.iterencode(payload):
        if arrays:
            indent = line[line.rfind("\n") + 1:]
            chunk = _json_array(arrays.pop(), (len(indent) - len(indent.lstrip(" "))) // 2)
        elif "\n" in chunk:
            line = chunk
        chunks.append(chunk)
    return "".join(chunks)


def _write_json(path: Path, payload: dict):
    _write_atomic(path, _json_text(payload) + "\n")


def _write_csv(path: Path, header, rows):
    floats = iter(float_texts([v for row in rows for v in row if isinstance(v, float)]))
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(next(floats) if isinstance(v, float) else str(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


@contextlib.contextmanager
def _status_on_failure(path: Path):
    """On a solver failure or a failed post-solve check inside the block,
    atomically replace `path` with {"status", "message"} (plus
    "infeasible_rows" when infeasible), so no earlier run's artifact
    survives, and re-raise."""
    try:
        yield
    except SolveFailure as e:
        payload = {"status": e.status, "message": str(e)}
        if isinstance(e, InfeasibleProblem):
            payload["infeasible_rows"] = e.rows
        _write_json(path, payload)
        raise


def write_problem_mps(config, scenarios, options, path: Path):
    """Build the full deterministic equivalent and write it atomically as
    MPS; returns the problem."""
    problem, _ = build(config, scenarios, options)
    _write_atomic(path, export_mps(problem))
    return problem


def _verified_balance(config, scenarios, schedule, tol=1e-6):
    """The balance report of every scenario; NumericalFailure if any
    period is off."""
    report = check_balance(config, scenarios.solar, schedule, tol)
    if not report.ok:
        raise NumericalFailure(f"schedule fails balance check: (scenario, period, kind) "
                               f"{report.flags[:5]}")
    return report


# --------------------------------------------------------------------------
# the experiment entry points


def run_single(manifest: RunManifest) -> dict:
    """Solve one instance and write solution.json / balance_report.json
    (and problem.mps on request) into the output directory, plus the
    solver counters summed over the run in trace.json, which is kept
    apart because its content may vary with the solver's version.
    Returns solution.json's payload, in which the schedule's fields and
    the probabilities are float arrays (`_json_text` writes them as
    lists)."""
    config = load_config(manifest.config_path)
    scenarios, _, reduction = prepare_scenarios(manifest, config)
    out = Path(manifest.out_dir)
    for name in ("trace.json", "balance_report.json", "problem.mps"):
        (out / name).unlink(missing_ok=True)  # a failed run leaves no earlier run's files

    with _status_on_failure(out / "solution.json"):
        schedule, report = solve_stochastic(
            config, scenarios, manifest.options, manifest.settings
        )
        balance = _verified_balance(config, scenarios, schedule)
    cost = evaluate_cost(config, scenarios, schedule)
    penalty = manifest.options.curtailment_penalty
    if penalty is not None:
        spill = float(scenarios.probabilities @ schedule.curtail.sum(axis=1))
        cost += penalty * config.period_hours * spill
    payload = {
        "status": report.status,
        "objective": report.objective,
        "evaluated_cost": cost,
        "solve": report.to_dict(),
        "schedule": schedule.to_dict(),
        "probabilities": scenarios.probabilities,
    }
    if reduction is not None:
        payload["reduction"] = reduction.to_dict()
    _write_json(out / "solution.json", payload)
    _write_json(out / "balance_report.json", balance.to_dict())
    _write_json(out / "trace.json", {"solver": dataclasses.asdict(report.stats)})
    if manifest.write_mps:
        write_problem_mps(config, scenarios, manifest.options, out / "problem.mps")
    return payload


def run_solar_sweep(manifest: RunManifest) -> list:
    """Average cost of both approaches over solar penetration levels.

    Each level scales installed capacity and every scenario's trajectory
    by the same factor.  Writes solar_sweep.csv with one row per level.
    """
    if not manifest.levels or list(manifest.levels) != sorted(manifest.levels):
        raise IngestError("solar-sweep needs a nonempty sorted 'levels' list")
    if not all(math.isfinite(v) and v >= 0 for v in manifest.levels):
        raise IngestError(f"solar-sweep levels must be finite and >= 0, got {manifest.levels}")
    config = load_config(manifest.config_path)
    scenarios, _, _ = prepare_scenarios(manifest, config)
    path = Path(manifest.out_dir) / "solar_sweep.csv"
    path.unlink(missing_ok=True)  # a failed sweep leaves no earlier run's table
    rows = []
    for level in manifest.levels:
        lvl_config = dataclasses.replace(config, solar_capacity=config.solar_capacity * level)
        lvl_scen = dataclasses.replace(scenarios, solar=scenarios.solar * level)
        result = compare_policies(lvl_config, lvl_scen, manifest.options, manifest.settings)
        rows.append((float(level), float(result["stochastic_cost"]),
                     float(result["deterministic_policy_cost"])))
        log.info("solar level %.3g: stochastic %.6g, deterministic %.6g", *rows[-1])
    _write_csv(path, ["level", "avg_cost_stochastic", "avg_cost_deterministic"], rows)
    return rows


def resize_window(loads, width: int, horizon: int):
    """Symmetrically resize every deferrable window to `width` periods.

    Overhang at either horizon edge shifts to the other side, so each
    resulting window has exactly min(width, horizon) periods and windows
    stay nested as the width grows.
    """
    width = min(max(1, width), horizon)
    extra = width - loads.window_length()
    ta = np.maximum(1, np.minimum(loads.t_arrive - extra // 2, horizon - width + 1))
    td = np.minimum(horizon, ta + width - 1)
    return dataclasses.replace(loads, t_arrive=ta, t_depart=td)


def run_window_sweep(manifest: RunManifest) -> list:
    """Average stochastic cost as deferrable windows widen.

    Widths that make a load's energy undeliverable (the config check
    WINDOW_INFEASIBLE, or an infeasible deterministic equivalent) produce
    an error row and the sweep continues; any other error propagates.
    Writes window_sweep.csv.
    """
    if not manifest.widths or list(manifest.widths) != sorted(manifest.widths):
        raise IngestError("window-sweep needs a nonempty sorted 'widths' list")
    if manifest.widths[0] < 1:
        raise IngestError(f"window-sweep widths must be >= 1, got {manifest.widths}")
    config = load_config(manifest.config_path)
    scenarios, _, _ = prepare_scenarios(manifest, config)
    path = Path(manifest.out_dir) / "window_sweep.csv"
    path.unlink(missing_ok=True)  # a failed sweep leaves no earlier run's table
    rows = []
    for width in manifest.widths:
        w_config = dataclasses.replace(config, deferrables=resize_window(
            config.deferrables, int(width), config.horizon))
        undeliverable = [i.message for i in validate_config(w_config).errors
                         if i.code == "WINDOW_INFEASIBLE"]
        if not undeliverable:
            try:
                _, report = solve_stochastic(w_config, scenarios, manifest.options,
                                             manifest.settings)
            except InfeasibleProblem as e:
                undeliverable = [str(e)]
            else:
                rows.append((int(width), float(report.objective), "optimal"))
                continue
        log.warning("width %d infeasible: %s", width, "; ".join(undeliverable))
        rows.append((int(width), "", "infeasible"))
    _write_csv(path, ["width", "avg_cost", "status"], rows)
    return rows


def run_compare(manifest: RunManifest) -> dict:
    """VSS report: stochastic solution versus the expected-value policy.
    Writes compare.json, which holds the status and message instead when
    a solve fails."""
    config = load_config(manifest.config_path)
    scenarios, _, _ = prepare_scenarios(manifest, config)
    path = Path(manifest.out_dir) / "compare.json"
    with _status_on_failure(path):
        result = compare_policies(config, scenarios, manifest.options, manifest.settings)
    _write_json(path, result)
    return result
