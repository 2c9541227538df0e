"""Deterministic-equivalent assembly: expand the stochastic schedule over
all scenarios into one sparse LP/MILP and map solutions back to schedules.

Column and row order is lexicographic in (kind, scenario, period, unit),
with the kind order fixed below, so problem files are byte-stable across
runs.  Per (m, t, s) the storage-linking equality couples stored energy
to charge/discharge rates scaled by the period length; CHP capacity,
storage limits, rate limits gated by parking, serving-rate windows, and
grid exchange caps are all column bounds.  The power balance is an
equality under the convention supply + buy = demand + sell, heat is an
inequality (surplus disposed freely), and the terminal rule pins each
vehicle's final stored energy to its initial value.
"""

import math
import numbers
from dataclasses import dataclass
from string import Formatter

import numpy as np

from .lpcore import LpProblem
from .model import MicrogridConfig, Schedule, validate_config

COLUMN_KINDS = ("chp", "charge", "discharge", "storage", "serve", "buy", "sell",
                "curtail", "mode")

STAGE_MODES = ("fully-adaptive", "day-ahead-chp")

STORAGE_TOL = 1e-6  # kWh: extracted storage columns against the recursion


@dataclass(frozen=True)
class FormulationOptions:
    """Switches of the deterministic equivalent.

    stage_mode: 'fully-adaptive' lets every decision adapt per scenario;
    'day-ahead-chp' forces identical CHP trajectories across scenarios
    (a genuine first stage).  exclusivity_binaries adds a binary per
    (vehicle, period, scenario) forbidding simultaneous charge and
    discharge.
    curtailment_penalty, when set, adds a penalized spill column to the
    power balance.
    """

    stage_mode: str = "fully-adaptive"
    exclusivity_binaries: bool = False
    curtailment_penalty: float | None = None

    def __post_init__(self):
        if self.stage_mode not in STAGE_MODES:
            raise ValueError(f"unknown stage_mode {self.stage_mode!r}")
        if not isinstance(self.exclusivity_binaries, bool):
            raise ValueError(f"exclusivity_binaries must be true or false, "
                             f"got {self.exclusivity_binaries!r}")
        penalty = self.curtailment_penalty
        if penalty is not None and (isinstance(penalty, bool) or not isinstance(penalty, numbers.Real)
                                    or not math.isfinite(penalty)):
            raise ValueError(f"curtailment_penalty must be a finite number, got {penalty!r}")


class VariableIndex:
    """Bijection between symbolic keys (kind, scenario, period, unit) and
    contiguous column ids, in the documented lexicographic order."""

    def __init__(self, config: MicrogridConfig, n_scenarios: int,
                 options: FormulationOptions):
        T, S = config.horizon, n_scenarios
        self.has_curtail = options.curtailment_penalty is not None
        units = {
            "chp": config.n_chp,
            "charge": config.n_phev,
            "discharge": config.n_phev,
            "storage": config.n_phev,
            "serve": config.n_deferrable,
            "buy": 1,
            "sell": 1,
            "curtail": 1 if self.has_curtail else 0,
            "mode": config.n_phev if options.exclusivity_binaries else 0,
        }
        self._columns = {}
        pos = 0
        for kind in COLUMN_KINDS:
            shape = (S, T, units[kind])
            self._columns[kind] = ids = pos + np.arange(np.prod(shape)).reshape(shape)
            ids.flags.writeable = False
            pos += ids.size
        self.n_cols = pos

    def columns(self, kind: str) -> np.ndarray:
        """Column ids of one kind as a read-only (S, T, n_unit) array;
        n_unit is 0 for a kind this formulation leaves out."""
        return self._columns[kind]

    def column_names(self):
        short = {"chp": "chp", "charge": "chg", "discharge": "dis", "storage": "sto",
                 "serve": "srv", "buy": "buy", "sell": "sel", "curtail": "cur",
                 "mode": "mod"}
        names = []
        for kind in COLUMN_KINDS:
            unit = "" if kind in ("buy", "sell", "curtail") else "{2}"
            names += _labels(short[kind] + unit + "_t{1}_s{0}", self.columns(kind).shape)
        return names


def _labels(template, shape, tables=None):
    """template.format(*idx) for every index of an array of `shape`, in C
    order, where `tables` may give the text of an axis's indices in place
    of str(i).  Each name is a concatenation of per-index strings, made one
    array axis at a time."""
    tables = tables or {}
    names = np.array("", dtype=object)
    for literal, field, _, _ in Formatter().parse(template):
        if field is None:
            names = names + literal
            continue
        axis = int(field)
        text = np.empty(shape[axis], dtype=object)
        text[:] = [literal + t for t in tables.get(axis, map(str, range(shape[axis])))]
        names = names + text.reshape([-1 if k == axis else 1 for k in range(len(shape))])
    return np.broadcast_to(names, shape).ravel().tolist()


def expected_counts(config: MicrogridConfig, n_scenarios: int,
                    options: FormulationOptions) -> dict:
    """Closed-form column/row counts of the deterministic equivalent.

    Columns: S*T*(Nc + 3*Np + Nj + 2), plus S*T if curtailment is on and
    S*T*Np with exclusivity binaries.  Rows: per scenario Np*T link, Np
    terminal, Nj window sums, T balance, T heat; plus 2*Np*T*S
    exclusivity rows and (S-1)*Nc*T nonanticipativity rows in
    day-ahead-chp mode.
    """
    T, S = config.horizon, n_scenarios
    nc, np_, nj = config.n_chp, config.n_phev, config.n_deferrable
    cols = S * T * (nc + 3 * np_ + nj + 2)
    if options.curtailment_penalty is not None:
        cols += S * T
    rows = S * (np_ * T + np_ + nj + 2 * T)
    if options.exclusivity_binaries:
        cols += S * T * np_
        rows += 2 * np_ * T * S
    if options.stage_mode == "day-ahead-chp":
        rows += (S - 1) * nc * T
    return {"n_cols": cols, "n_rows": rows}


def _in_window(config: MicrogridConfig) -> np.ndarray:
    """(T, n_deferrable) mask of the periods in each load's serving window."""
    loads = config.deferrables
    period = np.arange(config.horizon)[:, None]
    return (period >= loads.t_arrive - 1) & (period < loads.t_depart)


def _scenario_arrays(config: MicrogridConfig, scenarios, options: FormulationOptions):
    """The column bounds and right-hand sides of the deterministic
    equivalent, vectorized over the scenario axis.

    Returns (bounds, rhs): bounds maps each column kind to (lower, upper),
    each broadcastable to the kind's (S, T, n_unit); rhs holds the
    right-hand sides of the per-scenario row families in row order, each
    of shape (S, ...) (link, terminal, window sums, balance, heat, and the
    exclusivity rows when present).  `build` lays them out over all
    scenarios, `scenario_data` per one-scenario block.
    """
    T, S = config.horizon, len(scenarios)
    ev, loads = config.phevs, config.deferrables
    in_window = _in_window(config)
    parking = scenarios.parking.transpose(0, 2, 1)  # (S, T, n_phev)
    cap = config.tariff.exchange_cap[:, None]
    bounds = {
        "chp": (config.chp_units.p_min, config.chp_units.p_max),
        "charge": (0.0, ev.charge_rate_max * parking),
        "discharge": (0.0, ev.discharge_rate_max * parking),
        "storage": (ev.e_min, ev.e_max),
        "serve": (np.where(in_window, loads.rate_min, 0.0), np.where(in_window, loads.rate_max, 0.0)),
        "buy": (0.0, cap),
        "sell": (0.0, cap),
        "curtail": (0.0, np.inf),
        "mode": (0.0, 1.0),
    }
    link = np.zeros((S, T, config.n_phev))
    link[:, 0] = ev.e_initial
    rhs = [link, np.broadcast_to(ev.e_initial, (S, config.n_phev)), scenarios.deferrable_energy,
           config.base_power - scenarios.solar, np.broadcast_to(config.base_heat, (S, T))]
    if options.exclusivity_binaries:
        exc = np.zeros((S, T, config.n_phev, 2))
        exc[..., 1] = ev.discharge_rate_max
        rhs.append(exc)
    return bounds, rhs


def scenario_data(config: MicrogridConfig, scenarios, options: FormulationOptions | None = None):
    """Every scenario's right-hand side (S, m) and column bounds (S, n),
    (S, n) in the layout of a one-scenario block: row s holds the rhs and
    bounds of build(config, scenarios.single(s), options).

    A one-scenario block's matrix and costs do not depend on the scenario:
    the parking gate is in the rate bounds, and the exclusivity rows
    carry the ungated rates.  So the other blocks are one built block with
    these rows patched in (`LpProblem.with_data`).
    """
    options = options or FormulationOptions()
    bounds, rhs = _scenario_arrays(config, scenarios, options)
    S = len(scenarios)
    index = VariableIndex(config, 1, options)
    lower, upper = np.zeros((S, index.n_cols)), np.zeros((S, index.n_cols))
    for kind, (lo, hi) in bounds.items():
        cols = index.columns(kind)[0]
        lower[:, cols], upper[:, cols] = lo, hi
    return np.concatenate([b.reshape(S, -1) for b in rhs], axis=1), lower, upper


def build(config: MicrogridConfig, scenarios, options: FormulationOptions | None = None):
    """Assemble the deterministic equivalent; returns (LpProblem, VariableIndex)."""
    options = options or FormulationOptions()
    report = validate_config(config)
    if not report.ok:
        raise ValueError("invalid config: " + "; ".join(i.message for i in report.errors))
    T, S = config.horizon, len(scenarios)
    if scenarios.solar.shape[1:] != (T,) or scenarios.parking.shape[1:] != (config.n_phev, T) \
            or scenarios.deferrable_energy.shape[1:] != (config.n_deferrable,):
        raise ValueError("scenario dimensions do not match the config")
    if options.curtailment_penalty is not None:
        if options.curtailment_penalty <= config.tariff.price_buy.max():
            raise ValueError("curtailment_penalty must exceed the highest purchase price")

    index = VariableIndex(config, S, options)
    h = config.period_hours
    cols = {kind: index.columns(kind) for kind in COLUMN_KINDS}
    bounds, (link_rhs, term_rhs, dsum_rhs, bal_rhs, heat_rhs, *exc_rhs) = \
        _scenario_arrays(config, scenarios, options)

    chp, ev = config.chp_units, config.phevs
    w = (scenarios.probabilities * h)[:, None, None]

    n = index.n_cols
    obj = np.zeros(n)
    lo = np.zeros(n)
    hi = np.zeros(n)
    for kind, (lower, upper) in bounds.items():
        lo[cols[kind]], hi[cols[kind]] = lower, upper
    # kind -> cost, broadcast over the kind's (S, T, n_unit)
    for kind, cost in {
        "chp": w * chp.cost_per_kwh,
        "charge": w * ev.degradation_cost_per_kwh * ev.eta_charge,
        "discharge": w * ev.degradation_cost_per_kwh / ev.eta_discharge,
        "buy": w * config.tariff.price_buy[:, None],
        "sell": -w * config.tariff.price_sell[:, None],
        "curtail": w * options.curtailment_penalty if index.has_curtail else 0.0,
    }.items():
        obj[cols[kind]] = cost

    senses, rhs, names, trips = [], [], [], []

    def add_rows(sense, b, name, shape, *coefs, tables=None):
        """Append a row family of `shape`, in C order, labelled
        `_labels(name, shape, tables)`; each coef (rows, cols, vals) is
        broadcast over ids[rows]."""
        ids = len(senses) + np.arange(np.prod(shape, dtype=int)).reshape(shape)
        senses.extend([sense] * ids.size)
        rhs.append(np.broadcast_to(b, shape).ravel())
        names.extend(_labels(name, shape, tables))
        for where, c, v in coefs:
            trips.append([a.ravel() for a in np.broadcast_arrays(ids[where], c, v)])

    every = np.s_[...]
    sto = cols["storage"]
    add_rows("=", link_rhs, "link_m{2}_t{1}_s{0}", sto.shape,
             (every, sto, 1.0),
             (np.s_[:, 1:], sto[:, :-1], -1.0),
             (every, cols["charge"], -h * ev.eta_charge),
             (every, cols["discharge"], h / ev.eta_discharge))
    add_rows("=", term_rhs, "term_m{1}_s{0}", (S, config.n_phev),
             (every, sto[:, T - 1], 1.0))
    add_rows("=", dsum_rhs, "dsum_j{1}_s{0}",
             (S, config.n_deferrable), (np.s_[:, None], cols["serve"], h * _in_window(config)))
    per_period = np.s_[:, :, None]
    add_rows("=", bal_rhs, "bal_t{1}_s{0}",
             (S, T), *((per_period, cols[kind], sign) for kind, sign in (
                 ("chp", 1.0), ("discharge", 1.0), ("charge", -1.0), ("buy", 1.0),
                 ("sell", -1.0), ("serve", -1.0), ("curtail", -1.0))))
    add_rows(">=", heat_rhs, "heat_t{1}_s{0}", (S, T),
             (per_period, cols["chp"], chp.alpha))

    # exclusivity: per (s, t, m) a charge row, then a discharge row, with
    # the ungated rates (the bounds gate them), so every scenario's rows match
    mode = cols["mode"]
    if options.exclusivity_binaries:
        chg, dis = np.s_[..., 0], np.s_[..., 1]
        add_rows("<=", exc_rhs[0], "{3}_m{2}_t{1}_s{0}", sto.shape + (2,),
                 (chg, cols["charge"], 1.0), (chg, mode, -ev.charge_rate_max),
                 (dis, cols["discharge"], 1.0), (dis, mode, ev.discharge_rate_max),
                 tables={3: ("exc", "exd")})
    if options.stage_mode == "day-ahead-chp":
        chp_cols = cols["chp"]
        add_rows("=", 0.0, "nac_i{2}_t{1}_s{0}", chp_cols[1:].shape,
                 (every, chp_cols[1:], 1.0), (every, chp_cols[:1], -1.0),
                 tables={0: map(str, range(1, S))})

    expect = expected_counts(config, S, options)
    if len(senses) != expect["n_rows"] or n != expect["n_cols"]:
        raise AssertionError(
            f"formulation self-audit failed: built {n} cols / {len(senses)} rows, "
            f"formulas give {expect['n_cols']} / {expect['n_rows']}"
        )

    problem = LpProblem(
        n_cols=n,
        n_rows=len(senses),
        objective=obj,
        triplets=np.column_stack([np.concatenate(part) for part in zip(*trips)]),
        row_sense=senses,
        rhs=np.concatenate(rhs),
        col_lower=lo,
        col_upper=hi,
        binary_cols=mode.ravel(),
        row_names=names,
        col_names=index.column_names(),
        name="MICROGRID",
    )
    return problem, index


# schedule field -> column kind; grid exchange and spill get a unit axis of
# length 1 (length 0 for spill when the formulation leaves it out)
_SCHEDULE_KINDS = (("chp_power", "chp"), ("charge", "charge"), ("discharge", "discharge"),
                   ("storage", "storage"), ("serve", "serve"), ("grid_buy", "buy"),
                   ("grid_sell", "sell"), ("curtail", "curtail"))


def schedule_to_vector(schedule: Schedule, index: VariableIndex) -> np.ndarray:
    """Embed a schedule as a primal point of the built problem (mode
    columns, when present, are left at zero)."""
    x = np.zeros(index.n_cols)
    for field, kind in _SCHEDULE_KINDS:
        arr = getattr(schedule, field)
        x[index.columns(kind)] = (arr if arr.ndim == 3 else arr[:, None]).transpose(0, 2, 1)
    return x


def extract_schedule(solution, index: VariableIndex, config: MicrogridConfig) -> Schedule:
    """Map an LP solution back to a Schedule.

    The schedule's storage, derived from the charge/discharge
    trajectories, must agree with the solver's storage columns within
    STORAGE_TOL.
    """
    if solution.status in ("infeasible", "unbounded") or solution.x is None:
        raise ValueError(f"cannot extract a schedule from status {solution.status!r}")
    chp, charge, discharge, lp_storage, serve, buy, sell, curtail = (
        solution.x[index.columns(kind)].transpose(0, 2, 1) for _, kind in _SCHEDULE_KINDS)
    schedule = Schedule.from_decisions(config, chp, charge, discharge, serve, buy[:, 0],
                                       sell[:, 0], curtail.sum(axis=1))
    if config.n_phev and np.abs(schedule.storage - lp_storage).max() > STORAGE_TOL:
        raise ValueError(
            "storage columns disagree with the recursion by "
            f"{np.abs(schedule.storage - lp_storage).max():.3g} kWh"
        )
    return schedule
