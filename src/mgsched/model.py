"""Microgrid domain model: fleet parameters, schedules, scenario-set
validation, and solver-independent evaluation of cost and energy balance.

Conventions (documented in the README): powers in kW, energies in kWh,
heat in kW-thermal, prices in currency per kWh.  Rate variables are
converted to energy with the period length `period_hours`.  Grid import
(`grid_buy`) adds cost at the purchase price, export (`grid_sell`)
subtracts revenue at the selling price, and the power balance reads
supply + buy = demand + sell.  Deferrable-load windows are 1-based
inclusive period indices; all arrays are 0-based.
"""

from dataclasses import dataclass, field, fields

import numpy as np


def _freeze(a, dtype=float):
    arr = np.asarray(a, dtype=dtype).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ChpUnit:
    """Combined heat and power unit; produces `alpha` kW of useful heat
    per kW of electric output."""

    p_min: float
    p_max: float
    alpha: float
    cost_per_kwh: float


@dataclass(frozen=True)
class Phev:
    """Plug-in hybrid EV battery usable for charge/discharge while parked."""

    e_min: float
    e_max: float
    e_initial: float
    charge_rate_max: float
    discharge_rate_max: float
    eta_charge: float
    eta_discharge: float
    degradation_cost_per_kwh: float


@dataclass(frozen=True)
class DeferrableLoad:
    """Task needing a fixed energy inside a time window at a bounded rate.

    `t_arrive`/`t_depart` are 1-based inclusive periods.
    """

    t_arrive: int
    t_depart: int
    rate_min: float
    rate_max: float
    energy_nominal: float

    def window_length(self) -> int:
        return self.t_depart - self.t_arrive + 1

    def window_range(self) -> range:
        """0-based period indices inside the window."""
        return range(self.t_arrive - 1, self.t_depart)


@dataclass(frozen=True)
class GridTariff:
    price_buy: np.ndarray
    price_sell: np.ndarray
    exchange_cap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "price_buy", _freeze(self.price_buy))
        object.__setattr__(self, "price_sell", _freeze(self.price_sell))
        object.__setattr__(self, "exchange_cap", _freeze(self.exchange_cap))


@dataclass(frozen=True)
class MicrogridConfig:
    """Full static description of the microgrid over the horizon."""

    horizon: int
    chp_units: tuple
    phevs: tuple
    deferrables: tuple
    tariff: GridTariff
    base_power: np.ndarray
    base_heat: np.ndarray
    solar_capacity: float
    period_hours: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "chp_units", tuple(self.chp_units))
        object.__setattr__(self, "phevs", tuple(self.phevs))
        object.__setattr__(self, "deferrables", tuple(self.deferrables))
        object.__setattr__(self, "base_power", _freeze(self.base_power))
        object.__setattr__(self, "base_heat", _freeze(self.base_heat))

    @property
    def n_chp(self) -> int:
        return len(self.chp_units)

    @property
    def n_phev(self) -> int:
        return len(self.phevs)

    @property
    def n_deferrable(self) -> int:
        return len(self.deferrables)


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    severity: str = "error"  # error | warning


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)

    def add(self, code, message, severity="error"):
        self.issues.append(ValidationIssue(code, message, severity))

    @property
    def errors(self):
        return [i for i in self.issues if i.severity == "error"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def codes(self):
        return [i.code for i in self.issues]

    def to_dict(self):
        return {
            "ok": self.ok,
            "issues": [
                {"code": i.code, "message": i.message, "severity": i.severity}
                for i in self.issues
            ],
        }


def validate_config(config: MicrogridConfig) -> ValidationReport:
    """Check every type invariant; violations become report entries."""
    rep = ValidationReport()
    T = config.horizon
    h = config.period_hours
    if T <= 0:
        rep.add("HORIZON_NONPOSITIVE", f"horizon must be >= 1, got {T}")
        return rep
    # every other check reads NaN as in range, so a NaN ends the check
    for name in _nan_fields(config):
        rep.add("VALUE_NAN", f"{name} contains NaN")
    if not rep.ok:
        return rep
    if h <= 0:
        rep.add("PERIOD_HOURS_NONPOSITIVE", f"period_hours must be > 0, got {h}")

    for i, u in enumerate(config.chp_units):
        if not (0 <= u.p_min <= u.p_max):
            rep.add("CHP_CAPACITY_ORDER", f"chp[{i}]: need 0 <= p_min <= p_max, got [{u.p_min}, {u.p_max}]")
        if u.alpha <= 0:
            rep.add("CHP_ALPHA_NONPOSITIVE", f"chp[{i}]: alpha must be > 0, got {u.alpha}")
        if u.cost_per_kwh < 0:
            rep.add("CHP_COST_NEGATIVE", f"chp[{i}]: cost_per_kwh must be >= 0")

    for m, ev in enumerate(config.phevs):
        if not (0 <= ev.e_min <= ev.e_initial <= ev.e_max):
            rep.add(
                "PHEV_ENERGY_ORDER",
                f"phev[{m}]: need 0 <= e_min <= e_initial <= e_max, "
                f"got ({ev.e_min}, {ev.e_initial}, {ev.e_max})",
            )
        if ev.charge_rate_max < 0 or ev.discharge_rate_max < 0:
            rep.add("PHEV_RATE_NEGATIVE", f"phev[{m}]: rate limits must be >= 0")
        if not (0 < ev.eta_charge <= 1) or not (0 < ev.eta_discharge <= 1):
            rep.add("PHEV_ETA_RANGE", f"phev[{m}]: efficiencies must lie in (0, 1]")
        if ev.degradation_cost_per_kwh < 0:
            rep.add("PHEV_COST_NEGATIVE", f"phev[{m}]: degradation cost must be >= 0")

    for j, d in enumerate(config.deferrables):
        if d.t_arrive > d.t_depart:
            rep.add("WINDOW_REVERSED", f"deferrable[{j}]: t_arrive {d.t_arrive} > t_depart {d.t_depart}")
            continue
        if d.t_arrive < 1 or d.t_depart > T:
            rep.add("WINDOW_OUT_OF_HORIZON", f"deferrable[{j}]: window [{d.t_arrive}, {d.t_depart}] outside [1, {T}]")
        if not (0 <= d.rate_min <= d.rate_max):
            rep.add("DEFER_RATE_ORDER", f"deferrable[{j}]: need 0 <= rate_min <= rate_max")
        lo = d.rate_min * d.window_length() * h
        hi = d.rate_max * d.window_length() * h
        if not (lo <= d.energy_nominal <= hi):
            rep.add(
                "WINDOW_INFEASIBLE",
                f"deferrable[{j}]: energy {d.energy_nominal} kWh outside deliverable "
                f"range [{lo}, {hi}] kWh of its window",
            )

    tar = config.tariff
    for name, arr in (("price_buy", tar.price_buy), ("price_sell", tar.price_sell),
                      ("exchange_cap", tar.exchange_cap)):
        if arr.shape != (T,):
            rep.add("TARIFF_LENGTH", f"tariff.{name} must have length {T}, got {arr.shape}")
        elif np.any(arr < 0):
            rep.add("TARIFF_NEGATIVE", f"tariff.{name} has negative entries")
    if tar.price_buy.shape == (T,) and tar.price_sell.shape == (T,):
        if np.any(tar.price_sell > tar.price_buy + 1e-12):
            rep.add(
                "SELL_ABOVE_BUY",
                "price_sell exceeds price_buy in some period; buy/sell exclusivity "
                "of optimal schedules is no longer guaranteed",
                severity="warning",
            )

    for name, arr in (("base_power", config.base_power), ("base_heat", config.base_heat)):
        if arr.shape != (T,):
            rep.add("BASE_LENGTH", f"{name} must have length {T}, got {arr.shape}")
        elif np.any(arr < 0):
            rep.add("BASE_NEGATIVE", f"{name} has negative entries")
    if config.solar_capacity < 0:
        rep.add("SOLAR_CAPACITY_NEGATIVE", f"solar_capacity must be >= 0, got {config.solar_capacity}")
    return rep


def _nan_fields(config: MicrogridConfig) -> list:
    """Names of the config's numbers and series that hold a NaN."""
    named = {"period_hours": config.period_hours, "solar_capacity": config.solar_capacity,
             "base_power": config.base_power, "base_heat": config.base_heat}
    named.update((f"tariff.{f.name}", getattr(config.tariff, f.name)) for f in fields(GridTariff))
    bad = [name for name, value in named.items() if np.isnan(value).any()]
    for what, kind, units in (("chp", ChpUnit, config.chp_units), ("phev", Phev, config.phevs),
                              ("deferrable", DeferrableLoad, config.deferrables)):
        names = [f.name for f in fields(kind)]
        values = np.array([[getattr(u, n) for n in names] for u in units], dtype=float)
        bad += [f"{what}[{i}].{names[j]}" for i, j in zip(*np.nonzero(np.isnan(values)))]
    return bad


def validate_scenarios(scenarios, config: MicrogridConfig | None = None) -> ValidationReport:
    """Check a scenario set's values; with a config, also its shapes and
    the solar capacity.  Each message names the first offending scenario
    (scenario 0 for a shape, which all scenarios share)."""
    rep = ValidationReport()
    S = len(scenarios)

    def check(code, bad, message):
        hits = np.flatnonzero(np.broadcast_to(bad, (S,)))
        if hits.size:
            rep.add(code, f"scenario {hits[0]}: {message}")
        return hits.size > 0

    check("PROBABILITY_NEGATIVE", scenarios.probabilities < 0, "probability < 0")
    check("SOLAR_NEGATIVE", (scenarios.solar < 0).any(axis=1), "solar has negative entries")
    check("PARKING_NOT_BINARY",
          ((scenarios.parking != 0) & (scenarios.parking != 1)).any(axis=(1, 2)),
          "parking entries must be 0 or 1")
    if config is None:
        return rep
    T = config.horizon
    if not check("SOLAR_LENGTH", scenarios.solar.shape[1] != T, f"solar must have length {T}"):
        check("SOLAR_ABOVE_CAPACITY", (scenarios.solar > config.solar_capacity + 1e-9).any(axis=1),
              "solar exceeds installed capacity")
    check("PARKING_SHAPE", scenarios.parking.shape[1:] != (config.n_phev, T),
          f"parking must be ({config.n_phev}, {T})")
    check("DEFER_ENERGY_LENGTH", scenarios.deferrable_energy.shape[1:] != (config.n_deferrable,),
          f"deferrable_energy must have length {config.n_deferrable}")
    return rep


# --------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class Schedule:
    """Per-scenario decision trajectories plus the derived storage path,
    scenario-first like `ScenarioSet`.

    Shapes: chp_power (S, n_chp, T); charge/discharge/storage (S, n_phev, T);
    serve (S, n_deferrable, T); grid_buy/grid_sell/curtail (S, T).  `curtail`
    is spilled power, zero unless the formulation has a spill column.
    `storage` is always recomputed from charge/discharge, never set
    independently.
    """

    chp_power: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    serve: np.ndarray
    grid_buy: np.ndarray
    grid_sell: np.ndarray
    curtail: np.ndarray
    storage: np.ndarray

    @classmethod
    def from_decisions(cls, config, chp_power, charge, discharge, serve,
                       grid_buy, grid_sell, curtail=None):
        charge = np.asarray(charge, dtype=float)
        discharge = np.asarray(discharge, dtype=float)
        storage = derive_storage(config, charge, discharge)
        return cls(
            chp_power=_freeze(chp_power),
            charge=_freeze(charge),
            discharge=_freeze(discharge),
            serve=_freeze(serve),
            grid_buy=_freeze(grid_buy),
            grid_sell=_freeze(grid_sell),
            curtail=_freeze(np.zeros(np.shape(grid_buy)) if curtail is None else curtail),
            storage=_freeze(storage),
        )

    @classmethod
    def zeros(cls, config, n_scenarios):
        S, T = n_scenarios, config.horizon
        return cls.from_decisions(
            config,
            np.zeros((S, config.n_chp, T)),
            np.zeros((S, config.n_phev, T)),
            np.zeros((S, config.n_phev, T)),
            np.zeros((S, config.n_deferrable, T)),
            np.zeros((S, T)),
            np.zeros((S, T)),
        )

    @property
    def n_scenarios(self) -> int:
        return self.grid_buy.shape[0]

    def to_dict(self):
        """Every field in solution.json's (unit, period, scenario) layout,
        (period, scenario) for grid exchange and spill."""
        return {f.name: np.moveaxis(getattr(self, f.name), 0, -1).tolist()
                for f in fields(self)}


def derive_storage(config: MicrogridConfig, charge, discharge) -> np.ndarray:
    """Stored-energy path implied by (S, n_phev, T) charge/discharge
    trajectories.

    storage[s, m, t] = storage[s, m, t-1] + (eta+ * charge - discharge / eta-) * h,
    starting from each vehicle's initial energy.
    """
    h = config.period_hours
    eta_c = np.array([ev.eta_charge for ev in config.phevs])[:, None]
    eta_d = np.array([ev.eta_discharge for ev in config.phevs])[:, None]
    e0 = np.array([ev.e_initial for ev in config.phevs])[:, None]
    delta = (eta_c * charge - discharge / eta_d) * h
    return e0 + np.cumsum(delta, axis=-1)


def cost_rates(config: MicrogridConfig, schedule: Schedule) -> np.ndarray:
    """Operating cost per hour of every scenario and period, (S, T):
    CHP production cost, PHEV degradation on throughput (charge weighted
    by eta+, discharge by 1/eta-), and grid purchases net of sales."""
    c_ev = np.array([ev.degradation_cost_per_kwh for ev in config.phevs])
    eta_c = np.array([ev.eta_charge for ev in config.phevs])
    eta_d = np.array([ev.eta_discharge for ev in config.phevs])
    rates = np.zeros(schedule.grid_buy.shape)
    rates += np.array([u.cost_per_kwh for u in config.chp_units]) @ schedule.chp_power
    rates += (c_ev * eta_c) @ schedule.charge
    rates += (c_ev / eta_d) @ schedule.discharge
    rates += config.tariff.price_buy * schedule.grid_buy
    rates -= config.tariff.price_sell * schedule.grid_sell
    return rates


def evaluate_cost(config: MicrogridConfig, scenarios, schedule: Schedule) -> float:
    """Probability-weighted operating cost of a schedule: `cost_rates`
    summed over each scenario's periods and scaled by the period length.
    Each scenario's sum is one contiguous row, so it does not depend on how
    many scenarios are beside it."""
    _check_dims(config, len(scenarios), schedule)
    h = config.period_hours
    return float(h * scenarios.probabilities @ cost_rates(config, schedule).sum(axis=1))


@dataclass
class BalanceReport:
    """Power residual and heat surplus of every scenario and period,
    (S, T), checked at tolerance `tol`."""

    power_residual: np.ndarray
    heat_surplus: np.ndarray
    flags: list  # (scenario, period, "power" | "heat"), sorted
    tol: float

    @property
    def ok(self) -> bool:
        return not self.flags

    def to_dict(self):
        """One entry per scenario, each with its own flags."""
        return {"tol": self.tol, "scenarios": [
            {
                "scenario": s,
                "ok": not any(f[0] == s for f in self.flags),
                "power_residual": self.power_residual[s].tolist(),
                "heat_surplus": self.heat_surplus[s].tolist(),
                "flags": [{"t": t, "kind": k} for r, t, k in self.flags if r == s],
            }
            for s in range(len(self.power_residual))
        ]}


def check_balance(config: MicrogridConfig, solar: np.ndarray, schedule: Schedule,
                  tol: float = 1e-6) -> BalanceReport:
    """Evaluate the power and heat balance of every scenario of a schedule
    against the scenarios' solar trajectories (S, T).

    Power residual per period: (generation + net discharge + solar + buy)
    minus (sell + base load + deferrable serving + spill); flagged when its
    magnitude exceeds tol.  Heat surplus is CHP heat minus heat demand;
    flagged when below -tol (surplus itself is disposed freely).
    """
    S = schedule.n_scenarios
    if np.shape(solar) != (S, config.horizon):
        raise ValueError(f"solar has shape {np.shape(solar)}, expected {(S, config.horizon)}")
    _check_dims(config, S, schedule)
    power_residual = (
        schedule.chp_power.sum(axis=1) + (schedule.discharge - schedule.charge).sum(axis=1)
        + solar + schedule.grid_buy
        - (schedule.grid_sell + config.base_power + schedule.serve.sum(axis=1)
           + schedule.curtail)
    )
    alphas = np.array([u.alpha for u in config.chp_units])
    heat_surplus = alphas @ schedule.chp_power - config.base_heat

    flags = [(int(s), int(t), "power") for s, t in zip(*np.nonzero(np.abs(power_residual) > tol))]
    flags += [(int(s), int(t), "heat") for s, t in zip(*np.nonzero(heat_surplus < -tol))]
    flags.sort()
    return BalanceReport(power_residual, heat_surplus, flags, tol)


def _check_dims(config, S, schedule):
    T = config.horizon
    expect = {
        "chp_power": (S, config.n_chp, T),
        "charge": (S, config.n_phev, T),
        "discharge": (S, config.n_phev, T),
        "serve": (S, config.n_deferrable, T),
        "grid_buy": (S, T),
        "grid_sell": (S, T),
        "curtail": (S, T),
    }
    for name, shape in expect.items():
        got = getattr(schedule, name).shape
        if got != shape:
            raise ValueError(f"schedule.{name} has shape {got}, expected {shape}")
