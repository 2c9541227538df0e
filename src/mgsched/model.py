"""Microgrid domain model: fleet parameters, schedules, scenario-set
validation, and solver-independent evaluation of cost and energy balance.

Each fleet (CHP units, PHEVs, deferrable loads) holds one read-only
(n_unit,) array per unit parameter; there is no per-unit object.

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


class _Fleet:
    """One read-only (n_unit,) array per unit parameter, unit index first,
    frozen as `ScenarioSet` is.  Fields named in `int_fields` hold ints,
    the rest floats.  Every field defaults to empty, so `Phevs()` is an
    empty fleet."""

    int_fields = ()

    def __post_init__(self):
        for f in fields(self):
            dtype = int if f.name in self.int_fields else float
            object.__setattr__(self, f.name, _freeze(getattr(self, f.name), dtype))
        shapes = {getattr(self, f.name).shape for f in fields(self)}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError(f"{type(self).__name__}: fields of shapes {sorted(shapes)}")

    def __len__(self):
        return len(getattr(self, fields(self)[0].name))


@dataclass(frozen=True)
class ChpUnits(_Fleet):
    """Combined heat and power units; unit i produces `alpha[i]` kW of
    useful heat per kW of electric output."""

    p_min: np.ndarray = ()
    p_max: np.ndarray = ()
    alpha: np.ndarray = ()
    cost_per_kwh: np.ndarray = ()


@dataclass(frozen=True)
class Phevs(_Fleet):
    """Plug-in hybrid EV batteries usable for charge/discharge while parked."""

    e_min: np.ndarray = ()
    e_max: np.ndarray = ()
    e_initial: np.ndarray = ()
    charge_rate_max: np.ndarray = ()
    discharge_rate_max: np.ndarray = ()
    eta_charge: np.ndarray = ()
    eta_discharge: np.ndarray = ()
    degradation_cost_per_kwh: np.ndarray = ()


@dataclass(frozen=True)
class DeferrableLoads(_Fleet):
    """Tasks each needing a fixed energy inside a time window at a bounded
    rate.  `t_arrive`/`t_depart` are 1-based inclusive periods (ints)."""

    t_arrive: np.ndarray = ()
    t_depart: np.ndarray = ()
    rate_min: np.ndarray = ()
    rate_max: np.ndarray = ()
    energy_nominal: np.ndarray = ()

    int_fields = ("t_arrive", "t_depart")

    def window_length(self) -> np.ndarray:
        return self.t_depart - self.t_arrive + 1

    def energy_band(self, period_hours: float):
        """(lowest, highest) energy in kWh each load's window can deliver."""
        n = self.window_length()
        return self.rate_min * n * period_hours, self.rate_max * n * period_hours


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
    chp_units: ChpUnits
    phevs: Phevs
    deferrables: DeferrableLoads
    tariff: GridTariff
    base_power: np.ndarray
    base_heat: np.ndarray
    solar_capacity: float
    period_hours: float = 1.0

    def __post_init__(self):
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


def _flag_first(rep, code, bad, message, **values):
    """Add one `code` issue for the first index i where the mask `bad`
    holds: `message` formatted with i and each of `values` (broadcast
    over the mask) at i.  Returns whether any index does."""
    hits = np.flatnonzero(bad)
    if hits.size:
        i = int(hits[0])
        rep.add(code, message.format(i=i, **{k: np.broadcast_to(v, bad.shape)[i].item()
                                           for k, v in values.items()}))
    return hits.size > 0


def validate_config(config: MicrogridConfig) -> ValidationReport:
    """Check every type invariant; violations become report entries, one
    per check naming the first offending unit."""
    rep = ValidationReport()
    T = config.horizon
    h = config.period_hours
    if T <= 0:
        rep.add("HORIZON_NONPOSITIVE", f"horizon must be >= 1, got {T}")
        return rep
    # every other check reads NaN as in range, so a NaN ends the check
    named = {"period_hours": config.period_hours, "solar_capacity": config.solar_capacity,
             "base_power": config.base_power, "base_heat": config.base_heat}
    named.update((f"tariff.{f.name}", getattr(config.tariff, f.name)) for f in fields(GridTariff))
    named.update((f"{what}[{{i}}].{f.name}", getattr(fleet, f.name)) for what, fleet in (
        ("chp", config.chp_units), ("phev", config.phevs), ("deferrable", config.deferrables))
        for f in fields(fleet))
    for name, value in named.items():
        _flag_first(rep, "VALUE_NAN", np.isnan(value), name + " contains NaN")
    if not rep.ok:
        return rep
    if h <= 0:
        rep.add("PERIOD_HOURS_NONPOSITIVE", f"period_hours must be > 0, got {h}")

    c = config.chp_units
    _flag_first(rep, "CHP_CAPACITY_ORDER", ~((0 <= c.p_min) & (c.p_min <= c.p_max)),
                "chp[{i}]: need 0 <= p_min <= p_max, got [{lo}, {hi}]", lo=c.p_min, hi=c.p_max)
    _flag_first(rep, "CHP_ALPHA_NONPOSITIVE", c.alpha <= 0,
                "chp[{i}]: alpha must be > 0, got {alpha}", alpha=c.alpha)
    _flag_first(rep, "CHP_COST_NEGATIVE", c.cost_per_kwh < 0,
                "chp[{i}]: cost_per_kwh must be >= 0")

    ev = config.phevs
    _flag_first(rep, "PHEV_ENERGY_ORDER",
                ~((0 <= ev.e_min) & (ev.e_min <= ev.e_initial) & (ev.e_initial <= ev.e_max)),
                "phev[{i}]: need 0 <= e_min <= e_initial <= e_max, got ({lo}, {e0}, {hi})",
                lo=ev.e_min, e0=ev.e_initial, hi=ev.e_max)
    _flag_first(rep, "PHEV_RATE_NEGATIVE", (ev.charge_rate_max < 0) | (ev.discharge_rate_max < 0),
                "phev[{i}]: rate limits must be >= 0")
    _flag_first(rep, "PHEV_ETA_RANGE", ~((0 < ev.eta_charge) & (ev.eta_charge <= 1)
                                         & (0 < ev.eta_discharge) & (ev.eta_discharge <= 1)),
                "phev[{i}]: efficiencies must lie in (0, 1]")
    _flag_first(rep, "PHEV_COST_NEGATIVE", ev.degradation_cost_per_kwh < 0,
                "phev[{i}]: degradation cost must be >= 0")

    # a reversed window gets no other window check
    d = config.deferrables
    reversed_ = d.t_arrive > d.t_depart
    _flag_first(rep, "WINDOW_REVERSED", reversed_,
                "deferrable[{i}]: t_arrive {ta} > t_depart {td}", ta=d.t_arrive, td=d.t_depart)
    _flag_first(rep, "WINDOW_OUT_OF_HORIZON", ~reversed_ & ((d.t_arrive < 1) | (d.t_depart > T)),
                "deferrable[{i}]: window [{ta}, {td}] outside [1, {T}]",
                ta=d.t_arrive, td=d.t_depart, T=T)
    _flag_first(rep, "DEFER_RATE_ORDER",
                ~reversed_ & ~((0 <= d.rate_min) & (d.rate_min <= d.rate_max)),
                "deferrable[{i}]: need 0 <= rate_min <= rate_max")
    lo, hi = d.energy_band(h)
    _flag_first(rep, "WINDOW_INFEASIBLE",
                ~reversed_ & ~((lo <= d.energy_nominal) & (d.energy_nominal <= hi)),
                "deferrable[{i}]: energy {e} kWh outside deliverable range [{lo}, {hi}] kWh "
                "of its window", e=d.energy_nominal, lo=lo, hi=hi)

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


def validate_scenarios(scenarios, config: MicrogridConfig | None = None) -> ValidationReport:
    """Check a scenario set's values; with a config, also its shapes and
    the solar capacity.  Each message names the first offending scenario
    (scenario 0 for a shape, which all scenarios share).  A negative
    probability never gets here: `ScenarioSet` rejects it."""
    rep = ValidationReport()
    S = len(scenarios)
    _flag_first(rep, "SOLAR_NEGATIVE", (scenarios.solar < 0).any(axis=1),
                "scenario {i}: solar has negative entries")
    _flag_first(rep, "PARKING_NOT_BINARY",
                ((scenarios.parking != 0) & (scenarios.parking != 1)).any(axis=(1, 2)),
                "scenario {i}: parking entries must be 0 or 1")
    if config is None:
        return rep
    T = config.horizon
    if not _flag_first(rep, "SOLAR_LENGTH", np.full(S, scenarios.solar.shape[1] != T),
                       "scenario {i}: solar must have length {T}", T=T):
        _flag_first(rep, "SOLAR_ABOVE_CAPACITY",
                    (scenarios.solar > config.solar_capacity + 1e-9).any(axis=1),
                    "scenario {i}: solar exceeds installed capacity")
    n_ev, n_def = config.n_phev, config.n_deferrable
    _flag_first(rep, "PARKING_SHAPE", np.full(S, scenarios.parking.shape[1:] != (n_ev, T)),
                "scenario {i}: parking must be ({n}, {T})", n=n_ev, T=T)
    _flag_first(rep, "DEFER_ENERGY_LENGTH",
                np.full(S, scenarios.deferrable_energy.shape[1:] != (n_def,)),
                "scenario {i}: deferrable_energy must have length {n}", n=n_def)
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
        (period, scenario) for grid exchange and spill, as read-only array
        views (their `tolist()` is the JSON list)."""
        return {f.name: np.moveaxis(getattr(self, f.name), 0, -1) for f in fields(self)}


def derive_storage(config: MicrogridConfig, charge, discharge) -> np.ndarray:
    """Stored-energy path implied by (S, n_phev, T) charge/discharge
    trajectories.

    storage[s, m, t] = storage[s, m, t-1] + (eta+ * charge - discharge / eta-) * h,
    starting from each vehicle's initial energy.
    """
    ev = config.phevs
    delta = (ev.eta_charge[:, None] * charge - discharge / ev.eta_discharge[:, None]) \
        * config.period_hours
    return ev.e_initial[:, None] + np.cumsum(delta, axis=-1)


def cost_rates(config: MicrogridConfig, schedule: Schedule) -> np.ndarray:
    """Operating cost per hour of every scenario and period, (S, T):
    CHP production cost, PHEV degradation on throughput (charge weighted
    by eta+, discharge by 1/eta-), and grid purchases net of sales."""
    ev = config.phevs
    rates = np.zeros(schedule.grid_buy.shape)
    rates += config.chp_units.cost_per_kwh @ schedule.chp_power
    rates += (ev.degradation_cost_per_kwh * ev.eta_charge) @ schedule.charge
    rates += (ev.degradation_cost_per_kwh / ev.eta_discharge) @ schedule.discharge
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
    heat_surplus = config.chp_units.alpha @ schedule.chp_power - config.base_heat

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
