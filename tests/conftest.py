import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from mgsched.model import ChpUnits, DeferrableLoads, GridTariff, MicrogridConfig, Phevs
from mgsched.scenario import GenerationSpec


def one(fleet, *values):
    """A fleet of one unit, its field values given in declaration order."""
    return fleet(*([v] for v in values))


def unit(fleet, i):
    """Unit i of a fleet as plain Python numbers, for loop-based oracles."""
    return SimpleNamespace(**{f.name: getattr(fleet, f.name)[i].item()
                              for f in dataclasses.fields(fleet)})


def unit_entries(fleet):
    """The fleet as JSON config entries, one per unit."""
    names = [f.name for f in dataclasses.fields(fleet)]
    return [dict(zip(names, row)) for row in zip(*(getattr(fleet, n).tolist() for n in names))]


def assert_same_fleet(a, b):
    """Same container type, and every field equal in value and dtype."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f.name


def make_config(T=6, n_chp=1, n_phev=1, n_def=1, cap=4000.0, period_hours=1.0):
    """Small self-consistent microgrid used across the suite."""
    price_buy = np.linspace(0.08, 0.14, T)
    i = np.arange(n_chp)
    chp = ChpUnits(p_min=np.zeros(n_chp), p_max=150.0 + 20 * i, alpha=np.full(n_chp, 1.2),
                   cost_per_kwh=0.085 + 0.005 * i)
    phevs = Phevs(**{name: np.full(n_phev, value) for name, value in dict(
        e_min=4.0, e_max=18.0, e_initial=9.0, charge_rate_max=4.0, discharge_rate_max=4.0,
        eta_charge=0.9, eta_discharge=0.9, degradation_cost_per_kwh=0.0035).items()})
    defs = DeferrableLoads(**{name: np.full(n_def, value) for name, value in dict(
        t_arrive=2, t_depart=min(T, 4), rate_min=0.0, rate_max=3.0,
        energy_nominal=4.0).items()})
    return MicrogridConfig(
        horizon=T,
        period_hours=period_hours,
        chp_units=chp,
        phevs=phevs,
        deferrables=defs,
        tariff=GridTariff(price_buy, 0.8 * price_buy, np.full(T, cap)),
        base_power=np.full(T, 80.0) + 10 * np.arange(T),
        base_heat=np.full(T, 40.0),
        solar_capacity=200.0,
    )


def make_genspec(config, sigma=0.3, parking_prob=0.7, seed=123):
    T = config.horizon
    t = np.arange(T)
    mean = 120.0 * np.exp(-0.5 * ((t - (T - 1) / 2) / max(T / 5, 1.0)) ** 2)
    return GenerationSpec(
        solar_profile_mean=mean,
        solar_noise_model="multiplicative-lognormal",
        solar_sigma=sigma,
        parking_prob=parking_prob,
        deferrable_energy_mean=np.full(config.n_deferrable, 4.0),
        deferrable_energy_spread=np.full(config.n_deferrable, 2.0),
        rng_seed=seed,
    )


@pytest.fixture
def small_config():
    return make_config()


@pytest.fixture
def small_genspec(small_config):
    return make_genspec(small_config)
