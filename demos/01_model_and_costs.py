"""Build a microgrid description in code, validate it, and price a
hand-made schedule without any solver involved."""

import numpy as np

from mgsched.model import (
    ChpUnits,
    DeferrableLoads,
    GridTariff,
    MicrogridConfig,
    Phevs,
    Schedule,
    check_balance,
    evaluate_cost,
    validate_config,
)
from mgsched.scenario import ScenarioSet

T = 4

# each fleet holds one array per unit parameter, unit index first: here one
# CHP unit, one vehicle and one deferrable load
config = MicrogridConfig(
    horizon=T,
    chp_units=ChpUnits(p_min=[0.0], p_max=[150.0], alpha=[1.2], cost_per_kwh=[0.085]),
    phevs=Phevs(e_min=[4.0], e_max=[18.0], e_initial=[9.0], charge_rate_max=[4.0],
                discharge_rate_max=[4.0], eta_charge=[0.9], eta_discharge=[0.9],
                degradation_cost_per_kwh=[0.0035]),
    deferrables=DeferrableLoads(t_arrive=[2], t_depart=[3], rate_min=[0.0],
                                rate_max=[3.0], energy_nominal=[4.0]),
    tariff=GridTariff(price_buy=[0.10, 0.12, 0.15, 0.11],
                      price_sell=[0.08, 0.096, 0.12, 0.088],
                      exchange_cap=[4000.0] * T),
    base_power=[90.0, 110.0, 120.0, 100.0],
    base_heat=[60.0, 55.0, 50.0, 58.0],
    solar_capacity=200.0,
)

report = validate_config(config)
print("config valid:", report.ok)
lo, hi = config.deferrables.energy_band(config.period_hours)
print("energy each load's window can deliver (kWh):", lo.tolist(), "to", hi.tolist())
for issue in report.issues:
    print(f"  [{issue.severity}] {issue.code}: {issue.message}")

# one fully known scenario: sunny midday, car parked all day, 4 kWh to serve;
# a set holds one array per uncertain input, scenario index first
solar = np.array([0.0, 80.0, 120.0, 20.0])
scenarios = ScenarioSet(
    probabilities=[1.0],
    solar=solar[None, :],
    parking=np.ones((1, 1, T)),
    deferrable_energy=[[4.0]],
)

# dispatch by hand: run the CHP to cover heat (alpha * p >= heat demand),
# serve 2 kW in both window periods, and let the grid close the balance
# (schedules are scenario-first too: (scenario, unit, period))
chp = np.array([[[60.0, 50.0, 45.0, 50.0]]]) / 1.2 * 1.2
serve = np.array([[[0.0, 2.0, 2.0, 0.0]]])
charge = np.zeros((1, 1, T))
discharge = np.zeros((1, 1, T))
supply = chp[0, 0] + solar
demand = config.base_power + serve[0, 0]
grid_buy = np.clip(demand - supply, 0.0, None)[None]
grid_sell = np.clip(supply - demand, 0.0, None)[None]

schedule = Schedule.from_decisions(config, chp, charge, discharge, serve,
                                   grid_buy, grid_sell)

print("\nstored energy path (kWh):", schedule.storage[0, 0])
print("grid buy (kW):", np.round(schedule.grid_buy[0], 2))
print("grid sell (kW):", np.round(schedule.grid_sell[0], 2))

balance = check_balance(config, scenarios.solar, schedule, tol=1e-6)
print("\nbalance ok:", balance.ok)
print("heat surplus (kW-th):", np.round(balance.heat_surplus[0], 2))

cost = evaluate_cost(config, scenarios, schedule)
print(f"\noperating cost of this schedule: {cost:.4f} $")
