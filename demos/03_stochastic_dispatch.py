"""End-to-end stochastic dispatch: generate and reduce scenarios, solve
the deterministic equivalent, inspect the schedule, export the MPS file."""

from pathlib import Path

import numpy as np

from mgsched.config_io import load_config, load_generation_spec
from mgsched.experiments import solve_stochastic, write_problem_mps
from mgsched.formulation import FormulationOptions
from mgsched.model import check_balance, evaluate_cost
from mgsched.scenario import generate, reduce_fast_forward

here = Path(__file__).parent
config = load_config(here / "data" / "config.json")
spec = load_generation_spec(here / "data" / "genspec.json")

scenarios, report = reduce_fast_forward(generate(spec, config, 500), 10)
print(f"solving over {len(scenarios)} scenarios "
      f"(reduced from 500, distance {report.kantorovich_distance:.2f})")

schedule, solve_report = solve_stochastic(config, scenarios)
print(f"\nstatus: {solve_report.status}")
print(f"expected operating cost: {solve_report.objective:.2f} $")
print(f"problem size: {solve_report.n_rows} rows x {solve_report.n_cols} columns"
      f" (decomposed by scenario: {solve_report.decomposed})")
print(f"simplex iterations: {solve_report.iterations}")

# the model-side cost evaluation is an independent implementation of the
# objective; at the optimum the two must coincide
cost = evaluate_cost(config, scenarios, schedule)
print(f"matching cost from the schedule itself: {cost:.2f} $")

s = 0
print(f"\nscenario {s} snapshot (kW):")
print("  chp total:    ", np.round(schedule.chp_power[s].sum(axis=0), 1))
print("  fleet charge: ", np.round(schedule.charge[s].sum(axis=0), 1))
print("  fleet V2G:    ", np.round(schedule.discharge[s].sum(axis=0), 1))
print("  grid buy:     ", np.round(schedule.grid_buy[s], 1))
print("  grid sell:    ", np.round(schedule.grid_sell[s], 1))

balance = check_balance(config, scenarios.solar, schedule, 1e-6)
print("\nevery scenario balances:", balance.ok)

# vehicles buy cheap energy at night and return it at the evening peak;
# stored energy always ends the day where it started
print("fleet stored energy, first vehicle (kWh):",
      np.round(schedule.storage[s, 0], 1))

path = here / "demo_out" / "dispatch.mps"
write_problem_mps(config, scenarios, FormulationOptions(), path)
print(f"\nwrote the full deterministic equivalent to {path}")
