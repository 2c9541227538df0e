"""The two sensitivity experiments and the value of the stochastic
solution, on the bundled sample microgrid.

Average cost falls as solar penetration grows (both approaches, with the
stochastic schedule always at least as cheap), and falls as deferrable
windows widen, quickly at first and then flattening.
"""

from pathlib import Path

from mgsched.experiments import (
    RunManifest,
    run_compare,
    run_solar_sweep,
    run_window_sweep,
)

here = Path(__file__).parent
out = here / "demo_out"


def manifest(**kw):
    return RunManifest(
        config_path=str(here / "data" / "config.json"),
        generation=str(here / "data" / "genspec.json"),
        generate_count=200,
        keep=8,
        out_dir=str(out),
        seed=2024,
        **kw,
    )


print("=== solar penetration sweep ===")
rows = run_solar_sweep(manifest(levels=(0.0, 0.5, 1.0, 1.5, 2.0)))
print(f"{'level':>6} {'stochastic':>12} {'deterministic':>14}")
for level, stoch, det in rows:
    print(f"{level:>6.2f} {stoch:>12.2f} {det:>14.2f}")

print("\n=== serving-window sweep ===")
rows = run_window_sweep(manifest(widths=(3, 4, 6, 10, 16, 24)))
print(f"{'width':>6} {'avg cost':>12}")
for width, cost, status in rows:
    shown = f"{cost:>12.2f}" if status == "optimal" else f"{status:>12}"
    print(f"{width:>6} {shown}")

print("\n=== stochastic vs deterministic ===")
result = run_compare(manifest())
print(f"stochastic solution cost:     {result['stochastic_cost']:.2f} $")
print(f"expected-value problem cost:  {result['ev_problem_cost']:.2f} $")
print(f"rigid policy over scenarios:  {result['deterministic_policy_cost']:.2f} $")
print(f"value of stochastic solution: {result['vss']:.2f} $")
if result["flagged_scenarios"]:
    print(f"scenarios needing penalty recourse: {result['flagged_scenarios']}")

print(f"\nCSV and JSON artifacts in {out}")
