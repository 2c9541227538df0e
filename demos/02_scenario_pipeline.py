"""Monte Carlo scenario generation and fast-forward reduction: draw 3000
joint scenarios, keep 25, and look at what the reduction preserved."""

from pathlib import Path

import numpy as np

from mgsched.config_io import load_config, load_generation_spec
from mgsched.scenario import (
    DistanceWeights,
    generate,
    kantorovich_distance,
    reduce_fast_forward,
    save_csv_bundle,
)

here = Path(__file__).parent
config = load_config(here / "data" / "config.json")
spec = load_generation_spec(here / "data" / "genspec.json")

full = generate(spec, config, 3000)
print(f"generated {len(full)} scenarios, each with probability {full.probabilities[0]:.6f}")
print("solar block shape:", full.solar.shape)
print("parking block shape:", full.parking.shape)
print("parking availability overall:", full.parking.mean().round(3))

weights = DistanceWeights.from_set(full)
print(f"\nmetric weights (1/std per block): solar {weights.solar:.4f}, "
      f"parking {weights.parking:.4f}, deferrable {weights.deferrable:.4f}")

reduced, report = reduce_fast_forward(full, 25, weights)
print(f"\nkept {report.n_kept} of {report.n_original} scenarios")
print("selection order (first 10):", report.selection_order[:10])
print(f"final Kantorovich distance: {report.kantorovich_distance:.3f}")
print("distance after each greedy step:",
      np.round(report.step_distances[:8], 2), "...")

# the reduced set keeps the first two moments of the solar block roughly intact
p = reduced.probabilities
mean_full = full.solar.mean(axis=0)
mean_red = p @ reduced.solar
print("\nmax |mean solar drift| over the day:",
      float(np.abs(mean_full - mean_red).max()).__round__(2), "kW")

# probability mass is conserved exactly
print("reduced probabilities sum:", reduced.probabilities.sum())

# a sanity check: the reported distance is the subset distance formula
kept = report.kept_indices
print("distance recomputed from the formula:",
      round(kantorovich_distance(full, kept, weights), 3))

out = here / "demo_out" / "scenarios_25"
save_csv_bundle(reduced, out)
print(f"\nwrote the reduced bundle to {out}")
