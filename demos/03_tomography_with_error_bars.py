"""Simulated state tomography: Poissonian coincidence counts over the 64
product-projector settings, maximum-likelihood reconstruction, and Monte
Carlo error bars on the negativities.

Run:  python3 demos/03_tomography_with_error_bars.py
"""

import numpy as np

from thermalcluster import (
    fidelity,
    linear_graph,
    mle_reconstruct,
    monte_carlo_statistic,
    negativity,
    p_from_temperature,
    simulate_counts,
    standard_settings,
    thermal_state_model,
)

ALPHA = 0.84 * np.pi
T_OVER_DELTA = 1.0
FLUX = 5e3  # a few hundred to a few thousand counts per setting

g = linear_graph(3)
rho = thermal_state_model(g, p_from_temperature(T_OVER_DELTA), ALPHA)

settings = standard_settings(3)
rec = simulate_counts(rho, settings, FLUX, seed=7)
print(f"simulated {len(settings)} settings at T/Delta = {T_OVER_DELTA}, flux = {FLUX:.0f}")
print(f"counts per setting: min {rec.counts.min():.0f}, "
      f"mean {rec.counts.mean():.0f}, max {rec.counts.max():.0f}")

result = mle_reconstruct(rec)
print(f"\nMLE after {result.iterations} Newton steps: converged = {result.converged}, "
      f"log-likelihood within {result.gap:.1e} of its maximum")
print(f"fidelity of the reconstruction with the generating state: "
      f"{fidelity(result.rho, rho):.4f}")

# Error bars: resample every count from a Poisson centered on the observed
# value, reconstruct each resample by maximum likelihood, and take the
# spread of the statistic. One call takes all three negativities from the
# same 40 reconstructions.
CUTS = (("A_p", (0,)), ("B_s", (1,)), ("B_p", (2,)))
print("\nnegativities with Monte Carlo error bars (40 resamples):")
means, stds = monte_carlo_statistic(
    rec, lambda r: [negativity(r, cut) for _, cut in CUTS], 40, seed=11
)
for (label, cut), mean, std in zip(CUTS, means, stds):
    print(f"  N_{label}: model {negativity(rho, cut):.4f}   reconstructed {mean:.4f} +- {std:.4f}")

print("\nThe error bars land near 0.01-0.02 at this flux, the scale on which")
print("small negativities stop being resolvable from zero.")
