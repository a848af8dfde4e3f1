"""Deterministic two-dimensional oracle: invert the characteristic function
onto a density grid, take exact expectations of homogeneous functionals of
the same law (at q = 2 one integral over the circle for every p > -2,
below q = 2 a double integral over the circle for p in (-2, 0)), and
cross-check the Monte Carlo margins without any sampling.
"""

import numpy as np

from stablecomp import (BlockSplit, Seed, SpectralRep, decouple, density_2d,
                        euclidean_power, lp_norm_power, max_abs_power,
                        mc_expectation, oracle_expectation)

# Independent standard coordinates: known density values at the origin.
gauss = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
field = density_2d(gauss)
i0 = field.M // 2
print(f"Gaussian product density at 0: {field.values[i0, i0]:.6f} "
      f"(analytic {1 / (4 * np.pi):.6f})")
print(f"grid {field.M}x{field.M}, mass {field.grid_mass:.6f}, "
      f"clipped ringing {field.clipped_mass:.1e}")

cauchy = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
fieldc = density_2d(cauchy)
i0 = fieldc.M // 2
print(f"Cauchy product density at 0:  {fieldc.values[i0, i0]:.6f} "
      f"(analytic {1 / np.pi**2:.6f})")

# Expectations with known values.
val = oracle_expectation(euclidean_power(2, 2.0), field)
print(f"\nE|X|^2 for N(0, 2I):  {val.value:.5f} +- {val.error_bound:.1e} (exact 4)")
val = oracle_expectation(euclidean_power(2, -1.0), field)
print(f"E|X|^-1 for N(0, 2I): {val.value:.5f} +- {val.error_bound:.1e} "
      f"(exact {np.sqrt(np.pi) / 2:.5f})")

# Deterministic comparison margin for a correlated law, checked against MC.
rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.6)), (0.7, (0.3, 1.0))])
rep_y = decouple(rep, BlockSplit(1))
f = max_abs_power(2, -1.5)
ox = oracle_expectation(f, density_2d(rep))
oy = oracle_expectation(f, density_2d(rep_y))
print(f"\nmax-abs^-1.5 margin: {ox.value - oy.value:+.5f} "
      f">= {-(ox.error_bound + oy.error_bound):.1e}  (deterministic)")

fl = lp_norm_power(2, 1.0, -0.5)
ox = oracle_expectation(fl, density_2d(rep))
est = mc_expectation(fl, rep, 400_000, Seed(5))
print(f"l1^-0.5 value: oracle {ox.value:.5f} +- {ox.error_bound:.1e}, "
      f"MC {est.value:.5f} +- {est.stderr:.1e}")

# Degenerate laws have no 2-D density and are rejected loudly.
try:
    density_2d(SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))]))
except ValueError as exc:
    print("\nrank-one law rejected:", exc)
