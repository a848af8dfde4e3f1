"""Numerical positive-definiteness scans for homogeneous functions.

The pairing of the distributional Fourier transform of f = N^p with a
nonnegative test function factorizes over the sphere; pd_action evaluates
it with error bounds and pd_check scans a family of test functions for a
sign violation.  Norm powers with p in (-n, -n+1) are guaranteed
nonnegative, so a violation there would expose an implementation bug.
"""

import numpy as np

from stablecomp import (HomogeneousFn, LrMatrixBase, TestFunction,
                        euclidean_power, euclidean_reference_action,
                        lp_norm_power, max_abs_power, pd_action,
                        pd_check, radial_fourier_weight,
                        subordination_norm_power)

# The radial weight constant that powers the guaranteed window.
print("radial pair constant (n=2, p=-1.5):", radial_fourier_weight(2, -1.5))

# Single actions: Euclidean powers have a radial closed form to compare to.
f = euclidean_power(3, -1.0)
phi = TestFunction("gaussian", np.zeros(3), 1.0)
act = pd_action(f, phi)
ref = euclidean_reference_action(3, -1.0, phi)
print(f"\nEuclidean^-1 in R^3 vs centered Gaussian: "
      f"action {act.value:.6f} (bound {act.error_bound:.1e}), closed form {ref:.6f}")

# A modulated test function far from the origin, max-abs functional.
phi = TestFunction("gaussian", np.array([5.0, 0.0]), 1.0)
act = pd_action(max_abs_power(2, -1.5), phi)
print(f"max-abs^-1.5 vs modulated Gaussian: {act.value:.6f} >= {-act.error_bound:.1e}")

# Full scans: defaults use a log width grid and a sphere-radius center grid.
for f in (max_abs_power(2, -1.5), lp_norm_power(3, 1.0, -2.4),
          HomogeneousFn(base=LrMatrixBase(
              matrix=np.array([[1.0, 0.3], [-0.2, 1.0], [0.5, 0.5]]), r=1.2),
              p=-0.9)):
    report = pd_check(f)
    print(f"\n{type(f.base).__name__} p={f.p}: {report.verdict} "
          f"(min action {report.min_action:.4f}, "
          f"bound {report.quadrature_error_bound:.1e}, "
          f"{report.evaluations} actions)")

# Away-from-origin mode uses compact bumps whose support avoids 0.
report = pd_check(max_abs_power(2, -1.5), mode="away-from-origin")
print(f"\naway-from-origin scan: {report.verdict} "
      f"(witness bump at {np.round(report.witness.center, 2)})")

# The subordination integral transports positive definiteness of
# exp(-N^r) to N^p; numerically it must reproduce N(x)^p exactly.
f = lp_norm_power(2, 1.5, -0.8)
x = np.array([0.7, -1.3])
print(f"\nsubordination reconstruction: {subordination_norm_power(f, x):.12f} "
      f"vs direct {f(x):.12f}")
