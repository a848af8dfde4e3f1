"""Monte Carlo comparison E f(X) >= E f(Y) for negative-order functionals.

f(x) = N(x)^p with p in (-n, 0) concentrates near the origin, where the
correlated law X puts more density than its decoupled companion Y.  The
harness estimates both sides from independent streams; in the
infinite-variance regime (2p <= -n) it switches to a median-of-means
estimator and flags the record so tolerances can widen.
"""

from stablecomp import (BlockSplit, Seed, SpectralRep, lp_norm_power,
                        max_abs_power, mc_expectation, verify_cor3,
                        verify_thm1)

N = 400_000

# Fully dependent coordinates against independent ones, max-coordinate
# functional in the certificate-free window p in (-n, -n+1).
rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
rec = verify_cor3(rep, BlockSplit(1), -1.5, N, Seed(1))
print("max-abs functional, fully dependent vs decoupled:")
print(f"  E f(X) ~ {rec.lhs:.3f}   E f(Y) ~ {rec.rhs:.3f}")
print(f"  margin {rec.margin:+.3f} (tolerance {rec.tolerance:.3f}), "
      f"estimator = {rec.extra['estimator']}")

# A certified norm power (subspace of L_1) on a partially correlated law.
rep = SpectralRep.from_atoms(
    1.5, [(1.0, (1.0, 0.4, 0.0)), (0.8, (-0.2, 1.0, 0.5)), (0.5, (0.3, 0.0, 1.0))])
f = lp_norm_power(3, 1.0, -1.2)
rec = verify_thm1(rep, BlockSplit(1), f, N, Seed(2))
print("\nl1-norm power on a 3-D law (certificate:", rec.extra["certificate"], ")")
print(f"  margin {rec.margin:+.5f} (tolerance {rec.tolerance:.5f}) "
      f"passed={rec.passed}")

# Block-diagonal laws are their own decoupling: margins are pure noise.
rep_bd = SpectralRep.from_atoms(
    1.5, [(1.0, (1.0, 0.0, 0.0)), (0.5, (0.0, 1.0, 0.3)), (1.2, (0.0, 0.5, -0.8))])
rec = verify_thm1(rep_bd, BlockSplit(1), f, N, Seed(3))
print(f"\nblock-diagonal control: margin {rec.margin:+.5f} "
      f"within tolerance {rec.tolerance:.5f}")

# The raw estimator is also available directly.
est = mc_expectation(max_abs_power(2, -1.7),
                     SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.2)),
                                                  (1.0, (0.1, 1.0))]),
                     N, Seed(4))
print(f"\nstandalone estimate: {est.value:.4f} "
      f"(dev bound {est.dev_bound:.4f}, {est.blocks} blocks, {est.estimator})")
