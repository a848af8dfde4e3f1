"""Draw stable variables and vectors exactly and check them against the
analytic characteristic function.

The one-dimensional generator uses the Chambers-Mallows-Stuck transform,
normalized so E exp(itZ) = exp(-|t|^q).  Vectors combine independent
one-dimensional draws along the atoms, which reproduces the target law
exactly (no approximation beyond Monte Carlo noise appears anywhere).
"""

import numpy as np

from stablecomp import (Seed, SpectralRep, char_fn, empirical_char_fn,
                        sample_batch, sample_standard, scale_q)

N = 200_000

# One-dimensional endpoints: q = 2 is N(0, 2); q = 1 is standard Cauchy.
for q in (0.7, 1.0, 1.5, 2.0):
    z = sample_standard(q, Seed(1), size=N)
    emp = np.cos(z).mean()
    print(f"q={q}: empirical cf at t=1: {emp:+.5f}   analytic: {np.exp(-1.0):+.5f}")

# A heavy-tailed 3-D law with four atoms.
rng = np.random.default_rng(0)
rep = SpectralRep(n=3, q=1.3, weights=rng.exponential(1.0, 4) + 0.2,
                  atoms=rng.standard_normal((4, 3)))
batch = sample_batch(rep, N, Seed(7))
print(f"\nsampled {len(batch)} draws of dimension {batch.n} "
      f"(rep hash {batch.rep_hash})")

g = rng.standard_normal((5, 3))
xi = g * (0.8 / scale_q(rep, g))[:, None]
emp = empirical_char_fn(batch.points, xi)
for row, e, a in zip(xi, emp, char_fn(rep, xi)):
    print(f"  cf at {np.round(row, 2)}: empirical {e:+.4f}  analytic {a:+.4f}")

# Reproducibility: the chunked stream contract makes batches bit-identical
# regardless of the worker count.
b1 = sample_batch(rep, 50_000, Seed(7), workers=1)
b8 = sample_batch(rep, 50_000, Seed(7), workers=8)
print("\nbit-identical across worker counts:", np.array_equal(b1.points, b8.points))

# Batches export as CSV or as raw little-endian float64 with a JSON sidecar.
batch.to_binary("/tmp/stablecomp_demo_batch.bin")
print("binary export written to /tmp/stablecomp_demo_batch.bin (+ .json sidecar)")
