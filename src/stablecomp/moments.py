"""Moments of stable variables and expectations of homogeneous functionals.

The absolute moment c(p, q) = E|Z|^p of the standard symmetric q-stable
variable is evaluated two independent ways:

* ``c_pq`` evaluates the moment identities in closed form (gamma/sine
  factors; for q = 2 the Gaussian moment formula), and

* ``c_pq_oracle`` integrates the defining identities numerically,

      E|Z|^p  = C_p * int_0^inf (1 - exp(-t^q)) t^(-1-p) dt,   0 < p < 2,
      E|Z|^-s = (Gamma(s) cos(pi s / 2))^-1
                * int_0^inf t^(s-1) exp(-t^q) dt,              0 < s < 1,

  with C_p = (2/pi) sin(pi p / 2) Gamma(1 + p) the cosine-integral
  normalization.  The closed forms are gated by agreement tests against
  this oracle.

``levy_expectation`` turns a finite spherical measure representing a norm
(``LevyMeasure``, kept in ``homogeneous`` with the other norm
representations) into the exact finite-sum value of E||X||^p, and
``mc_expectation`` estimates E f(X) for arbitrary homogeneous descriptors,
switching to a median-of-means estimator in the infinite-variance regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homogeneous import LevyMeasure, evaluate_many
from .sampling import Seed, _chunk_points, _map_chunks, _mix, _resolve_workers, as_seed
from .spectral import SpectralRep, _qsum, check_stable_index, rep_hash

__all__ = [
    "LevyMeasure",
    "MCEstimate",
    "MomentExistenceError",
    "QuadratureFailure",
    "c_pq",
    "c_pq_oracle",
    "levy_expectation",
    "mc_expectation",
]


class MomentExistenceError(ValueError):
    """Requested moment does not exist for the given (p, q)."""


class QuadratureFailure(RuntimeError):
    """A numerical quadrature did not converge to the requested tolerance."""


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with its uncertainty and estimator provenance.

    ``stderr`` is set for the plain-mean estimator; the median-of-means
    path reports ``dev_bound`` instead (a robust scale of the block-mean
    median, MAD-based).
    """

    value: float
    n_samples: int
    estimator: str
    stderr: float | None = None
    dev_bound: float | None = None
    blocks: int | None = None
    rep_hash: str | None = None
    seed: Seed | None = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("an estimate needs at least two samples")
        if self.estimator not in ("plain", "median-of-means"):
            raise ValueError(f"unknown estimator kind {self.estimator!r}")

    @property
    def uncertainty(self) -> float:
        return self.stderr if self.stderr is not None else self.dev_bound

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "n_samples": self.n_samples,
            "estimator": self.estimator,
            "stderr": self.stderr,
            "dev_bound": self.dev_bound,
            "blocks": self.blocks,
            "rep_hash": self.rep_hash,
            "seed": self.seed.to_json_dict() if self.seed is not None else None,
        }


def _special():
    """scipy.special, imported on first use.

    Importing it takes about 0.3 s and 20 MiB, which sampling, the Monte
    Carlo estimators and the characteristic function checks never need.
    """
    from scipy import special

    return special


def _moment_exists(p: float, q: float, n: int) -> bool:
    """Whether E f(X) exists for f homogeneous of order p and X q-stable in
    R^n: f is integrable at the origin for p > -n, and the tails of X
    allow p < q unless q = 2."""
    return p > -n and (q == 2.0 or p < q)


def _check_existence(p: float, q: float, n: int = 1) -> None:
    if not _moment_exists(p, q, n):
        raise MomentExistenceError(
            f"the moment of order p={p} does not exist for n={n}, q={q}: "
            "it needs p > -n, and p < q unless q = 2")


def c_pq(p, q) -> float:
    """E|Z|^p for the standard symmetric q-stable Z (cf exp(-|t|^q)).

    Exists for -1 < p < q when q < 2 and for every p > -1 when q = 2.
    Closed-form evaluation of the moment identities; cross-validated
    against ``c_pq_oracle``.
    """
    q = check_stable_index(q)
    p = float(p)
    _check_existence(p, q)
    if p == 0.0:
        return 1.0
    gamma = _special().gamma
    if q == 2.0:
        # Z ~ N(0, 2)
        return float(2.0**p * gamma((p + 1.0) / 2.0) / np.sqrt(np.pi))
    if p > 0:
        return float((2.0 / np.pi) * np.sin(np.pi * p / 2.0) * gamma(p)
                     * gamma(1.0 - p / q))
    s = -p
    return float(gamma(s / q) / (q * gamma(s) * np.cos(np.pi * s / 2.0)))


def _quad(fn, a, b, epsabs=1e-14, epsrel=1e-11):
    """Adaptive quadrature of fn over [a, b]; QuadratureFailure on any
    convergence warning or on an error estimate above 1e-7 max(1, |value|)."""
    # 0.5-0.65 s to import, 0.25-0.4 s once scipy.special is loaded;
    # only reference routes need it
    from scipy import integrate

    out = integrate.quad(fn, a, b, epsabs=epsabs, epsrel=epsrel,
                         limit=400, full_output=1)
    if len(out) > 3:
        raise QuadratureFailure(f"quadrature did not converge: {out[3]}")
    val, err = out[0], out[1]
    if err > 1e-7 * max(1.0, abs(val)):
        raise QuadratureFailure(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}")
    return val


def c_pq_oracle(p, q) -> float:
    """E|Z|^p by numerical quadrature of the defining identities.

    Independent of the closed forms in c_pq; target relative accuracy 1e-8.
    Nonconvergence raises QuadratureFailure rather than truncating.
    """
    q = check_stable_index(q)
    p = float(p)
    _check_existence(p, q)
    if p == 0.0:
        return 1.0
    if p < 0:
        # E|Z|^-s = (Gamma(s) cos(pi s/2))^-1 * int_0^inf t^(s-1) e^(-t^q) dt,
        # integrated with the substitution t = u^(1/s) that removes the
        # endpoint singularity.
        s = -p
        upper = 45.0 ** (s / q)
        val = _quad(lambda u: np.exp(-u ** (q / s)), 0.0, upper) / s
        return float(val / (_special().gamma(s) * np.cos(np.pi * s / 2.0)))
    if q == 2.0 and p >= 2.0:
        # direct quadrature against the explicit N(0, 2) density
        dens = 1.0 / np.sqrt(4.0 * np.pi)

        def integrand(z):
            return 2.0 * dens * z**p * np.exp(-z * z / 4.0)

        return float(_quad(integrand, 0.0, 20.0 + 4.0 * p))
    # 0 < p < min(q, 2):  C_p * int_0^inf (1 - e^(-t^q)) t^(-1-p) dt.
    # On [0, 1] substitute t = u^(1/(q-p)) to remove the origin singularity;
    # on [1, inf) split off the exactly integrable 1/p piece.
    qp = q - p

    def near(u):
        t = u ** (1.0 / qp)
        tq = t**q
        return np.where(tq > 1e-250, -np.expm1(-tq) / np.where(tq > 0, tq, 1.0), 1.0)

    near_val = _quad(near, 0.0, 1.0) / qp
    far_cut = 45.0 ** (1.0 / q)
    far_val = 1.0 / p - _quad(lambda t: np.exp(-t**q) * t ** (-1.0 - p), 1.0, far_cut)
    C_p = (2.0 / np.pi) * np.sin(np.pi * p / 2.0) * _special().gamma(1.0 + p)
    return float(C_p * (near_val + far_val))


def levy_expectation(rep: SpectralRep, gamma: LevyMeasure, p) -> float:
    """Exact E||X||^p for the norm represented by gamma, via the finite sum

        c(p, q) * sum_m c_m * scale_q(rep, xi_m)^p.

    Valid for 0 < p <= q, and for q = 2 with p > 2 (the reversed regime).
    Deterministic: no sampling is involved.
    """
    p = float(p)
    if abs(gamma.p - p) > 1e-12:
        raise ValueError(f"measure represents exponent {gamma.p}, requested p={p}")
    if gamma.n != rep.n:
        raise ValueError(f"dimension mismatch: measure n={gamma.n}, rep n={rep.n}")
    if not (0.0 < p <= rep.q or (rep.q == 2.0 and p > 2.0)):
        raise MomentExistenceError(
            f"levy_expectation needs 0 < p <= q or q = 2 with p > 2; got p={p}, q={rep.q}")
    qsums = _qsum(rep, gamma.xis)  # scale^q at each entry
    return float(c_pq(p, rep.q) * (gamma.weights @ qsums ** (p / rep.q)))


# Blocks of the median-of-means estimator.
_MOM_BLOCKS = 32


def _mc_values(f, rep: SpectralRep, N: int, seed: Seed, workers: int) -> np.ndarray:
    """f evaluated on the same deterministic chunk stream as sample_batch."""
    mix = _mix(rep)
    values = np.empty(N, dtype=float)

    def fill(ci, lo, hi):
        values[lo:hi] = evaluate_many(f, _chunk_points(rep.q, mix, seed, ci, hi - lo))

    _map_chunks(N, workers, fill)
    return values


def mc_expectation(f, rep: SpectralRep, N: int, seed, workers=None) -> MCEstimate:
    """Monte Carlo estimate of E f(X) for a homogeneous descriptor f.

    The plain mean (with standard error) is used when the second moment of
    f(X) exists, i.e. when 2p lies inside the existence range; otherwise a
    median-of-means estimate over _MOM_BLOCKS contiguous blocks is returned,
    flagged through ``estimator`` so callers can widen tolerances.
    """
    if f.n != rep.n:
        raise ValueError(f"descriptor dimension {f.n} does not match rep n={rep.n}")
    p, q, n = f.p, rep.q, rep.n
    _check_existence(p, q, n)
    # the second moment of f(X) is E f(X)^2 with f^2 of order 2p
    plain = _moment_exists(2.0 * p, q, n)
    estimator = "plain" if plain else "median-of-means"
    N = int(N)
    min_n = 2 if plain else 2 * _MOM_BLOCKS
    if N < min_n:
        raise ValueError(f"N={N} too small for the {estimator} estimator (need >= {min_n})")
    seed = as_seed(seed)
    values = _mc_values(f, rep, N, seed, _resolve_workers(workers))

    if plain:
        value = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(N))
        return MCEstimate(value=value, n_samples=N, estimator="plain",
                          stderr=stderr, rep_hash=rep_hash(rep), seed=seed)

    block_means = np.array([b.mean() for b in np.array_split(values, _MOM_BLOCKS)])
    value = float(np.median(block_means))
    mad = float(np.median(np.abs(block_means - value)))
    scale = float(block_means.std(ddof=1)) if mad == 0.0 else 1.4826 * mad
    # normal-theory standard error of a median with a robust scale estimate
    dev = float(1.2533 * scale / np.sqrt(_MOM_BLOCKS))
    return MCEstimate(value=value, n_samples=N, estimator="median-of-means",
                      dev_bound=dev, blocks=_MOM_BLOCKS,
                      rep_hash=rep_hash(rep), seed=seed)
