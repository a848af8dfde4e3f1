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
  normalization, each after t = e^y by the whole-line panel rule
  ``_quadrature._line_integral``.  The closed forms are gated by agreement
  tests against this oracle.

Every scalar Gamma value of the package comes from ``_gamma`` here, which
wraps the standard library's ``math.gamma``, and every integral from the
panel rules of ``_quadrature``; ``fourier_pd`` takes Kummer's M, the Bessel
sum of its slice rule and exprel from numpy.  So no module of the package
loads scipy.

``levy_expectation`` turns a finite spherical measure representing a norm
(``LevyMeasure``, kept in ``homogeneous`` with the other norm
representations) into the exact finite-sum value of E||X||^p, and
``mc_expectation`` estimates E f(X) for arbitrary homogeneous descriptors,
switching to a median-of-means estimator in the infinite-variance regime.

The Monte Carlo reduction streams: each chunk of the sample stream (see
``sampling``) evaluates f on its own draws and reduces them, where they are
drawn, to a (count, mean, M2) triple for each estimator block it meets, M2
being the sum of squared deviations from that mean.  The triples are merged
in chunk order by the pairwise update of Chan, Golub & LeVeque (1979).  So
no N values are ever held, and since the chunks and the merge order are
fixed, an estimate has the same bytes for any worker count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import wraps

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

    ``stderr`` is set for the plain-mean estimator, sqrt(M2 / (N - 1) / N)
    from the merged sum of squared deviations M2; the median-of-means path
    reports ``dev_bound`` instead (a robust scale of the block-mean median,
    MAD-based).  Both come from per-chunk partials merged in chunk order,
    so they have the same bytes for any worker count.
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


def _gamma(x: float) -> float:
    """Gamma(x) of a real scalar, from the standard library's ``math.gamma``.

    Every closed form of the package takes its Gamma values here, so that
    none of them loads scipy.special (about 0.2 s and 20 MiB).  Where Gamma
    does not fit a float, past x = 171.6 or at a pole, it raises
    QuadratureFailure naming the argument instead of returning inf.
    """
    try:
        return math.gamma(x)
    except (OverflowError, ValueError):
        raise QuadratureFailure(f"Gamma({x!r}) does not fit a float") from None


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


# The exponent windows of the paper's hypotheses; every entry point checks them here.


def _check_prop1_window(p: float, q: float) -> None:
    """Prop 1 compares E||X||^p for 0 < p < q, or for any p > 0 at q = 2."""
    if not (p > 0.0 and _moment_exists(p, q, 1)):
        raise MomentExistenceError(f"Prop 1 needs 0 < p < q, or q = 2 with any p > 0 (E||X||^q "
                                   f"is infinite for q < 2); got p={p}, q={q}")


def _thm1_window(p: float, n: int) -> bool:
    """p in (-n, 0): Thm 1's comparison and the Fourier factorization of ``fourier_pd``."""
    return -n < p < 0.0


def _check_thm1_window(p: float, n: int) -> None:
    if not _thm1_window(p, n):
        raise ValueError(f"Thm 1 needs p in ({-n}, 0) at n={n}; got p={p}")


def _cor3_window(p: float, n: int) -> bool:
    """p in (-n, -n+1): every even positive homogeneous f is positive definite (Prop 3)."""
    return -n < p < -n + 1


def _check_cor3_window(p: float, n: int) -> None:
    if not _cor3_window(p, n):
        raise ValueError(f"Cor 3 and Prop 3 need p in ({-n}, {1 - n}) at n={n}; got p={p}")


def _fits_a_float(moment):
    """``moment(p, q)``, raising QuadratureFailure that names p and q instead
    of returning inf where E|Z|^p overflows a float although every Gamma
    value it takes fits one: Gamma(s/q) / (q Gamma(s) cos(pi s / 2)), s = -p,
    at small q, or 2^p Gamma((p + 1)/2) at q = 2."""
    @wraps(moment)
    def checked(p, q) -> float:
        with np.errstate(over="raise"):
            try:
                value = moment(p, q)
            except (OverflowError, FloatingPointError):
                value = math.inf
        if not math.isfinite(value):
            raise QuadratureFailure(f"E|Z|^p for p={p!r}, q={q!r} does not fit a float")
        return value

    return checked


@_fits_a_float
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
    if q == 2.0:
        # Z ~ N(0, 2)
        return float(2.0**p * _gamma((p + 1.0) / 2.0) / np.sqrt(np.pi))
    if p > 0:
        return float((2.0 / np.pi) * np.sin(np.pi * p / 2.0) * _gamma(p)
                     * _gamma((q - p) / q))  # not 1 - p/q, which cancels as p -> q
    s = -p
    return float(_gamma(s / q) / (q * _gamma(s) * np.cos(np.pi * s / 2.0)))


@_fits_a_float
def c_pq_oracle(p, q) -> float:
    """E|Z|^p by quadrature of the defining identities, independent of the
    closed forms in c_pq; QuadratureFailure where the panel rule does not converge."""
    from ._quadrature import _line_integral  # _quadrature imports this module

    q = check_stable_index(q)
    p = float(p)
    _check_existence(p, q)
    if p == 0.0:
        return 1.0
    if p < 0:
        # E|Z|^-s = (Gamma(s) cos(pi s/2))^-1 * int_0^inf t^(s-1) e^(-t^q) dt.
        # With t^q = a e^y, a = s/q, the integral is a^a e^-a / q times
        # int_R exp(a (y + 1 - e^y)) dy, peaked at y = 0 with curvature a.
        s, a = -p, -p / q
        val = _line_integral(lambda y: a * (y + 1.0 - np.exp(y)), 0.0, min(1.0, a**-0.5))
        try:  # Gamma(a) = a^a e^-a val, multiplied out in logs
            val = math.exp(a * math.log(a) - a + math.log(val))
        except OverflowError:
            raise QuadratureFailure(f"Gamma({a!r}) does not fit a float") from None
        return float(val / (q * _gamma(s) * np.cos(np.pi * s / 2.0)))
    if q == 2.0 and p >= 2.0:
        # int_0^inf z^p 2 exp(-z^2/4) / sqrt(4 pi) dz against the N(0, 2) density;
        # with z = e^y it peaks at e^2y = b = 2 (p + 1), with curvature b
        b, log_dens = 2.0 * (p + 1.0), -math.log(math.pi) / 2.0
        return _line_integral(lambda y: log_dens + (p + 1.0) * y - np.exp(2.0 * y) / 4.0,
                              math.log(b) / 2.0, b**-0.5)
    # 0 < p < min(q, 2):  C_p * int_0^inf (1 - e^(-t^q)) t^(-1-p) dt.  With
    # t^q = e^y = u it is int_R (1 - e^(-u)) e^(-p y / q) dy / q: slopes
    # (q - p)/q and -p/q about the knee at y = 0, each a product with y (a sum
    # would lose (q - p) y / q to rounding far out), times (1 - e^(-u)) / u or
    # 1 - e^(-u); past |y| = 700 that factor is 1 to the last bit
    def log_g(y):
        u, below = np.exp(np.clip(y, -700.0, 700.0)), y < 0.0
        return np.where(below, q - p, -p) / q * y + np.log(-np.expm1(-u) / np.where(below, u, 1.0))

    # sin(pi p / 2) from 2 - p, exact past p = 1: it vanishes as p -> 2 at q = 2
    C_p = (2.0 / np.pi) * np.sin(np.pi * min(p, 2.0 - p) / 2.0) * _gamma(1.0 + p)
    return float(C_p * _line_integral(log_g, 0.0, 1.0) / q)


def levy_expectation(rep: SpectralRep, gamma: LevyMeasure, p) -> float:
    """Exact E||X||^p for the norm represented by gamma, via the finite sum

        c(p, q) * sum_m c_m * scale_q(rep, xi_m)^p.

    Valid in the window of Prop 1 (p > 2 at q = 2 is the reversed regime).
    Deterministic: no sampling is involved.
    """
    p = float(p)
    if abs(gamma.p - p) > 1e-12:
        raise ValueError(f"measure represents exponent {gamma.p}, requested p={p}")
    if gamma.n != rep.n:
        raise ValueError(f"dimension mismatch: measure n={gamma.n}, rep n={rep.n}")
    _check_prop1_window(p, rep.q)
    qsums = _qsum(rep, gamma.xis)  # scale^q at each entry
    return float(c_pq(p, rep.q) * (gamma.weights @ qsums ** (p / rep.q)))


# Blocks of the median-of-means estimator.
_MOM_BLOCKS = 32


def _check_sample_size(N: int, plain: bool = False) -> None:
    """The smallest N: two samples for the plain mean, two a block for median-of-means."""
    need = 2 if plain else 2 * _MOM_BLOCKS
    if N < need:
        raise ValueError(f"N={N} too small for the {'plain' if plain else 'median-of-means'} "
                         f"estimator (need >= {need})")


def _merge(a: tuple, b: tuple) -> tuple:
    """Two (count, mean, M2) partials of adjacent runs as one, by the
    pairwise update of Chan, Golub & LeVeque (1979); M2 is the sum of
    squared deviations from the mean."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), m2a + m2b + delta * delta * (na * nb / n)


def _mc_moments(f, rep: SpectralRep, N: int, seed: Seed, workers: int,
                blocks: int) -> list:
    """(count, mean, M2) of f(X) over each of ``blocks`` contiguous blocks of
    the sample, with the edges of np.array_split(range(N), blocks).

    f is evaluated on the same deterministic chunk stream as sample_batch.
    Each chunk reduces its values where it is drawn, to one partial for each
    block it meets, and the partials are merged in chunk order.  Memory is
    therefore constant in N, and the result has the same bytes for any
    worker count.
    """
    mix = _mix(rep)
    size, extra = divmod(N, blocks)
    edges = [b * size + min(b, extra) for b in range(blocks + 1)]

    def reduce_chunk(ci, lo, hi):
        values = evaluate_many(f, _chunk_points(rep.q, mix, seed, ci, hi - lo))
        parts = []
        # the blocks that meet [lo, hi): the one holding row lo up to the
        # last that starts before hi
        for b in range(bisect_right(edges, lo) - 1, bisect_left(edges, hi)):
            seg = values[max(lo, edges[b]) - lo:min(hi, edges[b + 1]) - lo]
            mean = seg.mean()
            dev = seg - mean  # M2 by square and sum: a BLAS dot could go multithreaded
            parts.append((b, (seg.size, mean, np.square(dev, out=dev).sum())))
        return parts

    merged = [None] * blocks
    for parts in _map_chunks(N, workers, reduce_chunk):
        for b, part in parts:
            merged[b] = part if merged[b] is None else _merge(merged[b], part)
    return merged


def mc_expectation(f, rep: SpectralRep, N: int, seed, workers=None) -> MCEstimate:
    """Monte Carlo estimate of E f(X) for a homogeneous descriptor f.

    The plain mean (with standard error) is used when the second moment of
    f(X) exists, i.e. when 2p lies inside the existence range; otherwise a
    median-of-means estimate over _MOM_BLOCKS contiguous blocks is returned,
    flagged through ``estimator`` so callers can widen tolerances.

    No N values are held: each chunk of the sample stream is reduced to a
    count, mean and sum of squared deviations for each block it meets, and
    those are merged in chunk order (``_mc_moments``).  The estimate has the
    same bytes for any worker count.
    """
    if f.n != rep.n:
        raise ValueError(f"descriptor dimension {f.n} does not match rep n={rep.n}")
    p, q, n = f.p, rep.q, rep.n
    _check_existence(p, q, n)
    # the second moment of f(X) is E f(X)^2 with f^2 of order 2p
    plain = _moment_exists(2.0 * p, q, n)
    N = int(N)
    _check_sample_size(N, plain)
    seed = as_seed(seed)
    blocks = _mc_moments(f, rep, N, seed, _resolve_workers(workers),
                         1 if plain else _MOM_BLOCKS)

    if plain:
        _, mean, m2 = blocks[0]
        stderr = float(np.sqrt(m2 / (N - 1) / N))
        return MCEstimate(value=float(mean), n_samples=N, estimator="plain",
                          stderr=stderr, rep_hash=rep_hash(rep), seed=seed)

    block_means = np.array([mean for _, mean, _ in blocks])
    value = float(np.median(block_means))
    mad = float(np.median(np.abs(block_means - value)))
    scale = float(block_means.std(ddof=1)) if mad == 0.0 else 1.4826 * mad
    # normal-theory standard error of a median with a robust scale estimate
    dev = float(1.2533 * scale / np.sqrt(_MOM_BLOCKS))
    return MCEstimate(value=value, n_samples=N, estimator="median-of-means",
                      dev_bound=dev, blocks=_MOM_BLOCKS,
                      rep_hash=rep_hash(rep), seed=seed)
