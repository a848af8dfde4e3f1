"""Numerical positive-definiteness checks for homogeneous functions.

For an even, continuous, positive f homogeneous of order p in (-n, 0), the
pairing of its distributional Fourier transform with a nonnegative rapidly
decreasing test function phi factorizes in spherical coordinates:

    (f^, phi) = integral f(x) phi^(x) dx
             = (1/2) * int_S f(theta) [ int_R |r|^(n+p-1) phi^(r theta) dr ] dtheta.

``pd_action`` evaluates that factorization for n in {2, 3}; ``pd_check``
scans a family of test functions for a sign violation.  The inner radial
integral G depends on theta only through c = <theta, center>
(``_radial_profiles``).  For a Gaussian it has a closed form in Kummer's M,
whose error enters the bound.  For a bump it is a finite integral over the
derivative m' of the bump's slice integral (``_slice_integral``), by
Gauss-Legendre and Gauss-Jacobi rules shared with ``oracle2d`` in
``_quadrature``.  About each point u0 the rule on either side is h times one
fixed rule, so its offsets and weights come from a side table cached per
(nodes, a) (``_side_rule``), and a side costs one power h^(2-a) and one dot
product.  m' is closed-form: an exponential at n = 3, modified Bessel
functions K0 and K1 at n = 2 (``_slice_derivative``).  Nothing is truncated
(the side table holds quadrature weights, not values of m'): the bound is
the gap between a coarse and a fine rule plus the roundoff of the sums.

The angular rules:

* n = 2 sums equal theta panels of Gauss-Legendre nodes over the half circle
  [0, pi).  Every f is even and the radial integral depends on
  |<theta, center>|, so theta + pi repeats theta and the half circle, without
  the factorization's 1/2, is the whole integral.  The panel edges at
  multiples of pi/16 sit on the kinks of l1 and max-abs, and a bump adds
  edges where |<theta, center>| = width, at which its radial profile is not
  analytic; so the rule converges spectrally, and the bound is the gap
  between a coarse and a fine grid.  f(theta) times the weights depends only
  on f and the rule's panels, nodes and splits, so a scan keeps it per rule
  (the circle table): all Gaussian members share four rules.
* n = 3 uses the centre-aligned rule.  With c^ = center/|center| (e3 for a
  centred test) the action is int_0^1 F(t) G(|center| t) dt, where
  F(t) = int_{S^1} f(t c^ + sqrt(1 - t^2) omega) d omega is a ring integral
  (t >= 0 suffices for an even f).  t = cos(psi) on Gauss-Legendre psi panels
  graded toward t = 0, where G peaks on the scale width/|center|; omega on
  15-degree panels of a frame whose edges meet the l1 and max-abs kink
  planes through an axis or diagonal c^.  F depends only on (f, c^, rule),
  so a scan keeps the ring integrals, and every test function about the
  same axis (the family members on a ray, every width and radius
  refinement) reuses them.  The bound sums local gaps, the fine value
  against the coarse t and radial rules per coarse psi panel and F against
  the coarse omega rule per t node, so that errors of opposite sign at
  kinks that cross the rings cannot cancel in it.

A scan runs in stages, the family and then each refinement round's
candidates, and ``_actions`` takes a stage at once.  Each member's angular
rule takes f from the scan's tables (the circle table at n = 2, the ring
integrals at n = 3); then one ``_radial_profiles`` call gives the radial
profiles of every member at both rules.  All Gaussians go into one
``_kummer_m`` call, whose Horner sums give each x its own term count, and
the bumps of each rule into one ``_slice_integral`` call.  So a stage pays
the fixed costs of those sums once, not per member; their work arrays go in
blocks of _BLOCK values.  ``pd_action`` is a stage of one, and a member's
action does not depend on the rest of its stage beyond the roundoff of the
slice rule's dot products.

Test functions are Gaussians modulated to a center xi0 (their Fourier
transforms are analytic, which removes one quadrature layer) or, for the
away-from-origin mode, compactly supported bumps whose support excludes
the origin.

A verdict of "violation" is only reported when the minimum action is below
minus its quadrature error bound; anything in [-bound, 0) is inconclusive,
so a theorem is never contradicted by quadrature noise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._quadrature import _fourier_constant, _gauss_jacobi, _gl_panels, _line_integral, _read_only
from .homogeneous import HomogeneousFn, _lr_exponent, evaluate_many
from .moments import _check_cor3_window, _check_thm1_window, _gamma

__all__ = [
    "ActionResult",
    "PDReport",
    "TestFunction",
    "bump_family",
    "euclidean_reference_action",
    "gaussian_family",
    "pd_action",
    "pd_check",
    "radial_fourier_weight",
    "subordination_norm_power",
]


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Nonnegative rapidly decreasing test function.

    kind "gaussian": normalization * exp(-|xi - center|^2 / (2 width^2)).
    kind "bump": normalization * exp(1 - 1/(1 - s^2)), s = |xi - center|/width,
    supported in the ball of radius ``width`` around ``center``; for the
    away-from-origin mode the support must avoid 0, i.e. |center| > width.
    """

    kind: str
    center: np.ndarray
    width: float
    normalization: float = 1.0

    __test__ = False  # not a pytest class

    def __post_init__(self):
        if self.kind not in ("gaussian", "bump"):
            raise ValueError(f"unknown test function kind {self.kind!r}")
        c = np.atleast_1d(np.asarray(self.center, dtype=float)).copy()
        c.setflags(write=False)
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        if not (self.width > 0) or not (self.normalization > 0):
            raise ValueError("width and normalization must be positive")
        if self.kind == "bump" and np.linalg.norm(c) <= self.width:
            raise ValueError("bump support must avoid the origin (|center| > width)")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "normalization", float(self.normalization))

    @property
    def n(self) -> int:
        return self.center.size

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "center": [float(v) for v in self.center],
                "width": self.width, "normalization": self.normalization}


@dataclass(frozen=True)
class ActionResult:
    """A quadrature value with its error bound.

    Returned by ``pd_action`` and by the two-dimensional oracle.
    """

    value: float
    error_bound: float


@dataclass(frozen=True, eq=False)
class PDReport:
    """Outcome of a pd_check scan.

    ``verdict`` is "violation" only if min_action < -quadrature_error_bound;
    a minimum in [-bound, 0) yields "inconclusive-within-tolerance".
    """

    min_action: float
    witness: TestFunction
    verdict: str
    quadrature_error_bound: float
    mode: str
    family_size: int
    evaluations: int

    def to_json_dict(self) -> dict:
        return {
            "min_action": self.min_action,
            "witness": self.witness.to_json_dict(),
            "verdict": self.verdict,
            "quadrature_error_bound": self.quadrature_error_bound,
            "mode": self.mode,
            "family_size": self.family_size,
            "evaluations": self.evaluations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def radial_fourier_weight(n: int, p: float) -> float:
    """The positive constant relating |r|^(n+p-1) to |t|^(-n-p) under the
    one-dimensional Fourier transform, for n + p - 1 in (-1, 0):

        2^(n+p) sqrt(pi) Gamma((n+p)/2) / Gamma((1-n-p)/2).
    """
    _check_cor3_window(p, n)
    return _fourier_constant(n + p - 1.0)


# ---------------------------------------------------------------------------
# quadrature grids


@lru_cache(maxsize=64)
def _circle_grid(spec: tuple):
    """n = 2: directions on theta panels of the half circle [0, pi), equal
    panels split at the angles in ``spec``, and weights summing to pi."""
    panels, nodes, splits = spec
    edges = np.union1d(np.linspace(0.0, np.pi, panels + 1), splits)
    theta, wq = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], nodes))
    return np.column_stack([np.cos(theta), np.sin(theta)]), wq


# bounds |_kummer_m - M| for a/2 in (0, 1.5), b in {1/2, 1, 3/2} and x in
# [0, 5000]; mpmath scans find 3.6e-15
_KUMMER_ERR = 1e-14

# _kummer_m sums the transformed series up to x = _KUMMER_SWITCH and the
# asymptotic series, cut before its smallest term at that x, past it
_KUMMER_SWITCH = 40.0
_KUMMER_ASYMPTOTIC_TERMS = 38

# elements per work array of a batched stage
_BLOCK = 1 << 15


def _kummer_terms(x):
    """Terms of the transformed series at each x, past the bulk of the
    Poisson weights e^-x x^k / k! that bound them: its tail is below 1e-18."""
    return np.ceil(x + 9.0 * np.sqrt(x)).astype(np.intp) + 16


@lru_cache(maxsize=16)
def _kummer_ratios(alpha: float, b: float) -> tuple:
    """The term ratios of both series of ``_kummer_m`` (the powers of x
    aside), and the asymptotic prefactor Gamma(b) / Gamma(b - alpha): one
    scan calls it with one (alpha, b) for every action."""
    k = np.arange(float(_kummer_terms(_KUMMER_SWITCH)))
    s = np.arange(_KUMMER_ASYMPTOTIC_TERMS - 1.0)
    scale = 0.0 if alpha == b else _gamma(b) / _gamma(b - alpha)
    return (tuple(((b - alpha + k) / ((b + k) * (k + 1.0))).tolist()),
            tuple(((alpha + s) * (alpha - b + 1.0 + s) / (s + 1.0)).tolist()), scale)


def _horner(ratios: tuple, z: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """1 + sum_{k=1}^{count} z^k prod_{j<k} ratios[j] per element, for counts
    in ascending order, by Horner's rule: step k runs over the suffix of
    elements whose count exceeds k.  So each element takes its own count of
    terms, in an order that depends on its z and count alone."""
    s = np.ones_like(z)
    starts = np.searchsorted(counts, np.arange(counts[-1]), side="right")
    for k in range(counts[-1] - 1, -1, -1):
        t = s[starts[k]:]
        t *= z[starts[k]:]
        t *= ratios[k]
        t += 1.0
    return s


def _kummer_m(alpha: float, x: np.ndarray, b: float = 0.5) -> np.ndarray:
    """Kummer's M(alpha, b, -x) for x >= 0, alpha in (0, 1.5) and b in
    {1/2, 1, 3/2}; it lies in [-1, 1] for b = 1/2.

    Up to x = 40 it sums Kummer's transformation (DLMF 13.2.39)

        M(alpha, b, -x) = e^-x sum_k (b - alpha)_k / (b)_k x^k / k!,

    whose terms past the first keep the sign of b - alpha, so nothing
    cancels; each x takes ``_kummer_terms(x)`` terms.  Past 40 it takes the
    asymptotic series of DLMF 13.7.2,

        M(alpha, b, -x) ~ Gamma(b) / Gamma(b - alpha) x^-alpha
                          sum_s (alpha)_s (alpha - b + 1)_s / s! x^-s,

    cut at 38 terms, before its smallest term at x = 40.  The e^-x part it
    drops is below 1e-15 there, and 1/Gamma(b - alpha) vanishes at alpha = b,
    where M = e^-x.  Both series go by ``_horner`` over blocks of _BLOCK
    values, the near ones sorted by term count, so a value does not depend
    on the other x of the call or on their order.
    """
    near_ratios, far_ratios, scale = _kummer_ratios(alpha, b)
    out = np.empty_like(x)
    near = np.flatnonzero(x <= _KUMMER_SWITCH)
    counts = _kummer_terms(x[near])
    order = np.argsort(counts, kind="stable")
    near, counts = near[order], counts[order]
    for lo in range(0, near.size, _BLOCK):
        i = near[lo:lo + _BLOCK]
        out[i] = np.exp(-x[i]) * _horner(near_ratios, x[i], counts[lo:lo + _BLOCK])
    far = np.flatnonzero(x > _KUMMER_SWITCH)
    for lo in range(0, far.size, _BLOCK):
        xf = x[far[lo:lo + _BLOCK]]
        out[far[lo:lo + _BLOCK]] = scale * xf**-alpha * _horner(
            far_ratios, 1.0 / xf, np.full(xf.size, len(far_ratios)))
    return out


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1) / x, and 1 at x = 0."""
    zero = x == 0.0
    return np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))


# sqrt(b) e^b (K0(b) + K1(b)) as Chebyshev series: in log2(b) on [1/2, 2],
# and in 4/b - 1 on [2, inf).  The coefficients interpolate mpmath values at
# 40 Chebyshev points and stop before the first one below 1e-19;
# tests/test_fourier_pd.py regenerates them.
_BESSEL_SUM_LOW = (
    2.8053458563963205, -0.17651376993507722, 0.0248261505887954,
    -0.002038936559868723, 9.685706572034639e-05, -1.9946612860279497e-06,
    -2.8597446992750913e-09, -3.4357795553858215e-09, 3.3602382004180183e-10,
    4.3763876110815665e-12, -1.134703480120998e-12, -2.3123335861378458e-14,
    4.531692850055494e-15, 1.2219845497702812e-16, -1.768776090689674e-17,
    -6.851317344653138e-19,
)
_BESSEL_SUM_HIGH = (
    2.580464636275199, 0.07247563526485273, -0.001287932973892726,
    6.67200226550736e-05, -5.41216602278433e-06, 5.747294251180977e-07,
    -7.351469636427974e-08, 1.0805942277621016e-08, -1.771728448263871e-09,
    3.175152458079731e-10, -6.129574779415971e-11, 1.2608259431279172e-11,
    -2.7401872347286447e-12, 6.250417901078244e-13, -1.488333727424787e-13,
    3.6832274290406476e-14, -9.438144069417717e-15, 2.496410974733023e-15,
    -6.797606129381229e-16, 1.9010978831895372e-16, -5.4499127123868447e-17,
    1.5986244948814477e-17, -4.79071071550094e-18, 1.4647045390209347e-18,
    -4.563107108959542e-19, 1.4469398958019725e-19,
)


def _chebval(x: np.ndarray, c: tuple) -> np.ndarray:
    """numpy's ``chebval(x, c)`` for len(c) >= 3, by its Clenshaw recursion
    with its operations in its order, so every bit is the same, but in place:
    three work arrays, not three new ones per coefficient."""
    x2 = 2.0 * x
    c0, c1, t = np.full_like(x, c[-2]), np.full_like(x, c[-1]), np.empty_like(x)
    for ck in c[-3::-1]:
        np.multiply(c1, x2, out=t)
        t += c0
        np.subtract(ck, c1, out=c0)
        c1, t = t, c1
    c1 *= x
    c1 += c0
    return c1


def _bessel_sum(b: np.ndarray) -> np.ndarray:
    """e^b (K0(b) + K1(b)) for b >= 1/2, from the Chebyshev series above."""
    low = b <= 2.0
    out = np.empty_like(b)
    out[low] = _chebval(np.log2(b[low]), _BESSEL_SUM_LOW)
    out[~low] = _chebval(4.0 / b[~low] - 1.0, _BESSEL_SUM_HIGH)
    return out / np.sqrt(b)


# the slice rule: panels on [-1, 1], panels on each side of u0 past its
# Gauss-Jacobi panel, and nodes per panel (coarse, fine)
_SLICE_PANELS = 8
_SLICE_SIDE_PANELS = 1
_SLICE_NODES = (16, 24)


def _slice_derivative(n: int, u: np.ndarray) -> np.ndarray:
    """m'(u) for the slice integral m(u) = int psi(|(u, v)|) dv, v in R^(n-1),
    of the unit bump psi(r) = exp(1 - 1/(1 - r^2)); 0 where 1 - u^2 < 2e-3,
    as psi < e^-499 there.  n = 3: m'(u) = -2 pi u psi(|u|).  n = 2: with
    W^2 = 1 - u^2 and b = 1 / (2 W^2) in [1/2, 250],

        m'(u) = -u W^-3 e^(1 - b) (K0(b) + K1(b)),

    taken as e^(1 - 2b) times e^b (K0(b) + K1(b)) from ``_bessel_sum``.
    Differentiating under the integral and substituting v = W tanh y, then
    s = 2y, gives m'(u) = -(e u / W) int_R E (sech^2 y + 2 / W^2) dy with
    E = exp(-cosh^2 y / W^2) = e^-b exp(-b cosh s), and two identities close
    it: int_R exp(-b cosh s) ds = 2 K0(b) (DLMF 10.32.9), so int E dy = e^-b
    K0(b); and int_b^inf e^-x K0(x) dx = b e^-b (K1(b) - K0(b)), so
    int E sech^2 y dy = 2b e^-b (K1(b) - K0(b)) and the bracket is 2b e^-b
    (K0(b) + K1(b))."""
    w2 = (1.0 - u) * (1.0 + u)
    live = w2 >= 2e-3
    out = np.zeros(np.shape(u))
    u, w2 = u[live], w2[live]
    if n == 3:
        out[live] = -2.0 * np.pi * u * np.exp(1.0 - 1.0 / w2)
        return out
    out[live] = -u / (w2 * np.sqrt(w2)) * np.exp(1.0 - 1.0 / w2) * _bessel_sum(0.5 / w2)
    return out


@lru_cache(maxsize=16)
def _slice_rule(n: int, panels: int, nodes: int) -> tuple:
    """Panel edges, nodes and weights times m' of the rule on [-1, 1]."""
    edges = np.sin(np.pi * (np.arange(panels + 1) / panels - 0.5))
    x, w = (v.ravel() for v in _gl_panels(edges[:-1], edges[1:], nodes))
    return _read_only(edges, x, w * _slice_derivative(n, x))


@lru_cache(maxsize=32)
def _side_rule(nodes: int, a: float, side_panels: int) -> tuple:
    """The side table: offsets and weights of the rule for int_0^L g(s)
    s^(1-a) ds, g(s) = m'(u0 +- s) - m'(u0), on one side of u0.  With h = L
    2^-side_panels, its nodes are h offsets and its weights h^(2-a) weights:
    Gauss-Jacobi for s^(2-a) times g(s) / s on [0, h] (nodes s_j = h (x_j +
    1) / 2, weights (h/2)^(3-a) w_j / s_j), then Gauss-Legendre panels [2^i h,
    2^(i+1) h] (weights w_k s_k^(1-a)).  Both are h times a rule on [0,
    2^side_panels], so the table depends on (nodes, a, side_panels) alone.
    It holds quadrature weights only; m' is taken at every node afresh."""
    xj, wj = _gauss_jacobi(nodes, 2.0 - a)
    ends = 2.0 ** np.arange(side_panels + 1)
    gamma, wg = (v.ravel() for v in _gl_panels(ends[:-1], ends[1:], nodes))
    return _read_only(np.concatenate([(xj + 1.0) / 2.0, gamma]),
                      np.concatenate([2.0 ** (a - 2.0) * wj / (xj + 1.0),
                                      wg * gamma ** (1.0 - a)]))


def _slice_integral(n: int, a: float, u0: np.ndarray, nodes: int):
    """J(u0) = int_{-1}^{1} m'(u) sign(u - u0) |u - u0|^(1-a) du per u0, a
    Hadamard finite part for a >= 2, and the sum of the absolute values of
    its terms.

    The panels on [-1, 1] crowd toward +-1, where m' is flat but not
    analytic.  For |u0| < 1 they skip the window [lo, hi] of u0's panel and
    its neighbours, where each side of u0, of length L, takes sign(u - u0)
    (m'(u) - m'(u0)) |u - u0|^(1-a): Gauss-Jacobi for |u - u0|^(2-a) on the
    nearest h = L 2^-S, then S = _SLICE_SIDE_PANELS Gauss-Legendre panels
    doubling outward.  That side rule is h times one fixed rule, so its
    offsets and weights come from a cached side table (``_side_rule``), and
    a side sum is h^(2-a) times one dot product of the differences with the
    table's weights.  m'(u0) adds back its finite part m'(u0) ((hi -
    u0)^(2-a) - (u0 - lo)^(2-a)) / (2 - a).  The absolute sums take |m'(u)|
    + |m'(u0)| to cover the cancellation.  m' at the fixed nodes on [-1, 1]
    is cached, and one ``_slice_block`` takes it at every u0 and side node
    of a block of u0, whose work arrays hold at most _BLOCK values."""
    rows = max(1, _BLOCK // (_SLICE_PANELS * nodes))
    blocks = [_slice_block(n, a, u0[lo:lo + rows], nodes) for lo in range(0, u0.size, rows)]
    return tuple(np.concatenate(part) for part in zip(*blocks))


def _slice_block(n: int, a: float, u0: np.ndarray, nodes: int):
    """``_slice_integral`` on one block of u0."""
    panels = _SLICE_PANELS
    edges, x, wm = _slice_rule(n, panels, nodes)
    k = np.clip(np.searchsorted(edges, u0, side="right") - 1, 0, panels - 1)
    inside = np.abs(u0) < 1.0
    # the nodes of panels k - 1 to k + 1, skipped for u0 in (-1, 1)
    j = np.arange(panels * nodes)
    skip = ((j >= np.where(inside, (k - 1) * nodes, 0)[:, None])
            & (j < np.where(inside, (k + 2) * nodes, 0)[:, None]))
    d = x - u0[:, None]
    np.copyto(d, 1.0, where=skip)
    kernel = np.abs(d)
    kernel **= 1.0 - a
    np.copyto(kernel, 0.0, where=skip)
    absolute = kernel @ np.abs(wm)
    total = np.copysign(kernel, d, out=kernel) @ wm

    # rows: u0 in (-1, 1); columns: the sides above and below u0
    u0, k = u0[inside, None], k[inside, None]
    lo, hi = edges[np.maximum(k - 1, 0)], edges[np.minimum(k + 2, panels)]
    length = np.concatenate([hi - u0, u0 - lo], axis=1)
    h = length * 2.0 ** -_SLICE_SIDE_PANELS
    offsets, weights = _side_rule(nodes, a, _SLICE_SIDE_PANELS)
    side = h[..., None] * offsets
    side[:, 1] *= -1.0
    side += u0[..., None]
    m = _slice_derivative(n, np.concatenate([u0.ravel(), side.ravel()]))
    # one row per (u0, side), so each side sum is one matrix-vector product
    m0, ms = m[:u0.size], m[u0.size:].reshape(-1, offsets.size)
    m0_rows = np.repeat(m0, 2)[:, None]
    scale = h ** (2.0 - a)
    absolute_sides = ((np.abs(ms) + np.abs(m0_rows)) @ weights).reshape(-1, 2) * scale
    ms -= m0_rows
    sides = (ms @ weights).reshape(-1, 2) * scale
    ratio = np.log(length[:, 0] / length[:, 1])
    closed = m0 * length[:, 1] ** (2.0 - a) * ratio * _exprel((2.0 - a) * ratio)
    total[inside] += sides[:, 0] - sides[:, 1] + closed
    absolute[inside] += absolute_sides[:, 0] + absolute_sides[:, 1] + np.abs(closed)
    return total, absolute


def _split(values: np.ndarray, arrays: list) -> list:
    """``values`` cut into pieces the sizes of ``arrays``."""
    return np.split(values, np.cumsum([v.size for v in arrays])[:-1])


def _radial_profiles(f_p: float, n: int, requests: list) -> list:
    """Inner radial integrals of the spherical factorization, per direction,
    for a list of (phi, c, fine) requests, c the values of <theta, center>
    (or of its absolute value) at a rule's directions.

    Returns per request (values per direction, bound on their error past
    the coarse and fine rules' gap).  For a Gaussian, phi^(r theta) = K
    exp(-sigma^2 r^2 / 2) cos(r c) with K = normalization (2 pi
    sigma^2)^(n/2), and with a = n + p the integral is known exactly
    (Kummer's M, DLMF 13):

        2 int_0^inf r^(a-1) K exp(-sigma^2 r^2 / 2) cos(r c) dr
            = K Gamma(a/2) (2/sigma^2)^(a/2) M(a/2, 1/2, -c^2 / (2 sigma^2)).

    Nothing is truncated and the coarse and fine calls give the same values;
    the bound is the error of M, _KUMMER_ERR times the prefactor.  For a
    bump of width w, the transform of |r|^(a-1) pairs |t|^(-a) with phi's
    slice integrals, which vanish off [c - w, c + w]; by parts, G(c) =
    normalization w^(n-a) K(a) J(-c/w), with K(a) = C(a-1)/(a-1) =
    -2^(a-1) sqrt(pi) Gamma(a/2) / Gamma((3-a)/2), smooth through a = 1, and
    J by the slice rule at ``fine``; the bound is 1e-14 of J's largest
    absolute sum.

    Every Gaussian request goes into one ``_kummer_m`` call, and the bumps
    of each rule into one ``_slice_integral`` call.  Each value depends on
    its own request alone: a Kummer value on its x, a slice integral on its
    u0 up to the roundoff of the rule's dot products.
    """
    a = n + f_p
    out = [None] * len(requests)
    gauss = [(i, phi, c) for i, (phi, c, _) in enumerate(requests) if phi.kind == "gaussian"]
    if gauss:
        x = [c**2 / (2.0 * phi.width**2) for _, phi, c in gauss]
        for (i, phi, _), m in zip(gauss, _split(_kummer_m(a / 2.0, np.concatenate(x)), x)):
            s2 = phi.width**2
            K = phi.normalization * (2.0 * np.pi * s2) ** (n / 2.0)
            pref = K * _gamma(a / 2.0) * (2.0 / s2) ** (a / 2.0)
            out[i] = pref * m, _KUMMER_ERR * pref

    for fine in (False, True):
        bumps = [(i, phi, c) for i, (phi, c, rule) in enumerate(requests)
                 if phi.kind == "bump" and rule == fine]
        if not bumps:
            continue
        u0 = [-c / phi.width for _, phi, c in bumps]
        values, absolute = _slice_integral(n, a, np.concatenate(u0), _SLICE_NODES[fine])
        for (i, phi, _), v, s in zip(bumps, _split(values, u0), _split(absolute, u0)):
            w = phi.width
            pref = (-phi.normalization * w ** (n - a) * 2.0 ** (a - 1.0) * np.sqrt(np.pi)
                    * _gamma(a / 2.0) / _gamma((3.0 - a) / 2.0))
            out[i] = pref * v, 1e-14 * abs(pref) * float(s.max())
    return out


def _circle_spec(phi: TestFunction, fine: bool):
    """(panels, nodes, splits) of the half-circle theta rule: edges at
    multiples of pi/16 for hard tests, pi/8 otherwise, and for a bump at the
    ``splits`` where |<theta, center>| = width (without them the rule erred
    up to 3 times its coarse-fine gap near p = -2)."""
    hard = phi.width < 0.5 or np.linalg.norm(phi.center) > 2.5
    panels, nodes = (16, 12 if fine else 8) if hard else (8, 10 if fine else 6)
    splits = ()
    if phi.kind == "bump":
        mid = math.atan2(phi.center[1], phi.center[0])
        off = math.acos(phi.width / float(np.linalg.norm(phi.center)))
        splits = ((mid - off) % math.pi, (mid + off) % math.pi)
    return panels, nodes, splits


def _circle_terms(f: HomogeneousFn, phi: TestFunction, tables: dict):
    """n = 2: |<theta, center>| at the coarse and the fine theta rule, and
    the function that turns the radial profiles there into (value, delta,
    radial error term, scale) as ``_centre_terms`` does.  The value takes
    the fine theta and radial rules, and delta is its gap to the coarse
    ones.  f is even and the radial profile depends on |<theta, center>|, so
    theta and theta + pi contribute alike: half the circle, without the
    factorization's 1/2, is the whole integral.  f(theta) times the weights
    depends only on f and the rule's spec, so ``tables`` keeps it for every
    test function of a scan on that rule."""
    rules = []
    for fine in (False, True):
        spec = _circle_spec(phi, fine)
        if spec not in tables:
            dirs, w = _circle_grid(spec)
            tables[spec] = dirs, evaluate_many(f, dirs) * w
        rules.append(tables[spec])
    (dirs1, fv1), (dirs2, fv2) = rules

    def combine(g1, g2, radial_err):
        coarse, value = float(fv1 @ g1), float(fv2 @ g2)
        return (value, abs(value - coarse), float(fv2.sum()) * radial_err,
                float(fv2 @ np.abs(g2)))

    return np.abs(dirs1 @ phi.center), np.abs(dirs2 @ phi.center), combine


# n = 3, the centre-aligned rule.  t = cos(psi) with psi in [0, pi/2]: equal
# psi panels, the last one halved _PSI_GRADING times toward the equator t = 0,
# where the radial profile of a narrow or far test function peaks on the
# scale width/|center|.  Each level bisects every psi and every omega panel.
_PSI_PANELS = 4
_PSI_GRADING = 5
_PSI_NODES = 8
_RING_PANELS = 24  # 15 degrees: kinks at multiples of 45 and 60 degrees sit on edges
_RING_NODES = 8


@lru_cache(maxsize=8)
def _psi_rule(level: int):
    """(t, sqrt(1 - t^2), weights) of the t rule on [0, 1] at ``level``."""
    h = 0.5 * np.pi / _PSI_PANELS
    top = 0.5 * np.pi - h
    edges = np.concatenate([np.linspace(0.0, top, _PSI_PANELS),
                            0.5 * np.pi - h / 2.0 ** np.arange(1, _PSI_GRADING + 1),
                            [0.5 * np.pi]])
    for _ in range(level):
        edges = np.insert(edges, np.arange(1, edges.size), (edges[:-1] + edges[1:]) / 2.0)
    psi, w = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], _PSI_NODES))
    s = np.sin(psi)
    return np.cos(psi), s, w * s


@lru_cache(maxsize=8)
def _ring_rule(level: int):
    """(cos omega, sin omega, weights) of the omega rule on [0, 2 pi] at ``level``."""
    edges = np.linspace(0.0, 2.0 * np.pi, _RING_PANELS * 2**level + 1)
    omega, w = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], _RING_NODES))
    return np.cos(omega), np.sin(omega), w


def _axis_frame(center: np.ndarray) -> np.ndarray:
    """Rows (c, u, v) of a right-handed frame with c = +-center/|center|.

    c is e3 for the zero centre and is signed so that its largest entry is
    positive: an even f has the same ring integrals about c and -c.  u is the
    unit projection of the coordinate axis least aligned with c, so for axis
    and diagonal centres the coordinate kink planes through c (those of l1
    and max-abs) cut every ring on an omega panel edge.
    """
    r = np.linalg.norm(center)
    c = center / r if r > 0 else np.array([0.0, 0.0, 1.0])
    k = int(np.argmax(np.abs(c)))
    c = (-c if c[k] < 0 else c) + 0.0  # + 0.0 turns -0.0 into 0.0
    j = int(np.argmin(np.abs(c)))
    u = -c[j] * c
    u[j] += 1.0
    u /= np.linalg.norm(u)
    return np.stack([c, u, np.cross(c, u)])


def _ring_points(frame: np.ndarray, t_level: int, ring_level: int) -> np.ndarray:
    """Points t c + sqrt(1 - t^2) (cos omega u + sin omega v), t-major rows.

    The (points, 3) result is a view of component-major storage, along whose
    short axis numpy reduces up to eight times faster (max-abs norms).
    """
    t, s, _ = _psi_rule(t_level)
    cw, sw, _ = _ring_rule(ring_level)
    ring = frame[1][:, None] * cw + frame[2][:, None] * sw
    pts = s[:, None] * ring[:, None, :]
    pts += (frame[0][:, None] * t)[:, :, None]
    return pts.reshape(3, -1).T


def _ring_integrals(f: HomogeneousFn, frame: np.ndarray, t_level: int,
                    ring_level: int, tables: dict) -> np.ndarray:
    """F(t) = int f(t c + sqrt(1 - t^2) omega) d omega at the t nodes.

    F depends only on f, the axis c and the two rules, so ``tables`` (which
    holds one f) keeps it for every later test function about the same axis.
    """
    key = (frame[0].tobytes(), t_level, ring_level)
    if key not in tables:
        w = _ring_rule(ring_level)[2]
        vals = evaluate_many(f, _ring_points(frame, t_level, ring_level))
        tables[key] = vals.reshape(-1, w.size) @ w
    return tables[key]


def _centre_terms(f: HomogeneousFn, phi: TestFunction, tables: dict):
    """n = 3: the action as int_0^1 F(t) G(|center| t) dt, G the radial profile.

    Returns c = |center| t at the coarse and the fine t nodes, and the
    function that turns the radial profiles there into (value, delta,
    radial error term, scale).  The value takes the fine t, omega and radial
    rules.  delta sums two local gaps, so that errors of opposite sign in
    different places cannot cancel in it: per coarse psi panel, the fine
    value against the coarse t and radial rules; per t node, the ring
    integral F against the coarse omega rule.  The radial error term carries
    the radial profile's own bound past its gap.
    """
    frame = _axis_frame(phi.center)
    c = float(np.linalg.norm(phi.center))
    t2, _, w2 = _psi_rule(1)
    t1, _, w1 = _psi_rule(0)
    fine = _ring_integrals(f, frame, 1, 1, tables)
    ring_coarse = _ring_integrals(f, frame, 1, 0, tables)
    t_coarse = _ring_integrals(f, frame, 0, 1, tables)

    def combine(g1, g2, radial_err):
        wf = w2 * fine
        parts = wf * g2
        panel_gaps = (parts.reshape(-1, 2 * _PSI_NODES).sum(axis=1)
                      - (w1 * t_coarse * g1).reshape(-1, _PSI_NODES).sum(axis=1))
        ring_gaps = (w2 * np.abs(g2)) @ np.abs(fine - ring_coarse)
        return (float(parts.sum()), float(np.abs(panel_gaps).sum() + ring_gaps),
                float(wf.sum()) * radial_err, float(wf @ np.abs(g2)))

    return c * t1, c * t2, combine


def _check_pd_dimension(n: int) -> None:
    """The spherical quadrature of ``pd_action`` and the pd trials take n in {2, 3}."""
    if n not in (2, 3):
        raise ValueError(f"the pd scan runs in dimensions 2 and 3 only, got n={n}; "
                         "higher dimensions rely on certificate windows instead")


def _validate_action_args(f: HomogeneousFn, phis):
    _check_pd_dimension(f.n)
    _check_thm1_window(f.p, f.n)
    for phi in phis:
        if phi.n != f.n:
            raise ValueError(f"test function dimension {phi.n} != descriptor dimension {f.n}")


def pd_action(f: HomogeneousFn, phi: TestFunction) -> ActionResult:
    """The pairing (f^, phi) = int f(x) phi^(x) dx with an error bound."""
    _validate_action_args(f, [phi])
    return _actions(f, [phi], {})[0]


def _actions(f: HomogeneousFn, phis: list, tables: dict) -> list:
    """The action of each test function in ``phis``, in their order.

    The angular rule of each member (``_circle_terms`` or ``_centre_terms``)
    takes its f values from ``tables``; then one ``_radial_profiles`` call
    gives the radial profiles of every member at both rules, so a scan
    stage pays the fixed costs of the Kummer and slice sums once."""
    terms = [(_circle_terms if f.n == 2 else _centre_terms)(f, phi, tables) for phi in phis]
    requests = [req for phi, (c1, c2, _) in zip(phis, terms)
                for req in ((phi, c1, False), (phi, c2, True))]
    profiles = _radial_profiles(f.p, f.n, requests)
    out = []
    for (_, _, combine), (g1, _), (g2, radial_err) in zip(terms, profiles[::2], profiles[1::2]):
        value, delta, radial_term, scale = combine(g1, g2, radial_err)
        out.append(ActionResult(value, float(delta + radial_term + 1e-14 * scale)))
    return out


def _center_directions(n: int) -> np.ndarray:
    if n == 2:
        ang = np.arange(8) * (np.pi / 4.0)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    axes = np.vstack([np.eye(3), -np.eye(3)])
    diag = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                     for sz in (-1, 1)], dtype=float) / np.sqrt(3.0)
    return np.vstack([axes, diag])


def gaussian_family(n: int) -> list:
    """Default full-space family: centered Gaussians of widths 0.25 to 4 on a
    log grid plus modulated ones with centers at radii 1.5 and 4."""
    widths = (0.25, 0.5, 1.0, 2.0, 4.0)
    fam = [TestFunction("gaussian", np.zeros(n), w) for w in widths]
    dirs = _center_directions(n)
    for w in widths:
        for rad in (1.5, 4.0):
            for d in dirs:
                fam.append(TestFunction("gaussian", rad * d, w))
    return fam


def bump_family(n: int) -> list:
    """Default away-from-origin family: bumps of widths 0.5 and 1 centred at
    radii 1.5, 3 and 6, so that no support reaches 0."""
    fam = []
    dirs = _center_directions(n)
    for w in (0.5, 1.0):
        for rad in (1.5, 3.0, 6.0):
            for d in dirs:
                fam.append(TestFunction("bump", rad * d, w))
    return fam


def _refine_neighbors(phi: TestFunction) -> list:
    out = []
    rad = np.linalg.norm(phi.center)
    for ws in (0.71, 1.41):
        if phi.kind == "bump" and rad <= phi.width * ws:
            continue
        out.append(replace(phi, width=phi.width * ws))
    if rad > 0:
        for rs in (0.7, 1.35):
            cand = phi.center * rs
            if phi.kind == "bump" and np.linalg.norm(cand) <= phi.width:
                continue
            out.append(replace(phi, center=cand))
    elif phi.kind == "gaussian":
        c = np.zeros(phi.n)
        c[0] = phi.width
        out.append(replace(phi, center=c))
    return out


def _clearly_lower(res: ActionResult, best: ActionResult) -> bool:
    """Whether res beats the running minimum by more than roundoff; a tie
    keeps the earlier test function, so the witness does not hang on the
    last bits of the arithmetic."""
    return res.value < best.value - 1e-12 * abs(best.value)


def pd_check(f: HomogeneousFn, family=None, mode: str = "full-space",
             refine_rounds: int = 2) -> PDReport:
    """Scan a test family for a negative action; grid search plus local
    refinement of widths and center radii around the running minimum, each
    stage in one ``_actions`` batch."""
    if mode not in ("full-space", "away-from-origin"):
        raise ValueError(f"unknown mode {mode!r}")
    if family is None:
        family = gaussian_family(f.n) if mode == "full-space" else bump_family(f.n)
    family = list(family)
    if not family:
        raise ValueError("test family must be nonempty")
    if mode == "away-from-origin" and any(phi.kind != "bump" for phi in family):
        raise ValueError("away-from-origin mode admits only compact bumps")
    _validate_action_args(f, family)

    tables = {}  # f on the angular rules, shared by every action of this scan
    best = None
    for phi, res in zip(family, _actions(f, family, tables)):
        if best is None or _clearly_lower(res, best[0]):
            best = (res, phi)
    evaluations = len(family)
    for _ in range(refine_rounds):
        cands = _refine_neighbors(best[1])
        evaluations += len(cands)
        improved = False
        for cand, res in zip(cands, _actions(f, cands, tables)):
            if _clearly_lower(res, best[0]):
                best = (res, cand)
                improved = True
        if not improved:
            break

    min_action, bound = best[0].value, best[0].error_bound
    if min_action < -bound:
        verdict = "violation"
    elif min_action < 0.0:
        verdict = "inconclusive-within-tolerance"
    else:
        verdict = "consistent-with-pd"
    return PDReport(min_action=min_action, witness=best[1], verdict=verdict,
                    quadrature_error_bound=bound, mode=mode,
                    family_size=len(family), evaluations=evaluations)


# ---------------------------------------------------------------------------
# reference routes


def euclidean_reference_action(n: int, p: float, phi: TestFunction) -> float:
    """Closed form of the action of f = Euclidean^p against a Gaussian test:

        (f^, phi) = c(n, p) * int |xi|^s phi(xi) dxi,   s = -n - p,
        c(n, p) = 2^(n+p) pi^(n/2) Gamma((n+p)/2) / Gamma(-p/2).

    With G ~ N(center, sigma^2 I) the integral is normalization
    (2 pi sigma^2)^(n/2) E|G|^s, and the noncentral moment is

        E|G|^s = (2 sigma^2)^(s/2) Gamma((n+s)/2) / Gamma(n/2)
                 * M(-s/2, n/2, -|center|^2 / (2 sigma^2)).

    Gamma((n+s)/2) = Gamma(-p/2) cancels against c(n, p).
    """
    if phi.kind != "gaussian":
        raise ValueError("reference action is implemented for gaussian tests")
    _check_thm1_window(p, n)
    s2 = phi.width**2
    x = float(phi.center @ phi.center) / (2.0 * s2)
    a = (n + p) / 2.0
    pref = (2.0 ** (n + p) * np.pi ** (n / 2.0) * _gamma(a) / _gamma(n / 2.0)
            * (2.0 * np.pi * s2) ** (n / 2.0) * (2.0 * s2) ** (-a))
    return float(phi.normalization * pref * _kummer_m(a, np.array([x]), n / 2.0)[0])


def subordination_norm_power(f: HomogeneousFn, x, r=None) -> float:
    """Reconstruct N(x)^p for p < 0 through the exponential subordination

        N(x)^p = (r / Gamma(-p/r)) * int_0^inf t^(-1-p) exp(-t^r N(x)^r) dt,

    evaluated by the whole-line panel rule after t = e^u.  Agreement with direct
    evaluation validates the same integral that transports positive
    definiteness of exp(-N^r) to N^p.
    """
    p = f.p
    if p >= 0:
        raise ValueError("subordination reconstruction applies to negative exponents")
    if r is None:
        r = _lr_exponent(f.base)
        if r is None:
            raise ValueError("no natural subordination exponent for this base; pass r")
    r = float(r)
    if r <= 0:
        raise ValueError(f"subordination exponent must be positive, got {r}")
    nval = replace(f, p=1.0)(x)  # N(x), the point's shape checked as for f(x)
    if nval <= 0:
        raise ValueError("norm vanishes; reconstruction undefined at the origin")
    # t = e^u: exp(-p u - c e^(r u)) peaks where c r e^(r u) = -p, with
    # curvature -p r, and falls on a scale of 1/r past the peak
    c = nval**r
    integral = _line_integral(lambda u: -p * u - c * np.exp(r * u),
                              math.log(-p / (c * r)) / r, min(1.0 / r, (-p * r) ** -0.5))
    return float(r / _gamma(-p / r) * integral)
