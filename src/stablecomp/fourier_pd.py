"""Numerical positive-definiteness checks for homogeneous functions.

For an even, continuous, positive f homogeneous of order p in (-n, 0), the
pairing of its distributional Fourier transform with a nonnegative rapidly
decreasing test function phi factorizes in spherical coordinates:

    (f^, phi) = integral f(x) phi^(x) dx
             = (1/2) * int_S f(theta) [ int_R |r|^(n+p-1) phi^(r theta) dr ] dtheta.

``pd_action`` evaluates that factorization for n in {2, 3}; ``pd_check``
scans a family of test functions for a sign violation.  The inner radial
integral G depends on theta only through c = <theta, center>
(``_radial_profile``).  For a Gaussian it has a closed form in Kummer's M,
whose error enters the bound.  For a bump it is a singularity-aware rule
(Gauss-Jacobi near the origin, by Golub-Welsch, and oscillation-limited
Gauss-Legendre panels outside; both rules are shared with ``oracle2d`` in
``_quadrature``) over a tabulated profile, read through the cubic B-spline
of its uniform grid (``_interpolant``); the bound adds the gap between a
coarse and a fine radial rule and a truncation term.  The npan panels have
equal widths, so blocks of B consecutive panels share one set of B * gl
local nodes l, and a node of block j is s_j + l.  By angle
addition cos(c (s_j + l)) needs cos(c s_j), sin(c s_j) per block and
cos(c l), sin(c l) per local node.  Every value of c then costs
2 (B * gl + npan / B) cosines and sines; B = sqrt(npan / gl) balances the two
terms and minimises the count, about 4 sqrt(npan * gl) against 2 (gl + npan)
for one panel per block.

The angular rules:

* n = 2 sums equal theta panels of Gauss-Legendre nodes over the half circle
  [0, pi).  Every f is even and the radial integral depends on
  |<theta, center>|, so theta + pi repeats theta and the half circle, without
  the factorization's 1/2, is the whole integral.  The panel edges at
  multiples of pi/16 sit on the kinks of l1 and max-abs, so those converge
  spectrally, and the bound is the gap between a coarse and a fine grid.
* n = 3 uses the centre-aligned rule.  With c^ = center/|center| (e3 for a
  centred test) the action is int_0^1 F(t) G(|center| t) dt, where
  F(t) = int_{S^1} f(t c^ + sqrt(1 - t^2) omega) d omega is a ring integral
  (t >= 0 suffices for an even f).  t = cos(psi) on Gauss-Legendre psi panels
  graded toward t = 0, where G peaks on the scale width/|center|; omega on
  15-degree panels of a frame whose edges meet the l1 and max-abs kink
  planes through an axis or diagonal c^.  So each action needs G at ~150
  values of c, and F depends only on (f, c^, rule): ``pd_check`` keeps the
  ring integrals of its scan in one dict, and every test function about the
  same axis (the family members on a ray, every width and radius
  refinement) reuses them.  The bound sums local gaps, the fine value
  against the coarse t and radial rules per coarse psi panel and F against
  the coarse omega rule per t node, so that errors of opposite sign at
  kinks that cross the rings cannot cancel in it.

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

from ._quadrature import _fourier_constant, _gauss_jacobi, _gl_panels, _leggauss
from .homogeneous import HomogeneousFn, _lr_exponent, evaluate_many
from .moments import _quad, _special

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
    """A quadrature value with its error bound; unpacks as (value, error_bound).

    Returned by ``pd_action`` and by the two-dimensional oracle.
    """

    value: float
    error_bound: float

    def __iter__(self):
        return iter((self.value, self.error_bound))


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
    a = n + p - 1.0
    if not (-1.0 < a < 0.0):
        raise ValueError(f"requires p in (-n, -n+1); got n={n}, p={p}")
    return _fourier_constant(a)


# ---------------------------------------------------------------------------
# quadrature grids


def _interpolant(axis: np.ndarray, values: np.ndarray):
    """Cubic B-spline interpolant ``rho(s)`` of a profile on the uniform grid
    ``axis``, with mirror boundaries (``ndimage.spline_filter1d``).  Points
    beyond the grid are clamped onto its edge, so past ``axis[-1]`` the
    interpolant holds the edge value.
    """
    # 0.25-0.4 s to import, 50-90 ms once scipy.special is loaded;
    # only bumps need it
    from scipy import ndimage

    coeffs = np.array(values, dtype=float)
    ndimage.spline_filter1d(coeffs, order=3, mode="mirror", output=coeffs)
    x0, dx, top = float(axis[0]), float(axis[1] - axis[0]), axis.size - 1.0

    def rho(s: np.ndarray) -> np.ndarray:
        coords = np.ravel(s)[None, :] - x0
        coords /= dx
        np.clip(coords, 0.0, top, out=coords)
        out = ndimage.map_coordinates(coeffs, coords, order=3, mode="mirror",
                                      prefilter=False)
        return out.reshape(np.shape(s))

    return rho


@lru_cache(maxsize=64)
def _circle_grid(spec: tuple):
    """n = 2: directions on equal theta panels of the half circle [0, pi) and
    weights summing to pi."""
    panels, nodes = spec
    edges = np.linspace(0.0, np.pi, panels + 1)
    theta, wq = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], nodes))
    return np.column_stack([np.cos(theta), np.sin(theta)]), wq


def _radial_modulated(a: float, kernel, r0: float, rmax: float, h: float,
                      cabs: np.ndarray, nj: int, gl: int):
    """2 * int_0^rmax r^(a-1) kernel(r) cos(r c) dr for each c in cabs.

    Gauss-Jacobi with weight r^(a-1) on [0, r0], oscillation-limited
    Gauss-Legendre panels on [r0, rmax].  The npan panels share one width,
    so B = max(1, round(sqrt(npan / gl))) consecutive panels form a block
    whose B * gl nodes are s_j + l_i: the block start s_j plus local nodes
    l_i shared by every block.  By angle addition

        sum_ji W_ji cos(c (s_j + l_i)) = sum_j cos(c s_j) C_j(c) - sin(c s_j) S_j(c),
        C = cos(c l) @ W^T,   S = sin(c l) @ W^T,

    with W the (blocks, B * gl) weight table, the last block zero-padded.
    That is the direct sum over all nodes in another order.  Each value of c
    costs 2 (B * gl + npan / B) cosines and sines: local nodes plus block
    starts.  One panel per block (B = 1) would cost 2 (gl + npan); the count
    is least where both terms are equal, at B = sqrt(npan / gl), where it is
    4 sqrt(npan * gl).  The largest arrays are (directions x B * gl) and
    (directions x blocks), both about sqrt(npan * gl) wide, so no
    (directions x panels) array is built.
    """
    xj, wj = _gauss_jacobi(nj, a - 1.0)
    rj = r0 * (xj + 1.0) / 2.0
    near_w = (r0 / 2.0) ** a * wj * kernel(rj)
    near = np.cos(np.outer(cabs, rj)) @ near_w

    npan = max(1, int(np.ceil((rmax - r0) / h)))
    hp = (rmax - r0) / (2.0 * npan)
    x, w = _leggauss(gl)
    block = max(1, round(math.sqrt(npan / gl)))
    starts = r0 + 2.0 * hp * block * np.arange(-(-npan // block))
    local = ((2.0 * np.arange(block) + 1.0)[:, None] * hp + hp * x).ravel()
    rf = (starts[:, None] + local).ravel()[:npan * gl]
    W = np.zeros((starts.size, local.size))
    W.reshape(-1)[:rf.size] = hp * np.tile(w, npan) * kernel(rf) * rf ** (a - 1.0)
    cl = np.outer(cabs, local)
    cs = np.outer(cabs, starts)
    C = np.cos(cl) @ W.T
    S = np.sin(cl, out=cl) @ W.T
    C *= np.cos(cs)
    S *= np.sin(cs, out=cs)
    return 2.0 * (near + C.sum(axis=1) - S.sum(axis=1))


def _bump_transform(n: int, s: np.ndarray) -> np.ndarray:
    """Fourier transform of the unit bump in R^n at the radii ``s``.

    Each value is one row sum over a fixed 256-node Gauss-Legendre rule, so
    it does not depend on which other radii are evaluated with it.  256 nodes
    resolve J0(r s) and sinc(r s) for s <= 400, and numpy's weights lose
    accuracy at higher degree (int x^2 errs 5.6e-16 here, 1.6e-13 at 1600).
    """
    x, w = _leggauss(256)
    r = (x + 1.0) / 2.0
    w = w / 2.0
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.where(r < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r**2, 1e-300)), 0.0)
    rs = np.outer(s, r)
    if n == 2:
        return 2.0 * np.pi * (_special().j0(rs) * (psi * r * w)[None, :]).sum(axis=1)
    if n == 3:
        return 4.0 * np.pi * (np.sinc(rs / np.pi) * (psi * r**2 * w)[None, :]).sum(axis=1)
    raise ValueError(f"bump profiles are provided for n in {{2, 3}}, got n={n}")


_BUMP_BLOCK = 500  # grid rows per block; bounds the (rows x 256) temporaries


@lru_cache(maxsize=4)
def _bump_table(n: int):
    """Radial profile of the Fourier transform of the unit bump in R^n, on a
    uniform grid of radii.

    Returns (radii on [0, s_cut = 400], profile values there, tail magnitude
    estimate past s_cut: the largest magnitude over the last 101 knots).
    """
    s = np.linspace(0.0, 400.0, 8001)
    vals = np.concatenate([_bump_transform(n, s[i:i + _BUMP_BLOCK])
                           for i in range(0, s.size, _BUMP_BLOCK)])
    return s, vals, float(np.abs(vals[-101:]).max())


@lru_cache(maxsize=4)
def _bump_profile(n: int):
    """(interpolant of ``_bump_table(n)``, s_cut, tail magnitude estimate).

    The profile is even in s, so the mirror boundary at s = 0 is exact.
    Past s_cut, which the radial rule reaches only by roundoff, the
    interpolant holds the edge value, no larger than the tail estimate.
    """
    s, vals, tail = _bump_table(n)
    return _interpolant(s, vals), float(s[-1]), tail


# bounds |_kummer_m - M| for a/2 in (0, 1.5], x in [0, 5000]; mpmath scans find 4.2e-15
_KUMMER_ERR = 1e-14


def _kummer_m(alpha: float, x: np.ndarray, b: float = 0.5) -> np.ndarray:
    """Kummer's M(alpha, b, -x) for x >= 0; it lies in [-1, 1] for b = 1/2.

    scipy's hyp1f1 errs for alpha <= b/10 and x near 2.4, up to 3e-8
    relative at b = 1/2 and 4e-11 at b = 1 and 3/2.  So for alpha < b/5 and
    x <= 8 this sums the 60 positive terms of Kummer's transformation
    exp(-x) M(b - alpha, b, x) instead.
    """
    out = _special().hyp1f1(alpha, b, -x)
    if alpha < 0.2 * b:
        near = x <= 8.0
        k = np.arange(60.0)[:, None]
        terms = np.cumprod((b - alpha + k) / (b + k) * x[near] / (k + 1.0), axis=0)
        out[near] = np.exp(-x[near]) * (1.0 + terms.sum(axis=0))
    return out


def _radial_profile(f_p: float, n: int, phi: TestFunction, cabs: np.ndarray,
                    nj: int, gl: int):
    """Inner radial integral of the spherical factorization, per direction.

    Returns (values per direction, bound on their error past the coarse and
    fine rules' gap).  For a Gaussian, phi^(r theta) = K exp(-sigma^2 r^2 / 2)
    cos(r c) with c = <theta, center> and K = normalization (2 pi sigma^2)^(n/2),
    and with a = n + p the integral is known exactly (Kummer's M, DLMF 13):

        2 int_0^inf r^(a-1) K exp(-sigma^2 r^2 / 2) cos(r c) dr
            = K Gamma(a/2) (2/sigma^2)^(a/2) M(a/2, 1/2, -c^2 / (2 sigma^2)).

    Nothing is truncated and the coarse and fine calls give the same values;
    the bound is the error of M, _KUMMER_ERR times the prefactor.  Bumps go
    through the tabulated profile and the panel rule of ``_radial_modulated``.
    """
    a = n + f_p
    if phi.kind == "gaussian":
        s2 = phi.width**2
        K = phi.normalization * (2.0 * np.pi * s2) ** (n / 2.0)
        pref = K * _special().gamma(a / 2.0) * (2.0 / s2) ** (a / 2.0)
        return pref * _kummer_m(a / 2.0, cabs**2 / (2.0 * s2)), _KUMMER_ERR * pref

    cmax = float(cabs.max()) if cabs.size else 0.0
    c_h = 2.4 / cmax if cmax > 0 else np.inf
    spline, s_cut, tail = _bump_profile(n)
    rho = phi.width
    K = phi.normalization * rho**n
    rmax = s_cut / rho
    r0 = min(0.5 / rho, rmax / 6.0, 0.78 / cmax if cmax > 0 else np.inf)
    h = min(c_h, 1.5 / rho)

    def kernel(r):
        return K * spline(rho * r)

    vals = _radial_modulated(a, kernel, r0, rmax, h, cabs, nj, gl)
    trunc = 2.0 * K * tail * rmax ** max(a - 1.0, 0.0) * 10.0
    return vals, float(trunc)


def _circle_spec(phi: TestFunction, fine: bool):
    """(panels, nodes) of the half-circle theta rule: edges at multiples of
    pi/16 for hard tests, pi/8 otherwise."""
    hard = phi.width < 0.5 or np.linalg.norm(phi.center) > 2.5
    if hard:
        return (16, 12) if fine else (16, 8)
    return (8, 10) if fine else (8, 6)


def _circle_action(f: HomogeneousFn, phi: TestFunction):
    """n = 2: returns (value, delta, truncation term, scale) as _centre_action
    does.  The value takes the fine theta and radial rules, and delta is its
    gap to the coarse ones.  f is even and the radial profile depends on
    |<theta, center>|, so theta and theta + pi contribute alike: half the
    circle, without the factorization's 1/2, is the whole integral."""
    values = []
    for fine in (False, True):
        dirs, w = _circle_grid(_circle_spec(phi, fine))
        fv = evaluate_many(f, dirs) * w
        nj, gl = (28, 14) if fine else (16, 10)
        radial, trunc = _radial_profile(f.p, 2, phi, np.abs(dirs @ phi.center), nj, gl)
        values.append(float(fv @ radial))
    coarse, value = values
    # fv, radial and trunc are the fine pass's
    return (value, abs(value - coarse), float(fv.sum()) * trunc,
            float(fv @ np.abs(radial)))


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


def _centre_action(f: HomogeneousFn, phi: TestFunction, tables: dict):
    """n = 3: the action as int_0^1 F(t) G(|center| t) dt, G the radial profile.

    Returns (value, delta, truncation term, scale).  The value takes the fine
    t, omega and radial rules.  delta sums two local gaps, so that errors of
    opposite sign in different places cannot cancel in it: per coarse psi
    panel, the fine value against the coarse t and radial rules; per t node,
    the ring integral F against the coarse omega rule.
    """
    frame = _axis_frame(phi.center)
    c = float(np.linalg.norm(phi.center))
    t2, _, w2 = _psi_rule(1)
    t1, _, w1 = _psi_rule(0)
    fine = _ring_integrals(f, frame, 1, 1, tables)
    ring_coarse = _ring_integrals(f, frame, 1, 0, tables)
    t_coarse = _ring_integrals(f, frame, 0, 1, tables)
    g2, trunc = _radial_profile(f.p, 3, phi, c * t2, 28, 14)
    g1, _ = _radial_profile(f.p, 3, phi, c * t1, 16, 10)
    wf = w2 * fine
    parts = wf * g2
    panel_gaps = (parts.reshape(-1, 2 * _PSI_NODES).sum(axis=1)
                  - (w1 * t_coarse * g1).reshape(-1, _PSI_NODES).sum(axis=1))
    ring_gaps = (w2 * np.abs(g2)) @ np.abs(fine - ring_coarse)
    return (float(parts.sum()), float(np.abs(panel_gaps).sum() + ring_gaps),
            float(wf.sum()) * trunc, float(wf @ np.abs(g2)))


def _validate_action_args(f: HomogeneousFn, phis):
    if f.n not in (2, 3):
        raise ValueError("spherical quadrature is implemented for n in {2, 3}; "
                         "higher dimensions rely on certificate windows instead")
    if not (-f.n < f.p < 0.0):
        raise ValueError(f"action requires exponent p in (-n, 0); got p={f.p}, n={f.n}")
    for phi in phis:
        if phi.n != f.n:
            raise ValueError(f"test function dimension {phi.n} != descriptor dimension {f.n}")


def pd_action(f: HomogeneousFn, phi) -> ActionResult:
    """The pairing (f^, phi) = int f(x) phi^(x) dx with an error bound.

    ``phi`` may be a single TestFunction or a sequence (interpreted as the
    sum, so the action is additive); an empty sequence gives exactly 0.
    """
    phis = [phi] if isinstance(phi, TestFunction) else list(phi)
    if not phis:
        return ActionResult(0.0, 0.0)
    _validate_action_args(f, phis)
    return _action(f, phis, {})


def _action(f: HomogeneousFn, phis: list, tables: dict) -> ActionResult:
    value = delta = trunc = scale = 0.0
    for one in phis:
        v, d, tb, sc = _centre_action(f, one, tables) if f.n == 3 else _circle_action(f, one)
        value += v
        delta += d
        trunc += tb
        scale += sc
    return ActionResult(float(value), float(delta + trunc + 1e-14 * scale))


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
    refinement of widths and center radii around the running minimum."""
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

    tables = {}  # ring integrals of f, shared by every action of this scan
    evaluations = 0
    best = None
    for phi in family:
        res = _action(f, [phi], tables)
        evaluations += 1
        if best is None or _clearly_lower(res, best[0]):
            best = (res, phi)
    for _ in range(refine_rounds):
        improved = False
        for cand in _refine_neighbors(best[1]):
            res = _action(f, [cand], tables)
            evaluations += 1
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
    if not (-n < p < 0.0):
        raise ValueError(f"requires p in (-n, 0); got {p}")
    s2 = phi.width**2
    x = float(phi.center @ phi.center) / (2.0 * s2)
    a = (n + p) / 2.0
    gamma = _special().gamma
    pref = (2.0 ** (n + p) * np.pi ** (n / 2.0) * gamma(a) / gamma(n / 2.0)
            * (2.0 * np.pi * s2) ** (n / 2.0) * (2.0 * s2) ** (-a))
    return float(phi.normalization * pref * _kummer_m(a, np.array([x]), n / 2.0)[0])


def subordination_norm_power(f: HomogeneousFn, x, r=None) -> float:
    """Reconstruct N(x)^p for p < 0 through the exponential subordination

        N(x)^p = (r / Gamma(-p/r)) * int_0^inf t^(-1-p) exp(-t^r N(x)^r) dt,

    evaluated by quadrature (substitution t = e^u).  Agreement with direct
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
    x = np.asarray(x, dtype=float)
    nval = float(f.base.values(x))
    if nval <= 0:
        raise ValueError("norm vanishes; reconstruction undefined at the origin")
    c = nval**r
    u_star = math.log(-p / (c * r)) / r
    u_lo = u_star - 45.0 / (-p) - 3.0
    u_hi = math.log(50.0 / c) / r
    u_hi = math.log((50.0 + max(0.0, -p * u_hi)) / c) / r + 2.0

    def integrand(u):
        return np.exp(-p * u - c * np.exp(r * u))

    return float(r / _special().gamma(-p / r) * _quad(integrand, u_lo, u_hi,
                                                      epsabs=1e-300, epsrel=1e-12))
