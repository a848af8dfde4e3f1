"""Deterministic two-dimensional oracle: exact expectations E f(X).

A nondegenerate 2-D law X has the characteristic function
phi(xi) = exp(-S(xi)^q), S = ``scale_q(rep, .)``.  ``oracle_expectation``
gives E f(X) for f = N^p homogeneous by one of two exact rules.  Neither
samples, so both give margins with deterministic error bounds against
which the Monte Carlo machinery is validated.

The exact angular rule (``_angular_expectation``), which every
oracle-crosscheck trial takes, is the Fourier-side form of E f(X) for
p in (-2, 0) (Koldobsky, Fourier Analysis in Convex Geometry, 2005, ch. 3).
With s = -2 - p,

    E f(X) = K int_{S^1 x S^1} f(theta) S(omega)^p |<theta, omega>|^s dtheta domega,
    K = (2 pi)^-2 C(p+1)/2 Gamma(-p/q)/q,
    C(a) = 2^(a+1) sqrt(pi) Gamma((a+1)/2) / Gamma(-a/2).

It follows in four steps: write the density as
rho(x) = (2 pi)^-2 int phi(xi) cos<x, xi> dxi; go to polar coordinates in
x, where int_0^inf r^(p+1) cos(r t) dr = C(p+1)/2 |t|^s; go to polar
coordinates in xi; and use int_0^inf r^(-1-p) exp(-(r S)^q) dr
= Gamma(-p/q) S^p / q.  With theta = theta(alpha) = (cos alpha, sin alpha)
and omega = theta(alpha + pi/2 + t), <theta, omega> = -sin t, and f and S
are even, so

    E f(X) = 2K int_{-pi/2}^{pi/2} |sin t|^s H(t) dt,
    H(t) = int_0^{2 pi} f(theta(alpha)) S(theta(alpha + pi/2 + t))^p dalpha.

For p in (-2, -1) the kernel is integrable and C(p+1) is
``radial_fourier_weight(2, p)``.  For p in (-1, 0) the t integral is the
Hadamard finite part, the continuation in p:
int |sin t|^s (H(t) - H(0)) dt + H(0) sqrt(pi) Gamma((s+1)/2) / Gamma(s/2+1).
At p = -1, C(a)/2 |t|^(-1-a) tends to pi delta(t), which leaves
E f(X) = Gamma(1/q) H(0) / (2 pi q); the general form would read 0 * inf.

Panels.  H is a Gauss rule in alpha on panels with edges at the kinks of
f (x1 = +-x2 for max-abs, <b, x> = 0 for each row b of an L_r matrix base,
none for the diagonal Euclidean base); at the kinks of S, where omega is
orthogonal to a row of ``sampling._mix(rep)`` (q < 2); at even splits of
any gap wider than pi/4; and, once max S / min S > 3, at distances
4^j min S / max S from the minimum of S, about which S^p peaks.  For q
not in {1, 2}, S^p has |delta|^q cusps, and every panel is halved and
graded toward the nearest cusp (``_panel_nodes``).  The t panels have
edges at t = 0, wherever a kink of f meets a kink of S or the peak of S,
where H itself is not smooth, and at even splits of any gap wider than
pi/4.  The two panels at t = 0 take Gauss-Jacobi (``_gauss_jacobi``, shared
with ``fourier_pd`` in ``_quadrature``) with the weight |t|^s (|t|^(s+1) on
(H(t) - H(0))/t for the finite part); edges in a ratio of 4 grade the
others toward 0, and two more levels follow where a cusp meets t = 0.
H is evaluated for blocks of t nodes, so that no array exceeds
_BLOCK_POINTS nodes.

Bound.  The coarse rule takes 16 nodes per panel in both angles, the fine
rule 32; the value is the fine one, and the error bound is the gap between
the two plus 1e-13 times the sum of absolute terms.  A bound above
1e-3 |value| raises QuadratureFailure.

The Gaussian circle rule (``_gaussian_expectation``) covers q = 2 and
p > 0.  There X = L g with g ~ N(0, I) and L L^T = 2 sum_j w_j a_j a_j^T,
and |g| is independent of g/|g|, so

    E f(X) = E|g|^p E f(L theta) = 2^(p/2) Gamma(1 + p/2)/pi int_0^pi f(L theta(alpha)) dalpha.

Its alpha panels have edges where L theta(alpha) crosses a kink of f, that
is where theta(alpha) is orthogonal to L^T b for a kink normal b of f, and
at even splits of any gap wider than pi/4; the nodes, cusp grading and
bound are those of the angular rule.  For q < 2 and 0 < p < q neither rule
applies, and ``oracle_expectation`` raises ValueError.

``density_2d`` recovers the density on a grid, checked for its mass, its
even symmetry and its ringing, by an inverse FFT of the characteristic
function on a frequency grid whose extent is chosen so the characteristic
function is below 1e-12 outside.  The characteristic function is real and
even, so it is evaluated on half of the grid only (columns 0..M/2 in FFT
order), and one complex inverse FFT along the first axis and one real
inverse FFT along the second give the real, centred density.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quadrature import _fourier_constant, _gauss_jacobi, _gl_panels, _leggauss
from .fourier_pd import ActionResult
from .homogeneous import HomogeneousFn, LrMatrixBase, MaxAbsBase, evaluate_many
from .moments import QuadratureFailure, _check_existence, _special
from .sampling import _mix
from .spectral import SpectralRep, _qsum

__all__ = ["DensityField", "density_2d", "oracle_expectation"]


@dataclass(frozen=True, eq=False)
class DensityField:
    """Density values on a uniform centered grid.

    ``axis`` holds the (shared) x and y coordinates; ``values`` is the
    (M, M) nonnegative density after clipping FFT ringing, the negative mass
    ``clipped_mass``.  Frequency sampling periodizes the density, so the
    mass beyond the box folds back onto the grid: the trapezoidal
    ``grid_mass`` must equal 1 within 1e-3 (the construction-time validity
    gate).

    ``values`` come from a real inverse FFT of the characteristic function
    on the half frequency grid; no Hermitian fill is needed.
    ``oracle_expectation`` reads only ``rep``.
    """

    axis: np.ndarray
    values: np.ndarray
    rep: SpectralRep
    clipped_mass: float
    grid_mass: float

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float).copy()
        vals = np.asarray(self.values, dtype=float).copy()
        ax.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return self.axis.size

    @property
    def dx(self) -> float:
        return float(self.axis[1] - self.axis[0])


def _scale_profile(rep: SpectralRep):
    ang = np.arange(720) * (np.pi / 720)  # half circle suffices (even)
    dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    s = _qsum(rep, dirs) ** (1.0 / rep.q)
    return float(s.min()), float(s.max())


def _asymmetry(vals: np.ndarray) -> float:
    """max |v - v[::-1, ::-1]| over v = vals[1:, 1:], the grid points whose
    mirror image through the centre is on the grid.

    Row i of v and its partner M-2-i give exact negatives of each other's
    differences, so only the rows up to the centre row are compared, a block
    of rows at a time: no (M-1) x (M-1) temporary.
    """
    M = vals.shape[0]
    half = M // 2
    grid, flip = vals[1:half + 1, 1:], vals[1:, 1:][::-1, ::-1][:half]
    diff = np.empty((min(256, half), M - 1))
    block_max = []
    for lo in range(0, half, 256):
        d = diff[:min(256, half - lo)]
        np.subtract(grid[lo:lo + 256], flip[lo:lo + 256], out=d)
        block_max.append(np.abs(d, out=d).max())
    return float(np.max(block_max))


def _check_rep(rep: SpectralRep) -> tuple:
    """(min, max) of the scale on the circle for a nondegenerate 2-D law;
    rank-one and near-rank-one laws raise ValueError."""
    if rep.n != 2:
        raise ValueError(f"density inversion is two-dimensional only, got n={rep.n}")
    smin, smax = _scale_profile(rep)
    if smin <= 0.0 or np.linalg.matrix_rank(rep.atoms) < 2:
        raise ValueError("rank-one representation: no two-dimensional density exists; "
                         "use the one-dimensional reduction instead")
    condition = (smax / smin) ** 2
    if condition > 1e6:
        raise ValueError(f"near-rank-one representation (form condition {condition:.2e}); "
                         "inversion would alias")
    return smin, smax


def density_2d(rep: SpectralRep, M: int | None = None) -> DensityField:
    """Recover the density of a nondegenerate 2-D law on a centered grid.

    Rejects rank-one and near-rank-one laws (no 2-D density / inversion
    aliases silently); raises QuadratureFailure when the trapezoidal grid
    mass misses 1 by more than 1e-3, which happens for very heavy tails
    (q well below 1) where a uniform grid cannot hold the law, or when the
    inversion loses its even symmetry or rings by more than 1e-4 of mass.
    """
    smin, _ = _check_rep(rep)
    if M is None:
        M = 1024
        if rep.q < 1.5:
            M = 2048
        if rep.q < 1.0:
            M = 4096
    if M % 2 or M < 64:
        raise ValueError("grid size must be an even integer >= 64")

    T = np.log(1e12) ** (1.0 / rep.q) / smin
    dxi = 2.0 * T / M
    # phi is real and even, so the half grid of columns 0..M/2 fixes the
    # spectrum; both axes are in FFT order
    freq0 = np.fft.fftfreq(M, 1.0 / M) * dxi
    freq1 = np.arange(M // 2 + 1) * dxi

    # one grid pass per merged direction: row s u of _mix gives
    # |<s u, xi>|^q = sum of w |<a, xi>|^q over the atoms parallel to u
    qsum = np.zeros((M, M // 2 + 1))
    proj = np.empty_like(qsum)
    for a in _mix(rep):
        np.add(a[0] * freq0[:, None], a[1] * freq1[None, :], out=proj)
        np.abs(proj, out=proj)
        if rep.q == 2.0:
            np.square(proj, out=proj)
        elif rep.q != 1.0:
            with np.errstate(divide="ignore"):
                np.log(proj, out=proj)
            proj *= rep.q
            np.exp(proj, out=proj)
        qsum += proj
    del proj
    phi = np.exp(np.negative(qsum, out=qsum), out=qsum)
    # the checkerboard sign (-1)^(j1+j2) centres the density on the grid
    phi[1::2] *= -1.0
    phi[:, 1::2] *= -1.0

    # axis 0 in place, then axis 1 into the output: no second complex grid
    spectrum = phi.astype(complex)
    del phi, qsum
    np.fft.ifft(spectrum, axis=0, norm="forward", out=spectrum)
    vals = np.fft.irfft(spectrum, n=M, axis=1, norm="forward", out=np.empty((M, M)))
    del spectrum
    vals *= (dxi / (2.0 * np.pi)) ** 2
    asym = _asymmetry(vals)
    if asym > 1e-10:
        raise QuadratureFailure(f"inversion lost the even symmetry (asym {asym:.2e})")

    clipped = float(-vals[vals < 0].sum() * (np.pi / T) ** 2)
    if clipped > 1e-4:
        raise QuadratureFailure(f"negative ringing mass {clipped:.2e} exceeds 1e-4")
    np.maximum(vals, 0.0, out=vals)

    dx = np.pi / T
    axis = (np.arange(M) - M / 2) * dx
    # the inner trapezoid a block of rows at a time, so no M x M temporary
    rows = np.empty(M)
    for lo in range(0, M, 256):
        rows[lo:lo + 256] = np.trapezoid(vals[lo:lo + 256], dx=dx)
    grid_mass = float(np.trapezoid(rows, dx=dx))
    if abs(grid_mass - 1.0) > 1e-3:
        raise QuadratureFailure(
            f"mass check failed: trapezoidal grid mass {grid_mass:.6f} != 1 "
            "within 1e-3 (inversion untrustworthy for this law)")
    return DensityField(axis=axis, values=vals, rep=rep, clipped_mass=clipped,
                        grid_mass=grid_mass)


def _check_fn(f: HomogeneousFn, q: float) -> None:
    if f.n != 2:
        raise ValueError("the oracle is two-dimensional")
    _check_existence(f.p, q, 2)


def oracle_expectation(f: HomogeneousFn, field: DensityField) -> ActionResult:
    """E f(X) for the law ``field.rep`` by an exact rule (module docstring);
    the grid itself is not read.

    p in (-2, 0) takes the angular rule, q = 2 with p > 0 the Gaussian
    circle rule; q < 2 with 0 < p < q raises ValueError.
    """
    if f.p < 0.0:
        return _angular_expectation(f, field.rep)
    return _gaussian_expectation(f, field.rep)


# ---------------------------------------------------------------------------
# the exact angular rule

_NODES = 16  # Gauss nodes per panel of the coarse rule; the fine rule takes twice as many
_BLOCK_POINTS = 1 << 17  # alpha nodes per block of H: each block array is 1 MiB
_EDGE_TOL = 1e-12  # edges closer than this are one edge
_MAX_PANEL = np.pi / 4.0  # widest panel in either angle
_PEAK_RATIO = 3.0  # graded edges about the minimum of S once max S / min S exceeds this
_ZERO_LEVELS = 2  # extra t panels, each 4x narrower, where a cusp meets t = 0


def _panel_nodes(edges: np.ndarray, cusps: np.ndarray, m: int) -> tuple:
    """Nodes and weights, each (..., k, m), of m nodes on each of the k panels
    between consecutive sorted ``edges`` (..., k) of a period pi circle.

    With no cusp, Gauss-Legendre.  Otherwise each panel [a, b] is halved and
    each half is graded toward the nearest cusp g beyond its outer end (a cusp
    at a or b itself included): x = g + (r0 + (r1 - r0) u)^3 on the left
    half, r0 = (a - g)^(1/3), r1 = (mid - g)^(1/3), mirrored on the right,
    with m / 2 Gauss-Legendre nodes in u.  A cusp |x - g|^gamma at an end
    becomes the smoother u^(3 gamma + 2); one just outside an end, which
    slows Gauss-Legendre as one at the end would, moves far off the nodes.
    """
    k = edges.shape[-1]
    a = edges
    b = np.concatenate([edges[..., 1:], edges[..., :1] + np.pi], axis=-1)
    if not cusps.any():
        return _gl_panels(a, b, m)
    x, w = _leggauss(m // 2)
    u, w = (x + 1.0) / 2.0, w / 2.0
    ext = np.concatenate([edges - np.pi, edges, edges + np.pi], axis=-1)
    flagged = np.concatenate([cusps, cusps, cusps], axis=-1)
    idx = np.arange(3 * k)
    before = np.maximum.accumulate(np.where(flagged, idx, 0), axis=-1)[..., k:2 * k]
    after = np.minimum.accumulate(np.where(flagged, idx, 3 * k - 1)[..., ::-1],
                                  axis=-1)[..., ::-1][..., k + 1:2 * k + 1]
    mid = (a + b) / 2.0
    nodes, weights = np.empty(a.shape + (m,)), np.empty(a.shape + (m,))
    for g, end, sign, half in ((np.take_along_axis(ext, before, -1), a, 1.0, slice(0, m // 2)),
                               (np.take_along_axis(ext, after, -1), b, -1.0, slice(m // 2, m))):
        r0 = np.cbrt(sign * (end - g))[..., None]
        dr = np.cbrt(sign * (mid - g))[..., None] - r0
        y = r0 + dr * u
        y2 = y * y
        np.multiply(y2, y, out=nodes[..., half])
        nodes[..., half] *= sign
        nodes[..., half] += g[..., None]
        np.multiply(y2, 3.0 * dr * w, out=weights[..., half])
    return nodes, weights


def _scale_argmin(rep: SpectralRep, kinks: np.ndarray) -> float:
    """The angle of the direction that minimises S (mod pi).

    For q <= 1, S^q is concave between its kinks, so the minimum is at one of
    them; otherwise two rounds of 64 points refine the best of 720.
    """
    def qsum(beta):
        return _qsum(rep, np.column_stack([np.cos(beta), np.sin(beta)]))
    beta = np.concatenate([np.arange(720) * (np.pi / 720), kinks])
    best = float(beta[np.argmin(qsum(beta))])
    if rep.q > 1.0:
        for step in (np.pi / 720, np.pi / 720 / 32):
            beta = best + np.linspace(-step, step, 65)
            best = float(beta[np.argmin(qsum(beta))])
    return best


def _normal_angles(rows: np.ndarray) -> np.ndarray:
    """alpha in [0, pi) with theta(alpha) = (cos alpha, sin alpha) orthogonal to each row."""
    return (np.arctan2(rows[:, 1], rows[:, 0]) + np.pi / 2.0) % np.pi


def _fn_kinks(f: HomogeneousFn, L: np.ndarray | None = None) -> tuple:
    """(angles in [0, pi), cusp) of the kinks of alpha -> f(L theta(alpha)),
    L the identity when None; cusp says the base is |delta|^r there with r
    not an integer.  f has kinks where <b, x> = 0 for a normal b, so
    f(L theta) has them where theta is orthogonal to L^T b."""
    base = f.base
    normals, cusp = np.empty((0, 2)), False
    if isinstance(base, MaxAbsBase):
        normals = np.array([[1.0, -1.0], [1.0, 1.0]])
    elif isinstance(base, LrMatrixBase):
        normals = base.matrix[np.any(base.matrix != 0.0, axis=1)]
        cusp = base.r % 1.0 != 0.0
    return _normal_angles(normals if L is None else normals @ L), cusp


def _merge_edges(edges: np.ndarray, cusps: np.ndarray, lo: float) -> tuple:
    """Edges wrapped into [lo, lo + pi), sorted, those within _EDGE_TOL merged
    (a merged edge is a cusp if any of its members is)."""
    e = (edges - lo) % np.pi
    e[e > np.pi - _EDGE_TOL] = 0.0
    order = np.argsort(e, kind="stable")
    e, cusps = e[order], cusps[order]
    first = np.diff(e, prepend=-np.inf) > _EDGE_TOL
    merged = np.zeros(int(first.sum()), dtype=bool)
    np.logical_or.at(merged, np.cumsum(first) - 1, cusps)
    return e[first] + lo, merged


def _fill_gaps(edges: np.ndarray, cusps: np.ndarray, lo: float) -> tuple:
    """Sorted edges of [lo, lo + pi) plus even splits of every cyclic gap wider
    than _MAX_PANEL (the added edges are not cusps)."""
    ends = np.append(edges, edges[0] + np.pi) if edges.size else np.array([lo, lo + np.pi])
    extra = []
    for a, b in zip(ends[:-1], ends[1:]):
        k = int(np.ceil((b - a) / _MAX_PANEL - 1e-9))
        extra.append(a + (b - a) * np.arange(1, k) / k)
    new = np.concatenate(extra + ([] if edges.size else [[lo]]))
    new = (new - lo) % np.pi + lo
    edges = np.concatenate([edges, new])
    order = np.argsort(edges, kind="stable")
    return edges[order], np.concatenate([cusps, np.zeros(new.size, bool)])[order]


def _grade_toward_zero(edges: np.ndarray, cusps: np.ndarray) -> tuple:
    """Add edges so that every t panel [a, b] on one side of 0 but the one at 0
    has |b| <= 4 |a|: |sin t|^s then stays smooth on the scale of each panel.
    Where a cusp meets t = 0, H is not smooth there either, and the panel at
    0 shrinks by 4^-_ZERO_LEVELS.  More levels would not help: H(t) - H(0)
    over tiny t amplifies the error of the alpha rule, whose cusp then sits
    just outside a panel."""
    extra = []
    for side in (1.0, -1.0):
        mags = np.append(np.sort(edges[side * edges > 0.0] * side), np.pi / 2.0)
        if cusps[edges == 0.0][0]:
            extra.append(side * mags[0] * 4.0 ** np.arange(-_ZERO_LEVELS, 0))
        for a, b in zip(mags[:-1], mags[1:]):
            k = int(np.ceil(np.log(b / a) / np.log(4.0) - 1e-9))
            extra.append(side * a * (b / a) ** (np.arange(1, k) / k))
    edges = np.concatenate([edges, *extra])
    order = np.argsort(edges, kind="stable")
    return edges[order], np.concatenate([cusps, np.zeros(edges.size - cusps.size, bool)])[order]


def _h_values(f: HomogeneousFn, mix: np.ndarray, q: float, t: np.ndarray,
              fixed: np.ndarray, moving: np.ndarray, cusps: np.ndarray,
              m: int) -> np.ndarray:
    """H(t) = 2 int_0^pi f(theta(alpha)) S(theta(alpha + pi/2 + t))^p d alpha.

    The alpha panels have the ``fixed`` edges and the edges ``moving`` of S
    (angles of omega) shifted to moving - pi/2 - t; ``cusps`` flags both, in
    that order.  Blocks of t keep every array at _BLOCK_POINTS nodes.
    """
    k = fixed.size + moving.size
    rows = max(1, _BLOCK_POINTS // (k * m))
    out = np.empty(t.size)
    for lo in range(0, t.size, rows):
        tb = t[lo:lo + rows]
        edges = np.empty((tb.size, k))
        edges[:, :fixed.size] = fixed
        np.subtract(moving - np.pi / 2.0, tb[:, None], out=edges[:, fixed.size:])
        edges[:, fixed.size:] %= np.pi
        order = np.argsort(edges, axis=1, kind="stable")
        edges = np.take_along_axis(edges, order, axis=1)
        alpha, w = _panel_nodes(edges, cusps[order], m)
        # theta(alpha), component-major so that the base reads contiguous columns
        cs = np.empty((2,) + alpha.shape)
        np.cos(alpha, out=cs[0])
        np.sin(alpha, out=cs[1])
        # <a, theta(alpha + pi/2 + t)> = cos(alpha) A - sin(alpha) B with
        # A = a1 cos t - a0 sin t and B = a0 cos t + a1 sin t
        ct, st = np.cos(tb)[:, None, None], np.sin(tb)[:, None, None]
        qsum, proj = np.zeros_like(alpha), alpha  # alpha's buffer takes the projections
        for a0, a1 in mix:
            np.multiply(cs[0], a1 * ct - a0 * st, out=proj)
            proj -= cs[1] * (a0 * ct + a1 * st)
            np.abs(proj, out=proj)
            if q == 2.0:
                np.square(proj, out=proj)
            elif q != 1.0:
                proj **= q
            qsum += proj
        # f(theta) S^p = (N(theta)^q S^q)^(p/q): one power where N^q is cheap
        base = f.base.values(cs.reshape(2, -1).T).reshape(alpha.shape)
        if q == 1.0 or q == 2.0:
            qsum *= base if q == 1.0 else np.square(base, out=base)
            qsum **= f.p / q
        else:
            qsum **= f.p / q
            qsum *= np.power(base, f.p, out=base)
        out[lo:lo + rows] = 2.0 * np.einsum("ij,ij->i", qsum.reshape(tb.size, -1),
                                            w.reshape(tb.size, -1))
    return out


def _t_rule(edges: np.ndarray, cusps: np.ndarray, m: int, s: float, beta: float) -> tuple:
    """Nodes and weights with sum_j w_j g(t_j) ~ int_{-pi/2}^{pi/2} |sin t|^s g(t) dt.

    The two panels that meet at t = 0 take Gauss-Jacobi with weight |t|^beta,
    so g(t) |sin t|^s / |t|^beta must be smooth there; the others take the
    panel rule times |sin t|^s.
    """
    t, w = _panel_nodes(edges, cusps, m)
    w *= np.abs(np.sin(t)) ** s
    h = np.diff(edges, append=edges[0] + np.pi)
    x, wj = _gauss_jacobi(m, beta)
    i0 = int(np.flatnonzero(edges == 0.0)[0])
    for i, side in ((i0, 1.0), (i0 - 1, -1.0)):
        t[i] = side * h[i] * (x + 1.0) / 2.0
        w[i] = (h[i] / 2.0) ** (beta + 1.0) * wj * np.abs(np.sin(t[i])) ** s \
            / np.abs(t[i]) ** beta
    return t.ravel(), w.ravel()


def _angular_expectation(f: HomogeneousFn, rep: SpectralRep) -> ActionResult:
    """E f(X) for p in (-2, 0) by the exact angular rule (module docstring).

    The value takes the fine rule; the bound is its gap to the coarse rule
    plus 1e-13 times the sum of absolute terms.  A bound above 1e-3 |value|
    raises QuadratureFailure.
    """
    smin, smax = _check_rep(rep)
    _check_fn(f, rep.q)
    p, q = f.p, rep.q
    if p >= 0.0:
        raise ValueError(f"the angular rule needs p in (-2, 0), got p={p}")
    mix = _mix(rep)
    fk, fcusp = _fn_kinks(f)
    sk = _normal_angles(mix) if q < 2.0 else np.empty(0)
    scusp = q % 1.0 != 0.0
    # S^p peaks at the minimum of S, on the scale smin/smax: graded edges
    # about it for the alpha panels, and about its meetings with f's kinks in t
    peak = np.empty(0)
    if smax > _PEAK_RATIO * smin:
        width = smin / smax * 4.0 ** np.arange(8)
        width = width[width < np.pi / 8.0]
        peak = _scale_argmin(rep, sk) + np.concatenate([[0.0], width, -width])
    fixed = _merge_edges(fk, np.zeros(fk.size, bool), 0.0)[0]
    moving, moving_cusps = _fill_gaps(*_merge_edges(
        np.concatenate([sk, peak]),
        np.concatenate([np.full(sk.size, scusp), np.zeros(peak.size, bool)]), 0.0), 0.0)
    cusps = np.concatenate([np.full(fixed.size, fcusp), moving_cusps])
    meets = (sk[None, :] - np.pi / 2.0 - fk[:, None]).ravel()
    peak_meets = (peak[None, :] - np.pi / 2.0 - fk[:, None]).ravel()
    t_edges, t_cusps = _fill_gaps(*_merge_edges(
        np.concatenate([meets, peak_meets, [0.0]]),
        np.concatenate([np.full(meets.size, fcusp or scusp),
                        np.zeros(peak_meets.size + 1, bool)]), -np.pi / 2.0), -np.pi / 2.0)
    t_edges, t_cusps = _grade_toward_zero(t_edges, t_cusps)
    s = -2.0 - p
    finite_part = p > -1.0
    beta = s + 1.0 if finite_part else s
    gamma = _special().gamma
    if p != -1.0:
        K = _fourier_constant(p + 1.0) / 2.0 * gamma(-p / q) / q / (2.0 * np.pi) ** 2
    results = []
    for m in (_NODES, 2 * _NODES):
        def H(t):
            return _h_values(f, mix, q, t, fixed, moving, cusps, m)
        if p == -1.0:
            # C(a)/2 |t|^(-1-a) -> pi delta(t) as a -> 0
            value = gamma(1.0 / q) / (2.0 * np.pi * q) * H(np.zeros(1))[0]
            results.append((value, abs(value)))
            continue
        t, w = _t_rule(t_edges, t_cusps, m, s, beta)
        hv = H(t)
        scale = np.abs(w) @ np.abs(hv)
        if finite_part:
            h0 = H(np.zeros(1))[0]
            fp = h0 * np.sqrt(np.pi) * gamma((s + 1.0) / 2.0) / gamma(s / 2.0 + 1.0)
            integral = w @ (hv - h0) + fp
            scale += abs(fp)
        else:
            integral = w @ hv
        results.append((2.0 * K * integral, 2.0 * abs(K) * scale))
    return _fine_result(results, "angular rule")


def _fine_result(results: list, rule: str) -> ActionResult:
    """The fine (value, sum of absolute terms) of [coarse, fine] with the
    bound |fine - coarse| + 1e-13 sum; QuadratureFailure above 1e-3 |value|."""
    (coarse, _), (value, scale) = results
    bound = abs(value - coarse) + 1e-13 * scale
    if not bound <= 1e-3 * abs(value):
        raise QuadratureFailure(
            f"{rule} bound {bound:.2e} exceeds 1e-3 of its value {value:.6g}")
    return ActionResult(value=float(value), error_bound=float(bound))


def _gaussian_expectation(f: HomogeneousFn, rep: SpectralRep) -> ActionResult:
    """E f(X) for q = 2 by the Gaussian circle rule (module docstring), with
    the angular rule's nodes and bound."""
    _check_rep(rep)
    _check_fn(f, rep.q)
    if rep.q != 2.0:
        raise ValueError(f"the Gaussian circle rule needs q = 2, got q={rep.q} "
                         f"(p={f.p}); no exact rule covers 0 < p < q < 2")
    mix = _mix(rep)
    L = np.linalg.cholesky(2.0 * mix.T @ mix)
    kinks, cusp = _fn_kinks(f, L)
    edges, cusps = _fill_gaps(*_merge_edges(kinks, np.full(kinks.size, cusp), 0.0), 0.0)
    const = 2.0 ** (f.p / 2.0) * _special().gamma(1.0 + f.p / 2.0) / np.pi
    results = []
    for m in (_NODES, 2 * _NODES):
        alpha, w = (a.ravel() for a in _panel_nodes(edges, cusps, m))
        fv = evaluate_many(f, np.column_stack([np.cos(alpha), np.sin(alpha)]) @ L.T)
        results.append((const * (w @ fv), const * (np.abs(w) @ np.abs(fv))))
    return _fine_result(results, "Gaussian circle rule")
