"""Deterministic two-dimensional oracle: density recovery and expectations.

The density of a nondegenerate 2-D law is recovered from its
characteristic function by an inverse FFT on a frequency grid whose extent
is chosen so the characteristic function is below 1e-12 outside.  The
characteristic function is real and even, so it is evaluated on half of
the grid only (columns 0..M/2 in FFT order), and one complex inverse FFT
along the first axis and one real inverse FFT along the second give the
real, centred density.

Expectations of homogeneous functionals are then computed in polar
coordinates with the radial weight r^(1+p) handled by Gauss-Jacobi rules
(the integrand is singularity-free after that substitution for every
p > -2), plus a heavy-tail correction beyond the grid that uses the known
power tail order of the law.  Between grid points the density is the
interpolating cubic B-spline of the uniform grid (mirror boundaries);
points past the last grid line, which the centered box reaches by one
cell, take the value on that line.  Its coefficients come from the
recursive B-spline filter (``fourier_pd._spline_coefficients``): along the
first axis the causal and anticausal recursions run over whole rows of the
grid at once, along the second, contiguous axis a line at a time.

This path never samples, so it provides margins with deterministic error
estimates against which the Monte Carlo machinery is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .fourier_pd import ActionResult, _interpolant, _jacobi, _leggauss
from .homogeneous import HomogeneousFn, evaluate_many
from .moments import MomentExistenceError, QuadratureFailure
from .sampling import _mix, _write_binary
from .spectral import SpectralRep, _qsum, rep_hash

__all__ = ["DensityField", "density_2d", "oracle_expectation"]


@dataclass(frozen=True, eq=False)
class DensityField:
    """Density values on a uniform centered grid, with tail metadata.

    ``axis`` holds the (shared) x and y coordinates; ``values`` is the
    (M, M) nonnegative density after clipping FFT ringing.  Frequency
    sampling periodizes the density, so the mass beyond the box folds back
    onto the grid: the trapezoidal grid mass must equal 1 within 1e-3
    (the construction-time validity gate), and ``tail_mass`` records the
    single-excursion estimate of how much of it is folded-in tail.

    ``values`` come from a real inverse FFT of the characteristic function
    on the half frequency grid; no Hermitian fill is needed.
    ``oracle_expectation`` reads them through the interpolating cubic
    B-spline of the grid, clamping points beyond ``axis[0]`` and
    ``axis[-1]`` onto the edge.
    """

    axis: np.ndarray
    values: np.ndarray
    rep: SpectralRep
    rep_hash: str
    clipped_mass: float
    grid_mass: float
    tail_mass: float
    condition: float

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

    @property
    def half_width(self) -> float:
        return float(self.M / 2 * self.dx)

    def header_dict(self) -> dict:
        return {
            "dtype": "<f8",
            "order": "C",
            "shape": list(self.values.shape),
            "x0": float(self.axis[0]),
            "dx": self.dx,
            "rep_hash": self.rep_hash,
            "grid_mass": self.grid_mass,
            "tail_mass": self.tail_mass,
            "clipped_mass": self.clipped_mass,
        }

    def export_binary(self, path) -> None:
        _write_binary(path, self.values, self.header_dict())


def _tail_coefficient(q: float) -> float:
    """k_q with P(|Z| > z) ~ k_q z^(-q); exactly zero at q = 2 (no power tail)."""
    if q == 2.0:
        return 0.0
    return (2.0 / np.pi) * _gamma(q) * np.sin(np.pi * q / 2.0)


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


def density_2d(rep: SpectralRep, M: int | None = None) -> DensityField:
    """Recover the density of a nondegenerate 2-D law on a centered grid.

    Rejects rank-one and near-rank-one laws (no 2-D density / inversion
    aliases silently); raises QuadratureFailure when the combined
    grid-plus-tail mass misses 1 by more than 1e-3, which happens for very
    heavy tails (q well below 1) where a uniform grid cannot hold the law.
    """
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
    tail_mass = _tail_term(rep, M / 2 * dx)
    if abs(grid_mass - 1.0) > 1e-3:
        raise QuadratureFailure(
            f"mass check failed: trapezoidal grid mass {grid_mass:.6f} != 1 "
            "within 1e-3 (inversion untrustworthy for this law)")
    return DensityField(axis=axis, values=vals, rep=rep, rep_hash=rep_hash(rep),
                        clipped_mass=clipped, grid_mass=grid_mass,
                        tail_mass=tail_mass, condition=condition)


def _polar_box_integral(f: HomogeneousFn, rho_at, half_width: float,
                        r_inner: float, n_theta: int) -> float:
    """int f(x) rho(x) dx over the centered box, in polar coordinates.

    The radial weight r^(1+p) is exact in the Gauss-Jacobi segment [0,
    r_inner]; outside, geometric Gauss-Legendre panels follow the density
    scale out to the box boundary R(theta).
    """
    p = f.p
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    fbar = evaluate_many(f, dirs)
    w_theta = 2.0 * np.pi / n_theta
    R = half_width / np.maximum(np.abs(dirs[:, 0]), np.abs(dirs[:, 1]))

    xj, wj = _jacobi(24, 1.0 + p)
    uj = (xj + 1.0) / 2.0
    rj = r_inner * uj  # (24,)
    rho = rho_at(np.outer(dirs[:, 0], rj), np.outer(dirs[:, 1], rj))
    near = (r_inner / 2.0) ** (2.0 + p) * (rho @ wj)

    # geometric panels from r_inner to max R, masked per direction
    Rmax = float(R.max())
    edges = [r_inner]
    while edges[-1] < Rmax:
        edges.append(min(edges[-1] * 1.30, Rmax))
    glx, glw = _leggauss(10)
    far = np.zeros(n_theta)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        r_nodes = mid + half * glx
        w_nodes = half * glw
        active = R >= lo
        if not np.any(active):
            continue
        da = dirs[active]
        # truncate each direction at its own box boundary
        cap = np.minimum(r_nodes[None, :], R[active, None])
        inside = r_nodes[None, :] <= R[active, None]
        px = da[:, 0:1] * cap
        py = da[:, 1:2] * cap
        rho = rho_at(px, py)
        contrib = (rho * cap ** (1.0 + p) * inside) @ w_nodes
        far[active] += contrib
    return float(w_theta * fbar @ (near + far))


def _tail_term(rep: SpectralRep, half_width: float, f: HomogeneousFn | None = None) -> float:
    """Single-excursion estimate of the tail contribution to E f(X) beyond
    the box; with f None (f = 1, p = 0) it is the mass beyond the box.
    Frequency sampling folds that mass just inside the opposite edge, where
    the homogeneous f takes nearly the same value, so the grid integral
    already carries it; this estimate bounds the residual."""
    p = 0.0 if f is None else f.p
    q = rep.q
    kq = _tail_coefficient(q)
    if kq == 0.0:
        return 0.0
    total = 0.0
    for w, a in zip(rep.weights, rep.atoms):
        amax = np.abs(a).max()
        if amax == 0.0:
            continue
        z_exit = half_width / (w ** (1.0 / q) * amax)
        fa = 1.0 if f is None else float(evaluate_many(f, a.reshape(1, -1))[0])
        total += fa * w ** (p / q) * q * kq * z_exit ** (p - q) / (q - p)
    return float(total)


def oracle_expectation(f: HomogeneousFn, field: DensityField) -> ActionResult:
    """E f(X) against a recovered density, with an error estimate combining
    a coarse-grid refinement delta and the heavy-tail model uncertainty."""
    if f.n != 2:
        raise ValueError("the oracle is two-dimensional")
    p, q = f.p, field.rep.q
    if p <= -2.0:
        raise MomentExistenceError(
            f"f with exponent p={p} <= -2 is not integrable at the origin in 2-D")
    if not (q == 2.0 or p < q):
        raise MomentExistenceError(f"E f(X) does not exist for p={p}, q={q}")

    ax, vals = field.axis, field.values
    r_inner = 12.0 * field.dx
    main = _polar_box_integral(f, _interpolant(ax, vals), field.half_width,
                               r_inner, n_theta=512)
    main_coarse = _polar_box_integral(f, _interpolant(ax[::2], vals[::2, ::2]),
                                      field.half_width, 2.0 * r_inner, n_theta=256)

    tail = _tail_term(field.rep, field.half_width, f)
    theta = (np.arange(64) + 0.5) * (np.pi / 32.0)
    fbar_mean = float(np.mean(evaluate_many(
        f, np.column_stack([np.cos(theta), np.sin(theta)]))))
    err = (abs(main - main_coarse) + abs(tail)
           + field.clipped_mass * fbar_mean * field.half_width ** min(p, 0.0))
    return ActionResult(value=main, error_bound=float(err))
