"""Quadrature primitives: every integral of the package is taken here.

``fourier_pd`` and ``oracle2d`` integrate the Fourier transform of
Gamma(-p/2) |x|^p over the sphere with Gauss-Legendre panels, a Gauss-Jacobi
rule for the power singularity at the origin and the constant C(a) of the
one-dimensional transform of |r|^a.  ``_line_integral`` runs the same panels
over the whole line for the reference routes ``moments.c_pq_oracle`` and
``fourier_pd.subordination_norm_power``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .moments import QuadratureFailure, _gamma


def _read_only(*arrays) -> tuple:
    """``arrays``, made read-only: a cached rule is shared by every caller,
    and rules run at the same time on the worker pool."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=64)
def _leggauss(m: int) -> tuple:
    return _read_only(*np.polynomial.legendre.leggauss(m))


def _gl_panels(a: np.ndarray, b: np.ndarray, m: int) -> tuple:
    """Nodes and weights, each (..., k, m), of m-node Gauss-Legendre on each
    panel [a, b] of the (..., k) arrays ``a`` and ``b``."""
    x, w = _leggauss(m)
    h = (b - a)[..., None] / 2.0
    return (a + b)[..., None] / 2.0 + h * x, h * w


def _line_integral(log_g, center: float, width: float) -> float:
    """int_R exp(log_g(y)) dy for a numpy function log_g that falls away on
    both sides of ``center`` (a concave one, say).

    Gauss-Legendre panels of ``width`` sit at ``center`` and grow 1.3x
    outward until exp(log_g) is below 1e-18 of its value there.  The sums
    at 32 and 64 nodes a panel must agree to 1e-12, or QuadratureFailure is
    raised.  Both are scaled by the largest node value, in logs, so no
    factor overflows; a value past the largest float raises OverflowError.
    """
    floor = float(log_g(center)) + math.log(1e-18)
    edges = [center]
    for step in (-width, width):
        y = center
        for _ in range(160):  # an integrand still above the floor this far out does not decay
            y, step = y + step, 1.3 * step
            edges.append(y)
            if float(log_g(y)) < floor:
                break
        else:
            raise QuadratureFailure(f"integrand does not fall below 1e-18 of its value at "
                                    f"{center!r} within 160 panels")
    edges = np.sort(edges)
    rules = [_gl_panels(edges[:-1], edges[1:], m) for m in (32, 64)]
    logs = [log_g(y) for y, _ in rules]
    peak = float(max(v.max() for v in logs))
    coarse, fine = (float(np.sum(w * np.exp(v - peak))) for v, (_, w) in zip(logs, rules))
    if not abs(fine - coarse) <= 1e-12 * fine:
        raise QuadratureFailure(f"quadrature did not converge: 32 and 64 nodes per panel "
                                f"give {coarse!r} and {fine!r} (scaled by e^{peak!r})")
    return math.exp(peak + math.log(fine))


@lru_cache(maxsize=64)
def _gauss_jacobi(m: int, beta: float) -> tuple:
    """m-node Gauss rule for the weight (1 + x)^beta on [-1, 1], beta > -1, by
    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    Jacobi matrix and the weights the squared first components of its
    eigenvectors.

    scipy.special's Gauss-Jacobi roots put up to 1e-11 of the mass on the
    wrong node for beta near -1 (3e-12 at m = 32, beta = -0.86), and load
    scipy.linalg; the eigenvectors keep it within a few ulps.
    """
    k = np.arange(1, m, dtype=float)
    ab = 2.0 * k + beta
    diag = np.empty(m)
    # the general entry beta^2 / (ab (ab + 2)) at k = 0 reads 0/0 for beta = 0
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (ab * (ab + 2.0))
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2 / (ab * ab * (ab + 1.0) * (ab - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return _read_only(x, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2)


def _fourier_constant(a: float) -> float:
    """C(a) in int_R |r|^a cos(r t) dr = C(a) |t|^(-1-a), for a in (-1, 1), a != 0:

        C(a) = 2^(a+1) sqrt(pi) Gamma((a+1)/2) / Gamma(-a/2).
    """
    return float(2.0 ** (a + 1.0) * np.sqrt(np.pi) * _gamma((a + 1.0) / 2.0)
                 / _gamma(-a / 2.0))
