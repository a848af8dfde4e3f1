"""Quadrature primitives of the Fourier criterion, shared by ``fourier_pd``
and ``oracle2d``.

Both modules integrate the Fourier transform of Gamma(-p/2) |x|^p restricted
to the sphere: ``fourier_pd`` pairs it with test functions, ``oracle2d``
turns it into exact 2-D expectations.  They share Gauss-Legendre panels,
a Gauss-Jacobi rule for the power singularity at the origin, and the
constant C(a) of the one-dimensional transform of |r|^a.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .moments import _special


@lru_cache(maxsize=64)
def _leggauss(m: int) -> tuple:
    return np.polynomial.legendre.leggauss(m)


def _gl_panels(a: np.ndarray, b: np.ndarray, m: int) -> tuple:
    """Nodes and weights, each (..., k, m), of m-node Gauss-Legendre on each
    panel [a, b] of the (..., k) arrays ``a`` and ``b``."""
    x, w = _leggauss(m)
    h = (b - a)[..., None] / 2.0
    return (a + b)[..., None] / 2.0 + h * x, h * w


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
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2


def _fourier_constant(a: float) -> float:
    """C(a) in int_R |r|^a cos(r t) dr = C(a) |t|^(-1-a), for a in (-1, 1), a != 0:

        C(a) = 2^(a+1) sqrt(pi) Gamma((a+1)/2) / Gamma(-a/2).
    """
    gamma = _special().gamma
    return float(2.0 ** (a + 1.0) * np.sqrt(np.pi) * gamma((a + 1.0) / 2.0)
                 / gamma(-a / 2.0))
