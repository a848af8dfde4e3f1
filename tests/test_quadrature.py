import math

import numpy as np
import pytest

from stablecomp import QuadratureFailure
from stablecomp._quadrature import _gauss_jacobi, _gl_panels, _leggauss, _line_integral


@pytest.mark.parametrize("beta", [-0.95, -0.5, 0.0, 0.5, 1.9])
@pytest.mark.parametrize("m", [16, 28, 32])
def test_gauss_jacobi_moments(m, beta):
    """An m-node Gauss rule for (1 + x)^beta integrates (1 + x)^k exactly for
    k < 2m: int_{-1}^{1} (1 + x)^(beta + k) dx = 2^(beta + k + 1) / (beta + k + 1).
    beta spans the oracle's (-1, 0) and the radial rule's n + p - 1 in (-1, 2)."""
    x, w = _gauss_jacobi(m, beta)
    k = np.arange(2 * m)
    got = (1.0 + x) ** k[:, None] @ w
    exact = 2.0 ** (beta + k + 1.0) / (beta + k + 1.0)
    assert np.all(np.abs(got - exact) <= 1e-13 * exact)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)


def test_gl_panels_shape_and_weights():
    edges = np.array([[0.0, 0.5, 2.0], [1.0, 1.5, 4.0]])
    nodes, weights = _gl_panels(edges[:, :-1], edges[:, 1:], 6)
    assert nodes.shape == weights.shape == (2, 2, 6)
    assert np.all((nodes > edges[:, :-1, None]) & (nodes < edges[:, 1:, None]))
    widths = np.diff(edges, axis=-1)
    assert np.all(np.abs(weights.sum(axis=-1) - widths) <= 1e-15 * widths)


def test_cached_rules_are_read_only():
    # a cached rule is shared by the rules that run at once on the worker pool
    for a in (*_leggauss(8), *_gauss_jacobi(8, -0.5)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 7.0, 150.0])
def test_line_integral_of_the_gamma_integrand(a):
    """int_R exp(a y - e^y) dy = Gamma(a): an exponential tail of slope a on
    the left, a double-exponential fall on the right, peak e^(a log a - a)."""
    got = _line_integral(lambda y: a * y - np.exp(y), math.log(a), min(1.0, a**-0.5))
    assert got == pytest.approx(math.gamma(a), rel=1e-13)


def test_line_integral_of_a_gaussian_off_its_centre():
    # the panels need not sit exactly at the peak
    got = _line_integral(lambda y: -((y - 0.3) ** 2) / 2.0, 0.0, 1.0)
    assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)


@pytest.mark.parametrize("log_g", [
    lambda y: np.log1p(0.5 * np.cos(200.0 * y)) - y * y / 2.0,  # too fast for 64 nodes
    lambda y: -(((y - 0.3) / 0.003) ** 2),  # a spike narrower than the node spacing
    lambda y: -((y / 0.04) ** 2) / 2.0,  # 25 times narrower than its panels: a 3e-11 gap
], ids=["oscillating", "spike", "narrow"])
def test_line_integral_raises_where_its_panels_cannot_resolve(log_g):
    with pytest.raises(QuadratureFailure, match="did not converge"):
        _line_integral(log_g, 0.0, 1.0)


def test_line_integral_raises_on_an_integrand_that_does_not_decay():
    with pytest.raises(QuadratureFailure, match="does not fall below 1e-18"):
        _line_integral(lambda y: 0.0 * y, 0.0, 1.0)


def test_line_integral_past_the_largest_float_overflows():
    with pytest.raises(OverflowError):
        _line_integral(lambda y: 800.0 - y * y, 0.0, 1.0)
