import numpy as np
import pytest

from stablecomp._quadrature import _gauss_jacobi, _gl_panels, _leggauss


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
