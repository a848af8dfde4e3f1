import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from stablecomp import cli, fourier_pd
from stablecomp._quadrature import _gauss_jacobi, _gl_panels
from stablecomp import (HomogeneousFn, LrMatrixBase, TestFunction,
                        euclidean_power, euclidean_reference_action,
                        evaluate_many,
                        gaussian_family, bump_family, lp_norm_power,
                        max_abs_power, pd_action, pd_check,
                        radial_fourier_weight, subordination_norm_power)


def _panel_nodes(r_lo, r_hi, h, gl):
    npan = max(1, int(np.ceil((r_hi - r_lo) / h)))
    edges = np.linspace(r_lo, r_hi, npan + 1)
    return tuple(a.ravel() for a in _gl_panels(edges[:-1], edges[1:], gl))


def _profile(p, n, phi, c, fine):
    """The radial profile of one test function at one rule, and its bound."""
    return fourier_pd._radial_profiles(p, n, [(phi, c, fine)])[0]


def _action_parts(f, phi):
    """(value, delta, radial error term, scale) of one test function's action."""
    terms = fourier_pd._circle_terms if f.n == 2 else fourier_pd._centre_terms
    c1, c2, combine = terms(f, phi, {})
    (g1, _), (g2, radial_err) = fourier_pd._radial_profiles(
        f.p, f.n, [(phi, c1, False), (phi, c2, True)])
    return combine(g1, g2, radial_err)


def _finer_ring(f, phi, tables=None):
    """The values c = |center| t at the t nodes and the weights w F(t) of the
    centre-aligned rule four times finer than pd_action's fine one (each t and
    omega panel bisected twice more); an n = 3 action is their radial sum."""
    t, _, w = fourier_pd._psi_rule(3)
    frame = fourier_pd._axis_frame(phi.center)
    ring = fourier_pd._ring_integrals(f, frame, 3, 3, {} if tables is None else tables)
    return np.linalg.norm(phi.center) * t, w * ring


def _finer_action(f, phi, tables=None):
    """An n = 3 action on ``_finer_ring`` with pd_action's fine radial rule."""
    c, weights = _finer_ring(f, phi, tables)
    g, _ = _profile(f.p, 3, phi, c, True)
    return float(weights @ g)


def radon_action(f: HomogeneousFn, phi: TestFunction) -> float:
    """The action through slice integrals, for p in (-n, -n+1) and Gaussian
    tests: the radial factor pairs |t|^(-n-p) with the (nonnegative) slice
    integrals of phi,

        inner(theta) = c_{n+p-1} * int |t|^(-n-p) R_phi(theta, t) dt.

    The slice-integral radial factor is the part independent of pd_action.
    The angular sum takes rules four times finer than pd_action's fine ones:
    n = 2, four times its theta panels over the half circle; n = 3,
    ``_finer_ring``, since inner depends on theta only through
    <theta, center> = |center| t.  Both take half the sphere against the 1/2.
    """
    n, p = f.n, f.p
    cnp = radial_fourier_weight(n, p)  # validates the window
    b = n + p  # weight |t|^(-b), b in (0, 1)
    sigma = phi.width
    amp = phi.normalization * (2.0 * np.pi * sigma**2) ** ((n - 1) / 2.0)
    if n == 2:
        panels, nodes, _ = fourier_pd._circle_spec(phi, fine=True)
        dirs, w = fourier_pd._circle_grid((4 * panels, nodes, ()))
        weights = evaluate_many(f, dirs) * w
        c = dirs @ phi.center
    else:
        c, weights = _finer_ring(f, phi)

    t0 = min(0.3 * sigma, 0.5)
    xj, wj = _gauss_jacobi(24, -b)
    tj = t0 * (xj + 1.0) / 2.0
    tmax = np.abs(c).max() + 9.0 * sigma
    tf, wf = _panel_nodes(t0, tmax, 0.5 * sigma, 12)

    def halfline(tnodes, tweights, sign):
        # per direction, the integral over t > 0 of t^(-b) g(sign t)
        z = (tnodes[None, :] - sign * c[:, None]) / sigma
        return (amp * np.exp(-0.5 * z**2)) @ tweights

    near = (t0 / 2.0) ** (1.0 - b) * (halfline(tj, wj, +1) + halfline(tj, wj, -1))
    far = halfline(tf, wf * tf ** (-b), +1) + halfline(tf, wf * tf ** (-b), -1)
    return float(weights @ (cnp * (near + far)))


class TestRadialFourierWeight:
    def test_quadrature_cross_check(self):
        # pair the exponent a = n + p - 1 against a Gaussian through the
        # one-dimensional transform: int |r|^a g^(r) dr = c int |t|^(-1-a) g dt
        for n, p in ((2, -1.5), (2, -1.2), (3, -2.7)):
            a = n + p - 1.0
            lhs = quad(lambda r: 2.0 * r**a * np.sqrt(2 * np.pi) * np.exp(-r * r / 2),
                       0, 40, points=[0])[0]
            rhs = quad(lambda t: 2.0 * t ** (-1 - a) * np.exp(-t * t / 2),
                       0, 40, points=[0])[0]
            assert radial_fourier_weight(n, p) == pytest.approx(lhs / rhs, rel=1e-8)

    def test_depends_on_n_plus_p_only(self):
        assert radial_fourier_weight(3, -2.5) == radial_fourier_weight(2, -1.5)

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            radial_fourier_weight(2, -0.5)
        with pytest.raises(ValueError):
            radial_fourier_weight(2, -2.0)

    def test_positive(self):
        for n, p in ((2, -1.9), (2, -1.05), (3, -2.5)):
            assert radial_fourier_weight(n, p) > 0


class TestPdAction:
    def test_euclidean_vs_closed_form_r3(self):
        f = euclidean_power(3, -1.0)
        phi = TestFunction("gaussian", np.zeros(3), 1.0)
        act = pd_action(f, phi)
        ref = euclidean_reference_action(3, -1.0, phi)
        assert act.value > 0
        assert abs(act.value - ref) <= max(act.error_bound, 1e-9 * ref)

    @pytest.mark.parametrize("n,p,sigma,radius", [
        (2, -0.5, 0.5, 0.0), (2, -1.5, 1.0, 2.0), (2, -1.9, 2.0, 4.0),
        (3, -0.8, 1.0, 0.0), (3, -2.2, 0.5, 1.5), (3, -2.9, 4.0, 2.0),
    ])
    def test_radial_consistency_grid(self, n, p, sigma, radius):
        f = euclidean_power(n, p)
        center = np.zeros(n)
        center[0] = radius
        phi = TestFunction("gaussian", center, sigma)
        act = pd_action(f, phi)
        ref = euclidean_reference_action(n, p, phi)
        assert abs(act.value - ref) <= max(act.error_bound, 1e-8 * abs(ref))

    def test_modulated_max_abs_nonnegative(self):
        f = max_abs_power(2, -1.5)
        phi = TestFunction("gaussian", np.array([5.0, 0.0]), 1.0)
        act = pd_action(f, phi)
        assert act.value >= -act.error_bound

    def test_linearity(self):
        """The action scales with the test function's normalization, within
        the two bounds, for Gaussians and bumps at n = 2 and 3."""
        for n, kind, center, width in ((2, "gaussian", (1.0, 0.5), 0.7),
                                       (2, "gaussian", (0.0, 0.0), 2.0),
                                       (2, "bump", (1.5, 0.5), 0.8),
                                       (3, "bump", (0.0, 2.0, 1.0), 1.0)):
            f = lp_norm_power(n, 1.0, -1.2)
            unit = TestFunction(kind, np.array(center), width)
            single = pd_action(f, unit)
            for a in (2.5, 0.75):
                scaled = pd_action(f, TestFunction(kind, unit.center, width, normalization=a))
                target = a * single.value
                budget = scaled.error_bound + a * single.error_bound
                assert abs(scaled.value - target) <= budget + 1e-12 * abs(target)

    def test_exponent_window_enforced(self):
        with pytest.raises(ValueError):
            pd_action(euclidean_power(2, 0.5), TestFunction("gaussian", np.zeros(2), 1.0))
        with pytest.raises(ValueError):
            pd_action(euclidean_power(4, -1.0), TestFunction("gaussian", np.zeros(4), 1.0))

    def test_slice_route_agreement(self):
        # independent factorization through slice integrals, valid in the
        # p in (-n, -n+1) window
        rng = np.random.default_rng(9)
        for n, p in ((2, -1.5), (2, -1.85), (3, -2.4)):
            for f in (max_abs_power(n, p), lp_norm_power(n, 1.0, p),
                      euclidean_power(n, p)):
                center = rng.standard_normal(n)
                phi = TestFunction("gaussian", 1.5 * center / np.linalg.norm(center), 0.8)
                act = pd_action(f, phi)
                ref = radon_action(f, phi)
                assert abs(act.value - ref) <= max(5 * act.error_bound, 1e-6 * abs(ref))


def _direct_radial(a, kernel, r0, rmax, h, cabs, nj, gl):
    """Gauss-Jacobi on [0, r0] and Gauss-Legendre panels of width h on
    [r0, rmax] for 2 int_0^rmax r^(a-1) kernel(r) cos(r c) dr, summed node
    by node.  Returns the values and 2 * sum |node weights|."""
    xj, wj = _gauss_jacobi(nj, a - 1.0)
    rj = r0 * (xj + 1.0) / 2.0
    near_w = (r0 / 2.0) ** a * wj * kernel(rj)
    rf, wf = _panel_nodes(r0, rmax, h, gl)
    far_w = wf * kernel(rf) * rf ** (a - 1.0)
    nodes = np.concatenate([rj, rf])
    node_w = np.concatenate([near_w, far_w])
    return 2.0 * (np.cos(np.outer(cabs, nodes)) @ node_w), 2.0 * np.abs(node_w).sum()


def _gaussian_quadrature(p, n, phi, cabs, nj, gl):
    """The Gaussian radial integral by the Gauss-Jacobi/Legendre rule and
    r0/rmax/h heuristics that the closed form replaced.  Returns the
    values, 2 * sum |node weights| and the truncation term past rmax."""
    a = n + p
    sigma = phi.width
    K = phi.normalization * (2.0 * np.pi * sigma**2) ** (n / 2.0)
    cmax = float(cabs.max())
    rmax = (9.5 + np.sqrt(max(a, 1.0))) / sigma
    r0 = min(0.6 / sigma, rmax / 6.0, 0.78 / cmax if cmax > 0 else np.inf)
    h = min(2.4 / cmax if cmax > 0 else np.inf, 1.1 / sigma)

    def kernel(r):
        return K * np.exp(-0.5 * (sigma * r) ** 2)

    vals, weight_sum = _direct_radial(a, kernel, r0, rmax, h, cabs, nj, gl)
    trunc = 2.0 * K * np.exp(-0.5 * (sigma * rmax) ** 2) \
        * rmax ** (a - 1.0) / (sigma**2 * rmax)
    return vals, weight_sum, trunc


class TestRadialKernel:
    # (radius, width): a centered Gaussian (c = 0 in every direction) and the
    # narrowest and widest default Gaussians
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind,radius,width", [
        ("gaussian", 0.0, 1.0), ("gaussian", 4.0, 0.25), ("gaussian", 1.5, 4.0),
    ])
    def test_angle_addition_matches_direct_sum(self, n, kind, radius, width):
        """The closed form against the quadrature it replaced, summed node by
        node at the fine rule, within that rule's truncation term.  (The
        coarse rule misses by up to 133 times that term here, an error that
        pd_action's |fine - coarse| delta used to carry.)"""
        center = np.zeros(n)
        center[0] = radius
        phi = TestFunction(kind, center, width)
        cabs = np.linspace(0.0, radius, 41)
        p = -1.5 if n == 2 else -2.5
        vals, err = _profile(p, n, phi, cabs, True)
        assert err == fourier_pd._KUMMER_ERR * vals[0]
        ref, weight_sum, old_trunc = _gaussian_quadrature(p, n, phi, cabs, 28, 14)
        assert np.all(np.abs(vals - ref) <= old_trunc + 1e-13 * weight_sum)

    @pytest.mark.parametrize("n,p", [(2, -1.5), (2, -0.5), (3, -2.5), (3, -1.2)])
    def test_gaussian_closed_form_matches_mpmath(self, n, p):
        # sigma and |c| span the reach of refinement on the default family:
        # width 0.25 * 0.71 * 0.71 and radius 4 * 1.35 * 1.35
        mpmath = pytest.importorskip("mpmath")
        cabs = np.linspace(0.0, 7.3, 25)
        with mpmath.workdps(40):
            a = mpmath.mpf(n + p)
            for sigma in (0.126, 0.25, 1.0, 4.0):
                phi = TestFunction("gaussian", np.zeros(n), sigma)
                vals, _ = _profile(p, n, phi, cabs, True)
                s2 = mpmath.mpf(sigma) ** 2
                K = (2 * mpmath.pi * s2) ** (mpmath.mpf(n) / 2)
                pref = K * mpmath.gamma(a / 2) * (2 / s2) ** (a / 2)
                ref = np.array([float(pref * mpmath.hyp1f1(a / 2, 0.5, -(c * c) / (2 * s2)))
                                for c in map(mpmath.mpf, cabs)])
                assert np.all(np.abs(vals - ref) <= 1e-14 * abs(ref[0]))

    def test_kummer_m_matches_mpmath(self):
        """_kummer_m stays within _KUMMER_ERR of mpmath over a/2 in (0, 1.5)
        and x in [0, 5000], x dense over [2.2, 2.5], where scipy's hyp1f1
        erred up to 3e-8 relative for a/2 <= 0.05."""
        mpmath = pytest.importorskip("mpmath")
        alphas = np.concatenate([np.geomspace(1e-12, 0.09, 10), np.linspace(0.1, 1.49, 15)])
        x = np.unique(np.concatenate([np.linspace(0.0, 10.0, 41), np.linspace(2.2, 2.5, 61),
                                      np.geomspace(10.0, 5000.0, 30)]))
        with mpmath.workdps(25):
            for alpha in alphas:
                ref = np.array([float(mpmath.hyp1f1(alpha, 0.5, -v)) for v in x])
                err = np.abs(fourier_pd._kummer_m(alpha, x) - ref)
                assert err.max() <= fourier_pd._KUMMER_ERR, (alpha, x[err.argmax()])

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_kummer_m_across_the_switch(self, b):
        """Within _KUMMER_ERR on both sides of x = 40, where the transformed
        series hands over to the asymptotic one, for every b it serves."""
        mpmath = pytest.importorskip("mpmath")
        alphas = np.concatenate([[1e-12, 1e-4, 0.02], np.linspace(0.1, 1.49, 12)])
        x = np.linspace(38.0, 42.0, 161)
        with mpmath.workdps(25):
            for alpha in alphas:
                ref = np.array([float(mpmath.hyp1f1(alpha, b, -v)) for v in x])
                err = np.abs(fourier_pd._kummer_m(alpha, x, b) - ref)
                assert err.max() <= fourier_pd._KUMMER_ERR, (alpha, x[err.argmax()])

    def test_kummer_m_values_stand_alone(self):
        """Each x takes its own term count, so a value does not depend on the
        other x of the call: on one shuffled array that mixes x from 0 to
        5000, so both series, every term count and two blocks of the near
        series, every value equals the call on the sorted array, and a
        sample equals the call on its x alone and mpmath within
        _KUMMER_ERR."""
        mpmath = pytest.importorskip("mpmath")
        switch = fourier_pd._KUMMER_SWITCH
        rng = np.random.default_rng(17)
        x = rng.permutation(np.concatenate([[0.0, switch], rng.uniform(0.0, switch, 34000),
                                            rng.uniform(switch, 5000.0, 3000)]))
        assert np.count_nonzero(x <= switch) > fourier_pd._BLOCK
        order = np.argsort(x)
        sample = np.concatenate([order[:5], order[-5:], np.flatnonzero(x == switch),
                                 rng.choice(x.size, 200, replace=False)])
        with mpmath.workdps(25):
            for alpha in (1e-4, 0.25, 0.75, 1.45):
                got = fourier_pd._kummer_m(alpha, x)
                assert np.array_equal(got[order], fourier_pd._kummer_m(alpha, x[order]))
                alone = [fourier_pd._kummer_m(alpha, x[i:i + 1])[0] for i in sample]
                assert np.array_equal(got[sample], alone)
                ref = np.array([float(mpmath.hyp1f1(alpha, 0.5, -x[i])) for i in sample])
                assert np.abs(got[sample] - ref).max() <= fourier_pd._KUMMER_ERR

    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_kummer_m_at_a_equal_b(self, b):
        """M(b, b, -x) = e^-x: every term of the transformed series past the
        first vanishes, and so does the asymptotic series' 1/Gamma(b - a),
        which leaves 0, within e^-40 of e^-x, past x = 40."""
        near, far = np.linspace(0.0, 40.0, 81), np.array([40.5, 100.0, 5000.0])
        got = fourier_pd._kummer_m(b, np.concatenate([near, far]), b)
        assert np.array_equal(got, np.concatenate([np.exp(-near), np.zeros(3)]))

    def test_gaussian_actions_near_minus_n_within_bound(self):
        """Euclidean actions at p = -1.95 (a/2 = 0.025) over the default
        family: the fine angular grid re-summed with mpmath radial values
        stays within each action's bound."""
        mpmath = pytest.importorskip("mpmath")
        n, p = 2, -1.95
        f = euclidean_power(n, p)
        with mpmath.workdps(25):
            alpha = mpmath.mpf((n + p) / 2.0)
            for phi in gaussian_family(n):
                act = pd_action(f, phi)
                dirs, w = fourier_pd._circle_grid(fourier_pd._circle_spec(phi, fine=True))
                s2 = mpmath.mpf(phi.width) ** 2
                K = 2 * mpmath.pi * s2  # normalization (2 pi sigma^2)^(n/2) at n = 2
                pref = K * mpmath.gamma(alpha) * (2 / s2) ** alpha
                radial = np.array([
                    float(pref * mpmath.hyp1f1(alpha, 0.5, -mpmath.mpf(c) ** 2 / (2 * s2)))
                    for c in np.abs(dirs @ phi.center)])
                ref = float((evaluate_many(f, dirs) * w) @ radial)
                assert abs(act.value - ref) <= act.error_bound


def _full_circle_action(f, phi):
    """The n = 2 action summed over the whole circle, as the circle rule did
    before it took the half circle: twice the theta panels over [0, 2 pi], split
    at a bump's angles and their antipodes, and the factorization's 1/2.
    Returns (value, delta, radial error term, scale)."""
    values = []
    for fine in (False, True):
        panels, nodes, splits = fourier_pd._circle_spec(phi, fine)
        edges = np.union1d(np.linspace(0.0, 2.0 * np.pi, 2 * panels + 1),
                           splits + tuple(t + np.pi for t in splits))
        theta, w = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], nodes))
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        fv = evaluate_many(f, dirs) * w
        radial, radial_err = _profile(f.p, 2, phi, np.abs(dirs @ phi.center), fine)
        values.append(0.5 * float(fv @ radial))
    coarse, value = values
    return (value, abs(value - coarse), 0.5 * float(fv.sum()) * radial_err,
            0.5 * float(fv @ np.abs(radial)))


@pytest.mark.parametrize("f", [
    max_abs_power(2, -1.5), lp_norm_power(2, 1.0, -1.2),
    euclidean_power(2, -0.7, weights=[1.0, 2.5]),
    HomogeneousFn(base=LrMatrixBase(matrix=np.array([[1.0, 0.3], [-0.2, 1.1], [0.5, 0.5]]),
                                    r=1.2), p=-0.9),
], ids=["max_abs", "l1", "weighted_euclidean", "lr_matrix"])
def test_half_circle_matches_full_circle(f):
    """f is even and the radial profile depends on |<theta, center>|, so the
    half circle gives the full circle's value, delta, radial error term and
    scale, on every member of both default families."""
    for phi in gaussian_family(2) + bump_family(2):
        half = _action_parts(f, phi)
        full = _full_circle_action(f, phi)
        scale = full[3]
        assert np.all(np.abs(np.subtract(half, full)) <= 1e-13 * scale), (phi.center, phi.width)


def test_euclidean_reference_matches_mpmath():
    """The closed form against mpmath over sigma in [0.126, 4] and |center|
    <= 7.3, the reach of refinement on the default family, with p near both
    ends of (-n, 0), where scipy's hyp1f1 erred up to 4e-11; and the
    closed form itself against an mpmath radial quadrature of
    c(n, p) int |xi|^(-n-p) phi(xi) dxi."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

    def cnp(n, P):
        return 2 ** (n + P) * mp.pi ** (mp.mpf(n) / 2) * mp.gamma((n + P) / 2) / mp.gamma(-P / 2)

    with mpmath.workdps(30):
        for n in (2, 3):
            for p in (-n + 0.02, -n + 0.15, -n + 0.9, -1.0, -0.5, -0.05):
                for sigma in (0.126, 0.25, 1.0, 4.0):
                    for b in np.linspace(0.0, 7.3, 13):
                        phi = TestFunction("gaussian", np.r_[b, np.zeros(n - 1)], sigma)
                        P, S, B = mp.mpf(p), mp.mpf(sigma), mp.mpf(b)
                        s = -n - P
                        moment = ((2 * S**2) ** (s / 2) * mp.gamma((n + s) / 2)
                                  / mp.gamma(mp.mpf(n) / 2)
                                  * mp.hyp1f1(-s / 2, mp.mpf(n) / 2, -B**2 / (2 * S**2)))
                        ref = float(cnp(n, P) * (2 * mp.pi * S**2) ** (mp.mpf(n) / 2) * moment)
                        got = euclidean_reference_action(n, p, phi)
                        assert abs(got - ref) <= 1e-13 * abs(ref), (n, p, sigma, b)
        for n, p, sigma, b in ((2, -1.5, 0.5, 2.0), (3, -2.9, 1.0, 1.5), (3, -0.7, 0.25, 4.0)):
            P, S, B = mp.mpf(p), mp.mpf(sigma), mp.mpf(b)

            def sphere_avg(r):
                # the mean of exp(-|xi - center|^2 / (2 sigma^2)) over |xi| = r
                x = r * B / S**2
                g = mp.exp(-(r**2 + B**2) / (2 * S**2))
                return g * (mp.besseli(0, x) if n == 2 else (mp.sinh(x) / x if x else 1))

            area = 2 * mp.pi if n == 2 else 4 * mp.pi
            radial = mp.quad(lambda r: r ** (-P - 1) * sphere_avg(r),
                             [0, B, B + 10 * S, mp.inf])
            phi = TestFunction("gaussian", np.r_[b, np.zeros(n - 1)], sigma)
            ref = float(cnp(n, P) * area * radial)
            assert abs(euclidean_reference_action(n, p, phi) - ref) <= 1e-13 * abs(ref)


_GATE_RNG = np.random.default_rng(31)
_GATE_FNS = {
    "max_abs": max_abs_power(3, -2.5),
    "l1": lp_norm_power(3, 1.0, -1.2),
    "lr_matrix": HomogeneousFn(base=LrMatrixBase(
        matrix=np.vstack([np.eye(3), _GATE_RNG.standard_normal((2, 3))]), r=1.3), p=-1.7),
    "weighted_euclidean": euclidean_power(3, -2.2, weights=[1.0, 2.0, 0.5]),
}


_N2_IDS = ["max-abs-full", "max-abs-away", "l1-full", "l1-away"]


def _n2_report(capsys, builtin, mode) -> str:
    assert cli.main(["pd-check", "--builtin", *builtin.split(), "--mode", mode,
                     "--json"]) == 0
    return capsys.readouterr().out.strip()


class TestCentreAlignedRule:
    @pytest.mark.parametrize("f,phi", [
        # a gaussian_family(3) member; the (mu, phi) tensor grids gave
        # 49.52228 +- 8.92e-3 against 49.5775
        (max_abs_power(3, -2.5), TestFunction("gaussian", [0.0, 4.0, 0.0], 0.5)),
        # the witness of pd-check --builtin l1 3 -1.2; the grids gave
        # 1.95337e-2 +- 3.22e-4 against 1.70632e-2
        (lp_norm_power(3, 1.0, -1.2),
         TestFunction("gaussian", 2.3094010767585 * np.array([-1.0, -1.0, 1.0]), 0.126025)),
        # a bump; the grids gave 0.373630 +- 3.4e-3 against 0.38345
        (max_abs_power(3, -2.5), TestFunction("bump", [0.0, 6.0, 0.0], 0.25)),
    ], ids=["max_abs-gaussian", "l1-witness", "max_abs-bump"])
    def test_former_bound_misses(self, f, phi):
        act = pd_action(f, phi)
        assert abs(act.value - _finer_action(f, phi)) <= act.error_bound

    @pytest.mark.parametrize("name", sorted(_GATE_FNS))
    def test_gaussian_family_within_bound(self, name):
        """The width 0.25 and 0.5, radius 4 members of gaussian_family(3),
        whose radial profiles peak most narrowly in t."""
        f = _GATE_FNS[name]
        tables = {}
        for phi in gaussian_family(3):
            if phi.width > 0.5 or np.linalg.norm(phi.center) != 4.0:
                continue
            act = pd_action(f, phi)
            ref = _finer_action(f, phi, tables)
            assert abs(act.value - ref) <= act.error_bound, (phi.center, phi.width)

    def test_axis_frame(self):
        rng = np.random.default_rng(5)
        for center in [np.zeros(3), np.array([0.0, -4.0, 0.0]), 1.5 * np.ones(3),
                       *rng.standard_normal((5, 3))]:
            frame = fourier_pd._axis_frame(center)
            assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-15
            assert np.linalg.det(frame) > 0
            assert np.array_equal(fourier_pd._axis_frame(-center), frame)
        # the kink planes of l1 and max-abs through an axis or a diagonal
        # centre cut every ring on omega panel edges
        for center, planes in (([0.0, 4.0, 0.0], np.vstack([np.eye(3)[[0, 2]],
                                                            [[1, 0, 1], [1, 0, -1]]])),
                               ([1.0, -1.0, 1.0], [[1, 1, 0], [0, 1, 1], [1, 0, -1]])):
            frame = fourier_pd._axis_frame(np.array(center))
            normals = np.asarray(planes, dtype=float) @ frame[1:].T
            # a plane through c meets the ring where <normal, (cos w, sin w)> = 0
            omega = np.mod(np.arctan2(normals[:, 0], -normals[:, 1]), np.pi)
            steps = omega / (2.0 * np.pi / fourier_pd._RING_PANELS)
            assert np.abs(steps - np.round(steps)).max() <= 1e-12

    def test_scan_tables_are_pure(self):
        """The ring integrals a scan shares between its actions leave every
        action as pd_action computes it alone."""
        f = lp_norm_power(3, 1.0, -1.2)
        report = pd_check(f)
        assert report.evaluations > report.family_size  # refinement ran
        alone = pd_action(f, report.witness)
        assert alone.value == report.min_action
        assert alone.error_bound == report.quadrature_error_bound

    def test_pd_check_json_repeats(self, capsys):
        argv = ["pd-check", "--builtin", "max-abs", "3", "-2.5", "--json"]
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("builtin,mode,expected", [
        ("max-abs 2 -1.5", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.7506688754388922, '
         '"mode": "full-space", "quadrature_error_bound": 1.194227617893121e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": [4.0, 0.0], '
         '"kind": "gaussian", "normalization": 1.0, "width": 0.126025}}'),
        ("max-abs 2 -1.5", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.49468643515154087, '
         '"mode": "away-from-origin", "quadrature_error_bound": 1.0628714234958276e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": [6.0, 0.0], '
         '"kind": "bump", "normalization": 1.0, "width": 0.25205}}'),
        ("l1 2 -1.2", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.18765455948954268, '
         '"mode": "full-space", "quadrature_error_bound": 1.2025591230366863e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[2.8284271247461903, 2.82842712474619], "kind": "gaussian", '
         '"normalization": 1.0, "width": 0.126025}}'),
        ("l1 2 -1.2", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.10946960993093584, '
         '"mode": "away-from-origin", "quadrature_error_bound": 5.634525079651199e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[4.242640687119286, 4.242640687119285], "kind": "bump", '
         '"normalization": 1.0, "width": 0.25205}}'),
    ], ids=_N2_IDS)
    def test_n2_reports_unchanged(self, capsys, builtin, mode, expected):
        """n = 2 integrates the half circle on theta panels whose edges at
        multiples of pi/16 sit on the l1 and max-abs kinks; these reports
        are pinned to the bit."""
        assert _n2_report(capsys, builtin, mode) == expected

    @pytest.mark.parametrize("builtin,mode,full_circle", [
        ("max-abs 2 -1.5", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.7506688754388926, '
         '"mode": "full-space", "quadrature_error_bound": 1.194227615672675e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": [4.0, 0.0], '
         '"kind": "gaussian", "normalization": 1.0, "width": 0.126025}}'),
        ("max-abs 2 -1.5", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.49468643515154087, '
         '"mode": "away-from-origin", "quadrature_error_bound": 1.0628714240509391e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": [6.0, 0.0], '
         '"kind": "bump", "normalization": 1.0, "width": 0.25205}}'),
        ("l1 2 -1.2", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.18765455948954216, '
         '"mode": "full-space", "quadrature_error_bound": 1.2025591219264633e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[2.8284271247461903, 2.82842712474619], "kind": "gaussian", '
         '"normalization": 1.0, "width": 0.126025}}'),
        ("l1 2 -1.2", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.10946960993093573, '
         '"mode": "away-from-origin", "quadrature_error_bound": 5.63452508020631e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[4.242640687119286, 4.242640687119285], "kind": "bump", '
         '"normalization": 1.0, "width": 0.25205}}'),
    ], ids=_N2_IDS)
    def test_n2_reports_match_full_circle_pins(self, capsys, builtin, mode,
                                                full_circle):
        """The reports the full-circle rule gives (``_full_circle_action``,
        with the slice rule for bumps): the half-circle rule keeps each
        witness, count and verdict, and moves min_action and the bound only
        by roundoff."""
        got, old = json.loads(_n2_report(capsys, builtin, mode)), json.loads(full_circle)
        for key in ("witness", "evaluations", "family_size", "verdict"):
            assert got[key] == old[key], key
        assert abs(got["min_action"] - old["min_action"]) <= 1e-12 * abs(old["min_action"])
        # the bound may move by its own roundoff or by a few ulps of min_action
        bound, old_bound = got["quadrature_error_bound"], old["quadrature_error_bound"]
        assert abs(bound - old_bound) <= (1e-9 * old_bound
                                          + 8 * np.finfo(float).eps * abs(old["min_action"]))


class TestPdCheck:
    def test_euclidean_strictly_positive(self):
        report = pd_check(euclidean_power(2, -1.0))
        assert report.verdict == "consistent-with-pd"
        assert report.min_action > report.quadrature_error_bound

    def test_subspace_norm_consistent(self):
        base = LrMatrixBase(matrix=np.array([[1.0, 0.3], [-0.2, 1.1], [0.5, 0.5]]),
                            r=1.2)
        f = HomogeneousFn(base=base, p=-0.9)
        report = pd_check(f)
        assert report.verdict == "consistent-with-pd"

    def test_window_max_abs_consistent_r3(self):
        report = pd_check(max_abs_power(3, -2.5))
        assert report.verdict == "consistent-with-pd"

    def test_away_from_origin_mode(self):
        report = pd_check(max_abs_power(2, -1.5), mode="away-from-origin")
        assert report.verdict != "violation"
        assert all(w.kind == "bump" for w in [report.witness])

    def test_refinement_skips_bumps_reaching_the_origin(self):
        # growing the width 0.5 by 1.41 would make the support touch 0
        phi = TestFunction("bump", np.array([0.7, 0.0]), 0.5)
        report = pd_check(lp_norm_power(2, 1.0, -1.5), family=[phi],
                          mode="away-from-origin")
        assert report.verdict != "violation"
        assert np.linalg.norm(report.witness.center) > report.witness.width

    def test_away_mode_rejects_gaussians(self):
        fam = gaussian_family(2)
        with pytest.raises(ValueError):
            pd_check(max_abs_power(2, -1.5), family=fam, mode="away-from-origin")

    def test_high_dimension_rejected(self):
        with pytest.raises(ValueError):
            pd_check(euclidean_power(4, -2.0))

    def test_report_json(self):
        report = pd_check(euclidean_power(2, -0.7))
        d = report.to_json_dict()
        assert d["verdict"] == "consistent-with-pd"
        assert d["witness"]["kind"] in ("gaussian", "bump")

    def test_tied_witness_is_the_first_member(self):
        # a Euclidean power is rotation invariant, so one width and radius in
        # every center direction tie up to roundoff; evaluated in reverse
        # order the rule must keep the first of them
        f = euclidean_power(2, -1.95)
        fam = [phi for phi in gaussian_family(2)
               if phi.width == 0.25 and np.linalg.norm(phi.center) == 4.0][::-1]
        values = [pd_action(f, phi).value for phi in fam]
        assert max(values) - min(values) <= 1e-12 * abs(min(values))
        report = pd_check(f, family=fam, refine_rounds=0)
        assert report.witness is fam[0]
        assert report.min_action == values[0]

    def test_bump_support_invariant(self):
        with pytest.raises(ValueError):
            TestFunction("bump", np.array([0.5, 0.0]), 1.0)
        fam = bump_family(2)
        assert all(np.linalg.norm(w.center) > w.width for w in fam)


def _stage_families(n):
    """Gaussians, centred and off-centre at radii 1.5 and 4, of widths 0.25
    to 4, so that both Kummer series and many term counts occur; bumps of
    distinct widths, radii and directions, so of distinct theta splits at
    n = 2; and a full-space family that interleaves the two."""
    rng = np.random.default_rng(23)

    def centre(radius):
        v = rng.standard_normal(n)
        return radius * v / np.linalg.norm(v)

    gauss = [TestFunction("gaussian", centre(radius), width)
             for width in (0.25, 0.5, 1.0, 2.0, 4.0) for radius in (0.0, 1.5, 4.0)]
    bumps = [TestFunction("bump", centre(radius), width)
             for width, radius in ((0.5, 1.5), (1.0, 3.0), (0.25, 6.0), (0.7, 1.2), (0.355, 2.0))]
    mixed = [phi for pair in zip(gauss, bumps) for phi in pair] + gauss[len(bumps):]
    return {"gaussian": gauss, "bump": bumps, "mixed": mixed}


class TestStageBatching:
    @pytest.mark.parametrize("f", [max_abs_power(2, -1.5), lp_norm_power(2, 1.0, -1.2),
                                   max_abs_power(3, -2.5), lp_norm_power(3, 1.0, -1.2)],
                             ids=["max_abs-2", "l1-2", "max_abs-3", "l1-3"])
    def test_stage_matches_single_actions(self, f):
        """A stage's batched actions match pd_action on each member within 4
        ulps of that member's scale, the value and the bound alike: the bound
        is a sum of gaps that are themselves roundoff for centred Gaussians,
        so it is compared in roundoff of the value, not relative to itself.
        The report of a scan of the mixed family is its witness's action."""
        for name, fam in _stage_families(f.n).items():
            for phi, res in zip(fam, fourier_pd._actions(f, fam, {})):
                single = pd_action(f, phi)
                ulps = 4 * np.finfo(float).eps * _action_parts(f, phi)[3]
                assert abs(res.value - single.value) <= ulps, (name, phi.center, phi.width)
                assert abs(res.error_bound - single.error_bound) <= ulps, (name, phi.center)
        report = pd_check(f, family=fam, refine_rounds=0)
        alone = pd_action(f, report.witness)
        ulps = 4 * np.finfo(float).eps * _action_parts(f, report.witness)[3]
        assert abs(report.min_action - alone.value) <= ulps

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mode", ["full-space", "away-from-origin"])
    def test_default_scan_memory_peak(self, n, mode):
        """The tracemalloc peak of a default scan, 0.3-2.6 MiB, stays below
        8 MiB: a stage's work arrays go in blocks of _BLOCK values."""
        f = max_abs_power(n, 0.5 - n)
        tracemalloc.start()
        try:
            pd_check(f, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestSubordination:
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    def test_reconstruction_matches_direct(self, r):
        rng = np.random.default_rng(int(r * 10))
        mat = rng.standard_normal((4, 3))
        f = HomogeneousFn(base=LrMatrixBase(matrix=mat, r=r), p=-1.4)
        for _ in range(10):
            x = rng.standard_normal(3) * rng.uniform(0.2, 5.0)
            direct = f(x)
            recon = subordination_norm_power(f, x)
            assert abs(recon - direct) <= 1e-8 * abs(direct)

    def test_requires_negative_exponent(self):
        f = lp_norm_power(2, 1.0, 0.5)
        with pytest.raises(ValueError):
            subordination_norm_power(f, np.array([1.0, 1.0]))

    def test_point_shape_checked(self):
        # a 3-vector read N of its first two coordinates; a (2, 2) array raised TypeError
        f = lp_norm_power(2, 1.0, -0.5)
        for x in (np.array([1.0, 0.5, 7.0]), np.ones((2, 2))):
            with pytest.raises(ValueError, match=r"expected \(2,\)"):
                subordination_norm_power(f, x)

    def test_max_abs_needs_explicit_exponent(self):
        f = max_abs_power(2, -1.5)
        with pytest.raises(ValueError):
            subordination_norm_power(f, np.array([1.0, 0.5]))
        val = subordination_norm_power(f, np.array([1.0, 0.5]), r=1.0)
        assert val == pytest.approx(f(np.array([1.0, 0.5])), rel=1e-8)


def _mp_slice_derivative(mp, n, u):
    """m'(u) in mpmath: n = 3 from m(u) = 2 pi int_|u|^1 psi(r) r dr; n = 2
    by differentiating int psi(sqrt(u^2 + v^2)) dv under the integral,
    over v in (-W, W) with W^2 = 1 - u^2."""
    u = mp.mpf(u)
    w2 = 1 - u * u
    if w2 <= 0:
        return mp.zero
    if n == 3:
        return -2 * mp.pi * u * mp.exp(1 - 1 / w2)

    def integrand(v):
        d = w2 - v * v
        return mp.exp(1 - 1 / d) / d**2 if d > 0 else mp.zero

    return -2 * u * mp.quad(integrand, [-mp.sqrt(w2), 0, mp.sqrt(w2)])


@lru_cache(maxsize=None)
def _mp_bessel_slice_derivative(u, prec):
    """n = 2 m'(u) at ``prec`` bits by its closed form -u W^-3 e^(1 - b)
    (K0(b) + K1(b)), W^2 = 1 - u^2, b = 1 / (2 W^2).  Cached: the quadratures
    of every a about one u0 share their nodes, and mpmath's besselk takes
    milliseconds for b below about 45."""
    import mpmath as mp

    with mp.workprec(prec):
        w2 = 1 - u * u
        if w2 <= 0:
            return mp.mpf(0)
        b = 1 / (2 * w2)
        return -u / (w2 * mp.sqrt(w2)) * mp.exp(1 - b) * (mp.besselk(0, b) + mp.besselk(1, b))


def _mp_slice_integral(mp, n, a, u0):
    """J(u0) in mpmath, taking m' at n = 2 from its closed form (a
    quadrature of ``_mp_slice_derivative`` under every node would be too
    slow).  Inside (-1, 1) it splits m' as the rule does: the part
    m'(u0) sign(u - u0) |u - u0|^(1-a) in closed form (a finite part for
    a >= 2), and each side of the subtracted integrand (m'(u0 + s) - m'(u0))
    s^(1-a) by tanh-sinh.  That integrand is bounded at s = 0 for a < 2.
    For a >= 2 it is not, and tanh-sinh nodes crowd so close to u0 that the
    difference cancels to nothing there, so on s < 1e-3 it is integrated
    term by term from the Taylor series of m' about u0."""
    a, u0 = mp.mpf(a), mp.mpf(u0)

    def mprime(u):
        if n == 2:
            return _mp_bessel_slice_derivative(mp.mpf(u), mp.prec)
        return _mp_slice_derivative(mp, n, u)

    if abs(u0) >= 1:
        return mp.quad(lambda u: mprime(u) * mp.sign(u - u0) * abs(u - u0) ** (1 - a),
                       [-1, -0.5, 0, 0.5, 1])
    m0, b = mprime(u0), 2 - a
    delta = mp.mpf("1e-3") if a >= 2 else mp.zero
    # m^(k+2)(u0) for the series (m'(u0 + s) - m'(u0)) / s = sum_k m^(k+2) s^k / (k+1)!
    taylor = [mp.diff(mprime, u0, k + 1) for k in range(10)] if a >= 2 else []
    total = m0 * (mp.log((1 - u0) / (1 + u0)) if b == 0
                  else ((1 - u0) ** b - (1 + u0) ** b) / b)
    for sign, length in ((1, 1 - u0), (-1, 1 + u0)):
        near = sum(d * sign ** (k + 1) / mp.factorial(k + 1) * delta ** (k + b + 1) / (k + b + 1)
                   for k, d in enumerate(taylor))
        far = mp.quad(lambda s: (mprime(u0 + sign * s) - m0) * s ** (1 - a),
                      [delta, length / 2, length])
        total += sign * (near + far)
    return total


def _bessel_sum_coefficients(mp, low, terms, nodes=40):
    """Chebyshev coefficients of sqrt(b) e^b (K0(b) + K1(b)), interpolated at
    ``nodes`` Chebyshev points of t in [-1, 1] at 40 digits, with b = 2^t
    (``low``) or b = 4 / (t + 1), and rounded to floats."""
    with mp.workdps(40):
        def g(t):
            b = mp.mpf(2) ** t if low else 4 / (t + 1)
            return mp.sqrt(b) * mp.exp(b) * (mp.besselk(0, b) + mp.besselk(1, b))

        theta = [mp.pi * (k + mp.mpf(1) / 2) / nodes for k in range(nodes)]
        values = [g(mp.cos(th)) for th in theta]
        c = [2 * mp.fsum(v * mp.cos(j * th) for v, th in zip(values, theta)) / nodes
             for j in range(terms)]
        c[0] /= 2
        return tuple(float(v) for v in c)


# _slice_integral's (value, absolute sum) per u0 before the side table
# (``_side_rule``), when each block built its side rule node by node: interior
# points, panel edges, points within 1e-3 of +-1, and points outside [-1, 1]
_SLICE_PIN_U0 = (
    -0.6, -0.05, 0.3, 0.77, -0.9238795325112867, -0.7071067811865475, 0.0,
    0.3826834323650898, 0.9238795325112867, -0.9995, -0.99995, 0.9991, 0.99999,
    -1.0, 1.0, -1.02, 1.3, -1.6, 2.5, 0.001,
)
_SLICE_PINS = {
    (2, 1.5, 16): (
        (-0.7750073409745496, 11.85538216625686), (-3.6386860640049883, 4.41405315355426),
        (-2.9591642680427164, 8.704039251408865), (0.8645725805985596, 8.835863901258088),
        (1.182615763844257, 3.41957351024975), (0.28848435973311504, 11.806125001300842),
        (-3.6577525672102054, 3.6577525672102054), (-2.5095429443061033, 9.484532072664013),
        (1.1826157638442543, 3.3484395460737733), (0.9163629646073637, 2.8846178375936904),
        (0.9152179379529354, 2.8831740758950346), (0.9173837182500835, 2.885904250109397),
        (0.9151163272779065, 2.8830459177126517), (0.9150909293335097, 2.8830138830627643),
        (0.9150909293335097, 2.8830138830627634), (0.8674574459813912, 2.822242543657182),
        (0.509674192313123, 2.304770223119153), (0.3488218036886694, 2.010287368325037),
        (0.16711117329397435, 1.55721017223843), (-3.6577449446610575, 3.671573123117017),
    ),
    (3, 2.5, 24): (
        (6.107757913678147, 2793.7238216471023), (-19.015005318750394, 378.20778642649657),
        (-13.045939180797554, 2025.4127696293572), (17.829129500901495, 1781.1906864532316),
        (7.801226716652242, 44.838358603744325), (14.536847689668006, 2330.9274801123815),
        (-19.181675501169888, 19.181675501169888), (-9.074076623131003, 2572.585771834461),
        (7.801226716652222, 50.58945981595636), (3.972965432960489, 5.442662070838871),
        (3.9629161379625786, 5.431906690527805), (3.9819411714834296, 5.452265925251444),
        (3.962025332839521, 5.430953150174334), (3.9618026942400557, 5.430714828478912),
        (3.9618026942400566, 5.43071482847891), (3.5607952244250853, 4.998901065065352),
        (1.3365690893504298, 2.4366307387155866), (0.6904456711688975, 1.5549380711014535),
        (0.19757894823076383, 0.6964598071018433), (-19.181608878623923, 25.204610662453995),
    ),
}


# (n, a) for test_integral_matches_mpmath; its ids give a alone at n = 3
_SLICE_CASES = ([(3, a) for a in (0.5, 1.0, 1.5, 2.0, 2.5, 2.9)]
                + [(2, a) for a in (0.5, 1.0, 1.5, 1.98)])


class TestSliceRule:
    @pytest.mark.parametrize("n", [2, 3])
    def test_derivative_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        u = np.linspace(-0.98, 0.98, 41)
        with mpmath.workdps(25):
            ref = np.array([float(_mp_slice_derivative(mpmath.mp, n, v)) for v in u])
        got = fourier_pd._slice_derivative(n, u)
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_bessel_sum_matches_mpmath(self):
        """e^b (K0(b) + K1(b)) within 1e-15 relative over the b = 1/(2 W^2)
        of the live slice nodes, [1/2, 250], dense where the series meet at
        b = 2."""
        mpmath = pytest.importorskip("mpmath")
        b = np.unique(np.concatenate([np.geomspace(0.5, 250.0, 61), np.linspace(1.9, 2.1, 41),
                                      np.linspace(2.0, 250.0, 32)]))
        with mpmath.workdps(25):
            ref = np.array([float(mpmath.exp(v) * (mpmath.besselk(0, v) + mpmath.besselk(1, v)))
                            for v in map(mpmath.mpf, b)])
        assert np.all(np.abs(fourier_pd._bessel_sum(b) - ref) <= 1e-15 * ref)

    def test_bessel_sum_coefficients_regenerate(self):
        mpmath = pytest.importorskip("mpmath")
        for low, pinned in ((True, fourier_pd._BESSEL_SUM_LOW),
                            (False, fourier_pd._BESSEL_SUM_HIGH)):
            c = _bessel_sum_coefficients(mpmath, low, len(pinned) + 1)
            assert c[:-1] == pinned
            assert abs(c[-1]) < 1e-19  # the first coefficient left out

    def test_chebval_matches_numpy(self):
        """The in-place Clenshaw sum keeps numpy's chebval bit for bit."""
        x = np.random.default_rng(8).uniform(-1.0, 1.0, 100_000)
        for c in (fourier_pd._BESSEL_SUM_LOW, fourier_pd._BESSEL_SUM_HIGH):
            assert np.array_equal(fourier_pd._chebval(x, c),
                                  np.polynomial.chebyshev.chebval(x, c))

    @pytest.mark.parametrize("nodes", [16, 24])
    @pytest.mark.parametrize("a", [0.5, 1.5, 1.98, 2.5, 2.9])
    def test_side_rule_matches_per_node_construction(self, nodes, a):
        """h offsets and h^(2-a) weights of the side table against the rule
        built on each side of length L = 2^S h node by node: Gauss-Jacobi
        nodes h (x_j + 1) / 2 with weights (h/2)^(3-a) w_j / s_j, then
        Gauss-Legendre panels [2^i h, 2^(i+1) h] with weights w_k s_k^(1-a)."""
        panels = fourier_pd._SLICE_SIDE_PANELS
        offsets, weights = fourier_pd._side_rule(nodes, a, panels)
        xj, wj = _gauss_jacobi(nodes, 2.0 - a)
        for h in np.geomspace(1e-4, 1.0, 37):
            sj = h * (xj + 1.0) / 2.0
            ends = h * 2.0 ** np.arange(panels + 1)
            sg, wg = (v.ravel() for v in _gl_panels(ends[:-1], ends[1:], nodes))
            for got, ref in ((h * offsets, np.concatenate([sj, sg])),
                             (h ** (2.0 - a) * weights,
                              np.concatenate([(h / 2.0) ** (3.0 - a) * wj / sj,
                                              wg * sg ** (1.0 - a)]))):
                assert np.all(np.abs(got - ref) <= 8 * np.spacing(np.abs(ref))), h

    @pytest.mark.parametrize("n,a,nodes", sorted(_SLICE_PINS))
    def test_integral_keeps_per_node_values(self, n, a, nodes):
        """Values within 8 eps of their absolute sum, and absolute sums within
        8 eps relative, of those the per-node side rule gave."""
        value, absolute = fourier_pd._slice_integral(n, a, np.array(_SLICE_PIN_U0), nodes)
        pinned_value, pinned_absolute = np.array(_SLICE_PINS[n, a, nodes]).T
        eps = np.finfo(float).eps
        assert np.all(np.abs(value - pinned_value) <= 8 * eps * pinned_absolute)
        assert np.all(np.abs(absolute - pinned_absolute) <= 8 * eps * pinned_absolute)

    def test_exprel(self):
        x = np.array([1e-300, -1e-300, 1e-10, -1e-10, 700.0, -700.0])
        assert np.array_equal(fourier_pd._exprel(x), np.expm1(x) / x)
        assert fourier_pd._exprel(np.zeros(1))[0] == 1.0

    @pytest.mark.parametrize("n,a", _SLICE_CASES,
                             ids=[f"n2-{a}" if n == 2 else str(a) for n, a in _SLICE_CASES])
    def test_integral_matches_mpmath(self, n, a):
        """The fine rule within its gap to the coarse one plus its roundoff
        term, for u0 inside and outside [-1, 1] and a = n + p with p in
        (-n, 0).  The n = 2 reference works at 15 digits: its besselk calls
        take most of the n = 2 cases' time."""
        mpmath = pytest.importorskip("mpmath")
        u0 = np.array([-0.6, -0.05, -0.97, -1.02, -1.6])
        coarse, _ = fourier_pd._slice_integral(n, a, u0, fourier_pd._SLICE_NODES[0])
        fine, absolute = fourier_pd._slice_integral(n, a, u0, fourier_pd._SLICE_NODES[1])
        with mpmath.workdps(30 if n == 3 else 15):
            ref = np.array([float(_mp_slice_integral(mpmath.mp, n, a, v)) for v in u0])
        assert np.all(np.abs(fine - ref) <= np.abs(fine - coarse) + 1e-14 * absolute)

    @pytest.mark.parametrize("n,p", [(2, -1.98), (2, -1.0), (2, -0.5),
                                     (3, -2.98), (3, -2.0), (3, -1.0), (3, -0.5)])
    @pytest.mark.parametrize("width,radius", [(0.5, 1.5), (1.0, 1.5), (0.25, 6.0)])
    def test_profile_within_bound(self, monkeypatch, n, p, width, radius):
        """On a dense grid of c over [0, |center|], the fine profile differs
        from the same rule with twice the nodes and panels by no more than
        its gap to the coarse rule plus its roundoff term."""
        phi = TestFunction("bump", np.r_[radius, np.zeros(n - 1)], width)
        c = np.linspace(0.0, radius, 2001)
        coarse, _ = _profile(p, n, phi, c, False)
        fine, err = _profile(p, n, phi, c, True)
        for name in ("_SLICE_PANELS", "_SLICE_SIDE_PANELS"):
            monkeypatch.setattr(fourier_pd, name, 2 * getattr(fourier_pd, name))
        monkeypatch.setattr(fourier_pd, "_SLICE_NODES",
                            tuple(2 * m for m in fourier_pd._SLICE_NODES))
        ref, _ = _profile(p, n, phi, c, True)
        assert np.all(np.abs(fine - ref) <= np.abs(fine - coarse) + err)

    @pytest.mark.parametrize("n", [2, 3])
    def test_euclidean_actions_within_bound(self, n):
        """Bump actions of Euclidean powers against c(n, p) int |xi|^(-n-p)
        phi(xi) dxi, the action by Fourier pairing, taken by a product Gauss
        rule over the bump's ball: xi = center + w rho omega, Gauss-Legendre
        panels in rho that crowd toward rho = 1, where the bump is flat, and
        in n = 3 the cosine of the angle to the centre; the trapezoid rule in
        the angle at n = 2.  The members take the first and last centre
        direction of bump_family(n)."""
        from scipy.special import gamma
        fam = bump_family(n)
        ndirs = len(fourier_pd._center_directions(n))
        members = [phi for i, phi in enumerate(fam) if i % ndirs in (0, ndirs - 1)]
        edges = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 9))
        rho, wr = (v.ravel() for v in _gl_panels(edges[:-1], edges[1:], 32))
        if n == 2:
            cos_t = np.cos(np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
            wt = np.full(64, 2.0 * np.pi / 64)
        else:
            cos_t, wt = np.polynomial.legendre.leggauss(32)
            wt = 2.0 * np.pi * wt
        bump = np.exp(1.0 - 1.0 / (1.0 - rho**2)) * rho ** (n - 1) * wr
        for p in dict.fromkeys((-n + 0.02, 1.0 - n, -1.0, -0.5)):  # 1 - n = -1 at n = 2
            cnp = 2.0 ** (n + p) * np.pi ** (n / 2.0) * gamma((n + p) / 2.0) / gamma(-p / 2.0)
            f = euclidean_power(n, p)
            for phi in members:
                big_r, w = np.linalg.norm(phi.center), phi.width
                sq = big_r**2 + (w * rho[:, None]) ** 2 + 2.0 * big_r * w * rho[:, None] * cos_t
                ref = cnp * w**n * (bump @ sq ** ((-n - p) / 2.0) @ wt)
                act = pd_action(f, phi)
                assert abs(act.value - ref) <= act.error_bound, (p, phi.center, w)
