import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

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
    g, _ = fourier_pd._radial_profile(f.p, 3, phi, c, 28, 14)
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
        panels, nodes = fourier_pd._circle_spec(phi, fine=True)
        dirs, w = fourier_pd._circle_grid((4 * panels, nodes))
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

    def test_empty_family_is_zero(self):
        f = euclidean_power(2, -1.0)
        act = pd_action(f, [])
        assert act.value == 0.0 and act.error_bound == 0.0

    def test_modulated_max_abs_nonnegative(self):
        f = max_abs_power(2, -1.5)
        phi = TestFunction("gaussian", np.array([5.0, 0.0]), 1.0)
        act = pd_action(f, phi)
        assert act.value >= -act.error_bound

    def test_linearity(self):
        f = lp_norm_power(2, 1.0, -1.2)
        p1 = TestFunction("gaussian", np.array([1.0, 0.5]), 0.7, normalization=1.0)
        p2 = TestFunction("gaussian", np.zeros(2), 2.0, normalization=1.0)
        a, b = 2.5, 0.75
        scaled = [TestFunction("gaussian", p1.center, p1.width, normalization=a),
                  TestFunction("gaussian", p2.center, p2.width, normalization=b)]
        combined = pd_action(f, scaled)
        single1 = pd_action(f, p1)
        single2 = pd_action(f, p2)
        target = a * single1.value + b * single2.value
        budget = combined.error_bound + a * single1.error_bound + b * single2.error_bound
        assert abs(combined.value - target) <= budget + 1e-12 * abs(target)

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
    """The radial rule of _radial_modulated summed node by node: the
    (directions x nodes) cosine matrix against the node weights.  Returns
    the values and 2 * sum |node weights|."""
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
    # (kind, radius, width): a centered Gaussian (c = 0 in every direction),
    # the narrowest and widest default Gaussians, a wide bump, and the
    # largest |c| * rmax the default bump family reaches under refinement
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("kind,radius,width", [
        ("gaussian", 0.0, 1.0), ("gaussian", 4.0, 0.25), ("gaussian", 1.5, 4.0),
        ("bump", 1.5, 1.0), ("bump", 6.0, 0.25),
    ])
    def test_angle_addition_matches_direct_sum(self, monkeypatch, n, kind,
                                               radius, width):
        """Bumps: the angle-addition sum of _radial_modulated against the same
        rule summed node by node, at both rules pd_action uses.  Gaussians:
        the closed form against the quadrature it replaced, summed node by
        node at the fine rule, within that rule's truncation term.  (The
        coarse rule misses by up to 133 times that term here, an error that
        pd_action's |fine - coarse| delta used to carry.)"""
        center = np.zeros(n)
        center[0] = radius
        phi = TestFunction(kind, center, width)
        # |<theta, center>| over [0, |center|] sets the same rmax, r0 and
        # panel width as the full sphere grid at a fraction of the cost
        cabs = np.linspace(0.0, radius, 41)
        calls = []
        radial = fourier_pd._radial_modulated

        def spy(*args):
            calls.append(args)
            return radial(*args)

        monkeypatch.setattr(fourier_pd, "_radial_modulated", spy)
        p = -1.5 if n == 2 else -2.5
        rules = ((16, 10), (28, 14)) if kind == "bump" else ((28, 14),)
        for nj, gl in rules:
            vals, trunc = fourier_pd._radial_profile(p, n, phi, cabs, nj, gl)
            if kind == "bump":
                ref, weight_sum = _direct_radial(*calls[-1])
                allowance = 1e-13 * weight_sum
            else:
                assert not calls and trunc == fourier_pd._KUMMER_ERR * vals[0]
                ref, weight_sum, old_trunc = _gaussian_quadrature(p, n, phi, cabs, nj, gl)
                allowance = old_trunc + 1e-13 * weight_sum
            assert np.all(np.abs(vals - ref) <= allowance)

    @pytest.mark.parametrize("nj,gl", [(16, 10), (28, 14)])
    @pytest.mark.parametrize("npan", [1, 5, 51, 101, 400])
    def test_blocked_sum_matches_direct_sum(self, nj, gl, npan):
        """The block-local sum against the same rule summed node by node, on
        panel counts where the blocks of B = max(1, round(sqrt(npan / gl)))
        panels tile unevenly or trivially: one panel (npan = B = 1), fewer
        panels than gl (one panel per block), and npan not a multiple of B,
        whose last block is zero-padded (51, 101, and 400 at gl = 10).  B
        never exceeds npan, since round(sqrt(npan / gl)) <= npan."""
        spline, _, _ = fourier_pd._bump_profile(2)
        rho, r0, h = 0.5, 0.5, 0.37

        def kernel(r):
            return spline(rho * r)

        # ceil((rmax - r0) / h) = npan panels
        args = (0.5, kernel, r0, r0 + (npan - 0.5) * h, h, np.linspace(0.0, 4.0, 41), nj, gl)
        ref, weight_sum = _direct_radial(*args)
        assert _panel_nodes(*args[2:5], gl)[0].size == npan * gl
        vals = fourier_pd._radial_modulated(*args)
        assert np.all(np.abs(vals - ref) <= 1e-13 * weight_sum)

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
                vals, _ = fourier_pd._radial_profile(p, n, phi, cabs, 28, 14)
                s2 = mpmath.mpf(sigma) ** 2
                K = (2 * mpmath.pi * s2) ** (mpmath.mpf(n) / 2)
                pref = K * mpmath.gamma(a / 2) * (2 / s2) ** (a / 2)
                ref = np.array([float(pref * mpmath.hyp1f1(a / 2, 0.5, -(c * c) / (2 * s2)))
                                for c in map(mpmath.mpf, cabs)])
                assert np.all(np.abs(vals - ref) <= 1e-14 * abs(ref[0]))

    def test_kummer_m_matches_mpmath(self):
        """_kummer_m stays within _KUMMER_ERR of mpmath over a/2 in (0, 1.5]
        and x in [0, 5000], x dense over [2.2, 2.5], where scipy's hyp1f1
        alone errs up to 3e-8 relative for a/2 <= 0.05."""
        mpmath = pytest.importorskip("mpmath")
        alphas = np.concatenate([np.geomspace(1e-12, 0.09, 10), np.linspace(0.1, 1.49, 15)])
        x = np.unique(np.concatenate([np.linspace(0.0, 10.0, 41), np.linspace(2.2, 2.5, 61),
                                      np.geomspace(10.0, 5000.0, 30)]))
        with mpmath.workdps(25):
            for alpha in alphas:
                ref = np.array([float(mpmath.hyp1f1(alpha, 0.5, -v)) for v in x])
                err = np.abs(fourier_pd._kummer_m(alpha, x) - ref)
                assert err.max() <= fourier_pd._KUMMER_ERR, (alpha, x[err.argmax()])

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
    """The n = 2 action summed over the whole circle, as _circle_action did
    before its half-circle rule: twice the theta panels over [0, 2 pi] and
    the factorization's 1/2.  Returns (value, delta, truncation term, scale)."""
    values = []
    for fine in (False, True):
        panels, nodes = fourier_pd._circle_spec(phi, fine)
        edges = np.linspace(0.0, 2.0 * np.pi, 2 * panels + 1)
        theta, w = (a.ravel() for a in _gl_panels(edges[:-1], edges[1:], nodes))
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        fv = evaluate_many(f, dirs) * w
        nj, gl = (28, 14) if fine else (16, 10)
        radial, trunc = fourier_pd._radial_profile(f.p, 2, phi, np.abs(dirs @ phi.center), nj, gl)
        values.append(0.5 * float(fv @ radial))
    coarse, value = values
    return (value, abs(value - coarse), 0.5 * float(fv.sum()) * trunc,
            0.5 * float(fv @ np.abs(radial)))


@pytest.mark.parametrize("f", [
    max_abs_power(2, -1.5), lp_norm_power(2, 1.0, -1.2),
    euclidean_power(2, -0.7, weights=[1.0, 2.5]),
    HomogeneousFn(base=LrMatrixBase(matrix=np.array([[1.0, 0.3], [-0.2, 1.1], [0.5, 0.5]]),
                                    r=1.2), p=-0.9),
], ids=["max_abs", "l1", "weighted_euclidean", "lr_matrix"])
def test_half_circle_matches_full_circle(f):
    """f is even and the radial profile depends on |<theta, center>|, so the
    half circle gives the full circle's value, delta, truncation term and
    scale, on every member of both default families."""
    for phi in gaussian_family(2) + bump_family(2):
        half = fourier_pd._circle_action(f, phi)
        full = _full_circle_action(f, phi)
        scale = full[3]
        assert np.all(np.abs(np.subtract(half, full)) <= 1e-13 * scale), (phi.center, phi.width)


def test_euclidean_reference_matches_mpmath():
    """The closed form against mpmath over sigma in [0.126, 4] and |center|
    <= 7.3, the reach of refinement on the default family, with p near both
    ends of (-n, 0), where scipy's hyp1f1 alone errs up to 4e-11; and the
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


def _mp_bump_transform(mp, n, s):
    """The unit bump's Fourier transform at radius s in mpmath: Gauss-Legendre
    on pieces of about one oscillation period each."""
    s = mp.mpf(s)

    def integrand(r):
        if r >= 1:
            return mp.zero
        kern = r * mp.besselj(0, r * s) if n == 2 else r * r * mp.sinc(r * s)
        return mp.exp(1 - 1 / (1 - r * r)) * kern

    pieces = mp.linspace(0, 1, 2 + int(s / 8))
    return (2 if n == 2 else 4) * mp.pi * mp.quad(integrand, pieces, method="gauss-legendre")


class TestBumpProfile:
    @pytest.mark.parametrize("n", [2, 3])
    def test_table_matches_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        knots, vals, _ = fourier_pd._bump_table(n)
        peak = abs(vals[0])
        with mpmath.workdps(20):
            for s in (0.0, 0.15, 10.0, 100.0, 200.0, 312.35, 399.5, 400.0):
                i = int(round(s / (knots[1] - knots[0])))
                ref = _mp_bump_transform(mpmath.mp, n, knots[i])
                assert abs(vals[i] - float(ref)) <= 1e-15 * peak, s

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocked_rows_equal_single_rows(self, n):
        knots, vals, _ = fourier_pd._bump_table(n)
        _, s_cut, _ = fourier_pd._bump_profile(n)
        assert knots[-1] == s_cut
        block = fourier_pd._BUMP_BLOCK
        for i in (0, 1, block - 1, block, block + 1, knots.size // 2, knots.size - 2):
            row = fourier_pd._bump_transform(n, knots[i:i + 1])
            assert vals[i] == row[0]

    @pytest.mark.parametrize("n", [2, 3])
    def test_interpolant_matches_cubic_spline(self, n):
        # CubicSpline (not-a-knot ends) is the reference only; the two
        # interpolating cubic splines differ by their end conditions, whose
        # effect decays within a few knots of either end
        knots, vals, _ = fourier_pd._bump_table(n)
        spline, _, _ = fourier_pd._bump_profile(n)
        peak = abs(vals[0])
        assert np.abs(spline(knots) - vals).max() <= 1e-13 * peak
        h = knots[1] - knots[0]
        s = np.random.default_rng(11).uniform(knots[0] + 16 * h, knots[-1] - 16 * h, 5000)
        assert np.abs(spline(s) - CubicSpline(knots, vals)(s)).max() <= 1e-13 * peak
        # past s_cut, which the radial rule reaches only by roundoff, the
        # profile holds its edge value
        beyond = knots[-1] + np.array([0.5, 1.0, 7.6]) * h
        assert np.array_equal(spline(beyond), np.full(3, spline(knots[-1:])[0]))


def test_bumps_and_oracle_leave_scipy_interpolate_unimported():
    """Bump actions at n = 2 and 3 and the oracle load neither
    scipy.interpolate nor scipy.linalg (scipy's Gauss-Jacobi roots did)."""
    code = """if True:
        import sys
        import numpy as np
        from stablecomp import (SpectralRep, TestFunction, density_2d,
                                euclidean_power, oracle_expectation, pd_action)
        pd_action(euclidean_power(2, -1.5), TestFunction("bump", np.array([1.5, 0.0]), 1.0))
        pd_action(euclidean_power(3, -2.5),
                  TestFunction("bump", np.array([0.0, 1.5, 0.0]), 1.0))
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        oracle_expectation(euclidean_power(2, -1.0), density_2d(rep, M=256))
        print("scipy.interpolate" in sys.modules, "scipy.linalg" in sys.modules)
    """
    src = str(Path(fourier_pd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False False"


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
         '{"evaluations": 93, "family_size": 85, "min_action": 0.7506688754388924, '
         '"mode": "full-space", "quadrature_error_bound": 1.194227615672675e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": [4.0, 0.0], '
         '"kind": "gaussian", "normalization": 1.0, "width": 0.126025}}'),
        ("max-abs 2 -1.5", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.49473388466096535, '
         '"mode": "away-from-origin", "quadrature_error_bound": 0.0006001307467762372, '
         '"verdict": "consistent-with-pd", "witness": {"center": [6.0, 0.0], '
         '"kind": "bump", "normalization": 1.0, "width": 0.25205}}'),
        ("l1 2 -1.2", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.18765455948954268, '
         '"mode": "full-space", "quadrature_error_bound": 1.2025591230366863e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[2.8284271247461903, 2.82842712474619], "kind": "gaussian", '
         '"normalization": 1.0, "width": 0.126025}}'),
        ("l1 2 -1.2", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.10960530055289534, '
         '"mode": "away-from-origin", "quadrature_error_bound": 0.0011752244245835388, '
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
         '{"evaluations": 56, "family_size": 48, "min_action": 0.4947338846609646, '
         '"mode": "away-from-origin", "quadrature_error_bound": 0.000600130746777736, '
         '"verdict": "consistent-with-pd", "witness": {"center": [6.0, 0.0], '
         '"kind": "bump", "normalization": 1.0, "width": 0.25205}}'),
        ("l1 2 -1.2", "full-space",
         '{"evaluations": 93, "family_size": 85, "min_action": 0.18765455948954216, '
         '"mode": "full-space", "quadrature_error_bound": 1.2025591219264633e-07, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[2.8284271247461903, 2.82842712474619], "kind": "gaussian", '
         '"normalization": 1.0, "width": 0.126025}}'),
        ("l1 2 -1.2", "away-from-origin",
         '{"evaluations": 56, "family_size": 48, "min_action": 0.10960530055289472, '
         '"mode": "away-from-origin", "quadrature_error_bound": 0.001175224424583511, '
         '"verdict": "consistent-with-pd", "witness": {"center": '
         '[4.242640687119286, 4.242640687119285], "kind": "bump", '
         '"normalization": 1.0, "width": 0.25205}}'),
    ], ids=_N2_IDS)
    def test_n2_reports_match_full_circle_pins(self, capsys, builtin, mode,
                                                full_circle):
        """The reports the full-circle rule and the per-panel radial sum gave:
        the half-circle rule and the block-local sum keep each witness, count
        and verdict, and move min_action and the bound only by roundoff."""
        got, old = json.loads(_n2_report(capsys, builtin, mode)), json.loads(full_circle)
        for key in ("witness", "evaluations", "family_size", "verdict"):
            assert got[key] == old[key], key
        assert abs(got["min_action"] - old["min_action"]) <= 1e-12 * abs(old["min_action"])
        bound, old_bound = got["quadrature_error_bound"], old["quadrature_error_bound"]
        assert abs(bound - old_bound) <= 1e-9 * old_bound


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

    def test_max_abs_needs_explicit_exponent(self):
        f = max_abs_power(2, -1.5)
        with pytest.raises(ValueError):
            subordination_norm_power(f, np.array([1.0, 0.5]))
        val = subordination_norm_power(f, np.array([1.0, 0.5]), r=1.0)
        assert val == pytest.approx(f(np.array([1.0, 0.5])), rel=1e-8)
