import numpy as np
import pytest

from stablecomp import (BlockSplit, LevyMeasure, Seed, SpectralRep,
                        decouple, density_2d, euclidean_power, levy_expectation,
                        lp_norm_power, max_abs_power, mc_expectation, oracle_expectation)
from stablecomp.fourier_pd import _bump_profile, _bump_table
from stablecomp.oracle2d import _asymmetry, _scale_profile
from scipy.special import gamma

from stablecomp import LrMatrixBase, MaxAbsBase, evaluate_many, oracle2d
from stablecomp.oracle2d import _angular_expectation, _gaussian_expectation
from stablecomp.verify import random_rep


def gaussian_rep():
    return SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])


def cauchy_rep():
    return SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])


@pytest.fixture(scope="module")
def gaussian_field():
    return density_2d(gaussian_rep())


@pytest.fixture(scope="module")
def cauchy_field():
    return density_2d(cauchy_rep())


class TestDensity:
    def test_gaussian_origin_value(self, gaussian_field):
        i0 = gaussian_field.M // 2
        assert abs(gaussian_field.values[i0, i0] - 1.0 / (4.0 * np.pi)) < 1e-4

    def test_cauchy_origin_value(self, cauchy_field):
        i0 = cauchy_field.M // 2
        assert abs(cauchy_field.values[i0, i0] - 1.0 / np.pi**2) < 1e-4

    def test_mass_and_symmetry(self, cauchy_field):
        assert abs(cauchy_field.grid_mass - 1.0) < 1e-3
        v = cauchy_field.values[1:, 1:]
        assert np.abs(v - v[::-1, ::-1]).max() < 1e-10
        assert cauchy_field.values.min() >= 0.0
        assert cauchy_field.clipped_mass <= 1e-4

    def test_rank_one_rejected(self):
        with pytest.raises(ValueError, match="rank-one"):
            density_2d(SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))]))

    def test_near_rank_one_rejected(self):
        rep = SpectralRep.from_atoms(
            2.0, [(1.0, (1.0, 1.0)), (1e-9, (1.0, -1.0))])
        with pytest.raises(ValueError, match="near-rank-one"):
            density_2d(rep)

    def test_wrong_dimension(self):
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0, 0.0)),
                                           (1.0, (0.0, 1.0, 0.0)),
                                           (1.0, (0.0, 0.0, 1.0))])
        with pytest.raises(ValueError):
            density_2d(rep)


class TestOracleExpectation:
    def test_gaussian_second_moment(self, gaussian_field):
        val = oracle_expectation(euclidean_power(2, 2.0), gaussian_field)
        assert abs(val.value - 4.0) < 1e-2

    def test_gaussian_inverse_norm(self, gaussian_field):
        # ||N(0, 2 I)|| is sqrt(2) times a chi(2): E||X||^-1 = sqrt(pi)/2
        val = oracle_expectation(euclidean_power(2, -1.0), gaussian_field)
        assert abs(val.value - np.sqrt(np.pi) / 2.0) < 1e-3

    def test_max_abs_margin_positive(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.6)), (0.7, (0.3, 1.0))])
        f = max_abs_power(2, -1.5)
        ox = oracle_expectation(f, density_2d(rep))
        oy = oracle_expectation(f, density_2d(decouple(rep, BlockSplit(1))))
        assert ox.value - oy.value > ox.error_bound + oy.error_bound

    def test_agrees_with_mc(self, cauchy_field):
        f = lp_norm_power(2, 1.0, -0.5)
        val = oracle_expectation(f, cauchy_field)
        est = mc_expectation(f, cauchy_rep(), 400_000, Seed(31))
        assert abs(val.value - est.value) <= max(3.0 * est.stderr,
                                                 1e-2 * abs(val.value))

    def test_refinement_within_error(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.3)), (0.5, (-0.2, 1.0))])
        f = euclidean_power(2, -1.2)
        coarse = oracle_expectation(f, density_2d(rep, M=512))
        fine = oracle_expectation(f, density_2d(rep, M=1024))
        assert abs(fine.value - coarse.value) <= coarse.error_bound + fine.error_bound

    def test_origin_integrability_guard(self, gaussian_field):
        from stablecomp import MomentExistenceError
        with pytest.raises(MomentExistenceError):
            oracle_expectation(max_abs_power(2, -2.0), gaussian_field)

    def test_positive_exponent_existence_guard(self, cauchy_field):
        from stablecomp import MomentExistenceError
        with pytest.raises(MomentExistenceError):
            oracle_expectation(euclidean_power(2, 1.5), cauchy_field)

    def test_heavy_tail_q07(self):
        rep = SpectralRep.from_atoms(0.7, [(1.0, (1.0, 0.3)), (0.6, (-0.4, 1.0))])
        field = density_2d(rep)
        assert abs(field.grid_mass - 1.0) < 1e-3
        f = max_abs_power(2, -1.3)
        val = oracle_expectation(f, field)
        est = mc_expectation(f, rep, 300_000, Seed(32))
        # heavy regime: median-of-means, so only coarse agreement is claimed
        assert abs(val.value - est.value) <= 0.2 * abs(val.value)


def tilted_rep(q):
    return SpectralRep.from_atoms(q, [(1.0, (1.0, 0.3)), (0.6, (-0.4, 1.0))])


def fft2_reference_values(rep, M):
    """The density by a complex FFT of the full centered grid, clipped at 0."""
    T = np.log(1e12) ** (1.0 / rep.q) / _scale_profile(rep)[0]
    dxi = 2.0 * T / M
    freq = (np.arange(M) - M / 2) * dxi
    sign = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    qsum = np.zeros((M, M))
    for w, a in zip(rep.weights, rep.atoms):
        qsum += w * np.abs(a[0] * freq[:, None] + a[1] * freq[None, :]) ** rep.q
    checker = sign[:, None] * sign[None, :]
    spectrum = np.fft.fft2(np.exp(-qsum) * checker)
    vals = ((dxi / (2.0 * np.pi)) ** 2 * checker * spectrum).real
    return np.maximum(vals, 0.0)


class TestKernels:
    @pytest.mark.parametrize("q,M", [(0.7, 1024), (1.0, 512), (1.5, 512), (2.0, 256)])
    def test_density_matches_complex_fft(self, q, M):
        rep = tilted_rep(q)
        ref = fft2_reference_values(rep, M)
        got = density_2d(rep, M=M).values
        assert np.abs(got - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("q,M", [(0.7, 1024), (1.5, 600)])
    def test_grid_mass_is_the_full_trapezoid(self, q, M):
        rep = tilted_rep(q)
        field = density_2d(rep, M=M)
        # density_2d's cell width, which field.dx (an axis difference) rounds
        dx = np.pi / (np.log(1e12) ** (1.0 / q) / _scale_profile(rep)[0])
        full = np.trapezoid(np.trapezoid(field.values, dx=dx), dx=dx)
        assert field.grid_mass == float(full)


class TestSplineCoefficients:
    """The bump profile's B-spline prefilter is ndimage's."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_dimensional_is_ndimage_bit_for_bit(self, n):
        from scipy import ndimage
        knots, vals, _ = _bump_table(n)
        spline, _, _ = _bump_profile(n)
        s = np.random.default_rng(n).uniform(knots[0], knots[-1], 2000)
        ref = ndimage.map_coordinates(vals, (s / (knots[1] - knots[0]))[None, :],
                                      order=3, mode="mirror")
        assert np.array_equal(spline(s), ref)


class TestAsymmetry:
    @pytest.mark.parametrize("M", [64, 514, 1024])
    def test_matches_the_full_difference(self, M):
        rng = np.random.default_rng(M)
        vals = rng.standard_normal((M, M))
        w = rng.standard_normal((M - 1, M - 1))
        vals[1:, 1:] = w + w[::-1, ::-1]
        v = vals[1:, 1:]
        assert np.abs(v - v[::-1, ::-1]).max() == 0.0 == _asymmetry(vals)
        # one defect at a time, in the first, the centre and the last row
        for i in (1, M // 2, M - 1):
            bad = vals.copy()
            bad[i, 2 + i % 5] += 1e-3 * (i + 1)
            v = bad[1:, 1:]
            assert _asymmetry(bad) == np.abs(v - v[::-1, ::-1]).max()
        rough = rng.standard_normal((M, M))
        v = rough[1:, 1:]
        assert _asymmetry(rough) == np.abs(v - v[::-1, ::-1]).max()


def sphere_route(f, rep):
    """E f(X) at q = 2 by the Gaussian sphere route: X = L g with L L^T the
    covariance 2 sum_j w_j a_j a_j^T, so E f(X) = E|g|^p * mean of f(L theta)
    over the circle.  Gauss-Legendre panels of width at most pi/64, with
    edges where theta -> f(L theta) has kinks."""
    cov = 2.0 * (rep.atoms.T * rep.weights) @ rep.atoms
    L = np.linalg.cholesky(cov)
    if isinstance(f.base, MaxAbsBase):
        normals = np.array([[1.0, -1.0], [1.0, 1.0]])
    elif isinstance(f.base, LrMatrixBase):
        normals = f.base.matrix
    else:
        normals = np.zeros((0, 2))
    tilted = normals @ L
    kinks = (np.arctan2(tilted[:, 1], tilted[:, 0]) + np.pi / 2.0) % np.pi
    edges = np.unique(np.concatenate([kinks, np.arange(64) * (np.pi / 64), [np.pi]]))
    x, w = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        theta = (a + b) / 2.0 + (b - a) / 2.0 * x
        pts = np.column_stack([np.cos(theta), np.sin(theta)]) @ L.T
        total += (b - a) / 2.0 * (w @ evaluate_many(f, pts))
    p = f.p
    return 2.0 ** (p / 2.0) * gamma(1.0 + p / 2.0) * total / np.pi


def family_fn(family, p):
    return {"max_abs": max_abs_power(2, p, block_split=1),
            "l1": lp_norm_power(2, 1.0, p, block_split=1),
            "euclidean": euclidean_power(2, p, block_split=1)}[family]


class TestAngularRule:
    """The exact angular rule against closed forms, the sphere route at q = 2,
    the density route and its own refinement."""

    @pytest.mark.parametrize("p", [-1.9, -1.5, -1.01, -1.0, -0.99, -0.5, -0.1])
    def test_isotropic_gaussian_closed_form(self, p):
        # X ~ N(0, 2 I): E|X|^p = 2^p Gamma(1 + p/2)
        exact = 2.0 ** p * gamma(1.0 + p / 2.0)
        got = _angular_expectation(euclidean_power(2, p), gaussian_rep())
        assert abs(got.value - exact) <= got.error_bound + 1e-13 * exact

    @pytest.mark.parametrize("family", ["max_abs", "l1", "euclidean"])
    @pytest.mark.parametrize("p", [-1.6, -1.2, -0.7, -0.3])
    def test_gaussian_sphere_route(self, family, p):
        rng = np.random.default_rng(71)
        f = family_fn(family, p)
        for _ in range(6):
            rep = random_rep(rng, 2, 2.0, full_rank=True, max_condition=1e4)
            for r in (rep, decouple(rep, BlockSplit(1))):
                ref = sphere_route(f, r)
                got = _angular_expectation(f, r)
                assert abs(got.value - ref) <= got.error_bound + 1e-12 * ref

    @pytest.mark.parametrize("q,family,p,seed", [
        (1.5, "max_abs", -1.5, 3), (1.5, "l1", -0.5, 4), (1.5, "euclidean", -0.8, 5),
        (2.0, "max_abs", -1.3, 6), (2.0, "l1", -0.4, 7)])
    def test_within_the_density_route_bound(self, q, family, p, seed):
        rep = random_rep(np.random.default_rng(seed), 2, q, full_rank=True,
                         max_condition=1e4)
        f = family_fn(family, p)
        grid = oracle_expectation(f, density_2d(rep))
        assert abs(_angular_expectation(f, rep).value - grid.value) <= grid.error_bound

    @pytest.mark.parametrize("q,family,p,seed", [
        (1.5, "l1", -0.5, 4), (1.5, "euclidean", -0.8, 5), (2.0, "l1", -0.4, 7)])
    def test_within_monte_carlo_reach(self, q, family, p, seed):
        # p > -1 = -n/2, so f(X) has finite variance and the plain mean's
        # standard error holds: an estimate that shares nothing with the rule
        rep = random_rep(np.random.default_rng(seed), 2, q, full_rank=True,
                         max_condition=1e4)
        f = family_fn(family, p)
        exact = oracle_expectation(f, density_2d(rep))
        mc = mc_expectation(f, rep, 2_000_000, Seed(seed))
        assert mc.estimator == "plain"
        assert abs(mc.value - exact.value) <= 4.0 * mc.stderr + exact.error_bound

    @pytest.mark.parametrize("q", [0.5, 0.7, 1.0])
    def test_bound_covers_four_times_the_nodes(self, q, monkeypatch):
        rng = np.random.default_rng(int(10 * q))
        cases = []
        for family, p in (("max_abs", -1.7), ("l1", -0.6), ("euclidean", -0.25),
                          ("l1", -1.3)):
            rep = random_rep(rng, 2, q, full_rank=True, max_condition=1e4)
            for r in (rep, decouple(rep, BlockSplit(1))):
                f = family_fn(family, p)
                cases.append((f, r, _angular_expectation(f, r)))
        monkeypatch.setattr(oracle2d, "_NODES", 4 * oracle2d._NODES)
        for f, r, got in cases:
            assert abs(_angular_expectation(f, r).value - got.value) <= got.error_bound

    def test_p_minus_one_is_the_limit(self):
        rep = tilted_rep(0.7)
        f = max_abs_power(2, -1.0)
        at = _angular_expectation(f, rep).value
        lo = _angular_expectation(max_abs_power(2, -1.0 - 1e-6), rep).value
        hi = _angular_expectation(max_abs_power(2, -1.0 + 1e-6), rep).value
        assert min(lo, hi) <= at <= max(lo, hi)

    @pytest.mark.parametrize("rep", [
        SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0, 0.0)), (1.0, (0.0, 1.0, 0.0)),
                                     (1.0, (0.0, 0.0, 1.0))]),
        SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))]),
        SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0)), (1e-9, (1.0, -1.0))]),
    ], ids=["three-dimensional", "rank-one", "near-rank-one"])
    def test_rejects_the_reps_density_2d_rejects(self, rep):
        with pytest.raises(ValueError) as grid:
            density_2d(rep)
        with pytest.raises(ValueError) as angular:
            _angular_expectation(max_abs_power(2, -1.5), rep)
        assert type(angular.value) is type(grid.value)
        assert str(angular.value) == str(grid.value)

    @pytest.mark.parametrize("f", [max_abs_power(3, -1.5), max_abs_power(2, -2.0),
                                   euclidean_power(2, 1.5)])
    def test_rejects_the_functions_oracle_expectation_rejects(self, f, cauchy_field):
        with pytest.raises(ValueError) as grid:
            oracle_expectation(f, cauchy_field)
        with pytest.raises(ValueError) as angular:
            _angular_expectation(f, cauchy_rep())
        assert type(angular.value) is type(grid.value)
        assert str(angular.value) == str(grid.value)

    def test_rejects_positive_exponents(self):
        with pytest.raises(ValueError, match=r"p in \(-2, 0\)"):
            _angular_expectation(euclidean_power(2, 0.5), cauchy_rep())


class TestExactRules:
    """``oracle_expectation`` evaluates ``field.rep`` by the exact rules: the
    angular rule for p < 0, the Gaussian circle rule for q = 2 and p > 0."""

    @pytest.mark.parametrize("f", [max_abs_power(2, -1.5), lp_norm_power(2, 1.0, -0.5),
                                   euclidean_power(2, -1.0)])
    def test_negative_exponents_take_the_angular_rule(self, f, gaussian_field,
                                                      cauchy_field):
        for field in (gaussian_field, cauchy_field, density_2d(tilted_rep(1.5), M=256)):
            got = oracle_expectation(f, field)
            ref = _angular_expectation(f, field.rep)
            assert (got.value, got.error_bound) == (ref.value, ref.error_bound)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
    def test_gaussian_closed_form(self, p, gaussian_field):
        # X ~ N(0, 2 I): E|X|^p = 2^p Gamma(1 + p/2)
        exact = 2.0 ** p * gamma(1.0 + p / 2.0)
        got = oracle_expectation(euclidean_power(2, p), gaussian_field)
        assert abs(got.value - exact) <= got.error_bound

    @pytest.mark.parametrize("p", [0.4, 1.0, 1.7, 2.5])
    def test_gaussian_matches_levy_expectation(self, p):
        # sum |x_i|^p is the l_p norm to the p, whose finite spherical measure
        # gives E f(X) in closed form
        f = lp_norm_power(2, p, p)
        gamma_p = LevyMeasure(p=p, weights=np.ones(2), xis=np.eye(2))
        rng = np.random.default_rng(int(10 * p))
        for _ in range(3):
            rep = random_rep(rng, 2, 2.0, full_rank=True, max_condition=1e4)
            for r in (rep, decouple(rep, BlockSplit(1))):
                exact = levy_expectation(r, gamma_p, p)
                got = _gaussian_expectation(f, r)
                assert abs(got.value - exact) <= got.error_bound + 1e-14 * exact
                assert got.error_bound <= 1e-8 * exact

    @pytest.mark.parametrize("p", [0.3, 0.6])
    def test_positive_exponents_below_q_rejected(self, p, cauchy_field):
        # E f(X) exists for 0 < p < q, but no exact rule covers it
        with pytest.raises(ValueError, match="q = 2") as exc:
            oracle_expectation(euclidean_power(2, p), cauchy_field)
        assert type(exc.value) is ValueError
        for q in (0.7, 1.5):
            with pytest.raises(ValueError, match="q = 2"):
                _gaussian_expectation(euclidean_power(2, p), tilted_rep(q))
