import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from stablecomp import (BlockSplit, Seed, SpectralRep,
                        decouple, density_2d, euclidean_power, lp_norm_power,
                        max_abs_power, mc_expectation, oracle_expectation)
from stablecomp.fourier_pd import _bump_table, _spline_coefficients
from stablecomp.oracle2d import (_asymmetry, _interpolant, _polar_box_integral,
                                 _scale_profile)


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

    def test_tail_mass_is_the_box_exit_estimate(self, gaussian_field, cauchy_field):
        # Cauchy marginals: P(|Z| > z) ~ (2/pi) / z per atom, two unit atoms
        assert cauchy_field.tail_mass == pytest.approx(
            2.0 * (2.0 / np.pi) / cauchy_field.half_width, rel=1e-14)
        assert gaussian_field.tail_mass == 0.0

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

    def test_export(self, tmp_path, gaussian_field):
        path = tmp_path / "field.bin"
        gaussian_field.export_binary(path)
        import json
        header = json.loads((tmp_path / "field.bin.json").read_text())
        raw = np.fromfile(path, dtype="<f8").reshape(header["shape"])
        assert np.array_equal(raw, gaussian_field.values)


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


def fitpack_interpolant(axis, values):
    spline = RectBivariateSpline(axis, axis, values, kx=3, ky=3, s=0)
    return lambda x, y: spline.ev(np.ravel(x), np.ravel(y)).reshape(np.shape(x))


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

    @pytest.mark.parametrize("q,M", [(1.0, 1024), (1.5, 512)])
    def test_interpolant_matches_fitpack(self, q, M):
        field = density_2d(tilted_rep(q), M=M)
        ax, vals, dx = field.axis, field.values, field.dx
        rho = _interpolant(ax, vals)
        ref = fitpack_interpolant(ax, vals)
        rng = np.random.default_rng(7)
        # interior: the two boundary conditions differ within a few cells of the edge
        x, y = rng.uniform(ax[0] + 16 * dx, ax[-1] - 16 * dx, (2, 5000))
        assert np.abs(rho(x, y) - ref(x, y)).max() <= 1e-10 * vals.max()
        # beyond the last grid line (the box reaches one cell past it) and
        # before the first, both clamp onto the edge
        out = np.concatenate([ax[-1] + np.array([0.6, 1.0, 7.6]) * dx,
                              ax[0] - np.array([0.5, 3.0]) * dx])
        inner = rng.uniform(ax[0] + 16 * dx, ax[-1] - 16 * dx, out.size)
        for px, py in ((out, inner), (inner, out)):
            assert np.abs(rho(px, py) - ref(px, py)).max() <= 1e-10 * vals.max()

    @pytest.mark.parametrize("q,f", [(1.0, max_abs_power(2, -1.5)),
                                     (1.5, lp_norm_power(2, 1.0, -0.5))])
    def test_expectation_matches_fitpack_route(self, q, f):
        field = density_2d(tilted_rep(q))
        got = oracle_expectation(f, field)
        ref = _polar_box_integral(f, fitpack_interpolant(field.axis, field.values),
                                  field.half_width, 12.0 * field.dx, n_theta=512)
        assert abs(got.value - ref) <= 1e-3 * got.error_bound


def ndimage_coefficients(values):
    from scipy import ndimage
    return ndimage.spline_filter(values, order=3, mode="mirror")


class TestSplineCoefficients:
    """The row recursion against ndimage's line-at-a-time filter."""

    @staticmethod
    def assert_close(values):
        got, ref = _spline_coefficients(values), ndimage_coefficients(values)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(values).max()

    @pytest.mark.parametrize("q,M", [(0.7, 1024), (1.0, 512), (1.5, 512), (2.0, 512)])
    def test_density_fields(self, q, M):
        vals = density_2d(tilted_rep(q), M=M).values
        self.assert_close(vals)
        self.assert_close(vals[::2, ::2])  # the oracle's coarse grid, a strided view

    def test_rough_fields(self):
        rng = np.random.default_rng(3)
        self.assert_close(rng.standard_normal((300, 257)))
        self.assert_close(rng.standard_normal((6, 7, 9)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 31, 32, 33])
    def test_short_axes(self, n):
        # the causal start sums 32 mirrored terms: on short axes they wrap
        rng = np.random.default_rng(n)
        self.assert_close(rng.standard_normal((n, 9)))
        self.assert_close(rng.standard_normal((9, n)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_dimensional_is_ndimage_bit_for_bit(self, n):
        _, vals, _ = _bump_table(n)
        assert np.array_equal(_spline_coefficients(vals), ndimage_coefficients(vals))
        rough = np.random.default_rng(n).standard_normal(33)
        assert np.array_equal(_spline_coefficients(rough), ndimage_coefficients(rough))


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
