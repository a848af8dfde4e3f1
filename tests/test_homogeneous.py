import numpy as np
import pytest

from stablecomp import (DiagEuclideanBase, HomogeneousFn, LevyBase, LevyMeasure,
                        LrMatrixBase, MaxAbsBase, Seed, check_block_symmetry,
                        check_homogeneity, euclidean_power, evaluate_many,
                        fn_from_json, fn_to_json, lp_norm_power, max_abs_power,
                        pd_certificate, subordination_norm_power)


class TestEvaluate:
    def test_max_abs_negative_power(self):
        f = max_abs_power(2, -1.5)
        assert f(np.array([2.0, -1.0])) == pytest.approx(
            2.0 ** -1.5, rel=1e-14)

    def test_l1_squared(self):
        f = lp_norm_power(2, 1.0, 2.0)
        assert f(np.array([3.0, 4.0])) == pytest.approx(49.0, rel=1e-14)

    def test_homogeneity_ratio(self):
        rng = np.random.default_rng(0)
        for f in (max_abs_power(3, -1.7), lp_norm_power(3, 0.7, 1.3),
                  euclidean_power(3, -0.4, weights=(1.0, 2.0, 0.5))):
            x = rng.standard_normal(3)
            ratio = f(3.0 * x) / f(x)
            assert ratio == pytest.approx(3.0 ** f.p, rel=1e-12)

    def test_single_point_shape(self):
        f = max_abs_power(2, -1.0)
        for x in (np.ones(3), np.ones((1, 2)), 1.0):
            with pytest.raises(ValueError, match="expected \\(2,\\)"):
                f(x)

    def test_origin_singularity(self):
        with pytest.raises(ValueError):
            max_abs_power(2, -1.0)(np.zeros(2))
        assert max_abs_power(2, 0.5)(np.zeros(2)) == 0.0

    def test_evaluate_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        f = lp_norm_power(2, 1.5, -0.8)
        pts = rng.standard_normal((10, 2))
        many = evaluate_many(f, pts)
        for i in range(10):
            assert many[i] == pytest.approx(f(pts[i]), rel=1e-14)

    def test_max_abs_values_equal_numpy_max_bit_for_bit(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((600, 3))
        x[::7, 1] = np.nan
        x[5] = (-0.0, 0.0, -0.0)
        x[6] = (np.inf, -np.inf, 1.0)
        for pts in (x, np.asfortranarray(x), x[0], x[7], x.reshape(20, 30, 3),
                    x[:, :2], x[:, :1], x[:0]):
            got = MaxAbsBase(pts.shape[-1]).values(pts)
            ref = np.max(np.abs(pts), axis=-1)
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @staticmethod
    def _assert_matches_matrix_product(base, B, r):
        # the row-at-a-time kernels against (sum |x B^T|^r)^(1/r) through BLAS;
        # only the rounding order of each inner product differs
        x = np.random.default_rng(3).standard_normal((1000, B.shape[1]))
        for pts in (x, x[4]):
            got = base.values(pts)
            ref = (np.abs(pts @ B.T) ** r).sum(axis=-1) ** (1.0 / r)
            assert np.shape(got) == np.shape(ref)
            assert np.allclose(got, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows", [3, 9])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.3, 2.0])
    def test_lr_kernel_matches_matrix_product(self, rows, r):
        B = np.random.default_rng(rows).standard_normal((rows, 3))
        self._assert_matches_matrix_product(LrMatrixBase(matrix=B, r=r), B, r)

    def test_euclidean_kernel_matches_matrix_product(self):
        w = np.array([0.6, 1.7, 1.1])
        self._assert_matches_matrix_product(DiagEuclideanBase(weights=w),
                                            np.diag(np.sqrt(w)), 2.0)


class TestBlockSymmetry:
    def test_max_abs_passes(self):
        res = check_block_symmetry(max_abs_power(3, -2.5), 2, trials=512, seed=Seed(2))
        assert res.passed

    def test_euclidean_passes(self):
        res = check_block_symmetry(euclidean_power(2, -0.5), 1, trials=512, seed=Seed(3))
        assert res.passed

    def test_oblique_direction_fails_with_witness(self):
        g = LevyMeasure(p=1.0, weights=[1.0, 0.2, 0.2],
                        xis=np.array([[1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                                      [1.0, 0.0], [0.0, 1.0]]))
        f = HomogeneousFn(base=LevyBase(measure=g), p=-1.0)
        res = check_block_symmetry(f, 1, trials=256, seed=Seed(4))
        assert not res.passed
        u, v = res.witness
        a = f(np.array([u, v]))
        b = f(np.array([u, -v]))
        assert abs(a - b) > 1e-10 * max(abs(a), abs(b))


class _SquaredL1Base:
    """A corrupted base: the squared l1 norm in R^2, homogeneous of order 2."""

    n = 2

    def values(self, x):
        return np.abs(x).sum(axis=-1) ** 2


class TestHomogeneityCheck:
    def test_measures_declared_exponent(self):
        for f in (lp_norm_power(2, 1.0, -1.2), max_abs_power(3, 0.5)):
            res = check_homogeneity(f, trials=256, seed=Seed(5))
            assert res.passed
            assert abs(res.measured_exponent - f.p) < 1e-9

    def test_corrupted_descriptor_detected(self):
        # the base is 2-homogeneous, so f = base^1 has order 2, not the declared 1
        f = HomogeneousFn(base=_SquaredL1Base(), p=1.0)
        res = check_homogeneity(f, trials=256, seed=Seed(6))
        assert res.passed is False
        assert res.measured_exponent == pytest.approx(2.0, abs=1e-9)


class TestConstructionAndJson:
    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(ValueError):
            LrMatrixBase(matrix=np.array([[1.0, 0.0], [2.0, 0.0]]), r=1.0)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            max_abs_power(2, 0.0)

    def test_bad_euclidean_weights(self):
        with pytest.raises(ValueError):
            euclidean_power(2, 1.0, weights=(1.0, 0.0))

    @pytest.mark.parametrize("text, maker", [
        ('{"block_split": 1, "kind": "max_abs", "n": 3, "p": -2.1}',
         lambda: max_abs_power(3, -2.1)),
        ('{"block_split": null, "kind": "diag_euclidean", "p": -0.3, "weights": [0.5, 3.0]}',
         lambda: euclidean_power(2, -0.3, weights=(0.5, 3.0))),
    ])
    def test_descriptor_with_a_block_split_key_loads(self, text, maker):
        """Older descriptor files hold a "block_split" key, which loading ignores."""
        f = maker()
        assert fn_to_json(fn_from_json(text)) == fn_to_json(f)
        assert "block_split" not in fn_to_json(f)

    @pytest.mark.parametrize("maker", [
        lambda: max_abs_power(3, -2.1),
        lambda: lp_norm_power(2, 0.7, 1.1),
        lambda: euclidean_power(2, -0.3, weights=(0.5, 3.0)),
        lambda: HomogeneousFn(base=LevyBase(measure=LevyMeasure(
            p=1.5, weights=[1.0, 0.7],
            xis=np.array([[0.6, 0.8], [1.0, 0.0]]))), p=-0.9),
        lambda: HomogeneousFn(
            base=LrMatrixBase(matrix=np.array([[1.0, 0.25], [-0.5, 2.0]]), r=1.3),
            p=-1.1),
    ])
    def test_json_round_trip_exact(self, maker):
        f = maker()
        back = fn_from_json(fn_to_json(f))
        assert fn_to_json(back) == fn_to_json(f)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((20, f.n))
        assert np.array_equal(evaluate_many(back, pts), evaluate_many(f, pts))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fn_from_json('{"kind": "mystery", "p": 1.0}')

    def test_norm_from_levy_is_one_homogeneous(self):
        g = LevyMeasure(p=1.2, weights=[1.0, 1.0, 0.5],
                        xis=np.array([[1.0, 0.0], [0.0, 1.0],
                                      [0.6, 0.8]]))
        f = HomogeneousFn(base=LevyBase(measure=g), p=1.0)
        assert f.p == 1.0
        res = check_homogeneity(f, trials=128, seed=Seed(8))
        assert res.passed


class TestLevyFold:
    """A measure-built norm is the discrete L_p norm of the rows c_m^(1/p) xi_m."""

    # the "levy" kind as descriptor files hold it
    LEVY_JSON = ('{"block_split": 1, "kind": "levy", "measure": {"entries": '
                 '[{"c": 1.0, "xi": [0.6, 0.8]}, {"c": 1.0, "xi": [0.6, -0.8]}, '
                 '{"c": 0.7, "xi": [1.0, 0.0]}, {"c": 0.3, "xi": [0.0, 1.0]}], '
                 '"p": 1.5}, "p": -0.9}')

    def test_levy_descriptor_loads_and_evaluates(self):
        f = fn_from_json(self.LEVY_JSON)
        assert isinstance(f.base, LrMatrixBase) and f.base.r == 1.5
        assert f.p == -0.9
        c = np.array([1.0, 1.0, 0.7, 0.3])
        xis = np.array([[0.6, 0.8], [0.6, -0.8], [1.0, 0.0], [0.0, 1.0]])
        x = np.random.default_rng(31).standard_normal((500, 2))
        direct = ((np.abs(x @ xis.T) ** 1.5) @ c) ** (1.0 / 1.5)
        assert np.max(np.abs(f.base.values(x) / direct - 1.0)) <= 1e-15

    @pytest.mark.parametrize("p, cert", [(0.8, "subspace-Lr"), (2.0, "subspace-Lr"),
                                         (3.0, None)])
    def test_certificate_and_subordination_exponent(self, p, cert):
        g = LevyMeasure(p=p, weights=[1.0, 0.5, 0.5],
                        xis=np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8]]))
        f = HomogeneousFn(base=LevyBase(measure=g), p=-0.5)
        assert pd_certificate(f) == cert
        x = np.array([0.3, -1.2])
        assert subordination_norm_power(f, x) == subordination_norm_power(f, x, r=p)
        assert subordination_norm_power(f, x) == pytest.approx(f(x), rel=1e-8)

    def test_non_spanning_measure_rejected(self):
        g = LevyMeasure(p=1.0, weights=[1.0, 2.0, 0.5],
                        xis=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]]))
        with pytest.raises(ValueError, match="do not span"):
            LevyBase(measure=g)
