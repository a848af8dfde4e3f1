import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import gamma

from stablecomp import (BlockSplit, HomogeneousFn, LevyBase, LevyMeasure,
                        LrMatrixBase, MomentExistenceError, QuadratureFailure,
                        Seed, SpectralRep, c_pq, c_pq_oracle, decouple,
                        euclidean_power, evaluate_many, levy_expectation,
                        lp_norm_power, max_abs_power, mc_expectation, moments,
                        reflect, sample_batch)
from stablecomp.sampling import CHUNK


def norm_of(g):
    """The 1-homogeneous norm a spanning measure represents."""
    return HomogeneousFn(base=LevyBase(measure=g), p=1.0)


class TestClosedForms:
    def test_zeroth_moment(self):
        for q in (0.5, 1.0, 1.7, 2.0):
            assert c_pq(0.0, q) == 1.0

    def test_gaussian_first_moment(self):
        assert c_pq(1.0, 2.0) == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-14)

    def test_cauchy_negative_half(self):
        assert c_pq(-0.5, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_gaussian_negative_half(self):
        expected = gamma(0.25) / np.sqrt(2.0 * np.pi)
        assert c_pq(-0.5, 2.0) == pytest.approx(expected, rel=1e-14)

    def test_existence_errors(self):
        with pytest.raises(MomentExistenceError):
            c_pq(1.5, 1.5)  # p >= q with q < 2
        with pytest.raises(MomentExistenceError):
            c_pq(-1.0, 2.0)
        with pytest.raises(MomentExistenceError):
            c_pq_oracle(0.9, 0.8)

    def test_gamma_matches_mpmath(self):
        """The standard library Gamma behind every closed form, against
        mpmath at 1998 points over the arguments the package passes it:
        (-0.5, 0.5) without 0 (the Fourier constant and the finite part of
        the angular rule) and (0, 12]."""
        mpmath = pytest.importorskip("mpmath")
        near = np.linspace(-0.5, 0.5, 1001)
        xs = np.concatenate([near[near != 0.0][1:-1], np.linspace(0.0, 12.0, 1001)[1:]])
        with mpmath.workdps(30):
            worst = max(abs(moments._gamma(x) / mpmath.gamma(x) - 1) for x in xs.tolist())
        assert worst <= 2e-15

    @pytest.mark.parametrize("x", [171.7, 180.0, 0.0, -1.0])
    def test_gamma_beyond_a_float_raises(self, x):
        with pytest.raises(QuadratureFailure, match=rf"Gamma\({x!r}\)"):
            moments._gamma(x)

    def test_overflowing_constant_raises(self):
        # Gamma(-p/q) = Gamma(180) overflows: no inf comes back
        with pytest.raises(QuadratureFailure, match=r"Gamma\(180\.0\)"):
            c_pq(-0.9, 0.005)
        with pytest.raises(QuadratureFailure, match=r"Gamma\(180\.0\)"):
            c_pq_oracle(-0.9, 0.005)
        # Gamma(-p/q) fits, its quotient by q Gamma(s) cos(pi s / 2) does not;
        # at q = 2, 2^p Gamma((p + 1)/2) does not
        for p, q in ((-0.9, 0.00527), (300.0, 2.0)):
            for moment in (c_pq, c_pq_oracle):
                with pytest.raises(QuadratureFailure, match=rf"p={p}, q={q} does not fit"):
                    moment(p, q)


def _mp_moment(p, q):
    """E|Z|^p from the closed forms in mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        if q == 2:
            return 2**p * mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)
        if p < 0:
            return mpmath.gamma(-p / q) / (q * mpmath.gamma(-p) * mpmath.cos(mpmath.pi * p / 2))
        return (2 / mpmath.pi * mpmath.sin(mpmath.pi * p / 2) * mpmath.gamma(p)
                * mpmath.gamma(1 - p / q))


class TestOracleAgreement:
    @pytest.mark.parametrize("q", [0.8, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("p_spec", [-0.9, -0.5, -0.1, 0.3, "0.7q"])
    def test_grid(self, q, p_spec):
        p = 0.7 * q if p_spec == "0.7q" else p_spec
        a = c_pq(p, q)
        b = c_pq_oracle(p, q)
        assert abs(a - b) / abs(b) <= 1e-6

    @pytest.mark.parametrize("q", [0.03, 0.05, 0.1, 0.3, 0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("p", [-0.99, -0.9, -0.5, -0.1, -0.01])
    def test_negative_orders_to_infinity(self, q, p):
        """The oracle integrates the Gamma(-p/q) integral to infinity; cut
        at t^q = 45 it missed c(-0.9, 0.03) by 7e-3."""
        assert c_pq_oracle(p, q) == pytest.approx(c_pq(p, q), rel=1e-11)

    def test_grid_against_mpmath(self):
        """279 (p, q) points: negative p, p/q from 0.001 to 0.999, and q = 2
        up to p = 100, each within 1e-11 of mpmath; none raises.  QUADPACK
        returned 29 of them off by 1.5e-4 to 5e-2 (c(0.01, 0.02) as 1.85089,
        not 1.76232) and raised on 34."""
        qs = [0.006, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.2,
              1.5, 1.8, 1.99, 2.0]
        negative = [-0.999, -0.99, -0.9, -0.5, -0.1, -0.01, -0.001]
        ratios = [0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999]
        points = [(p, q) for q in qs for p in negative + [r * q for r in ratios]]
        points += [(p, 2.0) for p in (2.0, 2.5, 3.3, 4.0, 7.5, 20.0, 100.0)]
        assert len(points) == 279
        wrong = [(p, q) for p, q in points
                 if not abs(c_pq_oracle(p, q) / _mp_moment(p, q) - 1) <= 1e-11]
        assert wrong == []

    @pytest.mark.parametrize("p, q", [(1.5 * (1 - 1e-7), 1.5), (1.9999, 2.0),
                                      (2.0 - 1e-9, 2.0), (1.0 - 1e-12, 1.0)])
    def test_orders_near_q(self, p, q):
        """As p -> q the integral grows like q / (q - p), and at q = 2 the
        factor sin(pi p / 2) vanishes; formed from p / q and p, they lost up
        to 2e-5 (at p = 1.9999, q = 2)."""
        assert abs(c_pq_oracle(p, q) / _mp_moment(p, q) - 1) <= 1e-11

    def test_reversed_regime_q2(self):
        for p in (2.5, 4.0):
            assert c_pq_oracle(p, 2.0) == pytest.approx(c_pq(p, 2.0), rel=1e-8)

    def test_against_mc(self):
        # independent Monte Carlo cross-check of the quadrature itself
        from stablecomp import sample_standard
        p, q = 0.5, 0.8
        z = np.abs(sample_standard(q, Seed(21), size=2_000_000)) ** p
        se = z.std(ddof=1) / np.sqrt(z.size)
        assert abs(z.mean() - c_pq_oracle(p, q)) < 3.0 * se


class TestLevyExpectation:
    def test_first_marginal(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        g = LevyMeasure(p=1.0, weights=[1.0], xis=[[1.0, 0.0]])
        assert levy_expectation(rep, g, 1.0) == pytest.approx(
            2.0 / np.sqrt(np.pi), rel=1e-14)

    def test_decoupling_comparison_values(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        g = LevyMeasure(p=1.0, weights=[1.0, 1.0],
                        xis=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        c1 = 2.0 / np.sqrt(np.pi)
        e_x = levy_expectation(rep, g, 1.0)
        e_y = levy_expectation(decouple(rep, BlockSplit(1)), g, 1.0)
        e_xm = levy_expectation(reflect(rep, BlockSplit(1)), g, 1.0)
        assert e_x == pytest.approx(c1 * np.sqrt(2.0), rel=1e-13)
        assert e_y == pytest.approx(c1 * 2.0, rel=1e-13)
        assert e_xm == pytest.approx(c1 * np.sqrt(2.0), rel=1e-13)
        assert e_x + e_xm < 2.0 * e_y  # strict comparison margin
        assert e_x + e_xm == pytest.approx(2.0 * e_y * np.sqrt(2.0) / 2.0, rel=1e-13)

    def test_weight_scaling_covariance(self):
        rng = np.random.default_rng(22)
        rep = SpectralRep(n=3, q=1.5, weights=rng.exponential(1.0, 4) + 0.1,
                          atoms=rng.standard_normal((4, 3)))
        xis = rng.standard_normal((5, 3))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        g = LevyMeasure(p=0.9, weights=rng.exponential(1.0, 5) + 0.1, xis=xis)
        lam = 3.7
        scaled = SpectralRep(n=3, q=1.5, weights=lam * rep.weights, atoms=rep.atoms)
        assert levy_expectation(scaled, g, 0.9) == pytest.approx(
            lam ** (0.9 / 1.5) * levy_expectation(rep, g, 0.9), rel=1e-13)

    def test_finite_sum_agrees_with_mc(self):
        # q = 2, p = 1: the exact sum against a sampled estimate of the norm
        rng = np.random.default_rng(29)
        rep = SpectralRep(n=2, q=2.0, weights=rng.exponential(1.0, 3) + 0.2,
                          atoms=rng.standard_normal((3, 2)))
        xis = rng.standard_normal((4, 2))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        g = LevyMeasure(p=1.0, weights=rng.exponential(1.0, 4) + 0.2, xis=xis)
        exact = levy_expectation(rep, g, 1.0)
        est = mc_expectation(norm_of(g), rep, 100_000, Seed(30))
        assert abs(est.value - exact) < 3.0 * est.stderr

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_decoupled_sampler_agrees_with_finite_sum(self, n, q):
        # Y's parallel head halves are drawn as one merged direction; the
        # exact sum reads decouple's atoms one by one
        rng = np.random.default_rng(40 + 10 * n + int(10 * q))
        p = 0.4 * q  # 2p < q: the plain estimator applies
        rep = SpectralRep(n=n, q=q, weights=rng.exponential(1.0, 5) + 0.2,
                          atoms=rng.standard_normal((5, n)))
        xis = rng.standard_normal((n + 2, n))
        xis /= np.linalg.norm(xis, axis=1, keepdims=True)
        g = LevyMeasure(p=p, weights=rng.exponential(1.0, n + 2) + 0.2, xis=xis)
        f = HomogeneousFn(base=LevyBase(measure=g), p=p)
        for k in range(1, n):
            rep_y = decouple(rep, BlockSplit(k))
            exact = levy_expectation(rep_y, g, p)
            est = mc_expectation(f, rep_y, 200_000, Seed(41, k))
            assert est.estimator == "plain"
            assert abs(est.value - exact) < 3.0 * est.stderr

    def test_regime_validation(self):
        rep = SpectralRep.from_atoms(1.5, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        g = LevyMeasure(p=1.8, weights=[1.0, 1.0], xis=np.eye(2))
        with pytest.raises(MomentExistenceError):
            levy_expectation(rep, g, 1.8)  # p > q with q < 2
        with pytest.raises(ValueError):
            levy_expectation(rep, LevyMeasure(p=1.0, weights=[1.0, 1.0], xis=np.eye(2)), 0.5)

    def test_p_equal_q_below_two_rejected(self):
        # E||X||^q is infinite for q < 2; at q = 2, p = 2 is allowed
        rep = SpectralRep.from_atoms(1.5, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        g = LevyMeasure(p=1.5, weights=[1.0, 1.0], xis=np.eye(2))
        with pytest.raises(MomentExistenceError, match=r"0 < p < q.*infinite for q < 2"):
            levy_expectation(rep, g, 1.5)
        rep2 = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        g2 = LevyMeasure(p=2.0, weights=[1.0, 1.0], xis=np.eye(2))
        assert levy_expectation(rep2, g2, 2.0) == pytest.approx(4.0, rel=1e-14)  # E|X_i|^2 = 2


class TestMCExpectation:
    def test_gaussian_second_moment(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        est = mc_expectation(euclidean_power(2, 2.0), rep, 300_000, Seed(23))
        assert est.estimator == "plain"
        assert abs(est.value - 4.0) < 3.0 * est.stderr

    def test_rank_one_reduction(self):
        # single atom (w, a): E f(X) = w^(p/q) E|Z|^p f(a)
        w, a, p, q = 1.7, np.array([0.8, -1.1, 0.4]), -0.6, 1.4
        rep = SpectralRep.from_atoms(q, [(w, a)])
        f = lp_norm_power(3, 1.0, p)
        est = mc_expectation(f, rep, 400_000, Seed(24))
        expected = w ** (p / q) * c_pq(p, q) * f(a)
        assert est.estimator == "plain"
        assert abs(est.value - expected) < 3.0 * est.stderr

    def test_rank_one_max_abs_heavy(self):
        # X1 = X2 exactly: the max reduces to |Z| and the mean is infinite for
        # p = -1.5, so the heavy side dominates any finite decoupled value
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        f = max_abs_power(2, -1.5)
        est = mc_expectation(f, rep, 200_000, Seed(25))
        assert est.estimator == "median-of-means" and est.blocks == 32
        est_dec = mc_expectation(f, decouple(rep, BlockSplit(1)), 200_000, Seed(26))
        assert est.value > est_dec.value

    def test_worker_independence(self):
        # the chunk workers give the same estimate at any count, for both
        # norm kernels that run inside them and for both estimators: 2p = -3.2
        # puts the max-abs case in median-of-means, whose blocks straddle
        # chunk edges at N = 200 000
        rng = np.random.default_rng(28)
        rep = SpectralRep(n=3, q=1.3, weights=rng.uniform(0.5, 1.5, 5),
                          atoms=rng.standard_normal((5, 3)))
        tall = LrMatrixBase(matrix=rng.standard_normal((6, 3)), r=1.3)
        for f, estimator in ((HomogeneousFn(base=tall, p=-0.7), "plain"),
                             (euclidean_power(3, -1.2, weights=(0.5, 1.0, 2.0)), "plain"),
                             (max_abs_power(3, -1.6), "median-of-means")):
            ests = [mc_expectation(f, rep, 200_000, Seed(29), workers=w) for w in (1, 2, 8)]
            assert ests[0].estimator == estimator
            got = [(e.value, e.stderr, e.dev_bound) for e in ests]
            assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("N", [5_000, 3 * CHUNK + 777, 64])
    @pytest.mark.parametrize("p", [-1.2, -1.6])
    def test_streamed_matches_whole_array(self, N, p):
        # the per-chunk reduction against the whole-array estimators on the
        # same draws: 2p = -2.4 > -3 is plain, 2p = -3.2 median-of-means;
        # at N = 3 CHUNK + 777 the blocks straddle chunk edges
        rng = np.random.default_rng(31)
        rep = SpectralRep(n=3, q=1.3, weights=rng.uniform(0.5, 1.5, 4),
                          atoms=rng.standard_normal((4, 3)))
        f = max_abs_power(3, p)
        est = mc_expectation(f, rep, N, Seed(32), workers=2)
        values = evaluate_many(f, sample_batch(rep, N, Seed(32), workers=1).points)

        def close(got, want):
            return abs(got - want) <= 8 * np.finfo(float).eps * abs(want)

        if est.estimator == "plain":
            assert close(est.value, values.mean())
            assert close(est.stderr, values.std(ddof=1) / np.sqrt(N))
        else:
            block_means = np.array([b.mean() for b in np.array_split(values, 32)])
            value = np.median(block_means)
            assert close(est.value, value)
            mad = np.median(np.abs(block_means - value))
            assert close(est.dev_bound, 1.2533 * 1.4826 * mad / np.sqrt(32))
        # every block's count, mean and squared deviations, for both block counts
        for blocks in (1, 32):
            parts = moments._mc_moments(f, rep, N, Seed(32), 2, blocks)
            for (count, mean, m2), b in zip(parts, np.array_split(values, blocks),
                                            strict=True):
                assert count == b.size
                assert close(mean, b.mean())
                assert close(m2, ((b - b.mean()) ** 2).sum())

    def test_memory_constant_in_n(self):
        # no N values are held: the traced peak at N = 2^22 is that at 2^18,
        # where holding f(X) took 30 MiB more
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        f = euclidean_power(2, 0.5)
        mc_expectation(f, rep, 1_000, Seed(33), workers=1)  # first-use caches
        peaks = []
        tracemalloc.start()
        try:
            for N in (1 << 18, 1 << 22):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                mc_expectation(f, rep, N, Seed(33), workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks

    def test_nonexistent_expectation(self):
        rep = SpectralRep.from_atoms(1.2, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        with pytest.raises(MomentExistenceError):
            mc_expectation(euclidean_power(2, 1.5), rep, 10_000, Seed(0))

    def test_too_few_samples(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        with pytest.raises(ValueError):
            mc_expectation(max_abs_power(2, -1.5), rep, 40, Seed(0))

    def test_estimate_json(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        est = mc_expectation(euclidean_power(2, 1.0), rep, 1000, Seed(27))
        d = json.loads(json.dumps(est.to_json_dict()))
        assert d["estimator"] == "plain" and d["n_samples"] == 1000
        assert d["rep_hash"] and d["seed"] == {"seed": 27, "stream_id": 0}


class TestNormFromLevy:
    def test_l1(self):
        g = LevyMeasure(p=1.0, weights=[1.0, 1.0], xis=np.eye(2))
        f = norm_of(g)
        assert f(np.array([3.0, -4.0])) == pytest.approx(7.0, rel=1e-14)

    def test_circle_discretization_is_euclidean(self):
        ang = np.arange(64) * (np.pi / 32.0)
        g = LevyMeasure(p=2.0, weights=np.full(64, 1.0 / 64.0),
                        xis=np.column_stack([np.cos(ang), np.sin(ang)]))
        f = norm_of(g)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((50, 2))
        vals = f.base.values(x)
        ratio = vals / np.linalg.norm(x, axis=1)
        assert np.abs(ratio / ratio[0] - 1.0).max() < 1e-6

    def test_non_spanning_rejected(self):
        g = LevyMeasure(p=1.0, weights=[1.0], xis=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="do not span"):
            norm_of(g)

    def test_measure_json_round_trip(self):
        g = LevyMeasure(p=1.3, weights=[0.5, 2.0],
                        xis=np.array([[0.6, 0.8], [1.0, 0.0]]))
        back = LevyMeasure.from_json(g.to_json())
        assert np.array_equal(back.xis, g.xis)
        assert np.array_equal(back.weights, g.weights)
        assert back.p == g.p

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            LevyMeasure(p=1.0, weights=[1.0], xis=[[1.0, 1.0]])  # not unit
        with pytest.raises(ValueError):
            LevyMeasure(p=0.0, weights=[1.0], xis=[[1.0, 0.0]])
