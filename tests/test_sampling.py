import numpy as np
import pytest

from stablecomp import (SampleBatch, Seed, SpectralRep, char_fn,
                        empirical_char_fn, sample_batch, sample_standard,
                        sample_vector)
from stablecomp.sampling import _CSV_ROWS, CHUNK, _chunk_rng, _cos, _draw_standard


class TestSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            Seed(-1)
        with pytest.raises(ValueError):
            Seed(2**64)
        with pytest.raises(ValueError):
            Seed(0, -1)

    def test_distinct_streams_differ(self):
        a = sample_standard(1.5, Seed(0, 0), size=8)
        b = sample_standard(1.5, Seed(0, 1), size=8)
        assert not np.array_equal(a, b)


class TestStandardGenerator:
    N = 100_000

    def test_gaussian_char_fn(self):
        z = sample_standard(2.0, Seed(1), size=self.N)
        emp = np.cos(z).mean()
        assert abs(emp - np.exp(-1.0)) < 0.013

    def test_cauchy_quartile(self):
        z = sample_standard(1.0, Seed(2), size=self.N)
        assert abs(np.median(np.abs(z)) - 1.0) < 0.02

    def test_half_stable_char_fn(self):
        z = sample_standard(0.5, Seed(3), size=self.N)
        emp = np.cos(2.0 * z).mean()
        assert abs(emp - np.exp(-np.sqrt(2.0))) < 0.013

    def test_gaussian_reduction_ks(self):
        from scipy import stats
        z = sample_standard(2.0, Seed(4), size=self.N)
        ks = stats.kstest(z, "norm", args=(0.0, np.sqrt(2.0))).statistic
        assert ks < 1.628 / np.sqrt(self.N)  # 1% critical value

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            sample_standard(2.2, Seed(0))

    def test_scalar_default(self):
        assert isinstance(sample_standard(1.3, Seed(5)), float)


def _cms_reference(u, w, q):
    """The CMS transform written with numpy's sin, cos and powers."""
    if q == 2.0:
        return 2.0 * np.sqrt(w) * np.sin(u)
    return ((np.sin(q * u) / np.cos(u) ** (1.0 / q))
            * (np.cos((1.0 - q) * u) / w) ** ((1.0 - q) / q))


class TestCmsTransform:
    @pytest.mark.parametrize("q", [0.1, 0.7, 1.5, 1.99, 2.0])
    def test_matches_direct_formula(self, q):
        size = 1 << 18
        rng = _chunk_rng(Seed(41), 0)
        u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
        w = rng.standard_exponential(size)
        ref = _cms_reference(u, w, q)
        got = _draw_standard(_chunk_rng(Seed(41), 0), q, size)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    def test_cosine_near_the_endpoints(self):
        # cos u at u = -pi/2 (the lowest uniform draw) is 6.1e-17, not 0
        u = np.array([-0.5 * np.pi, np.nextafter(0.5 * np.pi, 0.0), 1e-300])
        cu = _cos(u.copy(), np.empty(3))
        assert np.allclose(cu, np.cos(u), rtol=1e-15, atol=0.0)


class TestVectorSampling:
    def test_gaussian_covariance(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        pts = sample_batch(rep, 100_000, Seed(6)).points
        cov = np.cov(pts.T)
        assert np.abs(cov - 2.0 * np.eye(2)).max() < 0.05

    def test_rank_one_exact_equality(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        pts = sample_batch(rep, 1000, Seed(7)).points
        assert np.array_equal(pts[:, 0], pts[:, 1])

    def test_char_fn_agreement(self):
        rng = np.random.default_rng(8)
        rep = SpectralRep(n=3, q=1.3, weights=rng.exponential(1.0, 4) + 0.1,
                          atoms=rng.standard_normal((4, 3)))
        N = 100_000
        pts = sample_batch(rep, N, Seed(9)).points
        g = rng.standard_normal((20, 3))
        xi = g * (rng.uniform(0.2, 1.5, 20) / rep.scale_q(g))[:, None]
        diff = np.abs(empirical_char_fn(pts, xi) - char_fn(rep, xi))
        assert diff.max() < 4.0 / np.sqrt(N)

    def test_single_vector_matches_batch(self):
        rep = SpectralRep.from_atoms(1.5, [(1.0, (0.3, -1.0))])
        v = sample_vector(rep, Seed(10))
        assert np.array_equal(v, sample_batch(rep, 1, Seed(10)).points[0])


class TestDeterminism:
    def test_worker_independence(self):
        rep = SpectralRep.from_atoms(
            1.2, [(1.0, (1.0, 0.2)), (0.4, (-0.3, 1.0)), (2.0, (0.5, 0.5))])
        b1 = sample_batch(rep, 200_000, Seed(11), workers=1)
        b8 = sample_batch(rep, 200_000, Seed(11), workers=8)
        assert np.array_equal(b1.points, b8.points)
        assert b1.rep_hash == b8.rep_hash

    def test_stream_independence_smoke(self):
        rep = SpectralRep.from_atoms(1.5, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        N = 100_000
        a = sample_batch(rep, N, Seed(12, 0)).points
        b = sample_batch(rep, N, Seed(12, 1)).points
        rng = np.random.default_rng(13)
        for _ in range(5):
            xi = rng.standard_normal(2) * 0.4
            eta = rng.standard_normal(2) * 0.4
            joint = np.cos(a @ xi + b @ eta).mean()
            split = (np.cos(a @ xi).mean() * np.cos(b @ eta).mean()
                     - np.sin(a @ xi).mean() * np.sin(b @ eta).mean())
            assert abs(joint - split) < 6.0 / np.sqrt(N)

    def test_zero_count_rejected(self):
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0))])
        with pytest.raises(ValueError):
            sample_batch(rep, 0, Seed(0))


class TestExport:
    def test_csv(self, tmp_path):
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.5))])
        batch = sample_batch(rep, 50, Seed(14))
        path = tmp_path / "draws.csv"
        batch.to_csv(path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(loaded, batch.points)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("N", [1, _CSV_ROWS - 1, _CSV_ROWS + 1, CHUNK + 1])
    def test_csv_bytes_match_savetxt(self, tmp_path, N, n):
        pts = np.random.default_rng(N + n).standard_cauchy((N, n))
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.7976931348623157e308]
        flat = pts.reshape(-1)
        flat[:len(special)] = special[:flat.size]
        batch = SampleBatch(points=pts, rep_hash="0" * 16, seed=Seed(0))
        path, ref = tmp_path / "draws.csv", tmp_path / "savetxt.csv"
        batch.to_csv(path)
        np.savetxt(ref, pts, delimiter=",", fmt="%.17g", comments="",
                   header=",".join(f"x{i + 1}" for i in range(n)))
        assert path.read_bytes() == ref.read_bytes()

    def test_binary_round_trip(self, tmp_path):
        rep = SpectralRep.from_atoms(0.8, [(1.0, (1.0, -0.5)), (0.3, (0.0, 2.0))])
        batch = sample_batch(rep, 512, Seed(15, 3))
        path = tmp_path / "draws.bin"
        batch.to_binary(path)
        back = SampleBatch.from_binary(path)
        assert np.array_equal(back.points, batch.points)
        assert back.rep_hash == batch.rep_hash
        assert back.seed == batch.seed
