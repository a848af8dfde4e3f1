import hashlib
import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures import wait

import numpy as np
import pytest

from stablecomp import (BlockSplit, SampleBatch, Seed, SpectralRep, char_fn,
                        decouple, default_workers, empirical_char_fn,
                        euclidean_power, mc_expectation, random_rep,
                        sample_batch, sample_standard, scale_q)
from stablecomp import sampling
from stablecomp.sampling import (_CSV_ROWS, _DRAW_BLOCK, _MIX_BLOCK, CHUNK,
                                 _chunk_points, _chunk_rng, _cms_block, _draw_standard,
                                 _mix, _pool_tasks)


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


def _whole_array_cms(rng, q, size):
    """The CMS transform of _draw_standard in one pass over whole arrays, with
    all exponentials drawn at once and full-size scratch arrays: the
    operations, in order, whose bytes the blocked transform must reproduce."""
    def sin(x, tmp):
        x *= 0.5
        np.tan(x, out=x)
        np.multiply(x, x, out=tmp)
        tmp += 1.0
        x += x
        x /= tmp
        return x

    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if q == 1.0:
        return np.tan(u, out=u)
    w = rng.standard_exponential(size)
    tmp = np.empty_like(u)
    if q == 2.0:
        np.sqrt(w, out=w)
        w *= 2.0
        sin(u, tmp)
        u *= w
        return u
    tau = np.tan(u)
    u *= q
    sin(u, tmp)
    np.divide(2.0, tmp, out=tmp)
    tmp -= 1.0
    expo = tau * u
    expo += tmp
    expo /= w
    np.log(expo, out=expo)
    expo *= (1.0 - q) / q
    np.exp(expo, out=expo)
    np.multiply(tau, tau, out=tau)
    tau += 1.0
    np.sqrt(tau, out=tau)
    u *= tau
    u *= expo
    return u


def _cms_reference(u, w, q):
    """The CMS transform written with numpy's sin, cos and powers."""
    if q == 2.0:
        return 2.0 * np.sqrt(w) * np.sin(u)
    return ((np.sin(q * u) / np.cos(u) ** (1.0 / q))
            * (np.cos((1.0 - q) * u) / w) ** ((1.0 - q) / q))


class _Exponentials:
    """Stands in for a generator whose exponentials are ``w``."""

    def __init__(self, w):
        self.w = w

    def standard_exponential(self, out):
        out[:] = self.w


def _transform(q, u, w):
    """The general-q transform of ``_draw_standard`` at given angles and exponentials."""
    u = u.copy()
    _cms_block(q, _Exponentials(w), u, *np.empty((3, u.size)))
    return u


class TestHalfAngle:
    def test_sin_and_cos_match_mpmath(self):
        # _sin and cos x = 2 / (1 + t^2) - 1 over |x| < 2 pi, the range of
        # the sampler's q u and of the 2-D oracle's angles, against 40 digits:
        # at 0, +-pi/2, +-pi, within 1e-9 of +-pi, beside +-2 pi and at
        # random points.  The sine is good to a few ulp of its value, the
        # cosine, a difference, to a few ulp of 1.
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        near_pi = np.pi + np.array([-1e-9, -3e-12, -1e-15, 4e-16, 1e-15, 3e-12, 1e-9])
        x = np.r_[0.0, 1e-300, np.pi / 2, np.pi, near_pi, np.nextafter(2 * np.pi, 0.0),
                  np.random.default_rng(47).uniform(-2 * np.pi, 2 * np.pi, 400)]
        x = np.r_[x, -x]
        s, t2 = x.copy(), np.empty_like(x)
        sampling._sin(s, t2)
        c = 2.0 / t2 - 1.0
        with mpmath.workdps(40):
            ref_s = np.array([float(mpmath.sin(mpmath.mpf(v))) for v in x])
            ref_c = np.array([float(mpmath.cos(mpmath.mpf(v))) for v in x])
        assert np.all(np.abs(s - ref_s) <= 4 * eps * np.abs(ref_s))
        assert np.all(np.abs(c - ref_c) <= 4 * eps)


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

    def test_matches_mpmath(self):
        # the transform against the CMS formula at 40 digits, at the ends of
        # the angle's range, at and beside u = 0, and at random angles, with
        # exponentials from 1e-12 to 40
        mpmath = pytest.importorskip("mpmath")

        def reference(q, u, w):
            q, u, w = mpmath.mpf(q), mpmath.mpf(u), mpmath.mpf(w)
            return (mpmath.sin(q * u) * mpmath.cos(u) ** (-1 / q)
                    * (mpmath.cos((1 - q) * u) / w) ** ((1 - q) / q))

        rng = np.random.default_rng(43)
        for q in (0.1, 0.5, 0.999, 1.001, 1.5, 1.99):
            u = np.r_[-0.5 * np.pi, np.nextafter(0.5 * np.pi, 0.0), 1e-300, -1e-300,
                      rng.uniform(-0.5 * np.pi, 0.5 * np.pi, 300)]
            w = np.exp(rng.uniform(np.log(1e-12), np.log(40.0), u.size))
            got = _transform(q, u, w)
            with mpmath.workdps(40):
                ref = np.array([float(reference(q, a, b)) for a, b in zip(u, w)])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13, q

    @pytest.mark.parametrize("q", [0.1, 0.999, 1.001, 1.99])
    def test_zero_angle_gives_zero(self, q):
        assert np.all(_transform(q, np.zeros(3), np.array([1e-12, 1.0, 40.0])) == 0.0)

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("size", [_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                                      (CHUNK, 7)])
    def test_blocks_keep_the_whole_array_bytes(self, q, size):
        got = sample_standard(q, Seed(42, 3), size)
        ref = _whole_array_cms(_chunk_rng(Seed(42, 3), 0), q, size)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


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
        xi = g * (rng.uniform(0.2, 1.5, 20) / scale_q(rep, g))[:, None]
        diff = np.abs(empirical_char_fn(pts, xi) - char_fn(rep, xi))
        assert diff.max() < 4.0 / np.sqrt(N)


def _scaled_xis(rng, rep, k=20):
    """k frequencies at which rep's scale lies in [0.2, 1.5]."""
    g = rng.standard_normal((k, rep.n))
    return g * (rng.uniform(0.2, 1.5, k) / scale_q(rep, g))[:, None]


class TestMix:
    @pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_char_fn_preserved(self, n, q):
        rng = np.random.default_rng(100 * n + int(10 * q))
        rep = random_rep(rng, n, q, full_rank=True)
        reps = [rep] + [decouple(rep, BlockSplit(k)) for k in range(1, n)]
        for r in reps:
            mix = _mix(r)
            merged = SpectralRep(n=n, q=q, weights=np.ones(len(mix)), atoms=mix)
            xi = _scaled_xis(rng, r)
            assert np.allclose(char_fn(merged, xi), char_fn(r, xi), rtol=1e-13, atol=0.0)

    def test_rows_unchanged_without_parallel_atoms(self):
        rng = np.random.default_rng(31)
        rep = SpectralRep(n=3, q=1.3, weights=rng.exponential(1.0, 6) + 0.1,
                          atoms=rng.standard_normal((6, 3)))
        expected = (rep.weights ** (1.0 / rep.q))[:, None] * rep.atoms
        assert np.array_equal(_mix(rep), expected)

    def test_merged_row_counts(self):
        # a one-coordinate block merges into one row; a wider block keeps
        # one row per atom
        rng = np.random.default_rng(32)
        rep = SpectralRep(n=3, q=1.5, weights=rng.exponential(1.0, 5) + 0.1,
                          atoms=rng.standard_normal((5, 3)))
        assert len(_mix(decouple(rep, BlockSplit(1)))) == 5 + 1
        assert len(_mix(decouple(rep, BlockSplit(2)))) == 5 + 1
        rep2 = SpectralRep(n=2, q=1.5, weights=rep.weights, atoms=rep.atoms[:, :2])
        assert len(_mix(decouple(rep2, BlockSplit(1)))) == 2

    def test_antiparallel_zero_and_near_parallel_atoms(self):
        q = 1.4
        a = np.array([0.6, -1.2, 0.3])
        b = np.array([1.0, 0.5, -0.25])
        b_near = b + np.array([1e-8, 0.0, 0.0])
        rep = SpectralRep.from_atoms(q, [(0.7, a), (1.0, np.zeros(3)), (0.5, b),
                                         (1.3, -2.0 * a), (0.9, b_near)])
        mix = _mix(rep)
        assert mix.shape == (3, 3)
        scale = (0.7 + 1.3 * 2.0**q) ** (1.0 / q)
        assert np.allclose(mix[0], scale * a, rtol=1e-15, atol=0.0)
        assert np.array_equal(mix[1], 0.5 ** (1.0 / q) * b)
        assert np.array_equal(mix[2], 0.9 ** (1.0 / q) * b_near)

    def test_merged_pair_draws_one_variate(self):
        # a and -2a draw like the single atom they merge into
        q, a = 0.9, np.array([0.4, -1.0])
        pair = SpectralRep.from_atoms(q, [(0.6, a), (0.2, -2.0 * a)])
        single = SpectralRep.from_atoms(q, [(0.6 + 0.2 * 2.0**q, a)])
        got = sample_batch(pair, 1000, Seed(33)).points
        ref = sample_batch(single, 1000, Seed(33)).points
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)

    @staticmethod
    def _export_digest(q):
        # the sha256 of a batch of the benchmark's n = 3, m = 7 export
        # representation, taken at index q; no atoms are parallel
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11, 4])))
        rep = SpectralRep(n=3, q=q, weights=rng.exponential(1.0, 7) + 0.1,
                          atoms=rng.standard_normal((7, 3)))
        pts = sample_batch(rep, 200_003, Seed(2024, 1)).points
        return hashlib.sha256(np.ascontiguousarray(pts, dtype="<f8").tobytes()).hexdigest()

    def test_unmerged_batch_bytes_pinned(self):
        # the benchmark's q = 1.5 export keeps its recorded bytes; re-pinned
        # when the general-q transform took Weron's form, which rounds
        # differently from the form before it
        assert self._export_digest(1.5) == (
            "6513bb084bf93b4460029ee44447bad0d889ffc1c455f1236618a9010eb30b61")

    @pytest.mark.parametrize("q, digest", [
        (1.0, "7f03552235925bdafc2d2282c79b2f3192f5b284c3362a71b5bb053b42a17904"),
        (2.0, "8f5dee399630208c451004aa6231d56827806d2858a54c8bf69dc4af998d7cfa"),
    ], ids=["q1", "q2"])
    def test_cauchy_and_gaussian_bytes_kept(self, q, digest):
        # digests taken before the general-q transform took Weron's form:
        # the Cauchy and Gaussian paths keep their bytes
        assert self._export_digest(q) == digest

    def test_blocked_mixing_product_bits(self):
        # the mixing product in row blocks of at most _MIX_BLOCK multiply-adds
        # gives the bytes of one z @ mix call, at counts around a block edge
        rng = np.random.default_rng(38)
        for rep in (random_rep(rng, 3, 1.5, full_rank=True),
                    decouple(random_rep(rng, 3, 0.7, full_rank=True), BlockSplit(1))):
            mix = _mix(rep)
            block = _MIX_BLOCK // mix.size
            for count in (1, block - 1, block, block + 1, 16960):
                z = _draw_standard(_chunk_rng(Seed(39), 2), rep.q, (count, len(mix)))
                got = _chunk_points(rep.q, mix, Seed(39), 2, count)
                assert got.tobytes() == (z @ mix).tobytes()

    def test_merged_worker_independence(self):
        rng = np.random.default_rng(34)
        rep = decouple(random_rep(rng, 3, 1.2, full_rank=True), BlockSplit(1))
        assert len(_mix(rep)) < rep.m
        batches = [sample_batch(rep, 200_000, Seed(35), workers=w).points for w in (1, 2, 8)]
        assert np.array_equal(batches[0], batches[1])
        assert np.array_equal(batches[0], batches[2])

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 2.0])
    def test_decoupled_char_fn_agreement(self, q):
        rng = np.random.default_rng(36 + int(10 * q))
        rep = decouple(random_rep(rng, 3, q, full_rank=True, max_condition=1e4),
                       BlockSplit(1))
        N = 100_000
        pts = sample_batch(rep, N, Seed(37)).points
        xi = _scaled_xis(rng, rep)
        diff = np.abs(empirical_char_fn(pts, xi) - char_fn(rep, xi))
        assert diff.max() < 4.0 / np.sqrt(N)


class TestDefaultWorkers:
    @pytest.mark.parametrize("affinity, cpus, expected",
                             [(1, 64, 1), (2, 64, 2), (8, 8, 4), (None, 3, 3),
                              (None, None, 1), (None, 16, 4)])
    def test_counts_usable_cpus(self, monkeypatch, affinity, cpus, expected):
        monkeypatch.delenv("STABLECOMP_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        assert default_workers() == expected

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("STABLECOMP_WORKERS", "7")
        assert default_workers() == 7

    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_environment_below_one_rejected(self, monkeypatch, env):
        monkeypatch.setenv("STABLECOMP_WORKERS", env)
        with pytest.raises(ValueError, match=f"STABLECOMP_WORKERS must be >= 1, got {env}"):
            default_workers()


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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, workers):
        rep = SpectralRep.from_atoms(1.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sample_batch(rep, 100, Seed(0), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            mc_expectation(euclidean_power(2, -0.5), rep, 100, Seed(0), workers=workers)


class TestWorkerPool:
    """The process's one worker pool: every call gets the bytes of one worker."""

    REP = SpectralRep.from_atoms(
        1.2, [(1.0, (1.0, 0.2)), (0.4, (-0.3, 1.0)), (2.0, (0.5, 0.5))])
    N = 3 * CHUNK + 5

    def draw(self, workers=None) -> bytes:
        return sample_batch(self.REP, self.N, Seed(41), workers=workers).points.tobytes()

    def test_calls_from_pool_tasks_finish(self):
        # each pool thread runs its chunks itself: had both queued them behind
        # their own tasks, neither would ever finish
        tasks = _pool_tasks(2, [lambda: self.draw(workers=2)] * 2)
        done, _ = wait(tasks, timeout=60)
        assert len(done) == 2
        assert [t.result() for t in tasks] == [self.draw(workers=1)] * 2

    def test_forked_child_gets_the_parent_bytes(self):
        want = self.draw(workers=2)  # the pool exists before the fork
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            send.send_bytes(hashlib.sha256(self.draw(workers=2)).digest())

        proc = ctx.Process(target=child)
        proc.start()
        try:
            assert recv.poll(60), "the forked child did not finish sampling"
            got = recv.recv_bytes()
        finally:
            proc.join(60)
            if proc.is_alive():
                proc.kill()
            recv.close()
            send.close()
        assert proc.exitcode == 0
        assert got == hashlib.sha256(want).digest()

    def test_concurrent_calls_at_changing_counts(self):
        # more workers than cores, and callers that keep replacing the pool
        # while the chunks of the others are queued on it
        want = self.draw(workers=1)
        got = [None] * 6

        def call(i):
            got[i] = self.draw(workers=2 + i % 3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(len(got))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == [want] * len(got)

    def test_worker_count_changes_between_calls(self, monkeypatch):
        want = self.draw(workers=1)
        for env in ("2", "3", "2"):
            monkeypatch.setenv("STABLECOMP_WORKERS", env)
            assert self.draw() == want
            assert sampling._pool[0] == int(env)


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

    def test_binary_writes_little_endian_from_big_endian(self, tmp_path):
        pts = np.random.default_rng(16).standard_cauchy((5, 3))
        batch = SampleBatch(points=pts.astype(">f8"), rep_hash="0" * 16, seed=Seed(16))
        path = tmp_path / "big.bin"
        batch.to_binary(path)
        assert path.read_bytes() == pts.astype("<f8").tobytes()
        assert json.loads((tmp_path / "big.bin.json").read_text()) == {
            "dtype": "<f8", "order": "C", "shape": [5, 3], "rep_hash": "0" * 16,
            "seed": Seed(16).to_json_dict()}

    def test_binary_round_trip(self, tmp_path):
        rep = SpectralRep.from_atoms(0.8, [(1.0, (1.0, -0.5)), (0.3, (0.0, 2.0))])
        batch = sample_batch(rep, 512, Seed(15, 3))
        path = tmp_path / "draws.bin"
        batch.to_binary(path)
        back = SampleBatch.from_binary(path)
        assert np.array_equal(back.points, batch.points)
        assert back.rep_hash == batch.rep_hash
        assert back.seed == batch.seed
