"""Acceptance suite: every gate runs at its stated tolerance and prints one
pass/fail line (visible with pytest -s).  All seeds are fixed."""

import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import gamma

from stablecomp import (BlockSplit, HomogeneousFn, LrMatrixBase, Seed,
                        TestFunction, c_pq, c_pq_oracle, char_fn,
                        decouple, density_2d, empirical_char_fn,
                        euclidean_power, euclidean_reference_action,
                        lp_norm_power, marginal_block, max_abs_power,
                        mc_expectation, oracle_expectation, pd_action,
                        pd_check, sample_batch, sample_standard, scale_q,
                        subordination_norm_power, verify_cor3, verify_prop1,
                        verify_thm1)
from stablecomp.oracle2d import _exact_expectation
from stablecomp.sampling import _chunk_rng
from stablecomp.verify import (lemma1_margin_batch, random_block_symmetric_measure,
                               random_rep, _random_lr_subspace)


def _report(name, detail, elapsed, limit):
    print(f"\n[PASS] {name}: {detail} ({elapsed:.1f}s < {limit}s)")


def test_lq_inequality_sweep():
    """Elementary L_q margins over 1e5 random pairs per index value."""
    t0 = time.perf_counter()
    worst = np.inf
    for qi, q in enumerate((0.5, 1.0, 1.5, 2.0)):
        p_list = (q / 4.0, q / 2.0, q)
        rev = (2.5, 3.0, 4.0) if q == 2.0 else ()
        done, bi = 0, 0
        while done < 100_000:
            cnt = min(8192, 100_000 - done)
            rng = _chunk_rng(Seed(626, qi), bi)
            d = int(rng.integers(2, 17))
            X = rng.standard_cauchy((cnt, d)) * rng.uniform(0.2, 2.0)
            Y = rng.standard_cauchy((cnt, d)) * rng.uniform(0.2, 2.0)
            out = lemma1_margin_batch(X, Y, q, p_list, rev)
            worst = min(worst, float(out["exp"].min()))
            assert out["exp"].min() >= -1e-12
            assert (out["parallelogram"]
                    >= -1e-10 * out["parallelogram_scale"]).all()
            for p in p_list:
                assert (out["power"][p] >= -1e-10 * out["power_scale"][p]).all()
            for p in rev:
                assert (out["reversed"][p]
                        >= -1e-10 * out["reversed_scale"][p]).all()
            done += cnt
            bi += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("L_q inequality sweep", f"4x100000 pairs, min exp-margin {worst:.2e}",
            elapsed, 60)


def test_characteristic_function_algebra():
    """Decoupling factorizes and preserves marginals, pointwise < 1e-12."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(727), 0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        q = float(rng.choice([0.5, 0.8, 1.0, 1.3, 1.7, 2.0]))
        rep = random_rep(rng, n, q)
        k = int(rng.integers(1, n))
        dec = decouple(rep, BlockSplit(k))
        g = rng.standard_normal((50, n))
        s = np.maximum(scale_q(rep, g), 1e-12)
        xi = g * (rng.uniform(0.1, 2.0, 50) / s)[:, None]
        head = xi.copy()
        head[:, k:] = 0.0
        tail = xi.copy()
        tail[:, :k] = 0.0
        prod_diff = np.abs(char_fn(dec, xi) - char_fn(dec, head) * char_fn(dec, tail))
        worst = max(worst, float(prod_diff.max()))
        for lo, hi in ((0, k), (k, n)):
            try:
                ma = marginal_block(rep, lo, hi)
                mb = marginal_block(dec, lo, hi)
            except ValueError:
                continue  # block almost surely zero
            sub = xi[:, lo:hi]
            worst = max(worst, float(np.abs(char_fn(ma, sub) - char_fn(mb, sub)).max()))
        assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("characteristic function algebra", f"100 reps, max deviation {worst:.2e}",
            elapsed, 5)


def test_sampler_fidelity():
    """Empirical characteristic functions within 4/sqrt(N); Gaussian KS gate."""
    t0 = time.perf_counter()
    N = 100_000
    tol = 4.0 / np.sqrt(N)
    worst = 0.0
    for qi, q in enumerate((0.5, 1.0, 1.3, 2.0)):
        z = sample_standard(q, Seed(101, qi), size=N)
        ts = np.linspace(0.1, 3.0, 20)
        emp = np.cos(np.outer(z, ts)).mean(axis=0)
        diff = np.abs(emp - np.exp(-ts**q)).max()
        worst = max(worst, float(diff))
        assert diff < tol
        rng = _chunk_rng(Seed(202, qi), 0)
        rep = random_rep(rng, 3, q, full_rank=True, max_condition=1e4)
        pts = sample_batch(rep, N, Seed(303, qi)).points
        g = rng.standard_normal((20, 3))
        xi = g * (rng.uniform(0.2, 1.5, 20) / scale_q(rep, g))[:, None]
        diff = np.abs(empirical_char_fn(pts, xi) - char_fn(rep, xi)).max()
        worst = max(worst, float(diff))
        assert diff < tol
    z = sample_standard(2.0, Seed(404), size=N)
    ks = stats.kstest(z, "norm", args=(0.0, np.sqrt(2.0))).statistic
    assert ks < 1.628 / np.sqrt(N)  # 1% critical value
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("sampler fidelity", f"max cf deviation {worst:.4f} < {tol:.4f}, "
            f"KS {ks * np.sqrt(N):.3f} < 1.628", elapsed, 30)


def test_moment_constants():
    """Closed forms against the quadrature oracle, plus exact anchors."""
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.8, 1.0, 1.5, 2.0):
        for p in (-0.9, -0.5, -0.1, 0.3, 0.7 * q):
            a, b = c_pq(p, q), c_pq_oracle(p, q)
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            assert rel <= 1e-6
    anchors = [
        (1.0, 2.0, 2.0 / np.sqrt(np.pi)),
        (-0.5, 1.0, np.sqrt(2.0)),
        (-0.5, 2.0, gamma(0.25) / np.sqrt(2.0 * np.pi)),
    ]
    for p, q, target in anchors:
        assert abs(c_pq(p, q) - target) <= 1e-6 * target
        assert abs(c_pq_oracle(p, q) - target) <= 1e-6 * target
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("moment constants", f"20-point grid, worst rel diff {worst:.2e}; "
            "3 closed-form anchors reproduced", elapsed, 10)


def test_exact_decoupling_bounds():
    """Exact finite-sum comparisons: 200 direct and 50 reversed configs."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(838), 0)
    worst = np.inf
    for t in range(200):
        n = int(rng.integers(2, 5))
        q = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        k = int(rng.integers(1, n))
        p = float(rng.uniform(0.1, 1.0) * q)
        rep = random_rep(rng, n, q)
        gmeas = random_block_symmetric_measure(rng, n, k, p)
        rec = verify_prop1(rep, BlockSplit(k), gmeas, p, index=t)
        assert rec.passed, rec.to_json_dict()
        scale = abs(rec.lhs) + abs(rec.rhs) + abs(rec.extra["e_x_reflected"])
        worst = min(worst, rec.margin / (1e-10 * scale),
                    rec.extra["margin_pair"] / (1e-10 * scale))
    for t in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n))
        p = float(rng.choice([2.5, 4.0]))
        rep = random_rep(rng, n, 2.0)
        gmeas = random_block_symmetric_measure(rng, n, k, p)
        rec = verify_prop1(rep, BlockSplit(k), gmeas, p, index=t)
        assert rec.passed and rec.config["reversed"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("exact decoupling bounds", "200 direct + 50 reversed configs, "
            f"worst margin/tolerance {worst:.3g}", elapsed, 10)


def _mc_sweep_configs(count, seed):
    rng = _chunk_rng(Seed(seed), 0)
    families = ("max_abs", "l1", "euclidean", "lr_subspace")
    for t in range(count):
        n = int(rng.choice([2, 3]))
        q = float(rng.choice([0.7, 1.0, 1.5, 2.0]))
        k = int(rng.integers(1, n))
        family = families[t % 4]
        rep = random_rep(rng, n, q, full_rank=True, max_condition=1e4)
        if family == "max_abs":
            p = float(rng.uniform(-n + 0.08, -n + 0.92))
        else:
            p = float(rng.uniform(-n + 0.08, -0.08))
        yield t, n, q, k, family, p, rep


def test_mc_decoupling_bounds():
    """Monte Carlo functional comparisons over 50 random configs at N=1e6."""
    t0 = time.perf_counter()
    N = 1_000_000
    worst = np.inf
    n_mom = 0
    for t, n, q, k, family, p, rep in _mc_sweep_configs(50, seed=2026):
        if family == "max_abs":
            rec = verify_cor3(rep, BlockSplit(k), p, N, Seed(2026, t))
        else:
            if family == "l1":
                f = lp_norm_power(n, 1.0, p)
            elif family == "euclidean":
                f = euclidean_power(n, p)
            else:
                rng2 = _chunk_rng(Seed(777), t)
                rng2.uniform()  # the generator's exponent draw; p replaces it
                f = HomogeneousFn(base=_random_lr_subspace(rng2, n, k), p=p)
            rec = verify_thm1(rep, BlockSplit(k), f, N, Seed(2026, t))
        assert rec.passed, rec.to_json_dict()
        if rec.tolerance > 0:
            worst = min(worst, rec.margin / rec.tolerance)
        n_mom += rec.extra["estimator"] == "median-of-means"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("MC decoupling bounds", f"50 configs at N=1e6, {n_mom} median-of-means, "
            f"worst margin/(3 stderr) {worst:.3f}", elapsed, 600)


def test_oracle_crosscheck():
    """Deterministic 2-D oracle margins and value agreement with plain MC."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(2026), 1)
    worst_rel = 0.0
    for t in range(10):
        q = float(rng.choice([1.0, 1.5, 2.0]))
        family = ("l1", "euclidean")[t % 2]
        rep = random_rep(rng, 2, q, full_rank=True, max_condition=1e4)
        p = float(rng.uniform(-0.95, -0.15))
        f = lp_norm_power(2, 1.0, p) if family == "l1" else euclidean_power(2, p)
        rep_y = decouple(rep, BlockSplit(1))
        ox = oracle_expectation(f, density_2d(rep))
        oy = oracle_expectation(f, density_2d(rep_y))
        margin = ox.value - oy.value
        bound = ox.error_bound + oy.error_bound
        assert margin >= -bound
        ex = mc_expectation(f, rep, 1_000_000, Seed(909, 2 * t))
        ey = mc_expectation(f, rep_y, 1_000_000, Seed(909, 2 * t + 1))
        for oval, est in ((ox, ex), (oy, ey)):
            diff = abs(oval.value - est.value)
            assert diff <= max(3.0 * est.stderr, 1e-2 * abs(oval.value))
            worst_rel = max(worst_rel, diff / abs(oval.value))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("oracle cross-check", "10 configs: margins >= -bound, "
            f"worst |oracle-MC|/|oracle| {worst_rel:.2e}", elapsed, 300)


def test_exact_decoupling_margins_2d():
    """Exact n = 2 decoupling margins by the exact rules, with no sampling:
    E f(X) - E f(Y) >= -(bound_X + bound_Y) for 40 random laws, every family
    in both exponent regimes at every q."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(2027), 0)
    worst = np.inf
    for t in range(40):
        q = (0.5, 0.7, 1.0, 1.5, 2.0)[t % 5]
        family = ("max_abs", "l1", "euclidean")[t % 3]
        p = float(rng.uniform(-1.9, -1.1) if t // 3 % 2 else rng.uniform(-0.9, -0.1))
        rep = random_rep(rng, 2, q, full_rank=True, max_condition=1e4)
        f = {"max_abs": max_abs_power(2, p),
             "l1": lp_norm_power(2, 1.0, p),
             "euclidean": euclidean_power(2, p)}[family]
        ox = _exact_expectation(f, rep)
        oy = _exact_expectation(f, decouple(rep, BlockSplit(1)))
        bound = ox.error_bound + oy.error_bound
        assert ox.value - oy.value >= -bound, (t, q, family, p, ox, oy)
        worst = min(worst, (ox.value - oy.value) / ox.value)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("exact 2-D decoupling margins", f"40 laws, min margin/E f(X) {worst:.2e}",
            elapsed, 30)


def test_pd_family_consistency():
    """Every norm power in the guaranteed window scans consistent-with-pd,
    and the action matches the radial closed form for the Euclidean norm."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(515), 0)
    for t in range(20):
        n = 2 + (t % 2)
        p = float(rng.uniform(-n + 0.08, -n + 0.92))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            f = max_abs_power(n, p)
        elif kind == 1:
            f = lp_norm_power(n, 1.0, p)
        elif kind == 2:
            w = np.exp(rng.uniform(-1.0, 1.0, n))
            f = euclidean_power(n, p, weights=w)
        else:
            r = float(rng.uniform(0.8, 2.0))
            rows = [np.eye(n)[i] for i in range(n)]
            for _ in range(int(rng.integers(1, 4))):
                rows.append(rng.standard_normal(n))
            f = HomogeneousFn(base=LrMatrixBase(matrix=np.vstack(rows), r=r), p=p)
        report = pd_check(f)
        assert report.verdict == "consistent-with-pd", report.to_json_dict()
    worst = 0.0
    for n, p, sigma, radius in ((2, -1.5, 1.0, 0.0), (2, -0.7, 0.5, 2.0),
                                (3, -2.5, 1.0, 0.0), (3, -1.2, 2.0, 1.5)):
        center = np.zeros(n)
        center[0] = radius
        phi = TestFunction("gaussian", center, sigma)
        act = pd_action(euclidean_power(n, p), phi)
        ref = euclidean_reference_action(n, p, phi)
        assert abs(act.value - ref) <= max(act.error_bound, 1e-8 * abs(ref))
        worst = max(worst, abs(act.value - ref))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report("positive-definiteness scans", "20 window norm-powers consistent; "
            f"radial closed-form deviation {worst:.2e}", elapsed, 300)


def test_subordination_identity():
    """Quadrature reconstruction of norm powers, 1e-8 relative on 100 points."""
    t0 = time.perf_counter()
    rng = _chunk_rng(Seed(616), 0)
    worst = 0.0
    for t in range(10):
        n = int(rng.integers(2, 5))
        r = (0.5, 1.0, 1.5, 2.0)[t % 4]
        m = int(rng.integers(n, n + 3))
        mat = rng.standard_normal((m, n))
        while np.linalg.matrix_rank(mat) < n:
            mat = rng.standard_normal((m, n))
        p = float(rng.uniform(-n + 0.1, -0.1))
        f = HomogeneousFn(base=LrMatrixBase(matrix=mat, r=r), p=p)
        for _ in range(100):
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            direct = f(x)
            recon = subordination_norm_power(f, x)
            rel = abs(recon - direct) / abs(direct)
            worst = max(worst, rel)
            assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("subordination identity", f"10 norms x 100 points, worst rel {worst:.2e}",
            elapsed, 30)
