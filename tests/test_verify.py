import json
import time

import numpy as np
import pytest

from stablecomp import (BlockSplit, ExperimentConfig, HomogeneousFn, LevyBase,
                        LevyMeasure, Seed, SpectralRep, lp_norm_power, max_abs_power,
                        pd_certificate, random_block_symmetric_measure,
                        random_rep, run_experiment, verify_cor3, verify_prop1,
                        verify_thm1)
from stablecomp import verify
from stablecomp.verify import (GENERATOR_NOTE, TrialRecord, _Lemma1Batch, _trial_rng,
                               block_symmetry_witness, lemma1_margin_batch)


def margins(x, y, q, p_list=(), reversed_p_list=()):
    """lemma1_margin_batch on the single row pair (x, y)."""
    return lemma1_margin_batch(np.array([x], dtype=float), np.array([y], dtype=float),
                               q, p_list, reversed_p_list)


def _loop_witness(gamma, k):
    """block_symmetry_witness as a loop over entries: the first entry with
    no partner among the flipped entries, up to sign, within 1e-12."""
    flipped = gamma.xis.copy()
    flipped[:, k:] *= -1.0
    for i in range(gamma.m):
        d_xi = np.minimum(np.max(np.abs(gamma.xis - flipped[i]), axis=1),
                          np.max(np.abs(gamma.xis + flipped[i]), axis=1))
        d_w = np.abs(gamma.weights - gamma.weights[i])
        if not np.any((d_xi <= 1e-12) & (d_w <= 1e-12 * max(1.0, gamma.weights[i]))):
            return i
    return None


class TestElementaryMargins:
    def test_zero_y_is_exact_zero(self):
        out = margins([1.3, -0.4, 2.0], [0.0, 0.0, 0.0], 1.5)
        assert out["parallelogram"][0] == 0.0
        assert out["exp"][0] == 0.0

    def test_q2_parallelogram_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = margins(rng.standard_normal(6), rng.standard_normal(6), 2.0)
            assert abs(out["parallelogram"][0]) <= 1e-12 * out["parallelogram_scale"][0]

    def test_l1_hand_values(self):
        assert margins([1, 0], [0, 1], 1.0)["parallelogram"][0] == 0.0
        assert margins([1, 1], [1, -1], 1.0)["parallelogram"][0] == 4.0

    def test_exp_equal_vectors(self):
        x = [0.5, 0.5]  # ||x||_1 = 1
        m = margins(x, x, 1.0)["exp"][0]
        assert m == pytest.approx(1.0 - np.exp(-2.0), rel=1e-12)

    def test_power_reversed_equality_case(self):
        out = margins([1.0, 0.0], [0.0, 1.0], 2.0, reversed_p_list=(4.0,))
        assert abs(out["reversed"][4.0][0]) <= 1e-12 * out["reversed_scale"][4.0][0]

    def test_power_regime_validation(self):
        x = [1.0, 0.0]
        with pytest.raises(ValueError):
            margins(x, x, 1.5, p_list=(2.0,))  # p > q
        with pytest.raises(ValueError):
            margins([1.0], [1.0], 2.0, p_list=(-1.0,))
        with pytest.raises(ValueError):
            margins(x, x, 1.5, reversed_p_list=(3.0,))  # reversed needs q = 2
        with pytest.raises(ValueError):
            margins(x, x, 2.0, reversed_p_list=(2.0,))  # and p > 2
        with pytest.raises(ValueError):
            margins(x, x, 2.5)  # Lemma 1 needs q <= 2

    def test_mismatch(self):
        # numpy would broadcast a (K, 1) array against a (K, d) one
        with pytest.raises(ValueError):
            lemma1_margin_batch(np.ones((3, 1)), np.ones((3, 2)), 1.0, ())
        with pytest.raises(ValueError):
            margins([1.0], [1.0, 2.0], 1.0)

    def test_random_sweep(self):
        rng = np.random.default_rng(1)
        for q in (0.5, 1.0, 1.7, 2.0):
            X = rng.standard_cauchy((20_000, 8))
            Y = rng.standard_cauchy((20_000, 8))
            out = lemma1_margin_batch(X, Y, q, (q / 4, q / 2, q),
                                      (2.5, 4.0) if q == 2.0 else ())
            assert out["exp"].min() >= -1e-12
            assert (out["parallelogram"]
                    >= -1e-10 * out["parallelogram_scale"]).all()
            for p, m in out["power"].items():
                assert (m >= -1e-10 * out["power_scale"][p]).all()
            for p, m in out["reversed"].items():
                assert (m >= -1e-10 * out["reversed_scale"][p]).all()

    def test_power_at_q_is_the_parallelogram(self):
        """At p = q the power form's exponent is 1, so its formula gives the
        parallelogram column bit for bit, and the batch stores that column."""
        rng = np.random.default_rng(4)
        for q in (0.5, 0.7, 1.0, 1.5, 2.0):
            X = rng.standard_cauchy((4096, 9)) * rng.uniform(0.2, 2.0)
            Y = rng.standard_cauchy((4096, 9)) * rng.uniform(0.2, 2.0)
            out = lemma1_margin_batch(X, Y, q, (q / 2, q))
            assert out["power"][q] is out["parallelogram"]
            assert out["power_scale"][q] is out["parallelogram_scale"]
            sx, sy = (np.abs(X) ** q).sum(axis=1), (np.abs(Y) ** q).sum(axis=1)
            sp, sm = (np.abs(X + Y) ** q).sum(axis=1), (np.abs(X - Y) ** q).sum(axis=1)
            e = q / q
            assert np.array_equal(out["power"][q], 2.0 * (sx + sy) ** e - sp**e - sm**e)
            assert np.array_equal(out["power_scale"][q], 2.0 * (sx + sy) ** e + sp**e + sm**e)


class TestProp1:
    def test_axis_measure_zero_margin(self):
        rep = SpectralRep.from_atoms(
            1.3, [(1.0, (1.0, 0.5)), (0.7, (-0.3, 1.0))])
        g = LevyMeasure(p=0.9, weights=[1.0, 2.0], xis=np.eye(2))
        rec = verify_prop1(rep, BlockSplit(1), g, 0.9)
        assert rec.margin == 0.0 and rec.extra["margin_pair"] == 0.0

    def test_hand_example(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        g = LevyMeasure(p=1.0, weights=[1.0, 1.0],
                        xis=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        rec = verify_prop1(rep, BlockSplit(1), g, 1.0)
        assert rec.lhs == pytest.approx(1.5957691216057308, rel=1e-12)
        assert rec.rhs == pytest.approx(2.2567583341910251, rel=1e-12)
        assert rec.passed and rec.margin > 0

    def test_reversed_regime(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        g = LevyMeasure(p=4.0, weights=[1.0, 1.0],
                        xis=np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
        rec = verify_prop1(rep, BlockSplit(1), g, 4.0)
        assert rec.config["reversed"] and rec.passed
        assert rec.lhs >= rec.rhs  # direction flips

    def test_p_equal_q_below_two_rejected(self):
        # E||X||^q is infinite for q < 2: rejected up front, not inside c_pq
        rep = SpectralRep.from_atoms(1.3, [(1.0, (1.0, 0.5)), (0.7, (-0.3, 1.0))])
        g = LevyMeasure(p=1.3, weights=[1.0, 2.0], xis=np.eye(2))
        with pytest.raises(ValueError, match=r"0 < p < q.*infinite for q < 2"):
            verify_prop1(rep, BlockSplit(1), g, 1.3)

    def test_asymmetric_measure_rejected(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        g = LevyMeasure(p=1.0, weights=[1.0],
                        xis=np.array([[1.0, 1.0]]) / np.sqrt(2.0))
        with pytest.raises(ValueError, match="sign flip"):
            verify_prop1(rep, BlockSplit(1), g, 1.0)

    def test_witness_matches_entry_loop(self):
        """The broadcast witness search returns the first unmatched index of
        the per-entry loop it replaced: on block-symmetric measures, with one
        entry removed, and with one weight moved by 2e-12 (past the 1e-12
        match).  The last measure has 800 entries in R^3, so its pairs span
        more than one row block."""
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            cases.append((random_block_symmetric_measure(rng, n, k, 0.8), k))
        v = rng.standard_normal((400, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = rng.exponential(1.0, 400) + 0.1
        cases.append((LevyMeasure(p=0.8, weights=np.r_[w, w], xis=np.r_[v, v * [1, 1, -1]]), 2))
        assert 800 * 800 * 3 > verify._PAIR_BLOCK
        found = []
        for g, k in cases:
            assert block_symmetry_witness(g, k) is _loop_witness(g, k) is None
            i = int(rng.integers(0, g.m))
            keep = np.arange(g.m) != i
            w = g.weights.copy()
            w[i] += 2e-12 * max(1.0, w[i])
            for h in (LevyMeasure(p=g.p, weights=g.weights[keep], xis=g.xis[keep]),
                      LevyMeasure(p=g.p, weights=w, xis=g.xis)):
                found.append(block_symmetry_witness(h, k))
                assert found[-1] == _loop_witness(h, k)
        assert found.count(None) < len(found) / 2

    def test_witness_accepts_opposite_signs(self):
        g = LevyMeasure(p=1.0, weights=[1.0, 1.0],
                        xis=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert block_symmetry_witness(g, 1) is None

    def test_random_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            q = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            k = int(rng.integers(1, n))
            p = float(rng.uniform(0.15, 1.0) * q)
            rep = random_rep(rng, n, q)
            g = random_block_symmetric_measure(rng, n, k, p)
            rec = verify_prop1(rep, BlockSplit(k), g, p)
            assert rec.passed, rec.to_json_dict()


class TestThm1Cor3:
    def test_block_diagonal_equality(self):
        rep = SpectralRep.from_atoms(
            1.5, [(1.0, (1.0, 0.0, 0.0)), (0.5, (0.0, 1.0, 0.3)),
                  (1.2, (0.0, 0.5, -0.8))])
        f = lp_norm_power(3, 1.0, -1.2)
        rec = verify_thm1(rep, BlockSplit(1), f, 150_000, Seed(3))
        assert rec.passed
        assert abs(rec.margin) <= rec.tolerance

    def test_rank_one_max_abs_margin(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        rec = verify_cor3(rep, BlockSplit(1), -1.5, 150_000, Seed(4))
        assert rec.margin > 0 and rec.passed
        assert rec.extra["estimator"] == "median-of-means"
        assert rec.extra["certificate"] == "prop3-window"

    def test_window_boundary_rejected(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 1.0))])
        for p in (-1.0, -2.0):
            with pytest.raises(ValueError):
                verify_cor3(rep, BlockSplit(1), p, 1000, Seed(0))

    def test_asymmetric_descriptor_rejected(self):
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.2)), (1.0, (0.0, 1.0))])
        g = LevyMeasure(p=1.0, weights=[1.0, 0.3, 0.3],
                        xis=np.array([[1.0 / np.sqrt(2), 1.0 / np.sqrt(2)],
                                      [1.0, 0.0], [0.0, 1.0]]))
        f = HomogeneousFn(base=LevyBase(measure=g), p=-1.0)
        with pytest.raises(ValueError, match="witness"):
            verify_thm1(rep, BlockSplit(1), f, 10_000, Seed(5))

    def test_uncertified_flagged_not_rejected(self):
        # an r > 2 subspace norm with p outside the window has no certificate
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.2)), (1.0, (0.0, 1.0))])
        f = lp_norm_power(2, 3.0, -0.5)
        rec = verify_thm1(rep, BlockSplit(1), f, 50_000, Seed(6))
        assert "uncertified" in rec.extra["flags"]

    def test_certificates(self):
        assert pd_certificate(max_abs_power(2, -1.5)) == "prop3-window"
        assert pd_certificate(lp_norm_power(3, 1.0, -1.5)) == "subspace-Lr"
        assert pd_certificate(lp_norm_power(2, 3.0, -0.5)) is None
        assert pd_certificate(max_abs_power(3, -1.5)) is None

    def test_oracle_attachment(self):
        config = ExperimentConfig(mode="oracle-crosscheck", trials=1, N=100_000,
                                  seed=8, n_values=(2,), q_values=(1.5,))
        rec = run_experiment(config).records[0]
        assert rec.margin == rec.lhs - rec.rhs
        assert rec.margin >= -rec.tolerance
        assert abs(rec.margin - rec.extra["mc_margin"]) < 0.05


class TestRunExperiment:
    def test_lemma1_mode(self):
        config = ExperimentConfig(mode="lemma1", trials=2000, seed=5,
                                  q_values=(0.5, 1.0, 1.5, 2.0))
        report = run_experiment(config)
        assert report.failures == 0
        assert len(report.records) == 8000

    def test_cor3_config_rejected_outside_window(self):
        config = ExperimentConfig(mode="cor3", trials=1, p_value=-0.5,
                                  n_values=(2,))
        with pytest.raises(ValueError):
            run_experiment(config)

    @pytest.mark.parametrize("key", ["n_values", "q_values"])
    def test_empty_values_rejected(self, key):
        with pytest.raises(ValueError, match=f"'{key}' must not be empty"):
            run_experiment(ExperimentConfig(mode="lemma1", trials=1, **{key: ()}))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(mode="mystery"))

    def test_jsonl_determinism(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.jsonl"
            config = ExperimentConfig(mode="prop1", trials=20, seed=9,
                                      out_jsonl=str(out))
            run_experiment(config)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "summary.csv"
        config = ExperimentConfig(mode="prop1", trials=5, seed=11,
                                  out_csv=str(out))
        report = run_experiment(config)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,mode,margin,tolerance,passed"
        assert len(lines) == 6
        assert report.passed

    @pytest.mark.parametrize("mode", ["thm1", "cor3", "oracle-crosscheck"])
    def test_jsonl_bytes_at_any_worker_count(self, tmp_path, mode):
        # two chunks per side; the sides share the pool's queue, and the
        # oracle's exact rules run on the pool beside the Monte Carlo
        texts = []
        for workers in (1, 2, 8):
            out = tmp_path / f"{workers}.jsonl"
            run_experiment(ExperimentConfig(
                mode=mode, trials=3, N=100_000, seed=12, out_jsonl=str(out),
                n_values=(2,) if mode == "oracle-crosscheck" else (2, 3),
                workers=workers))
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_oracle_trial_waits_for_its_exact_rules(self, monkeypatch):
        from stablecomp import oracle2d

        finished = []

        def slow_rule(f, rep):
            time.sleep(0.2)
            finished.append(rep)

        def failing_thm1(*args, **kwargs):
            raise ValueError("no Monte Carlo")

        monkeypatch.setattr(oracle2d, "_exact_expectation", slow_rule)
        monkeypatch.setattr(verify, "verify_thm1", failing_thm1)
        config = ExperimentConfig(mode="oracle-crosscheck", trials=1, n_values=(2,),
                                  workers=2)
        with pytest.raises(ValueError, match="no Monte Carlo"):
            verify._oracle_trial(config, 0, _trial_rng(0, 0))
        assert len(finished) == 2

    def test_config_json_round_trip(self):
        config = ExperimentConfig(mode="thm1", trials=7, N=1000, seed=3,
                                  n_values=(2,), q_values=(1.0, 2.0))
        back = ExperimentConfig.from_json_dict(
            json.loads(json.dumps(config.to_json_dict())))
        assert back == config

    def test_config_json_overrides_and_unknown_keys(self):
        config = ExperimentConfig.from_json_dict({"mode": "prop1", "trials": 3}, trials=5)
        assert config.trials == 5
        with pytest.raises(ValueError, match=r"\['bogus', 'trails'\]"):
            ExperimentConfig.from_json_dict({"mode": "prop1", "bogus": 1}, trails=3)

    def test_pd_mode(self, tmp_path):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"pd_{tag}.jsonl"
            report = run_experiment(ExperimentConfig(
                mode="pd", trials=2, seed=4, n_values=(2,), out_jsonl=str(out)))
            assert len(report.records) == 2 and report.passed
            for rec in report.records:
                assert rec.mode == "pd" and rec.passed and rec.config["n"] == 2
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("n_values", [(4,), (2, 4)])
    def test_pd_dimension_rejected_before_any_trial(self, monkeypatch, n_values):
        from stablecomp import verify

        def no_trial(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setitem(verify._TRIALS, "pd", no_trial)
        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            run_experiment(ExperimentConfig(mode="pd", trials=3, n_values=n_values))


def _json_line(rec: TrialRecord) -> str:
    return json.dumps(rec.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _csv_line(rec: TrialRecord) -> str:
    return (f"{rec.index},{rec.mode},{rec.margin!r},"
            f"{rec.tolerance!r},{int(rec.passed)}\n")


def _first_difference(got: str, want: str):
    """(line number, got line, wanted line) where two texts first differ, or
    None; keeps a failure report short for multi-megabyte outputs."""
    g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i in range(max(len(g), len(w))):
        a, b = g[i] if i < len(g) else None, w[i] if i < len(w) else None
        if a != b:
            return i, a, b
    return None


def _per_trial_records(config: ExperimentConfig) -> list:
    """Lemma-1 records built one trial at a time from the same draws: one
    TrialRecord with its own dicts per trial, numpy scalars indexed one by one."""
    records = []
    idx = 0
    for qi, q in enumerate(config.q_values):
        p_list = (q / 4.0, q / 2.0, q)
        rev_list = (2.5, 3.0, 4.0) if q == 2.0 else ()
        remaining, bi = config.trials, 0
        while remaining > 0:
            count = min(4096, remaining)
            rng = _trial_rng(config.seed, (qi + 1) * 100_000 + bi)
            dim = int(rng.integers(2, 17))
            X = rng.standard_cauchy((count, dim)) * rng.uniform(0.2, 2.0)
            Y = rng.standard_cauchy((count, dim)) * rng.uniform(0.2, 2.0)
            out = lemma1_margin_batch(X, Y, q, p_list, rev_list)
            ok = out["exp"] >= -1e-12
            ok &= out["parallelogram"] >= -1e-10 * out["parallelogram_scale"]
            for p in p_list:
                ok &= out["power"][p] >= -1e-10 * out["power_scale"][p]
            for p in rev_list:
                ok &= out["reversed"][p] >= -1e-10 * out["reversed_scale"][p]
            for j in range(count):
                records.append(TrialRecord(
                    index=idx, mode="lemma1",
                    config={"q": q, "dim": dim, "generator": GENERATOR_NOTE},
                    lhs=0.0, rhs=0.0, margin=float(out["exp"][j]), tolerance=1e-12,
                    passed=bool(ok[j]),
                    extra={"parallelogram": float(out["parallelogram"][j]),
                           "power": {str(p): float(out["power"][p][j]) for p in p_list},
                           "reversed": {str(p): float(out["reversed"][p][j])
                                        for p in rev_list}}))
                idx += 1
            remaining -= count
            bi += 1
    return records


class TestLemma1Output:
    @pytest.mark.parametrize("trials", [1, 4096, 4097])
    @pytest.mark.parametrize("q", [0.5, 0.7, 1.0, 1.5, 2.0])
    def test_jsonl_bytes_match_per_record_dumps(self, tmp_path, q, trials):
        out = tmp_path / "lemma1.jsonl"
        report = run_experiment(ExperimentConfig(
            mode="lemma1", trials=trials, seed=21, q_values=(q,), out_jsonl=str(out)))
        text = out.read_text()
        assert _first_difference(text, "".join(map(_json_line, report.records))) is None
        reference = "".join(map(_json_line, _per_trial_records(report.config)))
        assert _first_difference(text, reference) is None
        lines = text.splitlines()
        assert len(lines) == len(report.records) == trials
        for i, line in enumerate(lines):
            assert report.records[i].to_json_dict() == json.loads(line)
        if q == 2.0:
            assert set(json.loads(lines[-1])["extra"]["reversed"]) == {"2.5", "3.0", "4.0"}

    def test_report_summary_from_columns(self):
        report = run_experiment(ExperimentConfig(
            mode="lemma1", trials=4097, seed=22, q_values=(0.7, 2.0)))
        records = list(report.records)
        assert len(records) == 8194
        assert [r.index for r in records] == list(range(8194))
        assert report.min_margin == min(r.margin for r in records)
        assert report.failures == sum(not r.passed for r in records)
        assert report.records[-1] == records[-1]
        assert report.records[4095:4098] == records[4095:4098]
        with pytest.raises(IndexError):
            report.records[8194]

    def test_csv_bytes_match_per_record_route(self, tmp_path):
        out = tmp_path / "lemma1.csv"
        report = run_experiment(ExperimentConfig(
            mode="lemma1", trials=4097, seed=23, q_values=(1.0, 2.0), out_csv=str(out)))
        expected = "index,mode,margin,tolerance,passed\n" + "".join(
            _csv_line(rec) for rec in _per_trial_records(report.config))
        assert _first_difference(out.read_text(), expected) is None

    def test_non_finite_rows_read_as_json_writes_them(self):
        col = np.array([0.5, np.nan, np.inf, -np.inf, -2.5e-300, 1e300])
        batch = _Lemma1Batch(
            start=7, q=2.0, dim=3, margin=col.copy(), passed=np.isfinite(col),
            parallelogram=col[::-1].copy(),
            power={"0.5": np.roll(col, 1), "1.0": col.copy(), "2.0": np.roll(col, 2)},
            reversed={"2.5": np.roll(col, 3), "3.0": col.copy(), "4.0": col.copy()})
        records = [batch.record(j) for j in range(len(batch))]
        text = batch.jsonl()
        assert _first_difference(text, "".join(map(_json_line, records))) is None
        for token in ("NaN", "Infinity", "-Infinity"):
            assert token in text
        assert "nan" not in text and "inf" not in text.replace("Infinity", "")
        assert _first_difference(batch.csv(), "".join(map(_csv_line, records))) is None
