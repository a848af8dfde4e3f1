import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablecomp
from stablecomp import Seed, SpectralRep, cli, fn_to_json, max_abs_power, sample_batch
from stablecomp.sampling import CHUNK
from stablecomp.cli import main


@pytest.fixture
def rep_file(tmp_path):
    rep = SpectralRep.from_atoms(1.5, [(1.0, (1.0, 0.3)), (0.5, (-0.2, 1.0))])
    path = tmp_path / "rep.json"
    path.write_text(rep.to_json())
    return path


def test_sample_csv(tmp_path, rep_file):
    out = tmp_path / "draws.csv"
    rc = main(["sample", "--rep", str(rep_file), "-N", "200", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (200, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_sample_csv_reloads_exactly(tmp_path, rep_file, workers):
    out = tmp_path / "draws.csv"
    N = CHUNK + 3
    rc = main(["sample", "--rep", str(rep_file), "-N", str(N), "--seed", "8",
               "--stream", "1", "--workers", str(workers), "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    ref = sample_batch(SpectralRep.from_json(rep_file.read_text()), N, Seed(8, 1)).points
    assert data.shape == ref.shape and np.array_equal(data, ref)


def test_sample_binary_sidecar(tmp_path, rep_file):
    out = tmp_path / "draws.bin"
    rc = main(["sample", "--rep", str(rep_file), "-N", "64", "--seed", "2",
               "--out", str(out), "--format", "bin"])
    assert rc == 0
    header = json.loads((tmp_path / "draws.bin.json").read_text())
    assert header["shape"] == [64, 2]


def test_cf_check(rep_file):
    assert main(["cf-check", "--rep", str(rep_file), "--reps", "3"]) == 0
    assert main(["cf-check", "--reps", "5", "--seed", "7"]) == 0


@pytest.mark.parametrize("argv,message", [
    (["--reps", "0"], "--reps must be >= 1, got 0"),
    (["--reps", "-3"], "--reps must be >= 1, got -3"),
    (["--grid", "0"], "--grid must be >= 1, got 0"),
])
def test_cf_check_counts_below_one_rejected(capsys, argv, message):
    # zero reps checked nothing yet reported a deviation of 0 and passed
    assert main(["cf-check", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_moments_with_oracle(capsys):
    rc = main(["moments", "--p", "-0.5", "--q", "1.0", "--oracle", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c_pq"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert out["rel_diff"] <= 1e-6


def test_moments_usage_error():
    # nonexistent moment is a configuration error
    assert main(["moments", "--p", "1.5", "--q", "1.0"]) == 2


def test_verify_lemma1(tmp_path):
    out = tmp_path / "trials.jsonl"
    rc = main(["verify", "lemma1", "--trials", "500", "--seed", "3",
               "--q", "1.0", "--q", "2.0", "--out-jsonl", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1000
    rec = json.loads(lines[0])
    assert rec["passed"] is True and rec["mode"] == "lemma1"


def test_verify_prop1_csv(tmp_path):
    out = tmp_path / "summary.csv"
    rc = main(["verify", "prop1", "--trials", "10", "--seed", "4",
               "--out-csv", str(out)])
    assert rc == 0
    assert out.read_text().startswith("index,mode,margin")


def test_sample_floor_only_where_samples_are_drawn(tmp_path, capsys):
    # prop1 and lemma1 never read N: an N below the 64-sample median-of-means
    # floor changes no byte of their output
    outs = []
    for extra in ([], ["-N", "10"]):
        out = tmp_path / f"prop1-{len(extra)}.jsonl"
        assert main(["verify", "prop1", "--trials", "3", "--seed", "1", *extra,
                     "--out-jsonl", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert main(["verify", "lemma1", "--trials", "3", "-N", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "thm1", "--trials", "1", "-N", "10"]) == 2
    assert "N=10 too small for the median-of-means estimator" in capsys.readouterr().err


def test_verify_config_file_with_flag_override(tmp_path):
    config = {"trials": 3, "seed": 5, "q_values": [1.0], "n_values": [2]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    rc = main(["verify", "prop1", "--config", str(cfg), "--trials", "7",
               "--out-jsonl", str(tmp_path / "t.jsonl")])
    assert rc == 0
    lines = (tmp_path / "t.jsonl").read_text().strip().splitlines()
    assert len(lines) == 7  # flag overrode the file value


def test_verify_invalid_config():
    assert main(["verify", "cor3", "--trials", "1", "--p", "-0.5"]) == 2


@pytest.mark.parametrize("content, message", [('{"trails": 3}', "['trails']"),
                                              ('[1, 2]', "JSON object"),
                                              ('"prop1"', "JSON object"),
                                              ('{"trials": "3"}', "'trials'"),
                                              ('{"q_values": 1.5}', "'q_values'"),
                                              ('{"q_values": ["a"]}', "'q_values'")])
def test_verify_bad_config_file(tmp_path, capsys, content, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(content)
    assert main(["verify", "prop1", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_p_rejected_where_exponents_are_drawn(tmp_path, capsys):
    assert main(["verify", "lemma1", "--trials", "3", "--p", "7"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--trials", "1", "--p", "5"])
    assert exc.value.code == 2
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"trials": 1, "p_value": -0.5}))
    assert main(["oracle", "--config", str(cfg)]) == 2
    assert "p_value" in capsys.readouterr().err


def test_pd_check_builtin(capsys):
    rc = main(["pd-check", "--builtin", "max-abs", "2", "-1.5", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "consistent-with-pd"


def test_pd_check_unknown_builtin(capsys):
    assert main(["pd-check", "--builtin", "foo", "2", "-1.5"]) == 2
    assert "max-abs, euclidean, l1" in capsys.readouterr().err


def test_pd_check_descriptor_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(fn_to_json(max_abs_power(2, -1.8)))
    assert main(["pd-check", "--fn", str(path)]) == 0


def test_oracle_mode(tmp_path):
    rc = main(["oracle", "--trials", "1", "-N", "100000", "--seed", "1",
               "--q", "1.5", "--out-csv", str(tmp_path / "o.csv")])
    assert rc == 0


def test_oracle_heavy_tail_passes(tmp_path):
    # the density grid reported E f(X) = 0.01405 +- 0.0023 here, against the
    # exact 0.0102327, and failed the trial
    out = tmp_path / "o.jsonl"
    assert main(["oracle", "--trials", "1", "-N", "100000", "--q", "0.5", "--seed", "0",
                 "--out-jsonl", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["lhs"] == pytest.approx(0.0102327, rel=1e-5)


def test_oracle_median_of_means_disagreement(tmp_path):
    # trial 3 (q = 1, max-abs, p = -1.858) fails on the Monte Carlo side:
    # median-of-means reads E f(X) about 0.12 against the exact 0.3364; the
    # exact margin itself holds
    out = tmp_path / "o.jsonl"
    assert main(["oracle", "--trials", "6", "-N", "20000", "--q", "1", "--q", "1.5",
                 "--q", "2", "--seed", "5", "--out-jsonl", str(out)]) == 1
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    failed = [r for r in recs if not r["passed"]]
    assert [r["index"] for r in failed] == [3]
    rec = failed[0]
    assert rec["extra"]["estimator"] == "median-of-means"
    assert rec["margin"] >= -rec["tolerance"]
    assert rec["lhs"] == pytest.approx(0.3364, rel=1e-3)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense-mode"])
    assert exc.value.code == 2


def test_reused_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    """One process runs a pd-check, a lemma1 run, an oracle run and a usage
    error on the parser built once; each gives the exit code and output of a
    run on a freshly built parser (the verify summary's runtime aside)."""
    commands = [["pd-check", "--builtin", "max-abs", "2", "-1.5", "--json"],
                ["verify", "lemma1", "--trials", "3", "--seed", "3"],
                ["oracle", "--trials", "1", "-N", "100000", "--seed", "1", "--q", "1.5",
                 "--out-jsonl", str(tmp_path / "o.jsonl")],
                ["verify", "nonsense-mode"]]

    def run_all():
        results = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, re.sub(r"runtime=\S+", "runtime=", out), err))
        return results

    cli._build_parser.cache_clear()
    reused = run_all()
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert run_all() == reused
    assert [code for code, _, _ in reused] == [0, 0, 0, 2]


@pytest.mark.parametrize("argv, value", [
    (["pd-check", "--builtin", "max-abs", "2.5", "-1.5", "--json"], "2.5"),
    (["sample", "--random-rep", "2.7", "1.5", "--out", "x.csv"], "2.7"),
    (["sample", "--random-rep", "0", "1.5", "--out", "x.csv"], "0.0")])
def test_bad_dimension_rejected(tmp_path, monkeypatch, capsys, argv, value):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"must be a positive integer, got {value}" in captured.err
    assert not (tmp_path / "x.csv").exists()


def test_config_integral_float_fields(tmp_path, capsys):
    outs = []
    for spelling, flags in (({"N": 1e4, "seed": 2.0}, []), ({}, ["-N", "10000", "--seed", "2"])):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"trials": 2, "n_values": [2], **spelling}))
        out = tmp_path / f"t{len(outs)}.jsonl"
        assert main(["verify", "cor3", "--config", str(cfg), *flags,
                     "--out-jsonl", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0].splitlines()[0])["config"]["N"] == 10000
    cfg.write_text(json.dumps({"trials": 2, "N": 100.5}))
    capsys.readouterr()
    assert main(["verify", "cor3", "--config", str(cfg)]) == 2
    assert "'N'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample", "--random-rep", "2", "1.5", "-N", "100", "--workers", "-2", "--out", "x.csv"],
    ["sample", "--random-rep", "2", "1.5", "-N", "100", "--workers", "0", "--out", "x.csv"],
    ["verify", "cor3", "--trials", "1", "-N", "1000", "--workers", "0"]])
def test_workers_below_one_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_environment_workers_below_one_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("STABLECOMP_WORKERS", "-3")
    assert main(["sample", "--random-rep", "2", "1.5", "-N", "100", "--out", "x.csv"]) == 2
    assert "STABLECOMP_WORKERS must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("mode", ["lemma1", "thm1", "prop1"])
@pytest.mark.parametrize("key", ["n_values", "q_values"])
def test_config_file_empty_values_rejected(tmp_path, capsys, mode, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"trials": 1, "N": 1000, key: []}))
    assert main(["verify", mode, "--config", str(cfg)]) == 2
    assert f"{key!r} must not be empty" in capsys.readouterr().err


def test_config_file_workers_below_one_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"trials": 1, "N": 1000, "workers": 0}))
    assert main(["verify", "thm1", "--config", str(cfg)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def test_moments_gamma_overflow_exits_3(capsys):
    # c(-0.9, 0.005) needs Gamma(180), past the largest float: no inf is printed
    assert main(["moments", "--p", "-0.9", "--q", "0.005"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: Gamma(180.0)" in err
    # Gamma(170.8) fits, and c(-0.9, 0.00527) is past the largest float
    assert main(["moments", "--p", "-0.9", "--q", "0.00527", "--oracle"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "numerical failure: E|Z|^p for p=-0.9, q=0.00527 does not fit a float" in err


def test_moments_oracle_never_prints_a_wrong_number(capsys):
    # the oracle agrees where its panel rule converges; where it does not it
    # raises (tests/test_quadrature.py), and the command exits 3
    for p, q in (("-0.9", "0.03"), ("0.05", "0.1")):
        assert main(["moments", "--p", p, "--q", q, "--oracle", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["rel_diff"] <= 1e-11


@pytest.mark.parametrize("q", [["1.5"], ["2", "--q", "1.5"]])
def test_prop1_p_equal_q_below_two_rejected(capsys, q):
    # E||X||^q is infinite for q < 2: a configuration error before any trial
    assert main(["verify", "prop1", "--trials", "3", "--p", "1.5", "--q", *q]) == 2
    err = capsys.readouterr().err
    assert "Prop 1 needs 0 < p < q" in err
    assert "infinite for q < 2" in err and "n=1" not in err


def test_sampling_commands_leave_scipy_unimported(tmp_path):
    # sampling, the Monte Carlo checks, the moment constants and their
    # quadrature oracle, the exact prop1 sums, the 2-D oracle (on a density
    # grid too), pd-check and the subordination identity never call scipy:
    # their Gamma values come from the standard library, Kummer's function,
    # the Bessel sum and exprel of pd-check from numpy, and every integral
    # from the panel rules of stablecomp._quadrature
    code = f"""if True:
        import json, sys
        from stablecomp import (SpectralRep, density_2d, euclidean_power, oracle_expectation,
                                subordination_norm_power)
        from stablecomp.cli import main
        d = {str(tmp_path)!r}
        commands = [
            ["sample", "--random-rep", "3", "1.5", "-N", "1000", "--out", d + "/x.csv"],
            ["sample", "--random-rep", "2", "0.7", "-N", "1000", "--format", "bin",
             "--out", d + "/x.bin"],
            ["verify", "cor3", "--trials", "2", "-N", "2000", "--seed", "1"],
            ["verify", "thm1", "--trials", "2", "-N", "2000", "--seed", "1"],
            ["verify", "lemma1", "--trials", "200", "--seed", "1"],
            ["cf-check", "--reps", "3"],
            ["moments", "--p", "-0.5", "--q", "1"],
            ["moments", "--p", "-0.5", "--q", "1", "--oracle"],
            ["verify", "prop1", "--trials", "3", "--seed", "1"],
            ["oracle", "--trials", "1", "-N", "2000"],
            ["pd-check", "--builtin", "max-abs", "2", "-1.5"],
            ["pd-check", "--builtin", "max-abs", "2", "-1.5", "--mode", "away-from-origin"],
            ["pd-check", "--builtin", "l1", "3", "-1.2"],
            ["pd-check", "--builtin", "l1", "3", "-1.2", "--mode", "away-from-origin"],
        ]
        codes = [main(argv) for argv in commands]
        rep = SpectralRep.from_atoms(2.0, [(1.0, (1.0, 0.0)), (1.0, (0.0, 1.0))])
        oracle_expectation(euclidean_power(2, -1.0), density_2d(rep, M=256))
        subordination_norm_power(euclidean_power(2, -1.0), [0.3, -1.2])
        print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
    """
    src = str(Path(stablecomp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert codes == [0] * 14
    assert loaded == []
