"""What the benchmark harness under ``bench/`` takes from the package.

``bench/workloads.py`` and ``bench/probes.py`` import public and private
names of ``stablecomp``; a change that removes one fails here rather than
only when the benchmark runs.  ``workloads._family`` decides which op slot
a drawn descriptor fills, and the seed screens loop until the slot's family
is drawn, so a descriptor it misclassifies would hang the benchmark.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from stablecomp import (ActionResult, ExperimentConfig, HomogeneousFn, LrMatrixBase,
                        SpectralRep, euclidean_power, evaluate_many, lp_norm_power,
                        max_abs_power, oracle2d, verify)
from stablecomp.verify import _random_lr_subspace, _random_thm1_fn, _trial_rng

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        return (importlib.import_module("workloads"),
                importlib.import_module("probes"))
    finally:
        sys.path.remove(str(BENCH))


def test_family_classification(bench):
    workloads, _ = bench
    rng = np.random.default_rng(41)
    cases = [
        (euclidean_power(3, -1.5, weights=[1.0, 2.0, 0.5]), "euclidean"),
        (lp_norm_power(3, 1.0, -1.5), "l1"),
        (max_abs_power(3, -2.5), "max_abs"),
        (HomogeneousFn(base=_random_lr_subspace(rng, 3, 1), p=-1.5),
         "lr_subspace"),
    ]
    for f, family in cases:
        assert workloads._family(f) == family


def test_every_slot_family_is_drawn(bench):
    workloads, _ = bench
    rng = np.random.default_rng(42)
    drawn = {workloads._family(_random_thm1_fn(rng, 3, 1)) for _ in range(64)}
    assert drawn == {"euclidean", "l1", "max_abs", "lr_subspace"}


def test_probe_levy_base(bench):
    _, probes = bench
    rng = np.random.Generator(np.random.PCG64(13))
    xis = np.vstack([np.eye(3), rng.standard_normal((4, 3))])
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)
    weights = rng.exponential(1.0, 7) + 0.1
    measure = probes.LevyMeasure(p=1.0, weights=weights, xis=xis)
    f = probes.HomogeneousFn(base=probes.LevyBase(measure=measure), p=-1.5)
    assert isinstance(f.base, LrMatrixBase)
    pts = rng.standard_normal((64, 3))
    direct = (np.abs(pts @ xis.T) @ weights) ** -1.5
    np.testing.assert_allclose(evaluate_many(f, pts), direct, rtol=1e-14)


def test_oracle_draw_matches_the_trial(bench, monkeypatch):
    """``workloads._oracle_draw`` replays the draws of ``verify._oracle_trial``
    to screen seeds for the oracle slots; a changed draw order would
    otherwise surface only as a stratum mismatch of a benchmark run."""
    workloads, _ = bench
    reps = []
    draw_rep = verify.random_rep

    def spy(*args, **kwargs):
        reps.append(draw_rep(*args, **kwargs))
        return reps[-1]

    monkeypatch.setattr(verify, "random_rep", spy)
    # the quadrature draws nothing; a stub keeps the test fast
    monkeypatch.setattr(oracle2d, "_exact_expectation",
                        lambda f, rep: ActionResult(1.0, 0.0))
    config = ExperimentConfig(mode="oracle-crosscheck", trials=1, N=64,
                              n_values=(2,), q_values=workloads.ORACLE_Q)
    for seed in range(50):
        reps.clear()
        record = verify._oracle_trial(config, 0, _trial_rng(seed, 0))
        replay = workloads._oracle_draw(seed)
        assert next(replay) == record.config["q"]
        assert next(replay) == (reps[0].m, record.config["family"], record.config["p"])


def test_oracle_probe_call(bench):
    """``probes.oracle2d_probes`` passes a ``DensityField`` to
    ``oracle_expectation``; the same call on a smaller grid."""
    _, probes = bench
    rep = SpectralRep(n=2, q=1.5, weights=[1.0, 0.6, 0.8],
                      atoms=[[1.0, 0.2], [-0.3, 1.0], [0.7, 0.7]])
    got = probes.oracle_expectation(euclidean_power(2, -0.5), probes.density_2d(rep, M=256))
    assert isinstance(got, ActionResult)
    assert 0.0 < got.error_bound <= 1e-3 * got.value
