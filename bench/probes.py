"""Direct-call layer probes with fixed seeds.

Each probe calls one public function once to warm it, then times it
``REPEATS`` times and reports the median.  The probes do not depend on
the workload seed, so every traced run reports the same quantities.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from stablecomp.fourier_pd import TestFunction, pd_action
from stablecomp.homogeneous import (HomogeneousFn, LevyBase, LrMatrixBase,
                                    euclidean_power, evaluate_many, max_abs_power)
from stablecomp.moments import LevyMeasure
from stablecomp.oracle2d import density_2d, oracle_expectation
from stablecomp.sampling import SampleBatch, Seed, default_workers, sample_batch, sample_standard
from stablecomp.spectral import SpectralRep

REPEATS = 3
DRAWS = 2**20


def _median_time(fn, repeats: int = REPEATS) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _probe_rep() -> SpectralRep:
    rng = np.random.Generator(np.random.PCG64(20240601))
    return SpectralRep(n=3, q=1.5, weights=rng.exponential(1.0, 7) + 0.1,
                       atoms=rng.standard_normal((7, 3)))


def sampling_probes(workdir: Path) -> dict:
    out = {}
    for q in (0.7, 1.0, 1.5, 2.0):
        t = _median_time(lambda: sample_standard(q, Seed(11), size=DRAWS))
        out[f"sampling.draw_ns.q{q:g}"] = t / DRAWS * 1e9
    rep = _probe_rep()
    t1 = _median_time(lambda: sample_batch(rep, DRAWS, Seed(12), workers=1))
    out["sampling.sample_batch.ns_per_point"] = t1 / DRAWS * 1e9
    w = default_workers()
    tw = _median_time(lambda: sample_batch(rep, DRAWS, Seed(12), workers=w))
    out["sampling.scaling_eff"] = t1 / (w * tw)

    batch = sample_batch(rep, DRAWS, Seed(12), workers=1)
    small = SampleBatch(points=batch.points[: DRAWS // 16], rep_hash=batch.rep_hash,
                        seed=batch.seed)
    binp, csvp = workdir / "probe.bin", workdir / "probe.csv"
    t_bin = _median_time(lambda: batch.to_binary(binp))
    t_csv = _median_time(lambda: small.to_csv(csvp))
    t_from = _median_time(lambda: SampleBatch.from_binary(binp))
    mb = 2.0**20
    nbin = binp.stat().st_size + Path(str(binp) + ".json").stat().st_size
    ncsv = csvp.stat().st_size
    out["sampling.to_binary.mb_per_s"] = nbin / mb / t_bin
    out["sampling.to_csv.mb_per_s"] = ncsv / mb / t_csv
    out["sampling.from_binary.mb_per_s"] = nbin / mb / t_from
    out["sampling.bytes_written"] = nbin + ncsv
    return out


def homogeneous_probes() -> dict:
    rng = np.random.Generator(np.random.PCG64(13))
    pts = rng.standard_normal((2**18, 3))
    xis = np.vstack([np.eye(3), rng.standard_normal((4, 3))])
    measure = LevyMeasure(p=1.0, weights=rng.exponential(1.0, 7) + 0.1,
                          xis=xis / np.linalg.norm(xis, axis=1, keepdims=True))
    fns = {
        "max_abs": max_abs_power(3, -2.5),
        "lr_matrix": HomogeneousFn(base=LrMatrixBase(
            matrix=np.vstack([np.eye(3), rng.standard_normal((2, 3))]), r=1.5), p=-1.5),
        "diag_euclidean": euclidean_power(3, -1.5, weights=[1.0, 2.0, 0.5]),
        "levy": HomogeneousFn(base=LevyBase(measure=measure), p=-1.5),
    }
    return {f"homogeneous.evaluate_many.ns_per_point.{k}":
            _median_time(lambda f=f: evaluate_many(f, pts)) / len(pts) * 1e9
            for k, f in fns.items()}


def fourier_pd_probes() -> dict:
    cases = {
        "gaussian.n2": (max_abs_power(2, -1.5), TestFunction("gaussian", [4.0, 0.0], 0.5)),
        "gaussian.n3": (max_abs_power(3, -2.5), TestFunction("gaussian", [0.0, 4.0, 0.0], 0.5)),
        "bump.n2": (max_abs_power(2, -1.5), TestFunction("bump", [1.5, 0.0], 0.5)),
        "bump.n3": (max_abs_power(3, -2.5), TestFunction("bump", [0.0, 1.0, 0.0], 0.5)),
    }
    return {f"fourier_pd.pd_action.s_p50.{k}": _median_time(lambda f=f, phi=phi: pd_action(f, phi))
            for k, (f, phi) in cases.items()}


def oracle2d_probes() -> dict:
    rep = SpectralRep(n=2, q=1.5, weights=[1.0, 0.6, 0.8],
                      atoms=[[1.0, 0.2], [-0.3, 1.0], [0.7, 0.7]])
    t = _median_time(lambda: density_2d(rep, M=1024))
    field = density_2d(rep, M=1024)
    f = euclidean_power(2, -0.5)
    return {"oracle2d.density_2d.ns_per_cell.m1024": t / 1024**2 * 1e9,
            "oracle2d.oracle_expectation.s_p50.m1024": _median_time(
                lambda: oracle_expectation(f, field))}


def run_all(workdir: Path) -> dict:
    """Every probe; ``workdir`` receives the exported probe files."""
    out = sampling_probes(workdir)
    out.update(homogeneous_probes())
    out.update(fourier_pd_probes())
    out.update(oracle2d_probes())
    return out
