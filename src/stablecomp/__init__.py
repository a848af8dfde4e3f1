"""stablecomp: symmetric q-stable vectors from finite spectral data and
numerical verification of block-decoupling expectation inequalities.

The package builds stable laws from atomic spectral representations,
samples them exactly, evaluates expectations of homogeneous functionals
both in closed finite-sum form and by Monte Carlo, checks positive
definiteness of the functionals numerically, and cross-validates
everything against a deterministic two-dimensional density oracle.
"""

from .spectral import (BlockSplit, SpectralRep, char_fn, decouple,
                       marginal_block, reflect, rep_hash, scale_q)
from .sampling import (SampleBatch, Seed, default_workers, empirical_char_fn,
                       sample_batch, sample_standard, sample_vector)
from .moments import (MCEstimate, MomentExistenceError, QuadratureFailure,
                      c_pq, c_pq_oracle, levy_expectation, mc_expectation)
from .homogeneous import (DiagEuclideanBase, HomogeneousFn, LevyBase, LevyMeasure,
                          LrMatrixBase, MaxAbsBase, check_block_symmetry,
                          check_homogeneity, euclidean_power, evaluate,
                          evaluate_many, fn_from_json, fn_to_json,
                          lp_norm_power, max_abs_power)
from .fourier_pd import (ActionResult, PDReport, TestFunction, bump_family,
                         euclidean_reference_action, gaussian_family,
                         pd_action, pd_check, radial_fourier_weight,
                         subordination_norm_power)
from .oracle2d import DensityField, density_2d, oracle_expectation
from .verify import (ExperimentConfig, TrialRecord, VerificationReport,
                     pd_certificate, random_block_symmetric_measure,
                     random_rep, run_experiment, verify_cor3, verify_prop1,
                     verify_thm1)

__version__ = "0.1.0"

__all__ = [
    "ActionResult", "BlockSplit", "DensityField", "DiagEuclideanBase",
    "ExperimentConfig", "HomogeneousFn", "LevyBase",
    "LevyMeasure", "LrMatrixBase", "MCEstimate", "MaxAbsBase",
    "MomentExistenceError", "PDReport", "QuadratureFailure",
    "SampleBatch", "Seed", "SpectralRep", "TestFunction", "TrialRecord",
    "VerificationReport", "bump_family", "c_pq", "c_pq_oracle", "char_fn",
    "check_block_symmetry", "check_homogeneity", "decouple",
    "default_workers", "density_2d", "empirical_char_fn", "euclidean_power",
    "euclidean_reference_action", "evaluate", "evaluate_many", "fn_from_json",
    "fn_to_json", "gaussian_family", "levy_expectation", "lp_norm_power",
    "marginal_block", "max_abs_power", "mc_expectation", "oracle_expectation",
    "pd_action", "pd_certificate", "pd_check", "radial_fourier_weight",
    "random_block_symmetric_measure", "random_rep", "reflect", "rep_hash",
    "run_experiment", "sample_batch", "sample_standard", "sample_vector",
    "scale_q", "subordination_norm_power", "verify_cor3", "verify_prop1",
    "verify_thm1",
]
