"""The public names of the package, pinned so that adding or removing one is
a deliberate change."""

import stablecomp

PUBLIC = [
    "ActionResult", "BlockSplit", "DensityField", "DiagEuclideanBase",
    "ExperimentConfig", "HomogeneousFn", "LevyBase", "LevyMeasure",
    "LrMatrixBase", "MCEstimate", "MaxAbsBase", "MomentExistenceError",
    "PDReport", "QuadratureFailure", "SampleBatch", "Seed", "SpectralRep",
    "TestFunction", "TrialRecord", "VerificationReport", "bump_family", "c_pq",
    "c_pq_oracle", "char_fn", "check_block_symmetry", "check_homogeneity",
    "decouple", "default_workers", "density_2d", "empirical_char_fn",
    "euclidean_power", "euclidean_reference_action", "evaluate_many",
    "fn_from_json", "fn_to_json", "gaussian_family", "levy_expectation",
    "lp_norm_power", "marginal_block", "max_abs_power", "mc_expectation",
    "oracle_expectation", "pd_action", "pd_certificate", "pd_check",
    "radial_fourier_weight", "random_block_symmetric_measure", "random_rep",
    "reflect", "rep_hash", "run_experiment", "sample_batch", "sample_standard",
    "scale_q", "subordination_norm_power", "verify_cor3", "verify_prop1",
    "verify_thm1",
]


def test_public_names():
    assert len(PUBLIC) == 58
    assert sorted(stablecomp.__all__) == PUBLIC
    assert all(hasattr(stablecomp, name) for name in PUBLIC)
