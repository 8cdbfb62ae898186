import types

import latentkrig

# Every public name the package exports. A name added to or dropped from
# latentkrig/__init__.py has to be added to or dropped from this list too.
PUBLIC_NAMES = (
    "BlockTooLarge", "DuplicateCell", "EmptyKernelWindow", "EnsembleFit",
    "FactorModelFit", "InsufficientOverlap", "InvalidCoordinate", "KernelSpec",
    "LagTooLarge", "LatentKrigError", "LocationSet", "MissingDataError",
    "NotPositiveDefinite", "NotSymmetric", "NumericalError", "ParseError",
    "Partition", "PeriodTooLarge", "RankDeficient", "RegressionFit",
    "SimConfig", "SimulationDraw", "SingularDesign", "SingularInnovation",
    "SpatioTemporalFrame", "TooFewEigenvalues", "TooFewLocations",
    "UnknownLocation", "aggregate_fit", "aggregate_over_partitions",
    "assemble_latent", "assign_blocks", "build_laplacian", "default_p_star",
    "detrend", "distance_matrix", "divide_and_conquer_fit", "estimate_d",
    "estimate_sigma_x", "fit_factors", "forecast", "forecast_ensemble",
    "gram_matrices", "impute_missing", "kernel_weights", "krige_space",
    "load_ensemble", "load_fit", "load_frame", "load_locations",
    "loading_values", "masked_pairwise", "mse_xi", "mspe_space",
    "random_partition", "recursive_toeplitz_inverse", "run_table",
    "save_betas", "save_ensemble", "save_fit", "save_frame",
    "select_bandwidth", "select_tau", "simulate", "simulate_factors",
    "smooth_beta", "subspace_distance", "summarize_reports",
)


def test_public_surface_is_pinned():
    names = sorted(name for name, value in vars(latentkrig).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert tuple(names) == PUBLIC_NAMES
