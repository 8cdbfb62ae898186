import inspect
import sys
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
    "impute_missing", "kernel_weights", "krige_space", "load_ensemble",
    "load_frame", "load_locations", "loading_values", "mse_xi", "mspe_space",
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


def test_no_pipeline_function_takes_a_workers_argument():
    # LATENT_KRIG_THREADS alone sizes every pool
    from latentkrig.ensemble import (_fit_members, aggregate_fit,
                                     aggregate_over_partitions,
                                     divide_and_conquer_fit)
    from latentkrig.forecast import forecast, forecast_ensemble
    from latentkrig.simbench import _cv_scores, run_table, select_tau
    for fn in (_fit_members, aggregate_over_partitions, aggregate_fit,
               divide_and_conquer_fit, forecast, forecast_ensemble,
               select_tau, _cv_scores, run_table):
        assert "workers" not in inspect.signature(fn).parameters, fn.__name__


def test_every_function_the_traced_benchmark_counts_is_a_module_global():
    # the benchmark's tracer wraps module globals by name, and CI's traced
    # step checks counters taken through these; one deleted or renamed
    # would leave its counter at 0 there
    for qualname in ("ensemble.aggregate_over_partitions", "stdata.load_frame",
                     "stdata.save_frame", "stdata.distance_matrix",
                     "factors.fit_factors", "forecast.forecast",
                     "forecast.forecast_ensemble", "kriging.impute_missing",
                     "ensemble.save_ensemble", "ensemble.load_ensemble"):
        module, name = qualname.split(".")
        fn = vars(sys.modules[f"latentkrig.{module}"]).get(name)
        assert inspect.isfunction(fn), qualname
        assert fn.__module__ == f"latentkrig.{module}", qualname
    # the doc_bytes counter reads the written file's size off save_ensemble's
    # second positional argument, named path
    params = list(inspect.signature(latentkrig.ensemble.save_ensemble).parameters.values())
    assert params[1].name == "path"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
