"""Latent-factor kriging for spatio-temporal panel data.

The panel is observed at p fixed sites over n regular time points. A
low-rank latent field is separated from unit-variance measurement noise
by splitting the sites into two sets and working with the cross-set
covariance, where the noise cancels. The recovered field feeds spatial
interpolation at new sites, linear prediction of future time points,
and imputation of missing cells. Averaging the estimate over many
random site splits never hurts the per-cell squared error.
"""

from .ensemble import (EnsembleFit, aggregate_fit, aggregate_over_partitions,
                       assign_blocks, divide_and_conquer_fit, load_ensemble,
                       save_ensemble, save_fit)
from .errors import (BlockTooLarge, DuplicateCell, EmptyKernelWindow,
                     InsufficientOverlap, InvalidCoordinate, LagTooLarge,
                     LatentKrigError, MissingDataError, NotPositiveDefinite,
                     NotSymmetric, NumericalError, ParseError, PeriodTooLarge,
                     RankDeficient, SingularDesign, SingularInnovation,
                     TooFewEigenvalues, TooFewLocations, UnknownLocation)
from .factors import (FactorModelFit, assemble_latent, build_laplacian,
                      default_p_star, estimate_d, fit_factors,
                      subspace_distance)
from .forecast import (estimate_sigma_x, forecast, forecast_ensemble,
                       recursive_toeplitz_inverse)
from .kriging import KernelSpec, impute_missing, kernel_weights, krige_space
from .regress import RegressionFit, detrend, save_betas, smooth_beta
from .simbench import (SimConfig, SimulationDraw, loading_values, mse_xi,
                       mspe_space, run_table, select_bandwidth, select_tau,
                       simulate, simulate_factors, summarize_reports)
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
                     distance_matrix, load_frame, load_locations,
                     random_partition, save_frame)

__version__ = "0.1.0"
