"""Per-location detrending against observed covariates.

The observable regression layer is removed location by location with
ordinary least squares: at site s_i, beta_hat(s_i) = (Z'Z)^{-1} Z' y over
the time points where y is observed there. Residuals keep the original
mask. Coefficients transfer to unsampled sites through Nadaraya-Watson
kernel smoothing of the per-site estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularDesign
from .stdata import LocationSet, SpatioTemporalFrame, _fmt, _write_csv


@dataclass
class RegressionFit:
    """Per-location coefficients (p, m) and the residual panel."""

    betas: np.ndarray
    residual_frame: SpatioTemporalFrame


def detrend(frame: SpatioTemporalFrame) -> RegressionFit:
    """OLS per location; residual y - z'beta_hat with the mask unchanged.

    Requires covariates on the frame. Rows where y is missing at a site
    are dropped from that site's regression. A site whose design matrix
    Z'Z is numerically singular (relative condition below 1e-10, for
    instance collinear covariates or fewer observed rows than m) raises
    SingularDesign.
    """
    if frame.covariates is None:
        raise ValueError("frame has no covariates to detrend against")
    n, p, m = frame.n, frame.p, frame.m
    betas = np.empty((p, m))
    resid = np.array(frame.obs)
    for i in range(p):
        keep = ~frame.missing[:, i]
        z = frame.covariates[keep, i, :]
        y = frame.obs[keep, i]
        if z.shape[0] < m:
            raise SingularDesign(
                f"location {frame.locations.ids[i]}: fewer observed rows than covariates")
        gram = z.T @ z
        sv = np.linalg.svd(gram, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise SingularDesign(
                f"location {frame.locations.ids[i]}: singular design")
        betas[i] = np.linalg.solve(gram, z.T @ y)
        resid[keep, i] = y - z @ betas[i]
    residual = SpatioTemporalFrame(locations=frame.locations, obs=resid,
                                   covariates=frame.covariates)
    return RegressionFit(betas=betas, residual_frame=residual)


def smooth_beta(fit: RegressionFit, locations: LocationSet, s0, kernel) -> np.ndarray:
    """Kernel-weighted coefficient vector at a new site s0.

    beta(s0) = sum_j beta_hat(s_j) K_h(s_j - s0) / sum_j K_h(s_j - s0),
    a convex combination: each output component lies within the range of
    the per-site estimates.
    """
    from .kriging import kernel_weights  # local import avoids a cycle
    w = kernel_weights(locations, s0, kernel)
    return fit.betas.T @ w


def save_betas(fit: RegressionFit, locations: LocationSet, path) -> None:
    """Write coefficients as CSV: id,b1,...,bm."""
    _write_csv(path, ["id"] + [f"b{j + 1}" for j in range(fit.betas.shape[1])],
               ([loc_id] + [_fmt(v) for v in row]
                for loc_id, row in zip(locations.ids, fit.betas)))
