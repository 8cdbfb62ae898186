"""Spatial interpolation of the latent field and missing-cell recovery.

Kriging over space uses normalized kernel weights on the fitted latent
field: xi_hat_t(s0) = sum_j xi_hat_t(s_j) K_h(s_j - s0) / sum_j K_h.
Kernel normalizing constants cancel in the weight ratio, so only the
shape matters. The same predictor arises from the formal best-linear-
predictor route c(s0)' Sigma_y^{-1} y_t with c(s0) the sample covariance
between the kriged latent series and the panel: because the latent field
is a block projection of the panel, the two coincide identically. The
package never forms that dense route; the test suite keeps it as an
oracle (``verify_dual_route`` in tests/oracles.py) and checks the
identity numerically on fitted models.

Missing cells are recovered with the best linear predictor of the cell
given the observations available at the same time point. Covariances are
estimated pairwise over the times the target location is observed, once per
site, and each group of its cells sharing an availability row is one solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .covariance import masked_pairwise
from .errors import EmptyKernelWindow
from .stdata import LocationSet, SpatioTemporalFrame, _sealed, distance_matrix

logger = logging.getLogger(__name__)

_FAMILIES = ("gaussian", "epanechnikov_2d")


@dataclass
class KernelSpec:
    """Kernel family and finite bandwidth h > 0.

    gaussian: radial, K(u) proportional to exp(-|u|^2 / 2), valid for any
    distance metric. epanechnikov_2d: product kernel (1 - u1^2)(1 - u2^2)
    on the unit square of scaled displacements, planar coordinates only;
    its compact support can empty a kernel window.
    """

    family: str
    h: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not 0 < self.h < np.inf:
            raise ValueError("bandwidth must be positive and finite")


def _raw_kernel(locations: LocationSet, sites, family: str, dist=None):
    """h -> raw weights K((s_j - sites[k]) / h), one row per site; the geometry
    (distances, or dist if given; displacements for epanechnikov_2d) is made
    once. Each h's weights are computed in one array, plus one more for the
    second factor of the product kernel."""
    sites = np.asarray(sites, dtype=np.float64).reshape(-1, 2)
    if family == "gaussian":
        if dist is None:
            dist = distance_matrix(sites, locations.coords,
                                   locations.distance_metric, locations.radius)

        def gaussian(h):  # exp(-0.5 * (dist / h) ** 2), in place
            with np.errstate(over="ignore"):  # an inf argument weighs 0
                k = np.divide(dist, h)
                np.square(k, out=k)
            np.multiply(-0.5, k, out=k)
            return np.exp(k, out=k)
        return gaussian
    if family != "epanechnikov_2d":
        raise ValueError(f"unknown kernel family {family!r}")
    if locations.distance_metric != "euclidean":
        raise ValueError("epanechnikov_2d requires planar coordinates")
    with np.errstate(over="ignore"):
        disp = locations.coords.T[:, None, :] - sites.T[:, :, None]  # (2, m, p)

    def factor(axis: int, h):  # max(1 - (disp / h) ** 2, 0) on one axis, in place
        with np.errstate(over="ignore"):  # an inf argument weighs 0
            f = np.divide(disp[axis], h)
            np.square(f, out=f)
        np.subtract(1.0, f, out=f)
        return np.clip(f, 0.0, None, out=f)

    def product(h):
        k = factor(0, h)
        k *= factor(1, h)
        return k
    return product


def kernel_weights(locations: LocationSet, s0, kernel: KernelSpec) -> np.ndarray:
    """Normalized weights w_j >= 0 with sum 1: (p,) at one site s0, or
    (p, m) for an (m, 2) site array, column k bitwise the weights at
    site k alone (each site's raw weights are summed as one row)."""
    sites = np.asarray(s0, dtype=np.float64)
    raw = _raw_kernel(locations, sites, kernel.family)(kernel.h)
    total = raw.sum(axis=1)
    if np.any(total <= 0.0):
        bad = sites.reshape(-1, 2)[np.argmax(total <= 0.0)]
        raise EmptyKernelWindow(f"no kernel mass at site ({bad[0]:g}, {bad[1]:g})")
    w = (raw / total[:, None]).T
    return w[:, 0] if sites.ndim == 1 else w


def krige_space(latent: np.ndarray, locations: LocationSet, s0,
                kernel: KernelSpec) -> np.ndarray:
    """Weighted latent series from an (n, p) latent field: (n,) at one
    site s0, or (n, m) with one column per row of an (m, 2) site array."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.ndim != 2 or latent.shape[1] != locations.p:
        raise ValueError("latent field width disagrees with locations")
    return latent @ kernel_weights(locations, s0, kernel)


def impute_missing(frame: SpatioTemporalFrame) -> SpatioTemporalFrame:
    """Fill every missing cell by its best linear predictor.

    For a missing cell (t, i) the predictor is
    Cov(y(s_i), y^a) Var(y^a)^{-1} y^a over the locations a observed at
    time t. Covariance entries come from ``masked_pairwise`` on the
    subpanel of time points where location i is observed, so every entry
    conditions on the information actually available about the target.
    That p x p covariance is estimated once per target site; the cells of
    a site that share an availability row share one eigensolve and gain.
    Pairwise-complete estimates need not be PSD, and directions of
    Var(y^a) estimated below its own sampling-noise floor must not be
    inverted. The spectrum of Var(y^a) is floored at max(1e-8 * trace /
    dim, median eigenvalue * dim / rows); the second term tracks the
    lower bulk edge of a noise spectrum at this aspect ratio, so
    informative directions pass through untouched while sampling
    artifacts are neutralized. When every eigenvalue clears the floor
    the matrix is used exactly as estimated, which keeps structural
    identities (a duplicated column predicts its twin exactly) intact.
    One pass: predictors never feed on previously filled cells. Observed
    cells are returned bit-identical; provenance on ``filled_cells``. One
    INFO log record counts cells, groups, floored and non-PSD groups, and
    one WARNING, only if some group is non-PSD, counts those and their cells.
    """
    if frame.is_complete:
        return frame
    obs = np.array(frame.obs)
    filled: list[tuple[int, str]] = []
    groups = floored = non_psd = non_psd_cells = 0
    for i in range(frame.p):
        miss_t = np.nonzero(frame.missing[:, i])[0]
        if miss_t.size == 0:
            continue
        have_t = np.nonzero(~frame.missing[:, i])[0]
        cov = masked_pairwise(frame.obs[have_t], frame.missing[have_t],
                              range(frame.p), range(frame.p))
        cov = 0.5 * (cov + cov.T)
        by_row: dict[bytes, list[int]] = {}
        for t in miss_t:
            by_row.setdefault(frame.missing[t].tobytes(), []).append(int(t))
        for ts in by_row.values():
            avail = np.nonzero(~frame.missing[ts[0]])[0]
            c, v = cov[i, avail], cov[np.ix_(avail, avail)]
            evals, evecs = np.linalg.eigh(v)
            dim = v.shape[0]
            ridge = max(1e-8 * np.trace(v) / dim, 1e-300)
            floor = max(ridge, float(np.median(evals)) * dim / len(have_t))
            if evals[0] < floor:
                floored += 1
                if evals[0] <= 1e-12 * max(evals[-1], 0.0):
                    non_psd += 1
                    non_psd_cells += len(ts)
                gain = evecs @ ((evecs.T @ c) / np.maximum(evals, floor))
            else:
                gain = np.linalg.solve(v, c)
            obs[ts, i] = frame.obs[np.ix_(ts, avail)] @ gain
        groups += len(by_row)
        filled.extend((int(t), frame.locations.ids[i]) for t in miss_t)
    if non_psd:
        logger.warning("non-PSD available-covariance in %d availability "
                       "groups (%d cells); spectra floored", non_psd,
                       non_psd_cells)
    logger.info("imputed %d cells in %d availability groups; floored %d, "
                "non-PSD %d", len(filled), groups, floored, non_psd)
    return SpatioTemporalFrame(locations=frame.locations, obs=_sealed(obs),
                               covariates=frame.covariates,
                               filled_cells=tuple(filled))
