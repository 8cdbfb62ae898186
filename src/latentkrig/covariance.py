"""Sample covariance blocks for split-panel factor estimation.

The estimation device is a split of the p locations into two disjoint
sets. Because the idiosyncratic noise is uncorrelated across locations,
the cross-set covariance

    S = (1/n) * sum_t (y_t1 - ybar1)(y_t2 - ybar2)'

is free of the noise variance and has rank equal to the number of latent
factors. Every estimator in this module divides by the panel length n,
also at positive lags: downstream eigen-ratios compare covariance
products across lags and a lag-dependent divisor would tilt them.

Lagged blocks use the full-sample means and sum over the time pairs that
exist inside 1..n. Writing ac for the lead series and bc for the lagged
one, lag k >= 1 pairs (t+k, t) for t = 1..n-k; lag -k pairs (t-k, t) for
t = k+1..n, which is the transpose-free mirror of the same window.

Every block is a slice of statistics shared by all fits of a frame and
built once per frame: the centered panel Y_c, the p x p lag covariances
C_j = Y_c[j:]' Y_c[:n-j] / n, and the partition-free products C_j C_j'.
A partition reads S = C_0[S1, S2] and its lag-j blocks from C_j, so J
random partitions of one panel cost one set of p x p products, not J
sets of half-panel products.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientOverlap, LagTooLarge, MissingDataError
from .stdata import Partition, SpatioTemporalFrame


def _centered_columns(frame: SpatioTemporalFrame, cols) -> np.ndarray:
    idx = list(cols)
    if frame.missing[:, idx].any():
        raise MissingDataError(
            "covariance over incomplete columns; impute or subset first")
    # columns with missing cells center to NaN and are never read
    return frame._memo.get("centered",
                           lambda: frame.obs - frame.obs.mean(axis=0))[:, idx]


def _lag(frame: SpatioTemporalFrame, j: int) -> np.ndarray:
    """C_j = Y_c[j:]' Y_c[:n-j] / n over all sites of a complete frame."""
    def build() -> np.ndarray:
        yc = _centered_columns(frame, range(frame.p))
        return (yc[j:].T @ yc[:frame.n - j]) / frame.n
    return frame._memo.get(("lag", j), build)


def _lag_gram(frame: SpatioTemporalFrame, j: int) -> np.ndarray:
    """C_j C_j', the same for every partition of the frame."""
    def build() -> np.ndarray:
        c = _lag(frame, j)
        return c @ c.T
    return frame._memo.get(("lag_gram", j), build)


def _check_lags(frame: SpatioTemporalFrame, partition: Partition, k0: int) -> None:
    """Lags 0..k0 are identifiable and the partition splits the frame's sites."""
    if k0 >= frame.n / 2:
        raise LagTooLarge(f"k0={k0} needs n > 2*k0 (n={frame.n})")
    if partition.p != frame.p:
        raise ValueError("partition does not match frame width")


def masked_pairwise(obs: np.ndarray, missing: np.ndarray, rows, cols) -> np.ndarray:
    """Covariance block of obs columns rows x cols tolerating missing cells.

    Entry (i, j) is the sample covariance of columns rows[i] and cols[j]
    over the time points where both are observed (missing False), with
    means taken on that same joint subset and divisor equal to the joint
    count. Any pair with fewer than two joint observations raises
    InsufficientOverlap.
    """
    ridx = list(rows)
    cidx = list(cols)
    if not ridx or not cidx:
        raise ValueError("rows and cols must be nonempty")
    ra = np.where(missing[:, ridx], 0.0, obs[:, ridx])
    rm = (~missing[:, ridx]).astype(np.float64)
    same = ridx == cidx
    # a copy: numpy sends x.T @ x to syrk, which rounds unlike the general product
    ca = ra.copy() if same else np.where(missing[:, cidx], 0.0, obs[:, cidx])
    cm = rm if same else (~missing[:, cidx]).astype(np.float64)
    counts = rm.T @ cm
    if np.any(counts < 2):
        raise InsufficientOverlap(
            "some location pair has fewer than 2 joint observations")
    sum_xy = ra.T @ ca
    sum_x = ra.T @ cm
    sum_y = sum_x.T if same else rm.T @ ca
    return (sum_xy - sum_x * sum_y / counts) / counts


def _autocovariances(frame: SpatioTemporalFrame, cols, max_lag: int,
                     basis: np.ndarray | None = None) -> list[np.ndarray]:
    """Lags 0..max_lag of z = Y_c (or Y_c basis): z[k:]' z[:n-k] / n."""
    if int(max_lag) != max_lag or max_lag < 0:
        raise ValueError("max_lag must be an integer >= 0")
    max_lag = int(max_lag)
    if max_lag >= frame.n / 2:
        raise LagTooLarge(f"max_lag={max_lag} needs n > 2*max_lag (n={frame.n})")
    n = frame.n
    z = _centered_columns(frame, cols)
    if basis is not None:
        z = z @ basis
    return [(z[k:].T @ z[:n - k]) / n for k in range(max_lag + 1)]
