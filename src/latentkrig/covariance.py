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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientOverlap, LagTooLarge, MissingDataError
from .stdata import Partition, SpatioTemporalFrame

# kind values: cross_sets, auto_set1, auto_set2, cross_lagged, pairwise
@dataclass
class CovBlock:
    """One covariance block: the matrix, its lag, and what it covaries."""

    matrix: np.ndarray
    lag: int
    kind: str


def _centered_columns(frame: SpatioTemporalFrame, cols) -> np.ndarray:
    idx = list(cols)
    if frame.missing[:, idx].any():
        raise MissingDataError(
            "covariance over incomplete columns; impute or subset first")
    block = frame.obs[:, idx]
    return block - block.mean(axis=0)


def cross_covariance(frame: SpatioTemporalFrame, partition: Partition) -> CovBlock:
    """Lag-0 cross-set covariance, a (p1, p2) matrix with divisor n."""
    if partition.p != frame.p:
        raise ValueError("partition does not match frame width")
    y1 = _centered_columns(frame, partition.set1)
    y2 = _centered_columns(frame, partition.set2)
    s = (y1.T @ y2) / frame.n
    return CovBlock(matrix=s, lag=0, kind="cross_sets")


def lagged_covariances(frame: SpatioTemporalFrame, partition: Partition,
                       k0: int) -> list[CovBlock]:
    """Auto- and cross-set blocks for lags 1..k0.

    Returns, for each j in 1..k0 and in this order: the set-1
    autocovariance at lag j, the set-2 autocovariance at lag j, the
    cross-set covariance at lag j, and the cross-set covariance at lag
    -j. All use full-sample means and divisor n.
    """
    if int(k0) != k0 or k0 < 1:
        raise ValueError("k0 must be an integer >= 1 (lags start at 1)")
    k0 = int(k0)
    if k0 >= frame.n / 2:
        raise LagTooLarge(f"k0={k0} needs n > 2*k0 (n={frame.n})")
    if partition.p != frame.p:
        raise ValueError("partition does not match frame width")
    n = frame.n
    y1 = _centered_columns(frame, partition.set1)
    y2 = _centered_columns(frame, partition.set2)
    blocks: list[CovBlock] = []
    for j in range(1, k0 + 1):
        lead1, lag1 = y1[j:], y1[:n - j]
        lead2, lag2 = y2[j:], y2[:n - j]
        blocks.append(CovBlock((lead1.T @ lag1) / n, j, "auto_set1"))
        blocks.append(CovBlock((lead2.T @ lag2) / n, j, "auto_set2"))
        blocks.append(CovBlock((lead1.T @ lag2) / n, j, "cross_lagged"))
        blocks.append(CovBlock((lag1.T @ lead2) / n, -j, "cross_lagged"))
    return blocks


def masked_pairwise(obs: np.ndarray, missing: np.ndarray, rows, cols) -> np.ndarray:
    """Pairwise-complete covariance on raw arrays; see pairwise_covariance."""
    ridx = list(rows)
    cidx = list(cols)
    if not ridx or not cidx:
        raise ValueError("rows and cols must be nonempty")
    ra = np.where(missing[:, ridx], 0.0, obs[:, ridx])
    ca = np.where(missing[:, cidx], 0.0, obs[:, cidx])
    rm = (~missing[:, ridx]).astype(np.float64)
    cm = (~missing[:, cidx]).astype(np.float64)
    counts = rm.T @ cm
    if np.any(counts < 2):
        raise InsufficientOverlap(
            "some location pair has fewer than 2 joint observations")
    sum_xy = ra.T @ ca
    sum_x = ra.T @ cm
    sum_y = rm.T @ ca
    return (sum_xy - sum_x * sum_y / counts) / counts


def pairwise_covariance(frame: SpatioTemporalFrame, rows, cols) -> CovBlock:
    """Covariance block tolerating missing cells.

    Entry (i, j) is the sample covariance of locations rows[i] and
    cols[j] over the time points where both are observed, with means
    taken on that same joint subset and divisor equal to the joint
    count. Any pair with fewer than two joint observations raises
    InsufficientOverlap.
    """
    cov = masked_pairwise(frame.obs, frame.missing, rows, cols)
    return CovBlock(matrix=cov, lag=0, kind="pairwise")


def lagged_auto_covariance(frame: SpatioTemporalFrame, cols, max_lag: int) -> list[np.ndarray]:
    """Autocovariance matrices of the given columns for lags 0..max_lag.

    Lag-k block: (1/n) * sum_{t=1..n-k} (y_{t+k} - ybar)(y_t - ybar)'.
    The temporal predictor projects the readouts first (_autocovariances
    with a basis) and never forms these p x p blocks.
    """
    return _autocovariances(frame, cols, max_lag)


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
