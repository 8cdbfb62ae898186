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

Imputation's pairwise-complete covariances of a gappy panel likewise read
one set of masked statistics per frame (``_masked_panel``, ``_masked_rows``).
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientOverlap, LagTooLarge, MissingDataError
from .stdata import Partition, SpatioTemporalFrame


def _centered_columns(frame: SpatioTemporalFrame, cols) -> np.ndarray:
    """The centered panel's columns ``cols``: the read-only memo array
    itself when they are every column in order, else a copy."""
    idx = list(cols)
    every = idx == list(range(frame.p))
    if (frame.missing if every else frame.missing[:, idx]).any():
        raise MissingDataError(
            "covariance over incomplete columns; impute or subset first")
    # columns with missing cells center to NaN and are never read
    centered = frame._memo.get("centered",
                               lambda: frame.obs - frame.obs.mean(axis=0))
    return centered if every else centered[:, idx]


def _lag(frame: SpatioTemporalFrame, j: int) -> np.ndarray:
    """C_j = Y_c[j:]' Y_c[:n-j] / n over all sites of a complete frame."""
    def build() -> np.ndarray:
        yc = _centered_columns(frame, range(frame.p))
        c = yc[j:].T @ yc[:frame.n - j]
        c /= frame.n
        return c
    return frame._memo.get(("lag", j), build)


def _lag_gram(frame: SpatioTemporalFrame, j: int) -> np.ndarray:
    """C_j C_j', the same for every partition of the frame."""
    def build() -> np.ndarray:
        c = _lag(frame, j)
        return c @ c.T
    return frame._memo.get(("lag_gram", j), build)


def _check_width(frame: SpatioTemporalFrame, partition: Partition) -> None:
    """The partition splits the frame's sites: every one, and no more."""
    if partition.p != frame.p:
        raise ValueError("partition does not match frame width")


def _check_lags(frame: SpatioTemporalFrame, partition: Partition, k0: int) -> None:
    """Lags 0..k0 are identifiable and the partition splits the frame's sites."""
    if k0 >= frame.n / 2:
        raise LagTooLarge(f"k0={k0} needs n > 2*k0 (n={frame.n})")
    _check_width(frame, partition)


def _pairwise(ra: np.ndarray, rm: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The masked covariance of the zero-filled columns ra with themselves,
    from their observed-cell indicators rm and joint counts."""
    if np.any(counts < 2):
        raise InsufficientOverlap(
            "some location pair has fewer than 2 joint observations")
    # a copy: numpy sends x.T @ x to syrk, which rounds unlike the general product
    sum_xy = ra.T @ ra.copy()
    sum_x = ra.T @ rm
    return (sum_xy - sum_x * sum_x.T / counts) / counts


def _masked_panel(obs: np.ndarray, missing: np.ndarray) -> tuple:
    """Statistics shared by the full masked covariances over row subsets
    of one panel: the zero-filled panel and the observed-cell indicator,
    each stored transposed, and the all-row pair counts."""
    seen_t = np.ascontiguousarray(~missing.T, dtype=np.float64)
    return np.where(missing, 0.0, obs).T.copy(), seen_t, seen_t @ seen_t.T


def _masked_rows(panel: tuple, have: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """The masked covariance of every column over the rows ``have``, from
    the panel's ``_masked_panel`` statistics; ``lost`` are the other rows.

    Entry (i, j) is the covariance of columns i and j over the rows both
    observe, means and divisor on that joint count (InsufficientOverlap
    below 2): all-row counts less those over ``lost``, exact integers. A
    gather from the transposed arrays has the memory order of a column
    gather of the subpanel, so the products round as on that subpanel."""
    zero_t, seen_t, pairs = panel
    gone = seen_t.take(lost, axis=1)
    return _pairwise(zero_t.take(have, axis=1).T, seen_t.take(have, axis=1).T,
                     pairs - gone @ gone.T)


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
