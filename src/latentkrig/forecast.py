"""Temporal prediction of the panel through the latent factor series.

The j-step-ahead best linear predictor of the factor vector given its
last j0 + 1 readouts is

    x_hat(j) = R W^{-1} X,   X = (x_n', ..., x_{n-j0}')',
    R = (S(j), S(j+1), ..., S(j+j0)),

where S(k) is the lag-k factor autocovariance and W the symmetric block
Toeplitz matrix with (i, l) block S(l - i) for l >= i and S(i - l)' below
the diagonal. W grows with j0, but its inverse obeys a one-block-border
recursion: with U_k = (S(k+1)', ..., S(1)')' and the innovation block
V_k = (S(0) - U_k' W_k^{-1} U_k)^{-1},

    W_{k+1}^{-1} = [[W_k^{-1} + W_k^{-1} U_k V_k U_k' W_k^{-1},
                     -W_k^{-1} U_k V_k],
                    [-V_k U_k' W_k^{-1}, V_k]],

so only d x d matrices are ever inverted (asserted structurally). Factor
autocovariances come from the fitted loadings: S(k) = A' C_y(k) A with
C_y(k) the lag-k autocovariance of the panel columns in the loading's
location set, taken from the projected readouts (the lag-k
autocovariance of the n x d series Y_c A) so C_y(k) is never formed.
W_{j0}^{-1} needs only S(0..j0), so one inverse per side serves every
horizon. Panel-level predictions are y_hat = A x_hat(j) per side of the
partition, using raw (uncentered) factor readouts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _util
from .covariance import _autocovariances
from .errors import LagTooLarge, NotPositiveDefinite, SingularInnovation
from .ensemble import _first_and_mean, _member_partitions, fit_members
from .factors import FactorModelFit
from .stdata import SpatioTemporalFrame

_REL_SINGULAR = 1e-10


def assemble_block_toeplitz(sigma_x: list[np.ndarray], k: int) -> np.ndarray:
    """Dense W_k from lag blocks S(0..k); the oracle for the recursion."""
    if k + 1 > len(sigma_x):
        raise ValueError("need lag blocks 0..k")
    d = sigma_x[0].shape[0]
    w = np.empty(((k + 1) * d, (k + 1) * d))
    for i in range(k + 1):
        for l in range(k + 1):
            block = sigma_x[l - i] if l >= i else sigma_x[i - l].T
            w[i * d:(i + 1) * d, l * d:(l + 1) * d] = block
    return w


def _inv_small(mat: np.ndarray, d: int) -> np.ndarray:
    # every inversion in the recursion flows through here: d x d only
    assert mat.shape == (d, d), "recursion must never invert beyond d x d"
    return np.linalg.inv(mat)


def recursive_toeplitz_inverse(sigma_x: list[np.ndarray], j0: int) -> np.ndarray:
    """W_{j0}^{-1} from lag blocks S(0..j0) by the border recursion.

    Starts from W_0^{-1} = S(0)^{-1} and grows one block border per
    step, inverting only the d x d innovation block.
    """
    if j0 < 0:
        raise ValueError("j0 must be >= 0")
    if j0 + 1 > len(sigma_x):
        raise ValueError("need lag blocks 0..j0")
    sig = [np.asarray(s, dtype=np.float64) for s in sigma_x]
    s0 = sig[0]
    d = s0.shape[0]
    norm = np.linalg.norm(s0)
    if norm > 0 and np.linalg.norm(s0 - s0.T) > 1e-8 * norm:
        raise NotPositiveDefinite("lag-0 block must be symmetric")
    evals = np.linalg.eigvalsh(0.5 * (s0 + s0.T))
    if evals[0] <= _REL_SINGULAR * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        raise NotPositiveDefinite("lag-0 block is not positive definite")
    w_inv = _inv_small(s0, d)
    for k in range(j0):
        u = np.vstack([sig[j] for j in range(k + 1, 0, -1)])
        wu = w_inv @ u
        schur = s0 - u.T @ wu
        schur = 0.5 * (schur + schur.T)
        evals = np.linalg.eigvalsh(schur)
        if np.min(np.abs(evals)) <= _REL_SINGULAR * np.max(np.abs(evals)):
            raise SingularInnovation(f"innovation block singular at depth {k + 1}")
        v = _inv_small(schur, d)
        wuv = wu @ v
        w_inv = np.block([[w_inv + wuv @ wu.T, -wuv], [-wuv.T, v]])
    return w_inv


def estimate_sigma_x(frame: SpatioTemporalFrame, fit: FactorModelFit,
                     max_lag: int, set_index: int = 1) -> list[np.ndarray]:
    """Latent autocovariances S(k) = A' C_y(k) A for k = 0..max_lag.

    set_index selects which side of the partition supplies the panel
    columns and loading basis (1 or 2). S(0) is symmetric positive
    semidefinite by construction; lags need max_lag < n/2.
    """
    if set_index == 1:
        cols, a = fit.partition.set1, fit.A1_hat
    elif set_index == 2:
        cols, a = fit.partition.set2, fit.A2_hat
    else:
        raise ValueError("set_index must be 1 or 2")
    return _autocovariances(frame, cols, max_lag, basis=a)


def _forecast_args(n: int, j, j0, ridge: float) -> tuple[list[int], int]:
    """Checked horizons and j0: every j >= 1, j0 >= 0, a finite ridge >= 0
    and max(j) + j0 < n/2."""
    horizons = [j] if np.ndim(j) == 0 else list(j)
    if not horizons or any(int(h) != h or h < 1 for h in horizons):
        raise ValueError("j must be an integer >= 1 or a nonempty list of them")
    if int(j0) != j0 or j0 < 0:
        raise ValueError("j0 must be an integer >= 0")
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be finite and >= 0")
    horizons, j0 = [int(h) for h in horizons], int(j0)
    if max(horizons) + j0 >= n / 2:
        raise LagTooLarge(f"j + j0 = {max(horizons) + j0} needs n > 2*(j + j0) "
                          f"(n={n})")
    return horizons, j0


def forecast(frame: SpatioTemporalFrame, fit: FactorModelFit,
             j: int | Sequence[int], j0: int = 6, ridge: float = 0.0) -> np.ndarray:
    """j-step-ahead prediction of the panel at every location.

    j is one horizon, giving a (p,) array, or a sequence of horizons,
    giving a (len(j), p) array. Each side of the partition is predicted
    from its own factor readouts: x_hat(j) = R W_{j0}^{-1} X with X
    stacking the raw readouts at times n, n-1, ..., n-j0, then
    y_hat = A x_hat(j). Requires every j >= 1 and max(j) + j0 < n/2 so
    all needed lags are identifiable.

    Sample lag covariances are not jointly PSD, so W can be numerically
    singular; by default that surfaces as SingularInnovation. A positive
    ridge adds ridge*I to the lag-0 block before the recursion (opt-in,
    never silent).
    """
    horizons, j0 = _forecast_args(frame.n, j, j0, ridge)
    top = max(horizons)
    out = np.empty((len(horizons), frame.p))
    for set_index, cols, a in ((1, fit.partition.set1, fit.A1_hat),
                               (2, fit.partition.set2, fit.A2_hat)):
        sig = estimate_sigma_x(frame, fit, top + j0, set_index)
        if ridge > 0.0:
            sig[0] = sig[0] + ridge * np.eye(sig[0].shape[0])
        w_inv = recursive_toeplitz_inverse(sig[:j0 + 1], j0)
        y_block = frame.obs[:, list(cols)]
        x_stack = np.concatenate([y_block[frame.n - 1 - back] @ a
                                  for back in range(j0 + 1)])
        w_x = w_inv @ x_stack
        for row, h in enumerate(horizons):
            r = np.hstack([sig[k] for k in range(h, h + j0 + 1)])
            out[row, list(cols)] = a @ (r @ w_x)
    return out[0] if np.ndim(j) == 0 else out


def forecast_ensemble(frame: SpatioTemporalFrame, J: int, j: int | Sequence[int],
                      j0: int = 6, tau: float = 0.0, k0: int = 0,
                      p_star: int | None = None, d_override: int | None = None,
                      rng_seed: int = 0, ridge: float = 0.0,
                      workers: int | None = None) -> np.ndarray:
    """Average of j-step predictions over J random-partition fits.

    j is one horizon or a sequence of them, as in forecast; each member
    is fitted once for all horizons, and the arguments are checked
    before any member is fitted. Member seeds derive deterministically
    from rng_seed by member index and predictions are summed in index
    order as they arrive, so the result is identical for any worker count.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    _forecast_args(frame.n, j, j0, ridge)
    partitions = _member_partitions(frame.p, _util.member_seeds(rng_seed, J))
    preds = fit_members(frame, partitions, tau, k0=k0, p_star=p_star,
                        d_override=d_override, workers=workers,
                        read=lambda fit: (forecast(frame, fit, j, j0, ridge=ridge),))
    return _first_and_mean(preds)[1]
