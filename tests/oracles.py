"""Test oracles: dense and brute-force reference routes for algebra the
package does without them.

The temporal predictor inverts its block Toeplitz matrix through a
one-block-border recursion and never forms a 2 x 2 block inverse, so the
partitioned inverse, the two Schur-complement routes and the dense
Toeplitz matrix live here, as references for criterion 1 and the
forecast unit tests. The dense best-linear-predictor route for spatial
kriging, the general best linear predictor, the p x p lagged
autocovariances, a partition's cross-set and lagged covariance blocks,
the masked covariance of any two column sets over a subpanel's rows,
the one-tau penalized eigensolve, the Gram matrices built block by block
from each partition's own half-panel covariances, a subset's Laplacian
sliced from the weights of every site, the generator's signal-to-noise
integral and the enumeration of every split of a small panel are
references of the same kind.
"""

from itertools import combinations

import numpy as np

from latentkrig import LocationSet, Partition, SpatioTemporalFrame, krige_space
from latentkrig.covariance import (_autocovariances, _check_lags, _lag,
                                   _pairwise)
from latentkrig.errors import (InsufficientOverlap, NotPositiveDefinite,
                               NotSymmetric, NumericalError)
from latentkrig.factors import _eig_desc, _top_vectors
from latentkrig.forecast import _REL_SINGULAR
from latentkrig.simbench import FACTOR_STATIONARY_VARS, loading_values
from latentkrig.stdata import pairwise_distances

_DUAL_ROUTE_MAX_P = 200


class SingularBlock(NumericalError):
    """Partitioned inversion hit a singular diagonal block or Schur complement."""


class NonInvertible(NumericalError):
    """Dense covariance of the panel cannot be inverted."""


def _check_invertible(mat: np.ndarray, exc, what: str) -> None:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= _REL_SINGULAR * sv[0]:
        raise exc(f"{what} is numerically singular")


def _as_blocks(*mats) -> list[np.ndarray]:
    return [np.atleast_2d(np.asarray(m, dtype=np.float64)) for m in mats]


def partitioned_inverse(H11: np.ndarray, H12: np.ndarray, H21: np.ndarray,
                        H22: np.ndarray) -> np.ndarray:
    """Inverse of [[H11, H12], [H21, H22]] via the H11 Schur complement.

    With Q = (H22 - H21 H11^{-1} H12)^{-1}:

        [[H11^{-1} + H11^{-1} H12 Q H21 H11^{-1}, -H11^{-1} H12 Q],
         [-Q H21 H11^{-1}, Q]]

    Raises SingularBlock when H11 or the Schur complement is singular.
    """
    h11, h12, h21, h22 = _as_blocks(H11, H12, H21, H22)
    _check_invertible(h11, SingularBlock, "H11")
    inv11_12 = np.linalg.solve(h11, h12)
    inv11 = np.linalg.inv(h11)
    schur = h22 - h21 @ inv11_12
    _check_invertible(schur, SingularBlock, "Schur complement of H11")
    q = np.linalg.inv(schur)
    top_left = inv11 + inv11_12 @ q @ h21 @ inv11
    top_right = -inv11_12 @ q
    bottom_left = -q @ h21 @ inv11
    return np.block([[top_left, top_right], [bottom_left, q]])


def woodbury_identity_check(H11: np.ndarray, H12: np.ndarray, H21: np.ndarray,
                            H22: np.ndarray) -> float:
    """Max |difference| between the two Schur-complement inversion routes.

    Compares (H22 - H21 H11^{-1} H12)^{-1} against
    H22^{-1} + H22^{-1} H21 (H11 - H12 H22^{-1} H21)^{-1} H12 H22^{-1};
    the two sides agree identically, so the return value measures
    roundoff only.
    """
    h11, h12, h21, h22 = _as_blocks(H11, H12, H21, H22)
    _check_invertible(h11, SingularBlock, "H11")
    _check_invertible(h22, SingularBlock, "H22")
    lhs_core = h22 - h21 @ np.linalg.solve(h11, h12)
    _check_invertible(lhs_core, SingularBlock, "Schur complement of H11")
    lhs = np.linalg.inv(lhs_core)
    rhs_core = h11 - h12 @ np.linalg.solve(h22, h21)
    _check_invertible(rhs_core, SingularBlock, "Schur complement of H22")
    inv22 = np.linalg.inv(h22)
    rhs = inv22 + inv22 @ h21 @ np.linalg.inv(rhs_core) @ h12 @ inv22
    return float(np.max(np.abs(lhs - rhs)))


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


def lagged_auto_covariance(frame: SpatioTemporalFrame, cols,
                           max_lag: int) -> list[np.ndarray]:
    """Autocovariance matrices of the given columns for lags 0..max_lag.

    Lag-k block: (1/n) * sum_{t=1..n-k} (y_{t+k} - ybar)(y_t - ybar)'.
    The temporal predictor projects the readouts first (_autocovariances
    with a basis) and never forms these p x p blocks.
    """
    return _autocovariances(frame, cols, max_lag)


def cross_covariance(frame: SpatioTemporalFrame, partition: Partition) -> np.ndarray:
    """Lag-0 cross-set covariance C_0[S1, S2], a (p1, p2) matrix with divisor n."""
    _check_lags(frame, partition, 0)
    return _lag(frame, 0)[np.ix_(partition.set1, partition.set2)]


def lagged_covariances(frame: SpatioTemporalFrame, partition: Partition,
                       k0: int) -> list[tuple[np.ndarray, ...]]:
    """Auto- and cross-set blocks for lags 1..k0.

    Returns one tuple (auto1, auto2, cross_lead, cross_lag) per lag j in
    1..k0: the set-1 autocovariance at lag j, the set-2 autocovariance
    at lag j, the cross-set covariance at lag j, and the cross-set
    covariance at lag -j. All use full-sample means and divisor n, and
    all are blocks of C_j: C_j[S1, S1], C_j[S2, S2], C_j[S1, S2] and
    C_j[S2, S1]'.
    """
    if int(k0) != k0 or k0 < 1:
        raise ValueError("k0 must be an integer >= 1 (lags start at 1)")
    k0 = int(k0)
    _check_lags(frame, partition, k0)
    s1, s2 = partition.set1, partition.set2
    return [(c[np.ix_(s1, s1)], c[np.ix_(s2, s2)], c[np.ix_(s1, s2)],
             c[np.ix_(s2, s1)].T)
            for c in (_lag(frame, j) for j in range(1, k0 + 1))]


def masked_pairwise(obs: np.ndarray, missing: np.ndarray, rows, cols) -> np.ndarray:
    """Covariance block of obs columns rows x cols tolerating missing cells.

    Entry (i, j) is the sample covariance of columns rows[i] and cols[j]
    over the time points where both are observed (missing False), with
    means taken on that same joint subset and divisor equal to the joint
    count. Any pair with fewer than two joint observations raises
    InsufficientOverlap. The package reads only the rows == cols block
    over a subpanel's rows, through _masked_rows; that block is
    _pairwise's arithmetic on the subpanel's column gathers, so the two
    agree bitwise.
    """
    ridx = list(rows)
    cidx = list(cols)
    if not ridx or not cidx:
        raise ValueError("rows and cols must be nonempty")
    ra = np.where(missing[:, ridx], 0.0, obs[:, ridx])
    rm = (~missing[:, ridx]).astype(np.float64)
    if ridx == cidx:
        return _pairwise(ra, rm, rm.T @ rm)
    ca = np.where(missing[:, cidx], 0.0, obs[:, cidx])
    cm = (~missing[:, cidx]).astype(np.float64)
    counts = rm.T @ cm
    if np.any(counts < 2):
        raise InsufficientOverlap(
            "some location pair has fewer than 2 joint observations")
    sum_x, sum_y = ra.T @ cm, rm.T @ ca
    return (ra.T @ ca - sum_x * sum_y / counts) / counts


def blockwise_gram_matrices(frame: SpatioTemporalFrame, partition: Partition,
                            k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrices (M1, M2) of factors._side_gram from the blocks of
    each lag, every block formed from its own centered half-panel columns:

        M1 = S S' + sum_j [S_1(j) S_1(j)' + S_12(j) S_12(j)' + S_12(-j) S_12(-j)']
        M2 = S' S + sum_j [S_2(j) S_2(j)' + S_12(j)' S_12(j) + S_12(-j)' S_12(-j)]
    """
    n = frame.n
    y1, y2 = (frame.obs[:, list(s)] - frame.obs[:, list(s)].mean(axis=0)
              for s in (partition.set1, partition.set2))
    s = (y1.T @ y2) / n
    m1, m2 = s @ s.T, s.T @ s
    for j in range(1, k0 + 1):
        lead1, lag1, lead2, lag2 = y1[j:], y1[:n - j], y2[j:], y2[:n - j]
        s1, s2 = (lead1.T @ lag1) / n, (lead2.T @ lag2) / n
        s12p, s12m = (lead1.T @ lag2) / n, (lag1.T @ lead2) / n
        m1 += s1 @ s1.T + s12p @ s12p.T + s12m @ s12m.T
        m2 += s2 @ s2.T + s12p.T @ s12p + s12m.T @ s12m
    return m1, m2


def dense_laplacian(locations: LocationSet, subset) -> np.ndarray:
    """L = diag(rowsum W) - W of the sites ``subset``, with W the slice of
    the weights 1/(1 + dist) between all sites, zero on the diagonal."""
    w = 1.0 / (pairwise_distances(locations) + 1.0)
    np.fill_diagonal(w, 0.0)
    w = w[np.ix_(list(subset), list(subset))]
    return np.diag(w.sum(axis=1)) - w


def penalized_eigvecs(M: np.ndarray, penalty, tau: float,
                      d: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-d orthonormal eigenvectors of sym(M) - tau * L.

    M must be symmetric up to roundoff (relative Frobenius defect at most
    1e-8); it is symmetrized as (M + M')/2 before decomposition. Returns
    (vectors, eigenvalues) with the full eigenvalue list in descending
    order. Signs follow a fixed convention: the first entry of each
    vector larger than 1e-12 in magnitude is positive. Within numerically
    tied eigenvalues the solver's ordering is kept.
    """
    if int(d) != d or not 1 <= d <= np.asarray(M).shape[0]:
        raise ValueError("d out of range")
    (evals,), evecs, order = next(_eig_desc(M, penalty, [tau]))
    return _top_vectors(evecs, order, int(d))[0], evals


def snr_estimate(mc_points: int = 100_000, rng_seed: int = 0) -> float:
    """Signal-to-noise ratio of the generator by Monte Carlo integration.

    Root of the latent variance integrated over the unit square, against
    the unit nugget standard deviation: sqrt of the site-average of
    sum_j a_j(s)^2 Var(x_j) over uniform draws on [-1, 1]^2. Averaging
    the variance before the root (not pointwise standard deviations)
    is what reproduces the documented value near 0.72; the pointwise
    form lands near 0.65 instead.
    """
    if mc_points < 1:
        raise ValueError("mc_points must be >= 1")
    rng = np.random.default_rng(rng_seed)
    u = rng.uniform(-1.0, 1.0, size=(mc_points, 2))
    var_xi = loading_values(u) ** 2 @ np.asarray(FACTOR_STATIONARY_VARS)
    return float(np.sqrt(np.mean(var_xi)))


def enumerate_partitions(p: int) -> list[Partition]:
    """Every partition with |set1| = p // 2, as C(p, p//2) labeled splits.

    Small p only; the count grows combinatorially.
    """
    if p < 4:
        raise ValueError("need p >= 4 to enumerate partitions")
    if p > 16:
        raise ValueError("enumeration is only for small p (p <= 16)")
    p1 = p // 2
    universe = range(p)
    parts = []
    for set1 in combinations(universe, p1):
        set2 = tuple(i for i in universe if i not in set1)
        parts.append(Partition(set1=set1, set2=set2))
    return parts


def verify_dual_route(fit, frame: SpatioTemporalFrame, s0, kernel) -> float:
    """Max |difference| between the two spatial-prediction routes.

    Route one krigs the fitted latent field directly. Route two computes
    c(s0)' Sigma_y^{-1} y_t with c(s0) the sample covariance between the
    kriged latent series and the panel (both centered) and Sigma_y the
    dense panel covariance with divisor n. Equality is an algebraic
    identity, so the return value only measures linear-algebra roundoff.

    Guards: the dense route inverts a p x p matrix, so p is capped at 200
    and n <= p (or a numerically singular Sigma_y) raises NonInvertible.
    """
    if frame.p > _DUAL_ROUTE_MAX_P:
        raise ValueError(f"dense route capped at p <= {_DUAL_ROUTE_MAX_P}")
    if not frame.is_complete:
        raise NonInvertible("dense panel covariance needs a complete frame")
    if frame.n <= frame.p:
        raise NonInvertible("need n > p for an invertible panel covariance")
    series = krige_space(fit.xi_hat, frame.locations, s0, kernel)
    yc = frame.obs - frame.obs.mean(axis=0)
    sigma_y = (yc.T @ yc) / frame.n
    evals = np.linalg.eigvalsh(sigma_y)
    if evals[0] <= 1e-12 * evals[-1]:
        raise NonInvertible("panel covariance is numerically singular")
    c = ((series - series.mean()) @ yc) / frame.n
    dense = np.linalg.solve(sigma_y, frame.obs.T).T @ c
    return float(np.max(np.abs(dense - series)))


def best_linear_predictor(cov_zeta_eta: np.ndarray, var_eta: np.ndarray,
                          mean_zeta, mean_eta, eta,
                          var_zeta: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray | None]:
    """Best linear predictor of zeta from eta, and its error covariance.

    prediction = E[zeta] + Cov(zeta, eta) Var(eta)^{-1} (eta - E[eta]).
    When ``var_zeta`` is given the second return value is the error
    covariance Var(zeta) - Cov(zeta, eta) Var(eta)^{-1} Cov(eta, zeta);
    otherwise it is None. Var(eta) must be symmetric positive definite
    (relative eigenvalue floor 1e-12).
    """
    c = np.atleast_2d(np.asarray(cov_zeta_eta, dtype=np.float64))
    v = np.asarray(var_eta, dtype=np.float64)
    mu_z = np.atleast_1d(np.asarray(mean_zeta, dtype=np.float64))
    mu_e = np.atleast_1d(np.asarray(mean_eta, dtype=np.float64))
    e = np.atleast_1d(np.asarray(eta, dtype=np.float64))
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError("var_eta must be square")
    norm = np.linalg.norm(v)
    if norm > 0 and np.linalg.norm(v - v.T) > 1e-8 * norm:
        raise NotSymmetric("var_eta deviates from symmetry")
    evals = np.linalg.eigvalsh(0.5 * (v + v.T))
    if evals[0] <= 1e-12 * max(evals[-1], 0.0) or evals[-1] <= 0.0:
        raise NotPositiveDefinite("var_eta is not positive definite")
    gain = np.linalg.solve(0.5 * (v + v.T), c.T).T
    pred = mu_z + gain @ (e - mu_e)
    err = None
    if var_zeta is not None:
        vz = np.atleast_2d(np.asarray(var_zeta, dtype=np.float64))
        err = vz - gain @ c.T
    return pred, err
