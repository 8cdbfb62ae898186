"""Latent factor estimation by penalized eigenanalysis of split covariances.

Model: after detrending, y_t(s) = sum_j a_j(s) x_tj + eps_t(s) with an
unknown number d of factors, smooth loading functions a_j, and a nugget
eps that is uncorrelated across both time and locations. Splitting the
locations into two sets kills the nugget in the cross-set covariance S,
so the column space of S identifies the loading values on set 1 and the
row space those on set 2.

Estimation on each set runs an eigendecomposition of a Gram matrix of S
(optionally augmented with lagged blocks) minus a roughness penalty:

    M1 = S S' + sum_{j<=k0} [S_1(j) S_1(j)' + S_12(j) S_12(j)'
                             + S_12(-j) S_12(-j)']
    eigenvectors of M1 - tau * L1

where L1 is the graph Laplacian of set 1 with weights w_ij =
1 / (1 + dist(s_i, s_j)). The penalty tau * a' L a = tau/2 * sum w_ij
(a_i - a_j)^2 favours loading vectors that vary smoothly over space.
M2 mirrors M1 with transposed blocks. The factor count is estimated by
the eigenvalue ratio method on the spectrum of M1 - tau * L1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .covariance import _check_lags, _lag, _lag_gram
from .errors import (NotSymmetric, ParseError, RankDeficient, TooFewEigenvalues,
                     TooFewLocations)
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
                     locations_from_doc, locations_to_doc,
                     pairwise_distances)

_SIGN_EPS = 1e-12
_EIG_FLOOR = 1e-300
_EIGH_STACK = 16  # matrices per stacked eigh; keeps peak memory flat


def _site_weights(locations: LocationSet) -> np.ndarray:
    """w_ij = 1/(1 + dist) between all sites, zero diagonal, built once per
    LocationSet."""
    def build() -> np.ndarray:
        w = 1.0 / (1.0 + pairwise_distances(locations))
        np.fill_diagonal(w, 0.0)
        return w
    return locations._memo.get("laplacian_weights", build)


def build_laplacian(locations: LocationSet, subset) -> np.ndarray:
    """Graph Laplacian L = diag(rowsum W) - W of the sites ``subset``, with
    W their weights sliced from those shared by every subset of the set."""
    idx = list(subset)
    if not idx:
        raise TooFewLocations("laplacian needs a nonempty subset")
    w = _site_weights(locations)[np.ix_(idx, idx)]
    lap = -w
    np.fill_diagonal(lap, w.sum(axis=1))
    return lap


def _laplacian_matrix(penalty, dim: int, taus: np.ndarray) -> np.ndarray:
    if penalty is None:
        if np.any(taus != 0.0):
            raise ValueError("tau > 0 requires a Laplacian")
        return np.zeros((dim, dim))
    mat = np.asarray(penalty, float)
    if mat.shape != (dim, dim):
        raise ValueError("Laplacian shape disagrees with M")
    return mat


def _top_vectors(evecs: np.ndarray, order: np.ndarray, d: int) -> np.ndarray:
    """The d leading eigenvectors of each matrix in a stack from _eig_desc,
    each flipped so that its first entry above 1e-12 in size is positive."""
    vectors = np.take_along_axis(evecs, order[:, None, :d], -1)
    big = np.abs(vectors) > _SIGN_EPS
    first = np.take_along_axis(vectors, big.argmax(axis=-2)[..., None, :], -2)
    return np.where(big.any(axis=-2, keepdims=True) & (first < 0), -vectors, vectors)


def _eig_desc(M: np.ndarray, penalty, taus):
    """Per chunk of at most _EIGH_STACK taus: the descending spectra of
    sym(M) - tau * L, the eigenvectors in solver order and their descending
    column order. M is checked and symmetrized once; eigh on the stack is
    bitwise eigh on each matrix."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    norm = np.linalg.norm(M)
    if norm > 0 and np.linalg.norm(M - M.T) > 1e-8 * norm:
        raise NotSymmetric("M deviates from symmetry beyond 1e-8 relative")
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    lap = _laplacian_matrix(penalty, M.shape[0], taus)
    sym = 0.5 * (M + M.T)
    for lo in range(0, taus.size, _EIGH_STACK):
        evals, evecs = np.linalg.eigh(sym - taus[lo:lo + _EIGH_STACK, None, None] * lap)
        order = np.argsort(evals, axis=-1)[:, ::-1]
        yield np.take_along_axis(evals, order, -1), evecs, order


def estimate_d(eigenvalues, p_star: int):
    """Eigenvalue-ratio estimate of the factor count.

    Scans j = 1..p_star-1 and returns the j maximizing lam_j / lam_{j+1}
    on the descending, positive-part spectrum (values floored at 1e-300
    so trailing zeros cannot produce 0/0). Ties resolve to the smallest j.
    A (k, m) stack of spectra gives one estimate per row, as an array.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if int(p_star) != p_star or p_star < 2:
        raise ValueError("p_star must be an integer >= 2")
    p_star = int(p_star)
    if lam.ndim not in (1, 2) or lam.shape[-1] < p_star:
        raise TooFewEigenvalues(f"need at least p_star={p_star} eigenvalues")
    if np.any(np.diff(lam) > 1e-9 * np.maximum(1.0, np.abs(lam[..., :1]))):
        raise ValueError("eigenvalues must be in descending order")
    lam = np.maximum(lam, _EIG_FLOOR)
    d = np.argmax(lam[..., :p_star - 1] / lam[..., 1:p_star], axis=-1) + 1
    return int(d) if lam.ndim == 1 else d


def default_p_star(p1: int, p2: int) -> int:
    return max(2, min(p1, p2) // 2)


@dataclass
class FactorModelFit:
    """Result of one split-panel fit.

    A1_hat (p1, d) and A2_hat (p2, d) are orthonormal loading estimates
    for the two location sets; x_hat = y_t1' A1_hat and x_star_hat =
    y_t2' A2_hat are the two factor-series readouts; xi_hat (n, p) holds
    the latent-field estimate A A' y at every original column position.
    eigenvalues is the full descending spectrum of M1 - tau * L1 used by
    the ratio estimator.

    fit_factors leaves the three readouts to be read off its panel the
    first time they are used, so a caller that needs only the loadings,
    as a forecast member does, never forms them. A fit loaded from a
    document carries its stored readouts instead.
    """

    partition: Partition
    A1_hat: np.ndarray
    A2_hat: np.ndarray
    d_hat: int
    eigenvalues: np.ndarray
    tau: float
    k0: int
    _frame: SpatioTemporalFrame | None = field(default=None, init=False,
                                               repr=False, compare=False)

    @cached_property
    def x_hat(self) -> np.ndarray:
        return self._frame.obs[:, list(self.partition.set1)] @ self.A1_hat

    @cached_property
    def x_star_hat(self) -> np.ndarray:
        return self._frame.obs[:, list(self.partition.set2)] @ self.A2_hat

    @cached_property
    def xi_hat(self) -> np.ndarray:
        return assemble_latent(self._frame, self.partition, self.A1_hat,
                               self.A2_hat)


def gram_matrices(frame: SpatioTemporalFrame, partition: Partition,
                  k0: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The two Gram matrices (M1, M2) fed to the penalized eigensolver.

    With S = C_0[S1, S2] and the frame's shared lag covariances C_j,

        M1 = S S' + sum_{j=1..k0} [(C_j C_j')[S1, S1] + C_j[S2, S1]' C_j[S2, S1]]
        M2 = S' S + sum_{j=1..k0} [(C_j C_j')[S2, S2] + C_j[S1, S2]' C_j[S1, S2]]

    The first lag term is the sum S_1(j) S_1(j)' + S_12(j) S_12(j)' of
    the set-1 autocovariance and lead cross-covariance terms, which is
    C_j[S1, :] C_j[S1, :]'. It is a slice of the partition-free C_j C_j',
    so each partition pays for two lag products per lag, not four. Every
    caller, one partition or many, uses this formula, so a single fit
    and an ensemble member on the same frame agree bitwise.

    Every fit builds them through _fit_grid, once per partition for a
    whole tau grid.
    """
    if int(k0) != k0 or k0 < 0:
        raise ValueError("k0 must be an integer >= 0")
    k0 = int(k0)
    _check_lags(frame, partition, k0)
    s1, s2 = partition.set1, partition.set2
    s = _lag(frame, 0)[np.ix_(s1, s2)]
    m1 = s @ s.T
    m2 = s.T @ s
    for j in range(1, k0 + 1):
        c, cc = _lag(frame, j), _lag_gram(frame, j)
        lead, back = c[np.ix_(s1, s2)], c[np.ix_(s2, s1)]
        m1 += cc[np.ix_(s1, s1)] + back.T @ back
        m2 += cc[np.ix_(s2, s2)] + lead.T @ lead
    return m1, m2


def _fit_grid(frame: SpatioTemporalFrame, partition: Partition, taus,
              k0: int = 0, p_star: int | None = None,
              d_override: int | None = None) -> list[FactorModelFit]:
    """fit_factors at each tau in taus on one split, without its guards.

    The Gram matrices are built once, the Laplacians only when some tau
    is > 0, and each side sweeps the grid in stacked eigensolves, so
    every fit is bitwise the one-tau fit. The factor count is read off
    the penalized side-1 spectrum unless overridden.
    """
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    m1, m2 = gram_matrices(frame, partition, k0)
    lap1, lap2 = ((None, None) if not np.any(taus > 0) else
                  (build_laplacian(frame.locations, s)
                   for s in (partition.set1, partition.set2)))
    p1, p2 = m1.shape[0], m2.shape[0]
    side1 = []
    for evals, evecs, order in _eig_desc(m1, lap1, taus):
        if d_override is None:  # the side-2 basis cannot exceed p2 columns
            d = np.minimum(estimate_d(evals, p_star if p_star is not None
                                      else default_p_star(p1, p2)), p2)
        elif int(d_override) != d_override or not 1 <= d_override <= min(p1, p2):
            raise ValueError("d_override out of range")
        else:
            d = np.full(len(evals), int(d_override))
        top = _top_vectors(evecs, order, d.max())
        side1 += [(top[k, :, :d[k]].copy(), int(d[k]), evals[k]) for k in range(len(d))]
    d_max = max(d for _, d, _ in side1)
    side2 = [a2 for _, evecs, order in _eig_desc(m2, lap2, taus)
             for a2 in _top_vectors(evecs, order, d_max)]
    fits = []
    for (a1, d, evals1), a2, tau in zip(side1, side2, taus):
        fit = FactorModelFit(partition=partition, A1_hat=a1,
                             A2_hat=a2[:, :d].copy(), d_hat=d,
                             eigenvalues=evals1, tau=float(tau), k0=int(k0))
        fit._frame = frame
        fits.append(fit)
    return fits


def fit_factors(frame: SpatioTemporalFrame, partition: Partition, tau: float,
                k0: int = 0, p_star: int | None = None,
                d_override: int | None = None) -> FactorModelFit:
    """Fit the latent factor structure on one location split.

    Parameters
    ----------
    frame : complete panel (impute first otherwise).
    partition : the location split; covariance blocks are built across it.
    tau : roughness penalty weight, finite and >= 0.
    k0 : extra lags folded into the Gram matrices, an integer >= 0.
    p_star : scan width for the ratio estimator. Defaults to
        max(2, floor(min(p1, p2)/2)), which requires p >= 8; pass an
        explicit value (or d_override) for smaller panels.
    d_override : skip estimation and use this factor count.
    """
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and >= 0")
    if p_star is None and d_override is None and frame.p < 8:
        raise TooFewLocations(
            "default p_star needs p >= 8; pass p_star or d_override")
    return _fit_grid(frame, partition, [tau], k0, p_star, d_override)[0]


def assemble_latent(frame: SpatioTemporalFrame, partition: Partition,
                    a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Latent field A A' y per side, written back to original columns.

    The factor readouts use the raw (uncentered) panel; the nugget was
    removed through the cross-set covariance already, not by centering.
    """
    xi = np.empty((frame.n, frame.p))
    xi[:, list(partition.set1)] = (frame.obs[:, list(partition.set1)] @ a1) @ a1.T
    xi[:, list(partition.set2)] = (frame.obs[:, list(partition.set2)] @ a2) @ a2.T
    return xi


def subspace_distance(B1: np.ndarray, B2: np.ndarray) -> float:
    """Distance between the column spaces of two full-rank matrices.

    D = sqrt(1 - tr(P1 P2) / max(d1, d2)) with P_i the orthogonal
    projector onto span(B_i). Zero iff the spans coincide (equal widths),
    one iff they are orthogonal. Unequal widths are allowed; the wider
    rank normalizes, so D > 0 whenever the dimensions differ.
    """
    out = []
    for b in (B1, B2):
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] == 0:
            raise ValueError("loading matrices must be 2-d with >= 1 column")
        sv = np.linalg.svd(b, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise RankDeficient("loading matrix is rank deficient")
        q, _ = np.linalg.qr(b)
        out.append(q)
    q1, q2 = out
    overlap = np.linalg.norm(q1.T @ q2) ** 2
    val = 1.0 - overlap / max(q1.shape[1], q2.shape[1])
    return float(np.sqrt(max(val, 0.0)))


# ---- serialization ----

def _matrix_doc(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": a.reshape(-1).tolist()}


def _matrix_from_doc(doc: dict) -> np.ndarray:
    return np.array(doc["data"], dtype=np.float64).reshape(doc["rows"], doc["cols"])


def fit_to_document(fit: FactorModelFit,
                    locations: LocationSet | None = None) -> dict:
    """JSON-ready dict for a fit and its latent field, optionally with sites."""
    doc = {
        "format": "latentkrig-fit",
        "version": 1,
        "partition": {"set1": list(fit.partition.set1),
                      "set2": list(fit.partition.set2)},
        "d_hat": int(fit.d_hat),
        "tau": float(fit.tau),
        "k0": int(fit.k0),
        "eigenvalues": [float(v) for v in fit.eigenvalues],
        "A1_hat": _matrix_doc(fit.A1_hat),
        "A2_hat": _matrix_doc(fit.A2_hat),
        "x_hat": _matrix_doc(fit.x_hat),
        "x_star_hat": _matrix_doc(fit.x_star_hat),
        "xi_hat": _matrix_doc(fit.xi_hat),
    }
    if locations is not None:
        doc["locations"] = locations_to_doc(locations)
    return doc


def fit_from_document(doc: dict) -> tuple[FactorModelFit, LocationSet | None]:
    part = Partition(set1=tuple(doc["partition"]["set1"]),
                     set2=tuple(doc["partition"]["set2"]))
    xi = doc.get("xi_hat")
    fit = FactorModelFit(
        partition=part,
        A1_hat=_matrix_from_doc(doc["A1_hat"]),
        A2_hat=_matrix_from_doc(doc["A2_hat"]),
        d_hat=int(doc["d_hat"]),
        eigenvalues=np.array(doc["eigenvalues"], dtype=np.float64),
        tau=float(doc["tau"]),
        k0=int(doc["k0"]),
    )
    fit.x_hat = _matrix_from_doc(doc["x_hat"])
    fit.x_star_hat = _matrix_from_doc(doc["x_star_hat"])
    fit.xi_hat = _matrix_from_doc(xi) if xi is not None else np.zeros((0, part.p))
    locs = locations_from_doc(doc["locations"]) if "locations" in doc else None
    return fit, locs


def save_fit(fit: FactorModelFit, path, locations: LocationSet | None = None) -> None:
    _write_document(path, fit_to_document(fit, locations))


def _write_document(path, doc: dict) -> None:
    """Compact JSON plus a newline, UTF-8: the one writer of model documents."""
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _read_document(path, build):
    """build(doc) on the JSON object in ``path``, else ParseError naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("not a model document")
        return build(doc)
    except KeyError as exc:
        raise ParseError(f"{path}: model document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_fit(path) -> tuple[FactorModelFit, LocationSet | None]:
    return _read_document(path, fit_from_document)
