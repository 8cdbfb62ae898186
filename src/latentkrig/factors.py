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

from .covariance import _check_lags, _check_width, _lag, _lag_gram
from .errors import (LatentKrigError, NotSymmetric, ParseError, RankDeficient,
                     TooFewEigenvalues, TooFewLocations)
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
                     distance_matrix, locations_from_doc, locations_to_doc)

_SIGN_EPS = 1e-12
_EIG_FLOOR = 1e-300
_EIGH_STACK = 8  # matrices per stacked eigh; keeps peak memory flat


def build_laplacian(locations: LocationSet, subset) -> np.ndarray:
    """Graph Laplacian L = diag(rowsum W) - W of the sites ``subset``, with
    W_ij = 1/(1 + dist) and zero diagonal, built from those sites'
    coordinates alone. Distances are elementwise, so W is bitwise the
    slice of the all-site weights, which are never formed or kept."""
    idx = list(subset)
    if not idx:
        raise TooFewLocations("laplacian needs a nonempty subset")
    coords = locations.coords[idx]
    lap = distance_matrix(coords, coords, locations.distance_metric, locations.radius)
    lap += 1.0
    np.divide(1.0, lap, out=lap)
    np.fill_diagonal(lap, 0.0)
    degree = lap.sum(axis=1)
    np.negative(lap, out=lap)
    np.fill_diagonal(lap, degree)
    return lap


def _laplacian_matrix(penalty, dim: int, taus: np.ndarray) -> np.ndarray | None:
    """The penalty as a float array, or None for no penalty (all taus 0)."""
    if penalty is None:
        if np.any(taus != 0.0):
            raise ValueError("tau > 0 requires a Laplacian")
        return None
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
    column order. M is checked and symmetrized once, into an array of the
    sweep's own; M and the penalty are never written. With no penalty
    sym(M) itself is solved (x - 0 * 0 is x). eigh on the stack is
    bitwise eigh on each matrix."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    sym = np.subtract(M, M.T)  # the asymmetry first, then sym(M) in its place
    norm = np.linalg.norm(M)
    if norm > 0 and np.linalg.norm(sym) > 1e-8 * norm:
        raise NotSymmetric("M deviates from symmetry beyond 1e-8 relative")
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    lap = _laplacian_matrix(penalty, M.shape[0], taus)
    np.add(M, M.T, out=sym)
    sym *= 0.5
    del M  # a Gram matrix passed straight in is freed here
    for lo in range(0, taus.size, _EIGH_STACK):
        chunk = taus[lo:lo + _EIGH_STACK, None, None]
        if lap is None:
            stack = np.broadcast_to(sym, (len(chunk),) + sym.shape)
        else:
            stack = np.multiply(chunk, lap)
            np.subtract(sym, stack, out=stack)
        if lo + _EIGH_STACK >= taus.size:
            del sym, lap  # the last solve holds its stack alone
        evals, evecs = np.linalg.eigh(stack)
        del stack
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

    Each is built alone by _side_gram, which every fit uses too, one
    side at a time.
    """
    return _side_gram(frame, partition, k0, 1), _side_gram(frame, partition, k0, 2)


def _side_gram(frame: SpatioTemporalFrame, partition: Partition, k0: int,
               side: int) -> np.ndarray:
    """M1 (side 1) or M2 (side 2) of gram_matrices, without the other's
    products. A lag term is summed before it is added, as in the formula."""
    if int(k0) != k0 or k0 < 0:
        raise ValueError("k0 must be an integer >= 0")
    k0 = int(k0)
    _check_lags(frame, partition, k0)
    s1, s2 = partition.set1, partition.set2
    own, other = (s1, s2) if side == 1 else (s2, s1)
    s = _lag(frame, 0)[np.ix_(s1, s2)]
    m = s @ s.T if side == 1 else s.T @ s
    del s
    for j in range(1, k0 + 1):
        cross = _lag(frame, j)[np.ix_(other, own)]
        term = cross.T @ cross
        del cross
        term += _lag_gram(frame, j)[np.ix_(own, own)]
        m += term
    return m


def _fit_grid(frame: SpatioTemporalFrame, partition: Partition, taus,
              k0: int = 0, p_star: int | None = None,
              d_override: int | None = None) -> list[FactorModelFit]:
    """fit_factors at each tau in taus on one split, without its guards.

    Side 1 builds its Gram matrix, and its Laplacian only when some tau is
    > 0, and sweeps the grid in stacked eigensolves; only then does side 2
    build and solve its own, so a fit holds one side's matrices at a time.
    Every fit is bitwise the one-tau fit. The factor count is read off
    the penalized side-1 spectrum unless overridden.
    """
    taus = np.asarray(taus, dtype=np.float64).reshape(-1)
    p1, p2 = len(partition.set1), len(partition.set2)
    if d_override is not None and (int(d_override) != d_override
                                   or not 1 <= d_override <= min(p1, p2)):
        raise ValueError("d_override out of range")

    def sweep(side: int, subset):
        m = _side_gram(frame, partition, k0, side)
        lap = build_laplacian(frame.locations, subset) if np.any(taus > 0) else None
        return _eig_desc(m, lap, taus)  # which frees m once it is symmetrized

    side1 = []
    for evals, evecs, order in sweep(1, partition.set1):
        if d_override is None:  # the side-2 basis cannot exceed p2 columns
            d = np.minimum(estimate_d(evals, p_star if p_star is not None
                                      else default_p_star(p1, p2)), p2)
        else:
            d = np.full(len(evals), int(d_override))
        top = _top_vectors(evecs, order, d.max())
        side1 += [(top[k, :, :d[k]].copy(), int(d[k]), evals[k]) for k in range(len(d))]
    del evecs  # side 2 does not hold side 1's last eigenvectors
    d_max = max(d for _, d, _ in side1)
    side2 = [a2 for _, evecs, order in sweep(2, partition.set2)
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
    The partition must split every one of the frame's sites.
    """
    _check_width(frame, partition)
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


def _matrix_from_doc(doc: dict, key: str, rows: int | None = None,
                     cols: int | None = None) -> np.ndarray:
    """The matrix block doc[key], whose every entry must be finite, with
    rows rows and cols columns where those are given."""
    block = doc[key]
    try:
        a = np.array(block["data"], dtype=np.float64).reshape(block["rows"], block["cols"])
    except (TypeError, KeyError, ValueError):
        raise ValueError(f"{key} is not a matrix block") from None
    if not np.isfinite(a).all():
        raise ParseError(f"{key} holds a non-finite number")
    want = (a.shape[0] if rows is None else rows, a.shape[1] if cols is None else cols)
    if a.shape != want:
        raise ValueError(f"{key} is {a.shape[0]} x {a.shape[1]}, expected {want[0]} x {want[1]}")
    return a


def fit_to_document(fit: FactorModelFit) -> dict:
    """JSON-ready dict for a fit and its latent field."""
    return {
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


def fit_from_document(doc: dict) -> FactorModelFit:
    """The fit a fit document holds, its blocks checked against its
    partition, d_hat and one another."""
    part = Partition(set1=tuple(doc["partition"]["set1"]),
                     set2=tuple(doc["partition"]["set2"]))
    d = int(doc["d_hat"])
    fit = FactorModelFit(
        partition=part,
        A1_hat=_matrix_from_doc(doc, "A1_hat", len(part.set1), d),
        A2_hat=_matrix_from_doc(doc, "A2_hat", len(part.set2), d),
        d_hat=d,
        eigenvalues=np.array(doc["eigenvalues"], dtype=np.float64),
        tau=float(doc["tau"]),
        k0=int(doc["k0"]),
    )
    if fit.eigenvalues.shape != (len(part.set1),):
        raise ValueError(f"eigenvalues must hold {len(part.set1)} numbers")
    fit.xi_hat = _matrix_from_doc(doc, "xi_hat", None, part.p)
    n = fit.xi_hat.shape[0]
    fit.x_hat = _matrix_from_doc(doc, "x_hat", n, d)
    fit.x_star_hat = _matrix_from_doc(doc, "x_star_hat", n, d)
    return fit


def save_fit(fit: FactorModelFit, path, locations: LocationSet | None = None) -> None:
    _write_document(path, fit_to_document(fit), locations)


def _write_document(path, doc: dict, locations: LocationSet | None) -> None:
    """Compact JSON plus a newline, UTF-8, with the locations block, when
    given, as the last key: the one writer of model documents."""
    if locations is not None:
        doc = {**doc, "locations": locations_to_doc(locations)}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _read_document(path, builds: dict):
    """(builds[kind](doc), locations) of the JSON object in ``path``, whose
    "format" is that kind, else ParseError naming the file: the one place
    a model document's kind and locations block are read. The locations,
    None if the document has none, must number the model's latent field
    columns. A package error keeps its class."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        kind = doc.get("format") if isinstance(doc, dict) else None
        if not isinstance(kind, str) or kind not in builds:
            raise ValueError(f"expected a {' or '.join(builds)} document")
        model = builds[kind](doc)
        locs = locations_from_doc(doc["locations"]) if "locations" in doc else None
        width = (model.xi_hat if isinstance(model, FactorModelFit)
                 else model.xi_tilde).shape[1]
        if locs is not None and locs.p != width:
            raise ValueError(f"the latent field has {width} columns for "
                             f"{locs.p} locations")
        return model, locs
    except LatentKrigError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{path}: model document lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_fit(path) -> tuple[FactorModelFit, LocationSet | None]:
    """The fit and embedded locations of a fit document; any other kind
    of document is a ParseError."""
    return _read_document(path, {"latentkrig-fit": fit_from_document})
