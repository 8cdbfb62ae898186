"""Test oracles: dense reference routes for algebra the package does
without them.

The temporal predictor inverts its block Toeplitz matrix through a
one-block-border recursion and never forms a 2 x 2 block inverse, so the
partitioned inverse and the two Schur-complement routes live here, as
references for criterion 1 and the forecast unit tests.
"""

import numpy as np

from latentkrig.errors import SingularBlock
from latentkrig.forecast import _REL_SINGULAR


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
