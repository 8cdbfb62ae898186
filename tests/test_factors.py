import json

import numpy as np
import pytest

from latentkrig import (
    LocationSet,
    Partition,
    SpatioTemporalFrame,
    build_laplacian,
    default_p_star,
    estimate_d,
    fit_factors,
    load_ensemble,
    random_partition,
    save_fit,
    subspace_distance,
)
from latentkrig.errors import (
    NotSymmetric,
    RankDeficient,
    TooFewEigenvalues,
    TooFewLocations,
)
from latentkrig.ensemble import fit_to_document, locations_to_doc
from latentkrig.factors import _side_gram

from conftest import grid_locations, noise_frame, rank_k_frame
from oracles import blockwise_gram_matrices, dense_laplacian, penalized_eigvecs


# ---- graph Laplacian ----

def test_laplacian_two_points_distance_one():
    locs = LocationSet(ids=("a", "b"), coords=[[0.0, 0.0], [1.0, 0.0]])
    lap = build_laplacian(locs, [0, 1])
    # w = 1 / (1 + 1) = 0.5 off diagonal
    np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_laplacian_quadratic_identity():
    # a'La = 0.5 * sum_ij w_ij (a_i - a_j)^2
    locs = grid_locations(8)
    lap = build_laplacian(locs, range(8))
    w = np.diag(np.diag(lap)) - lap
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal(8)
        quad = float(a @ lap @ a)
        double = 0.5 * sum(w[i, j] * (a[i] - a[j]) ** 2
                           for i in range(8) for j in range(8))
        assert abs(quad - double) <= 1e-12 * max(1.0, abs(quad))


def test_laplacian_psd_and_constant_null():
    locs = grid_locations(9)
    lap = build_laplacian(locs, range(9))
    evals = np.linalg.eigvalsh(lap)
    assert evals[0] >= -1e-12
    # Gershgorin: every eigenvalue of L lies within 2 * max degree
    assert evals[-1] <= 2.0 * np.diag(lap).max() + 1e-12
    np.testing.assert_allclose(lap @ np.ones(9), 0.0, atol=1e-12)


def test_laplacian_subset_and_metric():
    locs = LocationSet(ids=("a", "b", "c"), coords=[[0, 0], [90, 0], [0, 90]],
                       distance_metric="great_circle", radius=1.0)
    lap = build_laplacian(locs, [0, 1])
    expected = 1.0 / (1.0 + np.pi / 2)
    assert -lap[0, 1] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(TooFewLocations):
        build_laplacian(locs, [])


@pytest.mark.parametrize("metric", ["euclidean", "great_circle"])
def test_laplacian_is_bitwise_the_slice_of_the_all_site_weights(metric):
    # each side builds its weights from its own coordinates; distances are
    # elementwise, so that equals slicing the weights of every site
    rng = np.random.default_rng(7)
    for p in (3, 37, 300):
        coords = np.column_stack([rng.uniform(-180, 180, p), rng.uniform(-90, 90, p)])
        locs = LocationSet(ids=tuple(map(str, range(p))), coords=coords,
                           distance_metric=metric)
        for k in (1, 2, p // 2, p):
            subset = rng.choice(p, k, replace=False)  # unsorted
            lap = build_laplacian(locs, subset)
            assert lap.tobytes() == dense_laplacian(locs, subset).tobytes()


# ---- penalized eigenvectors ----

def test_penalized_eigvecs_diagonal_no_penalty():
    m = np.diag([5.0, 1.0, 3.0])
    vecs, evals = penalized_eigvecs(m, None, 0.0, 2)
    np.testing.assert_allclose(evals, [5.0, 3.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(vecs),
                               [[1, 0], [0, 0], [0, 1]], atol=1e-14)
    # sign rule: first entry above 1e-12 in magnitude is positive
    assert vecs[0, 0] > 0 and vecs[2, 1] > 0


def test_penalized_eigvecs_2x2_closed_form():
    # M - tau*L = [[1.5, 1.5], [1.5, 1.5]]: eigenpairs (3, [1,1]/sqrt2)
    # and (0, [1,-1]/sqrt2)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vecs, evals = penalized_eigvecs(m, lap, 0.5, 2)
    np.testing.assert_allclose(evals, [3.0, 0.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(vecs[:, 0], [r, r], atol=1e-12)
    np.testing.assert_allclose(vecs[:, 1], [r, -r], atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 1.0, 100.0])
def test_penalized_eigvecs_orthonormal(tau):
    rng = np.random.default_rng(11)
    b = rng.standard_normal((10, 10))
    m = b @ b.T
    lap = build_laplacian(grid_locations(10), range(10))
    vecs, evals = penalized_eigvecs(m, lap, tau, 6)
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10
    assert np.all(np.diff(evals) <= 1e-9)  # descending


def test_penalized_eigvecs_guards():
    m = np.eye(3)
    with pytest.raises(ValueError):
        penalized_eigvecs(m, None, 0.0, 0)
    with pytest.raises(ValueError):
        penalized_eigvecs(m, None, 0.0, 4)
    with pytest.raises(ValueError):
        penalized_eigvecs(m, None, 1.0, 1)  # tau > 0 needs a Laplacian
    asym = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        penalized_eigvecs(asym, None, 0.0, 1)
    with pytest.raises(ValueError):
        penalized_eigvecs(np.eye(3), np.eye(2), 1.0, 1)  # shape clash


# ---- factor count ----

def test_estimate_d_frozen_examples():
    # ratios 3, 3, 1e9 -> third gap wins
    assert estimate_d([9.0, 3.0, 1.0, 1e-9, 1e-9], p_star=4) == 3
    # all ratios equal -> smallest index wins
    assert estimate_d([8.0, 4.0, 2.0, 1.0], p_star=4) == 1
    assert estimate_d([5.0, 5.0, 5.0, 5.0], p_star=3) == 1
    # exact zero tail is floored, gap at the zero edge wins
    assert estimate_d([5.0, 1.0, 0.0, 0.0], p_star=4) == 2


def test_estimate_d_guards():
    with pytest.raises(ValueError):
        estimate_d([3.0, 1.0], p_star=1)
    with pytest.raises(TooFewEigenvalues):
        estimate_d([3.0, 1.0], p_star=3)
    with pytest.raises(ValueError):
        estimate_d([1.0, 2.0, 3.0], p_star=3)  # ascending input


def test_default_p_star():
    assert default_p_star(10, 12) == 5
    assert default_p_star(4, 9) == 2
    assert default_p_star(2, 3) == 2  # floor


# ---- gram matrices and the full fit ----

@pytest.mark.parametrize("k0", [0, 1, 2])
def test_gram_matrices_match_the_blockwise_oracle(k0):
    for p in (12, 13):  # halves of 6 and 6, then 6 and 7, and 3 against the rest
        frame, *_ = rank_k_frame(40, p, k=2, seed=31, noise=0.5)
        frame = SpatioTemporalFrame(locations=frame.locations,
                                    obs=frame.obs + np.arange(float(p)))
        rest = tuple(i for i in range(p) if i not in (0, 4, 9))
        for part in (random_partition(p, 2), Partition(set1=(0, 4, 9), set2=rest)):
            got_both = (_side_gram(frame, part, k0, side) for side in (1, 2))
            for got, want in zip(got_both, blockwise_gram_matrices(frame, part, k0)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())


def test_gram_matrices_symmetric_psd():
    frame = noise_frame(30, 10, seed=12)
    part = random_partition(10, 1)
    for k0 in (0, 2):
        m1, m2 = (_side_gram(frame, part, k0, side) for side in (1, 2))
        assert m1.shape == (5, 5) and m2.shape == (5, 5)
        np.testing.assert_allclose(m1, m1.T, atol=1e-12)
        np.testing.assert_allclose(m2, m2.T, atol=1e-12)
        assert np.linalg.eigvalsh(m1)[0] >= -1e-10
        assert np.linalg.eigvalsh(m2)[0] >= -1e-10


def test_noiseless_fit_recovers_subspace_exactly():
    frame, a, x, xi = rank_k_frame(60, 12, k=2, seed=13)
    part = random_partition(12, 7)
    fit = fit_factors(frame, part, tau=0.0, p_star=4)
    assert fit.d_hat == 2
    # sqrt in the metric turns 1e-16 roundoff into ~1e-8, so 1e-6 is the
    # honest noiseless tolerance
    assert subspace_distance(fit.A1_hat, a[list(part.set1)]) <= 1e-6
    assert subspace_distance(fit.A2_hat, a[list(part.set2)]) <= 1e-6
    # y lives in the loading span, so the latent estimate is y itself
    np.testing.assert_allclose(fit.xi_hat, frame.obs, atol=1e-8)


def test_fit_readout_uses_raw_panel():
    frame, a, x, xi = rank_k_frame(40, 10, k=1, seed=14, noise=0.3)
    frame = SpatioTemporalFrame(locations=frame.locations,
                                obs=frame.obs + 5.0)  # shift the level
    part = random_partition(10, 2)
    fit = fit_factors(frame, part, tau=0.0, p_star=4)
    np.testing.assert_array_equal(
        fit.x_hat, frame.obs[:, list(part.set1)] @ fit.A1_hat)
    np.testing.assert_array_equal(
        fit.x_star_hat, frame.obs[:, list(part.set2)] @ fit.A2_hat)
    # latent columns rebuilt on the right sides
    np.testing.assert_allclose(
        fit.xi_hat[:, list(part.set1)], fit.x_hat @ fit.A1_hat.T, atol=0)


def test_fit_guards():
    frame = noise_frame(20, 6, seed=15)
    part = random_partition(6, 0)
    for tau in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            fit_factors(frame, part, tau=tau, d_override=2)
    for k0 in (-1, 0.5):
        with pytest.raises(ValueError, match="k0 must be an integer >= 0"):
            _side_gram(frame, part, k0, 1)
    with pytest.raises(TooFewLocations):
        fit_factors(frame, part, tau=0.0)  # p < 8 without p_star
    fit = fit_factors(frame, part, tau=0.0, d_override=2)
    assert fit.d_hat == 2
    with pytest.raises(ValueError):
        fit_factors(frame, part, tau=0.0, d_override=5)  # > min(p1, p2)


@pytest.mark.parametrize("d", [999, 0, 2.5])
def test_d_override_is_checked_before_any_eigensolve(monkeypatch, d):
    from latentkrig import SimConfig, simulate
    frame = simulate(SimConfig(n=60, p=20, seed=4)).frame
    real_eigh, solved = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        solved.append(1)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    with pytest.raises(ValueError, match="d_override out of range"):
        fit_factors(frame, random_partition(20, 1), tau=0.5, d_override=d)
    assert solved == []


def test_d_hat_capped_by_small_side():
    # side 2 has 3 columns: even if side 1 sees 4 factors, the readout
    # basis cannot exceed rank 3
    frame, a, x, xi = rank_k_frame(300, 11, k=4, seed=16, noise=0.05)
    part = Partition(set1=tuple(range(8)), set2=(8, 9, 10))
    fit = fit_factors(frame, part, tau=0.0, p_star=6)
    assert fit.d_hat <= 3


def test_tau_pulls_vectors_toward_smoothness():
    # large tau drives the top vector toward the Laplacian null space
    # (constant over locations)
    frame = noise_frame(50, 10, seed=17)
    part = Partition(set1=tuple(range(5)), set2=tuple(range(5, 10)))
    m1 = _side_gram(frame, part, 0, 1)
    lap = build_laplacian(frame.locations, part.set1)
    vecs, _ = penalized_eigvecs(m1, lap, 1e6, 1)
    flat = np.full(5, 1.0 / np.sqrt(5.0))
    assert abs(abs(flat @ vecs[:, 0]) - 1.0) <= 1e-6


# ---- the stacked tau sweep against the one-matrix path it replaced ----

def _one_matrix_reference(m1, m2, lap1, lap2, tau, p_star, d_override=None):
    """One eigh per side, argsort, the ratio rule and the sign loop, as
    each fit was computed one tau at a time before the stacked sweep."""
    out = []
    for m, lap in ((m1, lap1), (m2, lap2)):
        evals, evecs = np.linalg.eigh(0.5 * (m + m.T) - tau * lap)
        order = np.argsort(evals)[::-1]
        out.append((evals[order], evecs[:, order]))
    (evals1, evecs1), (_, evecs2) = out
    lam = np.maximum(evals1, 1e-300)
    d = (d_override if d_override is not None else
         min(int(np.argmax(lam[:p_star - 1] / lam[1:p_star])) + 1, m2.shape[0]))
    bases = []
    for evecs in (evecs1, evecs2):
        v = evecs[:, :d].copy()
        for j in range(d):
            big = np.nonzero(np.abs(v[:, j]) > 1e-12)[0]
            if big.size and v[big[0], j] < 0:
                v[:, j] = -v[:, j]
        bases.append(v)
    return bases[0], bases[1], d, evals1


@pytest.mark.parametrize("k0, p_star, grid", [
    (0, None, [0.0, 0.1, 0.5, 2.0, 10.0]),
    (1, None, [0.3, 1.0, 4.0]),
    (0, 3, list(np.linspace(0.0, 10.0, 37))),   # several stacks
    (1, 5, [0.0, 7.5])])
def test_tau_sweep_is_bitwise_the_per_tau_solve(k0, p_star, grid, d_override=None):
    from latentkrig.factors import _fit_grid
    frame, *_ = rank_k_frame(60, 24, k=3, seed=21, noise=0.7)
    part = random_partition(24, 5)
    m1, m2 = (_side_gram(frame, part, k0, side) for side in (1, 2))
    lap1, lap2 = (build_laplacian(frame.locations, s) for s in (part.set1, part.set2))
    swept = _fit_grid(frame, part, grid, k0, p_star, d_override)
    assert len(swept) == len(grid)
    width = p_star if p_star is not None else default_p_star(12, 12)
    names = ("A1_hat", "A2_hat", "d_hat", "eigenvalues")
    for tau, got in zip(grid, swept):
        one = fit_factors(frame, part, tau, k0, p_star, d_override)
        ref = _one_matrix_reference(m1, m2, lap1, lap2, tau, width, d_override)
        for name, want in zip(names, ref):
            assert np.asarray(getattr(got, name)).tobytes() \
                == np.asarray(getattr(one, name)).tobytes() \
                == np.asarray(want).tobytes(), (tau, name)
        assert (got.tau, got.k0) == (one.tau, one.k0) == (tau, k0)
        assert got.xi_hat.tobytes() == one.xi_hat.tobytes()
        assert got.A1_hat.flags.c_contiguous and got.A2_hat.flags.c_contiguous


def test_tau_sweep_with_d_override_is_bitwise_the_per_tau_solve():
    test_tau_sweep_is_bitwise_the_per_tau_solve(0, None, [0.0, 0.5, 3.0], d_override=2)


def test_estimate_d_rows_match_single_spectra():
    rng = np.random.default_rng(22)
    lam = -np.sort(-rng.exponential(size=(9, 12)) ** 3, axis=1)
    lam[3, 4:] = 0.0
    lam[5] = 2.0  # all ratios tie
    rows = estimate_d(lam, 6)
    assert rows.tolist() == [estimate_d(row, 6) for row in lam]
    with pytest.raises(ValueError):
        estimate_d(lam[:, ::-1], 6)  # one ascending row is enough
    with pytest.raises(TooFewEigenvalues):
        estimate_d(lam[None], 6)


def test_fit_at_tau_zero_builds_no_laplacian(monkeypatch):
    import latentkrig.factors as factors
    from latentkrig.simbench import _cv_scores
    frame, *_ = rank_k_frame(50, 16, k=2, seed=23, noise=0.5)
    part = random_partition(16, 2)
    penalized = factors._fit_grid(frame, part, [0.0, 1.0])[0]
    grams, real_gram = [], factors._side_gram
    monkeypatch.setattr(factors, "build_laplacian", None)
    monkeypatch.setattr(factors, "_side_gram",
                        lambda *args: grams.append(args[-1]) or real_gram(*args))
    fit = fit_factors(frame, part, tau=0.0)
    assert fit.A1_hat.tobytes() == penalized.A1_hat.tobytes()
    assert fit.A2_hat.tobytes() == penalized.A2_hat.tobytes()
    assert grams == [1, 2]
    grams.clear()
    # nor does a cross-validation over {0}, with one Gram build per side and
    # fold; inline, so the folds' builds do not interleave
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    _cv_scores(frame, np.array([0.0]), 5, 2, 0, None, "gaussian")
    assert grams == [1, 2] * 5


def test_fits_write_to_no_input():
    from latentkrig.factors import _EIGH_STACK, _eig_desc
    frame, *_ = rank_k_frame(60, 16, k=2, seed=24, noise=0.5)
    part = random_partition(16, 5)
    fit_factors(frame, part, tau=1.0, k0=2)  # builds the shared statistics
    shared = [frame.obs, frame.locations.coords, *frame._memo._values.values()]
    before = [a.tobytes() for a in shared]
    m1 = _side_gram(frame, part, 2, 1)
    lap = build_laplacian(frame.locations, part.set1)
    m = m1 + 1e-12 * np.triu(m1)  # within tolerance, but not symmetric
    inputs = [m, lap]
    given = [a.tobytes() for a in inputs]
    grid = np.linspace(0.0, 3.0, 21)  # several stacked chunks
    for penalty, taus in ((lap, grid), (lap, [1.0]), (None, [0.0, 0.0])):
        chunks = -(-len(taus) // _EIGH_STACK)
        assert len(list(_eig_desc(m, penalty, taus))) == chunks
    fit_factors(frame, part, tau=1.0, k0=2)
    fit_factors(frame, part, tau=0.0)
    assert [a.tobytes() for a in inputs] == given
    assert [a.tobytes() for a in shared] == before
    assert not any(a.flags.writeable for a in shared)


# ---- subspace distance ----

def test_subspace_distance_endpoints():
    b = np.random.default_rng(18).standard_normal((6, 2))
    assert subspace_distance(b, b) == pytest.approx(0.0, abs=1e-12)
    e12 = np.eye(4)[:, :2]
    e34 = np.eye(4)[:, 2:]
    assert subspace_distance(e12, e34) == pytest.approx(1.0, abs=1e-12)


def test_subspace_distance_basis_invariant():
    rng = np.random.default_rng(19)
    b = rng.standard_normal((7, 3))
    r = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    assert subspace_distance(b, b @ r) <= 1e-10


def test_subspace_distance_width_mismatch():
    e1 = np.eye(3)[:, :1]
    e12 = np.eye(3)[:, :2]
    # nested spans of widths 1 and 2: overlap 1, normalized by 2
    assert subspace_distance(e1, e12) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_subspace_distance_guards():
    with pytest.raises(RankDeficient):
        subspace_distance(np.ones((4, 2)), np.eye(4)[:, :2])
    with pytest.raises(ValueError):
        subspace_distance(np.ones(4), np.eye(4)[:, :2])


# ---- serialization ----

def test_fit_save_load_round_trip(tmp_path):
    frame, a, x, xi = rank_k_frame(30, 8, k=2, seed=20, noise=0.5)
    part = random_partition(8, 3)
    fit = fit_factors(frame, part, tau=0.25, k0=1, p_star=3)
    path = tmp_path / "fit.json"
    save_fit(fit, path, locations=frame.locations)
    ens, locs = load_ensemble(path)
    back = ens.members[0]
    assert locs is not None and locs.ids == frame.locations.ids
    assert back.partition.set1 == fit.partition.set1
    assert back.d_hat == fit.d_hat
    assert back.tau == fit.tau and back.k0 == fit.k0
    for name in ("A1_hat", "A2_hat", "x_hat", "x_star_hat",
                 "eigenvalues", "xi_hat"):
        np.testing.assert_array_equal(getattr(back, name), getattr(fit, name),
                                      err_msg=name)


def test_fit_document_is_compact_json(tmp_path):
    frame, *_ = rank_k_frame(30, 8, k=2, seed=20, noise=0.5)
    fit = fit_factors(frame, random_partition(8, 3), tau=0.25, k0=1, p_star=3)
    path = tmp_path / "fit.json"
    save_fit(fit, path, locations=frame.locations)
    want = json.dumps({**fit_to_document(fit),
                       "locations": locations_to_doc(frame.locations)}) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
