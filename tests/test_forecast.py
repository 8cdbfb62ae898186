import sys

import numpy as np
import pytest

from latentkrig import (
    Partition,
    SpatioTemporalFrame,
    assemble_block_toeplitz,
    estimate_sigma_x,
    fit_factors,
    lagged_auto_covariance,
    forecast,
    forecast_ensemble,
    random_partition,
    recursive_toeplitz_inverse,
)
from latentkrig._util import member_seeds
from latentkrig.errors import (
    LagTooLarge,
    MissingDataError,
    NotPositiveDefinite,
    SingularBlock,
    SingularInnovation,
)

from conftest import grid_locations, noise_frame, rank_k_frame
from oracles import partitioned_inverse, woodbury_identity_check


def random_spd(rng, m):
    b = rng.standard_normal((m, m))
    return b @ b.T + m * np.eye(m)


def var1_lag_blocks(d, lags, seed):
    """Stationary VAR(1) autocovariances: S(k) = Phi^k S(0), with S(0)
    summed from the convergent series so the stacked covariance is PSD."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((d, d))
    phi *= 0.6 / max(np.abs(np.linalg.eigvals(phi)))
    q = random_spd(rng, d)
    s0 = np.zeros((d, d))
    term = q
    for _ in range(200):
        s0 += term
        term = phi @ term @ phi.T
    s0 = 0.5 * (s0 + s0.T)
    out = [s0]
    for _ in range(lags):
        out.append(phi @ out[-1])
    return out


# ---- partitioned inversion ----

def test_partitioned_inverse_matches_dense():
    rng = np.random.default_rng(40)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        h = random_spd(rng, m)
        k = int(rng.integers(1, m))
        inv = partitioned_inverse(h[:k, :k], h[:k, k:], h[k:, :k], h[k:, k:])
        np.testing.assert_allclose(inv, np.linalg.inv(h), atol=1e-10)
        np.testing.assert_allclose(inv @ h, np.eye(m), atol=1e-10)


def test_partitioned_inverse_singular_blocks():
    with pytest.raises(SingularBlock):
        partitioned_inverse(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    ones = np.ones((2, 2)) + np.eye(2)
    with pytest.raises(SingularBlock):
        # H = [[A, A], [A, A]] has Schur complement zero
        partitioned_inverse(ones, ones, ones, ones)


def test_woodbury_identity_tight():
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = int(rng.integers(2, 8))
        h = random_spd(rng, m)
        k = int(rng.integers(1, m))
        gap = woodbury_identity_check(h[:k, :k], h[:k, k:], h[k:, :k],
                                      h[k:, k:])
        assert gap <= 1e-10
    with pytest.raises(SingularBlock):
        woodbury_identity_check(np.eye(2), np.eye(2), np.eye(2),
                                np.zeros((2, 2)))


# ---- block-Toeplitz recursion ----

def test_assemble_block_toeplitz_layout():
    s = [np.array([[1.0, 0.1], [0.1, 1.0]]),
         np.array([[0.5, 0.2], [0.0, 0.5]]),
         np.array([[0.25, 0.1], [0.0, 0.25]])]
    w = assemble_block_toeplitz(s, 2)
    assert w.shape == (6, 6)
    np.testing.assert_array_equal(w[:2, :2], s[0])
    np.testing.assert_array_equal(w[:2, 2:4], s[1])   # W[i, l] = S(l - i)
    np.testing.assert_array_equal(w[2:4, :2], s[1].T)
    np.testing.assert_array_equal(w[:2, 4:6], s[2])
    np.testing.assert_allclose(w, w.T, atol=0)
    with pytest.raises(ValueError):
        assemble_block_toeplitz(s, 3)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("j0", [0, 1, 6, 10])
def test_recursion_matches_dense_inverse(d, j0):
    sig = var1_lag_blocks(d, j0, seed=100 + 10 * d + j0)
    got = recursive_toeplitz_inverse(sig, j0)
    dense = np.linalg.inv(assemble_block_toeplitz(sig, j0))
    scale = float(np.max(np.abs(dense)))
    assert np.max(np.abs(got - dense)) <= 1e-10 * max(scale, 1.0)


def test_recursion_guards():
    sig = var1_lag_blocks(2, 3, seed=42)
    with pytest.raises(ValueError):
        recursive_toeplitz_inverse(sig, -1)
    with pytest.raises(ValueError):
        recursive_toeplitz_inverse(sig, 4)
    with pytest.raises(NotPositiveDefinite):
        recursive_toeplitz_inverse([np.zeros((2, 2))], 0)
    with pytest.raises(NotPositiveDefinite):
        recursive_toeplitz_inverse([np.array([[1.0, 2.0], [0.0, 1.0]])], 0)
    # S(0) = I, S(1) = diag(1, 0): innovation diag(0, 1) is exactly
    # rank deficient
    with pytest.raises(SingularInnovation):
        recursive_toeplitz_inverse([np.eye(2), np.diag([1.0, 0.0])], 1)


def test_recursion_grows_lag_by_lag():
    sig = var1_lag_blocks(2, 5, seed=44)
    for step in range(6):
        w_inv = recursive_toeplitz_inverse(sig, step)
        assert w_inv.shape == (2 * (step + 1), 2 * (step + 1))
        dense = np.linalg.inv(assemble_block_toeplitz(sig, step))
        np.testing.assert_allclose(w_inv, dense, atol=1e-9)
    with pytest.raises(ValueError):
        recursive_toeplitz_inverse(sig, 6)  # no lag block left


# ---- latent autocovariances ----

def test_estimate_sigma_x_shapes_and_symmetry():
    frame, *_ = rank_k_frame(80, 10, k=2, seed=45, noise=0.5)
    fit = fit_factors(frame, random_partition(10, 6), tau=0.0, p_star=4)
    sig = estimate_sigma_x(frame, fit, 3, set_index=1)
    assert len(sig) == 4
    assert sig[0].shape == (fit.d_hat, fit.d_hat)
    np.testing.assert_allclose(sig[0], sig[0].T, atol=1e-12)
    assert np.linalg.eigvalsh(sig[0])[0] >= -1e-10
    with pytest.raises(ValueError):
        estimate_sigma_x(frame, fit, 3, set_index=0)


def test_estimate_sigma_x_matches_full_width_lag_blocks():
    # reference: project the p/2 x p/2 panel lag blocks, A' C_y(k) A
    frame, *_ = rank_k_frame(90, 12, k=2, seed=53, noise=0.5)
    fit = fit_factors(frame, random_partition(12, 8), tau=0.0, p_star=4)
    for set_index, cols, a in ((1, fit.partition.set1, fit.A1_hat),
                               (2, fit.partition.set2, fit.A2_hat)):
        got = estimate_sigma_x(frame, fit, 5, set_index)
        ref = [a.T @ c @ a for c in lagged_auto_covariance(frame, cols, 5)]
        tol = 1e-12 * np.max(np.abs(ref[0]))
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= tol
    with pytest.raises(LagTooLarge):
        estimate_sigma_x(frame, fit, 45)
    obs = frame.obs.copy()
    obs[7, fit.partition.set1[0]] = np.nan
    gappy = SpatioTemporalFrame(locations=frame.locations, obs=obs)
    with pytest.raises(MissingDataError):
        estimate_sigma_x(gappy, fit, 2, set_index=1)


# ---- panel forecasting ----

def test_forecast_guards():
    frame, *_ = rank_k_frame(30, 8, k=1, seed=46, noise=0.3)
    fit = fit_factors(frame, random_partition(8, 1), tau=0.0, p_star=3)
    with pytest.raises(ValueError):
        forecast(frame, fit, 0)
    with pytest.raises(ValueError):
        forecast(frame, fit, 1, j0=-1)
    with pytest.raises(ValueError):
        forecast(frame, fit, 1, ridge=-0.1)
    with pytest.raises(LagTooLarge):
        forecast(frame, fit, 10, j0=6)  # j + j0 >= n/2


def test_forecast_zero_depth_closed_form():
    # j0 = 0 collapses to x(j) = S(j) S(0)^{-1} x_n on each side
    frame, *_ = rank_k_frame(60, 8, k=1, seed=47, noise=0.4)
    part = random_partition(8, 2)
    fit = fit_factors(frame, part, tau=0.0, p_star=3)
    got = forecast(frame, fit, 2, j0=0)
    expect = np.empty(8)
    for cols, a, set_index in ((part.set1, fit.A1_hat, 1),
                               (part.set2, fit.A2_hat, 2)):
        sig = estimate_sigma_x(frame, fit, 2, set_index)
        x_n = frame.obs[-1, list(cols)] @ a
        expect[list(cols)] = a @ (sig[2] @ np.linalg.solve(sig[0], x_n))
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_forecast_white_noise_predicts_nothing():
    # with no temporal structure, lag covariances vanish and so does the
    # prediction, up to sampling noise of order 1/sqrt(n)
    frame = noise_frame(2000, 8, seed=48)
    fit = fit_factors(frame, random_partition(8, 3), tau=0.0, d_override=1)
    pred = forecast(frame, fit, 1, j0=2)
    assert np.max(np.abs(pred)) < 0.25


def test_forecast_alternating_factor():
    # deterministic x_t = (-1)^t: one-step prediction flips the sign of
    # the last panel row; finite-sample window bias is O(1/n)
    n, p = 200, 6
    rng = np.random.default_rng(49)
    a = rng.uniform(0.5, 1.5, size=p)
    signs = np.cumprod(np.full(n, -1.0))
    y = np.outer(signs, a)
    frame = SpatioTemporalFrame(locations=grid_locations(p), obs=y)
    fit = fit_factors(frame, random_partition(p, 4), tau=0.0, d_override=1)
    pred = forecast(frame, fit, 1, j0=0)
    rel = np.max(np.abs(pred + y[-1])) / np.max(np.abs(y[-1]))
    assert rel <= 0.02


def test_forecast_ridge_applies_to_lag_zero_block():
    # opt-in ridge means lag-0 + ridge*I and nothing else; verify against
    # the closed form at depth zero
    frame, *_ = rank_k_frame(60, 8, k=1, seed=50, noise=0.4)
    part = random_partition(8, 5)
    fit = fit_factors(frame, part, tau=0.0, p_star=3)
    r = 0.35
    got = forecast(frame, fit, 1, j0=0, ridge=r)
    expect = np.empty(8)
    for cols, a, set_index in ((part.set1, fit.A1_hat, 1),
                               (part.set2, fit.A2_hat, 2)):
        sig = estimate_sigma_x(frame, fit, 1, set_index)
        x_n = frame.obs[-1, list(cols)] @ a
        bumped = sig[0] + r * np.eye(sig[0].shape[0])
        expect[list(cols)] = a @ (sig[1] @ np.linalg.solve(bumped, x_n))
    np.testing.assert_allclose(got, expect, atol=1e-12)
    assert not np.allclose(got, forecast(frame, fit, 1, j0=0))


def test_forecast_ensemble_j1_equals_member():
    frame, *_ = rank_k_frame(80, 10, k=2, seed=51, noise=0.5)
    seed = 13
    ens = forecast_ensemble(frame, J=1, j=1, j0=3, p_star=4, rng_seed=seed)
    part = random_partition(10, member_seeds(seed, 1)[0])
    fit = fit_factors(frame, part, 0.0, p_star=4)
    single = forecast(frame, fit, 1, 3)
    np.testing.assert_array_equal(ens, single)


def test_forecast_ensemble_worker_invariance():
    frame, *_ = rank_k_frame(80, 10, k=2, seed=52, noise=0.5)
    one = forecast_ensemble(frame, J=5, j=2, j0=3, p_star=4, rng_seed=7,
                            workers=1)
    three = forecast_ensemble(frame, J=5, j=2, j0=3, p_star=4, rng_seed=7,
                              workers=3)
    np.testing.assert_array_equal(one, three)
    with pytest.raises(ValueError):
        forecast_ensemble(frame, J=0, j=1)


def test_forecast_horizon_list_equals_single_calls():
    frame, *_ = rank_k_frame(80, 10, k=2, seed=54, noise=0.5)
    fit = fit_factors(frame, random_partition(10, 9), tau=0.0, p_star=4)
    single = forecast(frame, fit, 2, j0=3)
    assert single.shape == (10,)
    stacked = forecast(frame, fit, [1, 2, 3], j0=3)
    assert stacked.shape == (3, 10)
    np.testing.assert_array_equal(
        stacked, np.stack([forecast(frame, fit, h, j0=3) for h in (1, 2, 3)]))
    # any order and repeats; a one-element list keeps its row axis
    np.testing.assert_array_equal(forecast(frame, fit, (3, 1, 3), j0=3),
                                  stacked[[2, 0, 2]])
    np.testing.assert_array_equal(forecast(frame, fit, [2], j0=3), single[None])


def test_forecast_horizon_list_guards():
    frame, *_ = rank_k_frame(30, 8, k=1, seed=46, noise=0.3)
    fit = fit_factors(frame, random_partition(8, 1), tau=0.0, p_star=3)
    forecast(frame, fit, [1, 8], j0=6)  # 8 + 6 < 15
    with pytest.raises(LagTooLarge):
        forecast(frame, fit, [1, 9], j0=6)  # the largest horizon decides
    with pytest.raises(ValueError):
        forecast(frame, fit, [])
    with pytest.raises(ValueError):
        forecast(frame, fit, [1, 0])
    with pytest.raises(ValueError):
        forecast(frame, fit, [1, 1.5])


def test_forecast_ensemble_horizon_list_equals_per_horizon_calls():
    frame, *_ = rank_k_frame(80, 10, k=2, seed=55, noise=0.5)
    kwargs = dict(J=4, j0=3, p_star=4, rng_seed=11)
    one = forecast_ensemble(frame, j=[1, 2, 3], workers=1, **kwargs)
    three = forecast_ensemble(frame, j=[1, 2, 3], workers=3, **kwargs)
    assert one.shape == (3, 10)
    assert one.tobytes() == three.tobytes()
    per_horizon = np.stack([forecast_ensemble(frame, j=h, workers=1, **kwargs)
                            for h in (1, 2, 3)])
    np.testing.assert_array_equal(one, per_horizon)


@pytest.mark.parametrize("kwargs, exc", [
    (dict(j=[1, 30]), LagTooLarge),     # 30 + 0 >= 40 / 2
    (dict(j=[1, 0]), ValueError),
    (dict(j=[]), ValueError),
    (dict(j=1, j0=-1), ValueError),
    (dict(j=1, ridge=-1.0), ValueError),
    (dict(j=1, ridge=np.nan), ValueError),  # was ignored
    (dict(j=1, ridge=np.inf), ValueError),  # gave an all-NaN forecast
])
def test_forecast_ensemble_checks_arguments_before_fitting(monkeypatch,
                                                           kwargs, exc):
    frame, *_ = rank_k_frame(40, 8, k=1, seed=47, noise=0.3)
    calls = []
    # count every fit, whichever module's binding of fit_factors runs it
    for mod in [m for name, m in sys.modules.items()
                if name.startswith("latentkrig")]:
        if getattr(mod, "fit_factors", None) is fit_factors:
            monkeypatch.setattr(mod, "fit_factors", lambda *a, **k:
                                calls.append(1) or fit_factors(*a, **k))
    with pytest.raises(exc):
        forecast_ensemble(frame, J=5, p_star=3, workers=1,
                          **{"j0": 0, **kwargs})
    assert calls == []
