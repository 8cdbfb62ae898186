import numpy as np
import pytest

from latentkrig import (
    Partition,
    SpatioTemporalFrame,
    fit_factors,
    masked_pairwise,
)
from latentkrig.errors import InsufficientOverlap, LagTooLarge, MissingDataError

from conftest import grid_locations, noise_frame, rank_k_frame
from oracles import cross_covariance, lagged_auto_covariance, lagged_covariances


def brute_cross(y1, y2):
    """Entrywise oracle: divisor n, full-sample means."""
    n = y1.shape[0]
    out = np.empty((y1.shape[1], y2.shape[1]))
    for i in range(y1.shape[1]):
        for j in range(y2.shape[1]):
            a = y1[:, i] - y1[:, i].mean()
            b = y2[:, j] - y2[:, j].mean()
            out[i, j] = (a * b).sum() / n
    return out


def brute_lagged(ylead, ylag, j):
    """Lag-j oracle: pairs (t+j, t), full-sample means, divisor n."""
    n = ylead.shape[0]
    a = ylead - ylead.mean(axis=0)
    b = ylag - ylag.mean(axis=0)
    out = np.zeros((ylead.shape[1], ylag.shape[1]))
    for t in range(n - j):
        out += np.outer(a[t + j], b[t])
    return out / n


def test_cross_covariance_matches_brute_force():
    frame = noise_frame(7, 5, seed=1)
    part = Partition(set1=(0, 2, 4), set2=(1, 3))
    block = cross_covariance(frame, part)
    oracle = brute_cross(frame.obs[:, [0, 2, 4]], frame.obs[:, [1, 3]])
    assert block.shape == (3, 2)
    np.testing.assert_allclose(block, oracle, atol=1e-12)


def test_cross_covariance_kills_the_nugget():
    # pure noise: cross-set entries shrink as 1/sqrt(n) while same-set
    # variance stays near 1
    frame = noise_frame(20000, 6, seed=2)
    part = Partition(set1=(0, 1, 2), set2=(3, 4, 5))
    cross = cross_covariance(frame, part)
    assert np.max(np.abs(cross)) < 0.05
    auto = lagged_auto_covariance(frame, part.set1, 0)[0]
    np.testing.assert_allclose(np.diag(auto), 1.0, atol=0.05)


def test_cross_covariance_rank_equals_factor_count():
    frame, a, x, xi = rank_k_frame(400, 10, k=2, seed=3)
    part = Partition(set1=tuple(range(5)), set2=tuple(range(5, 10)))
    s = cross_covariance(frame, part)
    sv = np.linalg.svd(s, compute_uv=False)
    assert sv[1] > 1e-6          # two live directions
    assert sv[2] < 1e-12 * sv[0]  # and nothing beyond


def test_lagged_covariances_match_brute_force():
    frame = noise_frame(9, 5, seed=4)
    part = Partition(set1=(0, 1, 4), set2=(2, 3))
    y1 = frame.obs[:, [0, 1, 4]]
    y2 = frame.obs[:, [2, 3]]
    blocks = lagged_covariances(frame, part, k0=2)
    assert len(blocks) == 2
    for j, (auto1, auto2, lead, lag) in enumerate(blocks, start=1):
        np.testing.assert_allclose(auto1, brute_lagged(y1, y1, j), atol=1e-12)
        np.testing.assert_allclose(auto2, brute_lagged(y2, y2, j), atol=1e-12)
        np.testing.assert_allclose(lead, brute_lagged(y1, y2, j), atol=1e-12)
        # lag -j pairs (t-j, t): transpose-free mirror of lead/lag roles
        np.testing.assert_allclose(lag, brute_lagged(y2, y1, j).T, atol=1e-12)


def test_lagged_covariances_guards():
    frame = noise_frame(10, 4, seed=5)
    part = Partition(set1=(0, 1), set2=(2, 3))
    with pytest.raises(ValueError):
        lagged_covariances(frame, part, k0=0)
    with pytest.raises(LagTooLarge):
        lagged_covariances(frame, part, k0=5)  # needs n > 2*k0


def test_time_reversal_transposes_auto_blocks():
    frame = noise_frame(12, 4, seed=6)
    part = Partition(set1=(0, 1), set2=(2, 3))
    rev = SpatioTemporalFrame(locations=frame.locations, obs=frame.obs[::-1])
    fwd = lagged_covariances(frame, part, k0=2)
    bwd = lagged_covariances(rev, part, k0=2)
    for (b1, b2, _, _), (f1, f2, _, _) in zip(bwd, fwd):
        np.testing.assert_allclose(b1, f1.T, atol=1e-12)
        np.testing.assert_allclose(b2, f2.T, atol=1e-12)


def test_covariance_requires_complete_columns():
    obs = np.random.default_rng(7).standard_normal((8, 4))
    obs[3, 1] = np.nan
    frame = SpatioTemporalFrame(locations=grid_locations(4), obs=obs)
    part = Partition(set1=(0, 1), set2=(2, 3))
    with pytest.raises(MissingDataError):
        cross_covariance(frame, part)
    with pytest.raises(MissingDataError):
        lagged_covariances(frame, part, k0=1)
    with pytest.raises(MissingDataError):
        fit_factors(frame, part, 0.0, k0=1, d_override=1)
    # complete columns still work
    lagged_auto_covariance(frame, (0, 2), 1)
    with pytest.raises(MissingDataError):
        lagged_auto_covariance(frame, (1,), 1)


def brute_pairwise(obs, rows, cols):
    """Per-pair joint-subset means and counts."""
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            both = ~np.isnan(obs[:, r]) & ~np.isnan(obs[:, c])
            a = obs[both, r]
            b = obs[both, c]
            out[i, j] = np.mean((a - a.mean()) * (b - b.mean()))
    return out


def test_masked_pairwise_matches_brute_force():
    rng = np.random.default_rng(8)
    obs = rng.standard_normal((14, 5))
    # checkerboard-ish missingness so joint windows differ per pair
    obs[::2, 0] = np.nan
    obs[::3, 2] = np.nan
    obs[1::4, 4] = np.nan
    missing = np.isnan(obs)
    got = masked_pairwise(obs, missing, [0, 1, 2], [2, 3, 4])
    oracle = brute_pairwise(obs, [0, 1, 2], [2, 3, 4])
    np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_masked_pairwise_same_columns():
    # rows == cols shares the masked arrays and takes sum_y = sum_x'; it
    # must agree with brute force and with the general four-product formula
    rng = np.random.default_rng(21)
    obs = rng.standard_normal((40, 9)) * rng.uniform(0.5, 20.0, 9) + 3.0
    obs[rng.random(obs.shape) < 0.15] = np.nan
    missing = np.isnan(obs)
    cols = list(range(9))
    got = masked_pairwise(obs, missing, range(9), range(9))
    np.testing.assert_allclose(got, brute_pairwise(obs, cols, cols),
                               rtol=1e-12, atol=1e-12)
    a = np.where(missing, 0.0, obs)
    m = (~missing).astype(np.float64)
    counts = m.T @ m
    general = (a.T @ a - (a.T @ m) * (m.T @ a) / counts) / counts
    np.testing.assert_allclose(got, general, rtol=1e-12, atol=1e-12)
    # the same columns in another order are not the same block
    np.testing.assert_allclose(masked_pairwise(obs, missing, cols, cols[::-1]),
                               brute_pairwise(obs, cols, cols[::-1]),
                               rtol=1e-12, atol=1e-12)


def test_pairwise_equals_dense_on_complete_data():
    frame = noise_frame(11, 4, seed=9)
    block = masked_pairwise(frame.obs, frame.missing, [0, 1, 2, 3], [0, 1, 2, 3])
    yc = frame.obs - frame.obs.mean(axis=0)
    np.testing.assert_allclose(block, yc.T @ yc / frame.n, atol=1e-12)


def test_pairwise_insufficient_overlap():
    obs = np.ones((4, 4))
    obs[:2, 0] = np.nan
    obs[2:, 1] = np.nan  # locations 0 and 1 never jointly observed
    missing = np.isnan(obs)
    with pytest.raises(InsufficientOverlap):
        masked_pairwise(obs, missing, [0], [1])
    with pytest.raises(ValueError):
        masked_pairwise(obs, missing, [], [1])


def test_lagged_auto_covariance_lag0_and_guards():
    frame = noise_frame(10, 3, seed=10)
    out = lagged_auto_covariance(frame, (0, 1, 2), 2)
    assert len(out) == 3
    yc = frame.obs - frame.obs.mean(axis=0)
    np.testing.assert_allclose(out[0], yc.T @ yc / 10, atol=1e-12)
    np.testing.assert_allclose(out[1], brute_lagged(frame.obs, frame.obs, 1),
                               atol=1e-12)
    with pytest.raises(ValueError):
        lagged_auto_covariance(frame, (0,), -1)
    with pytest.raises(LagTooLarge):
        lagged_auto_covariance(frame, (0,), 5)
