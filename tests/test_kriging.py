import logging

import numpy as np
import pytest

from latentkrig import (
    KernelSpec,
    LocationSet,
    SimConfig,
    SpatioTemporalFrame,
    fit_factors,
    impute_missing,
    kernel_weights,
    krige_space,
    random_partition,
    simulate,
)
from latentkrig import kriging
from latentkrig.errors import (
    EmptyKernelWindow,
    InsufficientOverlap,
    NotPositiveDefinite,
    NotSymmetric,
)

from conftest import grid_locations, noise_frame, rank_k_frame
from oracles import (NonInvertible, best_linear_predictor, masked_pairwise,
                     verify_dual_route)


# ---- kernels ----

def test_kernel_spec_validation():
    KernelSpec(family="gaussian", h=0.5)
    with pytest.raises(ValueError):
        KernelSpec(family="triangular", h=0.5)
    with pytest.raises(ValueError):
        KernelSpec(family="gaussian", h=0.0)
    with pytest.raises(ValueError):
        KernelSpec(family="gaussian", h=-1.0)


def test_kernel_weights_normalized_and_monotone():
    locs = grid_locations(9)
    w = kernel_weights(locs, (0.0, 0.0), KernelSpec(family="gaussian", h=0.7))
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w >= 0)
    # closer sites never get less weight under a radial kernel
    from latentkrig.stdata import distance_matrix
    d = distance_matrix(locs.coords, [[0.0, 0.0]])[:, 0]
    order = np.argsort(d)
    assert np.all(np.diff(w[order]) <= 1e-15)


def test_kernel_weights_tiny_h_is_nearest_site():
    locs = grid_locations(8)
    s0 = locs.coords[3]  # on a site, so the window never empties out
    w = kernel_weights(locs, s0, KernelSpec(family="gaussian", h=1e-3))
    assert w[3] == pytest.approx(1.0, abs=1e-12)


def test_weight_matrix_columns_are_kernel_weights():
    rng = np.random.default_rng(8)
    plane = grid_locations(170)
    sphere = LocationSet(ids=tuple(f"s{i}" for i in range(40)),
                         coords=np.column_stack([rng.uniform(-180, 180, 40),
                                                 rng.uniform(-90, 90, 40)]),
                         distance_metric="great_circle")
    cases = [(plane, KernelSpec("gaussian", 0.3), 1.0),
             (plane, KernelSpec("epanechnikov_2d", 0.9), 0.4),
             (sphere, KernelSpec("gaussian", 3000.0), 80.0)]
    for locs, spec, spread in cases:
        sites = rng.uniform(-spread, spread, (25, 2))
        w = kernel_weights(locs, sites, spec)
        assert w.shape == (locs.p, 25)
        for k, s0 in enumerate(sites):
            assert w[:, k].tobytes() == kernel_weights(locs, s0, spec).tobytes()
    spec = KernelSpec("epanechnikov_2d", 0.5)
    with pytest.raises(EmptyKernelWindow, match=r"\(9, -9\)"):
        kernel_weights(plane, [[0.0, 0.0], [9.0, -9.0]], spec)


def test_epanechnikov_compact_support():
    locs = LocationSet(ids=("a", "b"), coords=[[0.0, 0.0], [5.0, 5.0]])
    spec = KernelSpec(family="epanechnikov_2d", h=1.0)
    w = kernel_weights(locs, (0.1, 0.1), spec)
    assert w[1] == 0.0 and w[0] == 1.0
    with pytest.raises(EmptyKernelWindow):
        kernel_weights(locs, (99.0, 99.0), spec)
    sphere = LocationSet(ids=("a", "b"), coords=[[0, 0], [10, 10]],
                         distance_metric="great_circle")
    with pytest.raises(ValueError):
        kernel_weights(sphere, (0, 0), spec)


@pytest.mark.parametrize("family, metric", [("gaussian", "euclidean"),
                                            ("gaussian", "great_circle"),
                                            ("epanechnikov_2d", "euclidean")])
def test_kernels_are_bitwise_their_formulas(family, metric):
    # each h's weights are made in place; the values are the formulas'
    from latentkrig.stdata import distance_matrix
    rng = np.random.default_rng(12)
    scale = np.array([1.0, 1.0] if metric == "euclidean" else [120.0, 60.0])
    locs = LocationSet(ids=tuple(map(str, range(60))), distance_metric=metric,
                       coords=rng.uniform(-1, 1, (60, 2)) * scale)
    sites = rng.uniform(-1.2, 1.2, (9, 2)) * scale
    dist = distance_matrix(sites, locs.coords, metric)
    disp = locs.coords[None, :, :] - sites[:, None, :]
    for h in np.geomspace(0.05, 50.0, 12) * scale[0]:
        want = (np.exp(-0.5 * (dist / h) ** 2) if family == "gaussian" else
                np.prod(np.clip(1.0 - (disp / h) ** 2, 0.0, None), axis=2))
        assert kriging._raw_kernel(locs, sites, family)(h).tobytes() == want.tobytes()
        if np.all(want.sum(axis=1) > 0.0):
            w = kernel_weights(locs, sites, KernelSpec(family, h))
            assert w.tobytes() == (want / want.sum(axis=1)[:, None]).T.tobytes()
    if family == "epanechnikov_2d":  # a site outside every window
        far = np.vstack([sites, [[5.0, -5.0]]])
        with pytest.raises(EmptyKernelWindow, match=r"\(5, -5\)"):
            kernel_weights(locs, far, KernelSpec(family, 1.0))


def test_krige_space_constant_field():
    locs = grid_locations(6)
    latent = np.full((4, 6), 2.5)
    for h in (0.05, 0.5, 5.0):
        pred = krige_space(latent, locs, (0.2, 0.3),
                           KernelSpec(family="gaussian", h=h))
        np.testing.assert_allclose(pred, 2.5, atol=1e-12)
    with pytest.raises(ValueError):
        krige_space(latent[:, :5], locs, (0, 0),
                    KernelSpec(family="gaussian", h=1.0))


def test_krige_space_many_sites_match_one_site_calls():
    rng = np.random.default_rng(21)
    plane = grid_locations(30)
    sphere = LocationSet(ids=tuple(f"s{i}" for i in range(30)),
                         coords=np.column_stack([rng.uniform(-60, 60, 30),
                                                 rng.uniform(-60, 60, 30)]),
                         distance_metric="great_circle")
    cases = [(plane, KernelSpec("gaussian", 0.4), 1.0),
             (plane, KernelSpec("epanechnikov_2d", 1.2), 0.5),
             (sphere, KernelSpec("gaussian", 2000.0), 40.0)]
    for locs, spec, spread in cases:
        latent = rng.standard_normal((17, locs.p)) * 3.0
        sites = rng.uniform(-spread, spread, (6, 2))
        many = krige_space(latent, locs, sites, spec)
        assert many.shape == (17, 6)
        one = kernel_weights(locs, sites[0], spec)
        assert one.shape == (locs.p,)
        assert krige_space(latent, locs, tuple(sites[0]), spec).shape == (17,)
        tol = 1e-15 * np.max(np.abs(latent))
        for k, s0 in enumerate(sites):
            np.testing.assert_allclose(many[:, k],
                                       krige_space(latent, locs, s0, spec),
                                       rtol=0.0, atol=tol)


# ---- dual-route equivalence ----

def test_weighted_and_blp_routes_agree():
    frame, *_ = rank_k_frame(300, 20, k=3, seed=30, noise=1.0)
    fit = fit_factors(frame, random_partition(20, 1), tau=0.0)
    kernel = KernelSpec(family="gaussian", h=0.6)
    for s0 in [(0.0, 0.0), (-0.8, 0.4), (1.5, -1.5)]:
        gap = verify_dual_route(fit, frame, s0, kernel)
        scale = float(np.max(np.abs(fit.xi_hat)))
        assert gap <= 1e-8 * max(scale, 1.0)


def test_dual_route_guards():
    frame, *_ = rank_k_frame(100, 150, k=2, seed=31, noise=1.0)
    fit = fit_factors(frame, random_partition(150, 2), tau=0.0)
    kernel = KernelSpec(family="gaussian", h=0.5)
    with pytest.raises(NonInvertible):
        verify_dual_route(fit, frame, (0, 0), kernel)  # n <= p
    big, *_ = rank_k_frame(40, 250, k=2, seed=32, noise=1.0)
    bfit = fit_factors(big, random_partition(250, 3), tau=0.0)
    with pytest.raises(ValueError):
        verify_dual_route(bfit, big, (0, 0), kernel)  # p > 200
    small = frame.subframe(range(20))
    sfit = fit_factors(small, random_partition(20, 4), tau=0.0)
    obs = np.array(small.obs)
    obs[0, 0] = np.nan
    holed = SpatioTemporalFrame(locations=small.locations, obs=obs)
    with pytest.raises(NonInvertible):
        verify_dual_route(sfit, holed, (0, 0), kernel)


# ---- best linear predictor ----

def test_blp_independent_case_returns_mean():
    pred, err = best_linear_predictor(
        cov_zeta_eta=np.zeros((1, 2)), var_eta=np.eye(2),
        mean_zeta=3.0, mean_eta=[0.0, 0.0], eta=[5.0, -2.0],
        var_zeta=np.array([[4.0]]))
    assert pred[0] == pytest.approx(3.0, abs=1e-14)
    assert err[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_blp_identity_case_reproduces_eta():
    v = np.array([[2.0, 0.3], [0.3, 1.0]])
    eta = np.array([1.5, -0.5])
    pred, err = best_linear_predictor(
        cov_zeta_eta=v, var_eta=v, mean_zeta=[0.0, 0.0],
        mean_eta=[0.0, 0.0], eta=eta, var_zeta=v)
    np.testing.assert_allclose(pred, eta, atol=1e-12)
    np.testing.assert_allclose(err, 0.0, atol=1e-12)


def test_blp_error_covariance_monte_carlo():
    # joint normal with known blocks; empirical MSE of the predictor must
    # match the reported error covariance within 2%
    rng = np.random.default_rng(33)
    m = rng.standard_normal((4, 4))
    joint = m @ m.T + 0.5 * np.eye(4)  # zeta = coord 0, eta = coords 1:4
    var_z = joint[:1, :1]
    cov_ze = joint[:1, 1:]
    var_e = joint[1:, 1:]
    chol = np.linalg.cholesky(joint)
    draws = rng.standard_normal((200_000, 4)) @ chol.T
    # the predictor takes one eta at a time; probe the gain with unit
    # vectors, then apply it to all draws by linearity
    gain = np.column_stack([
        best_linear_predictor(cov_ze, var_e, 0.0, np.zeros(3), e)[0]
        for e in np.eye(3)])
    _, err = best_linear_predictor(cov_ze, var_e, 0.0, np.zeros(3),
                                   np.zeros(3), var_zeta=var_z)
    preds = draws[:, 1:] @ gain.T
    emp = float(np.mean((draws[:, 0] - preds[:, 0]) ** 2))
    assert emp == pytest.approx(err[0, 0], rel=0.02)


def test_blp_guards():
    with pytest.raises(ValueError):
        best_linear_predictor(np.zeros((1, 2)), np.zeros((2, 3)), 0.0,
                              np.zeros(2), np.zeros(2))
    with pytest.raises(NotSymmetric):
        best_linear_predictor(np.zeros((1, 2)),
                              np.array([[1.0, 0.5], [0.0, 1.0]]),
                              0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(NotPositiveDefinite):
        best_linear_predictor(np.zeros((1, 2)),
                              np.array([[1.0, 0.0], [0.0, -1.0]]),
                              0.0, np.zeros(2), np.zeros(2))


# ---- imputation ----

def test_impute_complete_frame_is_identity():
    frame = noise_frame(10, 5, seed=34)
    assert impute_missing(frame) is frame


def _twin_frame():
    # a duplicated column (plus a few independent ones) makes the target
    # perfectly predictable wherever its twin is observed
    rng = np.random.default_rng(35)
    n, p = 40, 6
    obs = rng.standard_normal((n, p))
    obs[:, 1] = obs[:, 0]
    obs[[4, 11, 25, 32], 1] = np.nan
    return SpatioTemporalFrame(locations=grid_locations(p), obs=obs)


def _outage_frame():
    # n / p = 2 puts the noise floor above the smallest sample eigenvalue;
    # an outage block makes several sites share availability rows
    rng = np.random.default_rng(38)
    n, p = 40, 20
    obs = rng.standard_normal((n, p))
    mask = rng.random((n, p)) < 0.03
    mask[10:18, [2, 5, 7, 11]] = True
    obs[mask] = np.nan
    return SpatioTemporalFrame(locations=grid_locations(p), obs=obs)


def _long_frame():
    # n >> p: every sample eigenvalue clears the floor
    rng = np.random.default_rng(39)
    n, p = 400, 6
    obs = rng.standard_normal((n, p)) + rng.standard_normal((n, 1))
    obs[rng.random((n, p)) < 0.05] = np.nan
    return SpatioTemporalFrame(locations=grid_locations(p), obs=obs)


def _gappy_sim_frame():
    # 30% of a simulated panel missing at random: the pairwise-complete
    # covariances of hundreds of availability groups are non-PSD
    frame = simulate(SimConfig(n=120, p=30, seed=1)).frame
    obs = frame.obs.copy()
    obs[np.random.default_rng(1).random(obs.shape) < 0.3] = np.nan
    return SpatioTemporalFrame(locations=frame.locations, obs=obs)


def _impute_reference(frame):
    """Per-cell predictor: one masked covariance and one eigh per cell."""
    obs = np.array(frame.obs)
    filled = []
    for i in range(frame.p):
        miss_t = np.nonzero(frame.missing[:, i])[0]
        if miss_t.size == 0:
            continue
        have_t = np.nonzero(~frame.missing[:, i])[0]
        sub_obs = frame.obs[have_t, :]
        sub_missing = frame.missing[have_t, :]
        for t in miss_t:
            avail = np.nonzero(~frame.missing[t, :])[0]
            block = masked_pairwise(sub_obs, sub_missing,
                                    [i] + list(avail), list(avail))
            c = block[0]
            v = 0.5 * (block[1:] + block[1:].T)
            evals, evecs = np.linalg.eigh(v)
            dim = v.shape[0]
            ridge = max(1e-8 * np.trace(v) / dim, 1e-300)
            floor = max(ridge, float(np.median(evals)) * dim / len(have_t))
            if evals[0] < floor:
                v = (evecs * np.maximum(evals, floor)) @ evecs.T
            obs[t, i] = c @ np.linalg.solve(v, frame.obs[t, avail])
            filled.append((int(t), frame.locations.ids[i]))
    return obs, tuple(filled)


def _avail_groups(frame):
    return {(int(i), frame.missing[t].tobytes())
            for t, i in zip(*np.nonzero(frame.missing))}


def test_impute_twin_column_exact():
    frame = _twin_frame()
    holes = [4, 11, 25, 32]
    filled = impute_missing(frame)
    np.testing.assert_allclose(filled.obs[holes, 1], frame.obs[holes, 0],
                               atol=1e-6)
    assert filled.filled_cells == tuple(
        (t, frame.locations.ids[1]) for t in holes)


@pytest.mark.parametrize("build", [_outage_frame, _long_frame, _twin_frame])
def test_impute_matches_per_cell_reference(build):
    frame = build()
    ref_obs, ref_cells = _impute_reference(frame)
    filled = impute_missing(frame)
    seen = ~frame.missing
    assert np.array_equal(filled.obs[seen], frame.obs[seen])
    np.testing.assert_allclose(filled.obs[frame.missing],
                               ref_obs[frame.missing], rtol=1e-12, atol=0)
    assert filled.filled_cells == ref_cells


def test_impute_one_shared_build_one_covariance_per_site_one_eigh_per_group(
        monkeypatch):
    frame = _outage_frame()
    calls = {"eigh": 0, "_masked_panel": 0, "_masked_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for name in ("_masked_panel", "_masked_rows"):
        monkeypatch.setattr(kriging, name, counted(name, getattr(kriging, name)))
    impute_missing(frame)
    groups = _avail_groups(frame)
    assert len(groups) < int(frame.missing.sum())  # the outage shares rows
    assert calls["_masked_panel"] == 1
    assert calls["_masked_rows"] == int(frame.missing.any(axis=0).sum())
    assert calls["eigh"] == len(groups)


def _impute_per_site(frame, dims):
    """impute_missing as it was before the shared masked statistics: one
    masked_pairwise per site, np.median and np.ix_ gathers. Every
    group's dimension is added to ``dims``."""
    obs = np.array(frame.obs)
    filled = []
    for i in range(frame.p):
        miss_t = np.nonzero(frame.missing[:, i])[0]
        if miss_t.size == 0:
            continue
        have_t = np.nonzero(~frame.missing[:, i])[0]
        cov = masked_pairwise(frame.obs[have_t], frame.missing[have_t],
                              range(frame.p), range(frame.p))
        cov = 0.5 * (cov + cov.T)
        by_row = {}
        for t in miss_t:
            by_row.setdefault(frame.missing[t].tobytes(), []).append(int(t))
        for ts in by_row.values():
            avail = np.nonzero(~frame.missing[ts[0]])[0]
            c, v = cov[i, avail], cov[np.ix_(avail, avail)]
            evals, evecs = np.linalg.eigh(v)
            dim = v.shape[0]
            dims.add(dim)
            ridge = max(1e-8 * np.trace(v) / dim, 1e-300)
            floor = max(ridge, float(np.median(evals)) * dim / len(have_t))
            if evals[0] < floor:
                gain = evecs @ ((evecs.T @ c) / np.maximum(evals, floor))
            else:
                gain = np.linalg.solve(v, c)
            obs[ts, i] = frame.obs[np.ix_(ts, avail)] @ gain
        filled.extend((int(t), frame.locations.ids[i]) for t in miss_t)
    return obs, tuple(filled)


def _random_gappy_frame(p, seed):
    # n from under p to about 3p, up to 40 scattered cells plus an outage
    # block; the first half of the sites stay observed, so every row has
    # the half that SpatioTemporalFrame asks for
    rng = np.random.default_rng([42, seed])
    n = int(rng.integers(2 * p // 3 + 20, 3 * p + 30))
    keep = max(2, -(-p // 2))
    obs = rng.standard_normal((n, p)) + rng.standard_normal((n, 1))
    mask = np.zeros((n, p), dtype=bool)
    cells = min(int(rng.integers(5, 41)), n * p // 25)
    mask.ravel()[rng.choice(n * p, cells, replace=False)] = True
    start = int(rng.integers(0, n - 5))
    sites = keep + rng.choice(p - keep, min(3, p - keep), replace=False)
    mask[start:start + 5, sites] = True
    mask[:, :keep] = False
    obs[mask] = np.nan
    return SpatioTemporalFrame(locations=grid_locations(p), obs=obs)


def test_impute_is_bitwise_the_per_site_covariance_loop():
    frames = [_outage_frame(), _long_frame(), _twin_frame(), _gappy_sim_frame()]
    frames += [_random_gappy_frame(int(p), seed)  # p from 4 to 120
               for seed, p in enumerate(np.geomspace(4, 120, 24))]
    dims = set()
    for frame in frames:
        ref_obs, ref_cells = _impute_per_site(frame, dims)
        filled = impute_missing(frame)
        assert np.array_equal(filled.obs, ref_obs)
        assert filled.filled_cells == ref_cells
    # both branches of the median: odd and even numbers of available sites
    assert {d % 2 for d in dims} == {0, 1}


@pytest.mark.parametrize("build", [_outage_frame, _long_frame, _gappy_sim_frame])
def test_impute_logs_one_summary(build, caplog, capsys):
    frame = build()
    with caplog.at_level(logging.INFO, logger="latentkrig.kriging"):
        impute_missing(frame)
    infos = [r for r in caplog.records if r.levelno == logging.INFO]
    assert len(infos) == 1
    cells, groups, floored, non_psd = infos[0].args
    assert cells == int(frame.missing.sum())
    assert groups == len(_avail_groups(frame))
    if build is _long_frame:
        assert floored == 0
    else:
        assert 0 < floored <= groups
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert non_psd <= floored
    assert (non_psd > 0) == bool(warnings)
    assert len(warnings) <= 1
    assert capsys.readouterr() == ("", "")


def test_impute_preserves_observed_cells_bitwise():
    rng = np.random.default_rng(36)
    obs = rng.standard_normal((60, 8))
    mask = rng.random((60, 8)) < 0.05
    obs[mask] = np.nan
    frame = SpatioTemporalFrame(locations=grid_locations(8), obs=obs)
    filled = impute_missing(frame)
    assert filled.is_complete
    seen = ~frame.missing
    assert np.array_equal(filled.obs[seen], frame.obs[seen])
    assert len(filled.filled_cells) == int(mask.sum())


def test_imputed_frame_keeps_the_filled_array(monkeypatch):
    sealed, real = [], kriging._sealed
    monkeypatch.setattr(kriging, "_sealed",
                        lambda a: sealed.append(a) or real(a))
    frame = _outage_frame()
    filled = impute_missing(frame)
    # the panel impute_missing filled, handed over read-only and not copied
    assert len(sealed) == 1 and filled.obs is sealed[0]
    assert not filled.obs.flags.writeable


def test_impute_beats_column_mean_on_factor_data():
    # single smooth factor, strong loadings: the cross-sectional predictor
    # must clearly beat the per-column mean
    rng = np.random.default_rng(37)
    n, p = 120, 30
    coords = rng.uniform(-1, 1, size=(p, 2))
    a = 1.0 + coords[:, 0] ** 2 + coords[:, 1] ** 2
    f = np.zeros(n + 300)
    shocks = rng.standard_normal(n + 300)
    for t in range(1, n + 300):
        f[t] = 0.7 * f[t - 1] + shocks[t]
    y = np.outer(f[300:], a) + rng.standard_normal((n, p))
    mask = rng.random((n, p)) < 0.05
    holed = np.array(y)
    holed[mask] = np.nan
    locs = LocationSet(ids=tuple(f"s{i}" for i in range(p)), coords=coords)
    frame = SpatioTemporalFrame(locations=locs, obs=holed)
    filled = impute_missing(frame)
    col_means = np.nanmean(holed, axis=0)
    baseline = np.broadcast_to(col_means, (n, p))
    rmse_impute = np.sqrt(np.mean((filled.obs[mask] - y[mask]) ** 2))
    rmse_base = np.sqrt(np.mean((baseline[mask] - y[mask]) ** 2))
    assert rmse_impute < rmse_base


def test_impute_insufficient_overlap():
    obs = np.ones((4, 4)) + np.arange(16).reshape(4, 4) * 0.1
    obs[2:, 0] = np.nan
    obs[:2, 1] = np.nan  # columns 0 and 1 never jointly observed
    frame = SpatioTemporalFrame(locations=grid_locations(4), obs=obs)
    with pytest.raises(InsufficientOverlap):
        impute_missing(frame)


def _outcome(impute, frame):
    try:
        return impute(frame)
    except InsufficientOverlap:
        return InsufficientOverlap


def test_impute_insufficient_overlap_with_outage_matches_reference():
    # columns 0 and 1 share one observed time; sites 4 and 5 share an outage
    rng = np.random.default_rng(40)
    obs = rng.standard_normal((8, 6))
    obs[4:, 0] = np.nan
    obs[:3, 1] = np.nan
    obs[:2, [4, 5]] = np.nan
    frame = SpatioTemporalFrame(locations=grid_locations(6), obs=obs)
    assert _outcome(_impute_reference, frame) is InsufficientOverlap
    with pytest.raises(InsufficientOverlap):
        impute_missing(frame)


def test_impute_raises_on_the_same_frames_as_reference():
    # small gappy frames where some pairs barely overlap: the per-site
    # covariance raises exactly when some per-cell covariance would
    rng = np.random.default_rng(41)
    outcomes = []
    for _ in range(300):
        obs = rng.standard_normal((6, 4))
        obs[rng.random((6, 4)) < 0.3] = np.nan
        try:
            frame = SpatioTemporalFrame(locations=grid_locations(4), obs=obs)
        except InsufficientOverlap:
            continue
        ref = _outcome(_impute_reference, frame) is InsufficientOverlap
        assert (_outcome(impute_missing, frame) is InsufficientOverlap) == ref
        outcomes.append(ref)
    assert any(outcomes) and not all(outcomes)
