import csv

import numpy as np
import pytest

from latentkrig import KernelSpec, SpatioTemporalFrame, detrend, save_betas, smooth_beta
from latentkrig.errors import SingularDesign

from conftest import grid_locations


def synthetic_panel(n, p, m, seed, missing=()):
    rng = np.random.default_rng(seed)
    locs = grid_locations(p)
    z = rng.standard_normal((n, p, m))
    beta = rng.uniform(-2.0, 2.0, size=(p, m))
    y = np.einsum("tpm,pm->tp", z, beta)
    for t, i in missing:
        y[t, i] = np.nan
    frame = SpatioTemporalFrame(locations=locs, obs=y, covariates=z)
    return frame, beta


def test_detrend_recovers_exact_coefficients():
    frame, beta = synthetic_panel(24, 6, 3, seed=1)
    fit = detrend(frame)
    np.testing.assert_allclose(fit.betas, beta, atol=1e-10)
    np.testing.assert_allclose(fit.residual_frame.obs, 0.0, atol=1e-10)
    assert fit.residual_frame.locations is frame.locations


def test_residual_frame_keeps_the_residual_array(monkeypatch):
    from latentkrig import regress
    sealed, real = [], regress._sealed
    monkeypatch.setattr(regress, "_sealed", lambda a: sealed.append(a) or real(a))
    frame, _ = synthetic_panel(24, 6, 3, seed=1, missing=[(2, 3)])
    res = detrend(frame).residual_frame
    # the residual panel detrend built, handed over read-only and not copied
    assert len(sealed) == 1 and res.obs is sealed[0]
    assert not res.obs.flags.writeable


def test_detrend_with_missing_cells():
    holes = [(0, 1), (5, 1), (7, 3)]
    frame, beta = synthetic_panel(24, 6, 2, seed=2, missing=holes)
    fit = detrend(frame)
    np.testing.assert_allclose(fit.betas, beta, atol=1e-10)
    res = fit.residual_frame
    np.testing.assert_array_equal(res.missing, frame.missing)
    np.testing.assert_allclose(res.obs[~res.missing], 0.0, atol=1e-10)


def test_detrend_requires_covariates():
    frame, beta = synthetic_panel(10, 4, 1, seed=3)
    bare = SpatioTemporalFrame(locations=frame.locations, obs=frame.obs)
    with pytest.raises(ValueError):
        detrend(bare)


def test_detrend_singular_design():
    frame, beta = synthetic_panel(12, 4, 2, seed=4)
    z = np.array(frame.covariates)
    z[:, 2, 1] = z[:, 2, 0]  # collinear covariates at one site
    bad = SpatioTemporalFrame(locations=frame.locations, obs=frame.obs,
                              covariates=z)
    with pytest.raises(SingularDesign):
        detrend(bad)


def test_detrend_too_few_observed_rows():
    # site 0 observed twice with m=3 regressors
    rng = np.random.default_rng(5)
    locs = grid_locations(4)
    z = rng.standard_normal((4, 4, 3))
    y = rng.standard_normal((4, 4))
    y[:2, 0] = np.nan
    frame = SpatioTemporalFrame(locations=locs, obs=y, covariates=z)
    with pytest.raises(SingularDesign):
        detrend(frame)


def test_smooth_beta_convex_and_local():
    frame, beta = synthetic_panel(30, 8, 2, seed=6)
    fit = detrend(frame)
    kernel = KernelSpec(family="gaussian", h=0.5)
    mid = smooth_beta(fit, frame.locations, (0.1, -0.2), kernel)
    assert mid.shape == (2,)
    for j in range(2):
        assert beta[:, j].min() - 1e-9 <= mid[j] <= beta[:, j].max() + 1e-9
    # a tiny bandwidth at a sampled site returns that site's estimate
    tight = KernelSpec(family="gaussian", h=1e-3)
    at_site = smooth_beta(fit, frame.locations, frame.locations.coords[3],
                          tight)
    np.testing.assert_allclose(at_site, beta[3], atol=1e-6)


def test_save_betas_csv(tmp_path):
    frame, beta = synthetic_panel(20, 5, 2, seed=7)
    fit = detrend(frame)
    path = tmp_path / "betas.csv"
    save_betas(fit, frame.locations, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "b1", "b2"]
    assert len(rows) == 6
    got = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    np.testing.assert_array_equal(got, fit.betas)
