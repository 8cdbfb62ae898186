import json

import numpy as np
import pytest

from latentkrig import (
    KernelSpec,
    LocationSet,
    SimConfig,
    SpatioTemporalFrame,
    aggregate_fit,
    fit_factors,
    forecast_ensemble,
    krige_space,
    mse_xi,
    mspe_space,
    random_partition,
    select_bandwidth,
    select_tau,
    simulate,
    simulate_factors,
    subspace_distance,
)
from latentkrig._util import member_seeds
from latentkrig.simbench import (
    FACTOR_STATIONARY_VARS,
    default_tau_grid,
    loading_values,
    run_table,
    summarize_reports,
    MetricReport,
)
from latentkrig.errors import EmptyKernelWindow, TooFewLocations

from conftest import grid_locations, rank_k_frame
from oracles import snr_estimate


# ---- generator ----

def test_simulate_guards():
    with pytest.raises(ValueError):
        simulate(SimConfig(n=3, p=10, seed=0))
    with pytest.raises(ValueError):
        simulate(SimConfig(n=10, p=3, seed=0))
    with pytest.raises(ValueError):
        simulate(SimConfig(n=10, p=10, seed=0, n_future=-1))


def test_simulate_deterministic_and_extension_stable():
    base = simulate(SimConfig(n=20, p=8, seed=5))
    again = simulate(SimConfig(n=20, p=8, seed=5))
    np.testing.assert_array_equal(base.frame.obs, again.frame.obs)
    # extending the horizon keeps factor paths and the training latent
    # block; the nugget stream shifts, so obs is only fixed per config
    longer = simulate(SimConfig(n=20, p=8, seed=5, n_future=4))
    np.testing.assert_array_equal(longer.factors[:20], base.factors)
    np.testing.assert_array_equal(longer.xi, base.xi)
    assert longer.future_y.shape == (4, 8)
    assert longer.future_xi.shape == (4, 8)
    assert base.future_y is None


def test_simulate_holdout_block():
    draw = simulate(SimConfig(n=15, p=6, seed=6, holdout_sites=3))
    assert draw.holdout_locations.p == 3
    assert draw.holdout_y.shape == (15, 3)
    assert draw.holdout_xi.shape == (15, 3)
    # holdout latent uses the same factor paths
    a_h = loading_values(draw.holdout_locations.coords)
    np.testing.assert_allclose(draw.holdout_xi, draw.factors @ a_h.T,
                               atol=1e-12)


def test_loading_values_frozen_points():
    vals = loading_values([[1.0, 1.0], [0.0, 0.0], [-1.0, 0.5]])
    np.testing.assert_allclose(vals[0], [0.5, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(vals[1], [0.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(vals[2], [-0.5, 0.25, 0.625], atol=1e-15)


def test_factor_moments_match_recursions():
    x = simulate_factors(60_000, 500, np.random.default_rng(7))
    var = x.var(axis=0)
    np.testing.assert_allclose(var, FACTOR_STATIONARY_VARS, rtol=0.05)
    # lag-1 autocorrelations: AR(1) phi=-0.8 -> -0.8; MA(1) theta=-0.5
    # -> -0.5/1.25 = -0.4
    r1 = [np.corrcoef(x[1:, j], x[:-1, j])[0, 1] for j in range(3)]
    assert r1[0] == pytest.approx(-0.8, abs=0.02)
    assert r1[1] == pytest.approx(-0.4, abs=0.02)


def test_snr_estimate_band():
    assert snr_estimate() == pytest.approx(0.7152, abs=0.01)
    with pytest.raises(ValueError):
        snr_estimate(mc_points=0)


# ---- metric helpers ----

def test_metric_shape_guards():
    assert mse_xi(np.ones((2, 2)), np.ones((2, 2))) == 0.0
    assert mspe_space(np.zeros((3, 2)), np.ones((3, 2))) == 1.0
    with pytest.raises(ValueError):
        mse_xi(np.ones((2, 2)), np.ones((2, 3)))


# ---- bandwidth selection ----

def test_select_bandwidth_constant_field_smallest_h():
    locs = grid_locations(8)
    latent = np.full((5, 8), 3.0)
    h = select_bandwidth(latent, locs)
    from latentkrig.stdata import pairwise_distances
    dist = pairwise_distances(locs)
    off = dist + np.diag(np.full(8, np.inf))
    med_nn = float(np.median(off.min(axis=1)))
    # constant fields leave every bandwidth tied; tie rule picks the
    # smallest grid point, 0.1 x median nearest-neighbour spacing
    assert h == pytest.approx(0.1 * med_nn, rel=1e-12)


def test_select_bandwidth_smooth_field_interior():
    rng = np.random.default_rng(8)
    locs = grid_locations(20)
    # smooth spatial signal: bandwidth should be neither endpoint
    latent = np.outer(rng.standard_normal(6),
                      np.sin(locs.coords[:, 0] * 2.0))
    h = select_bandwidth(latent, locs)
    from latentkrig.stdata import pairwise_distances
    dist = pairwise_distances(locs)
    off = dist + np.diag(np.full(20, np.inf))
    med_nn = float(np.median(off.min(axis=1)))
    assert 0.1 * med_nn < h < 2.0 * float(dist.max())


def test_select_bandwidth_guards():
    locs = grid_locations(8)
    latent = np.ones((4, 8))
    with pytest.raises(ValueError):
        select_bandwidth(latent[:, :5], locs)
    with pytest.raises(ValueError, match="unknown kernel family"):
        select_bandwidth(latent, locs, family="box")
    # the latent width is checked before the family
    with pytest.raises(ValueError, match="latent"):
        select_bandwidth(latent[:, :5], locs, family="box")
    sphere = grid_locations(8, metric="great_circle", span=10.0)
    with pytest.raises(ValueError, match="planar"):
        select_bandwidth(latent, sphere, family="epanechnikov_2d")
    two = grid_locations(2)
    with pytest.raises(TooFewLocations):
        select_bandwidth(np.ones((4, 2)), two, family="box")
    # epanechnikov works on planar coordinates
    h = select_bandwidth(latent, locs, family="epanechnikov_2d")
    assert h > 0


def _select_bandwidth_inline(latent, locs, family):
    """The bandwidth search with the kernel formulas written out inline."""
    from latentkrig.stdata import pairwise_distances
    p = locs.p
    dist = pairwise_distances(locs)
    off = dist + np.diag(np.full(p, np.inf))
    grid = np.geomspace(0.1 * float(np.median(off.min(axis=1))),
                        2.0 * float(dist.max()), 30)
    dx = locs.coords[:, 0][:, None] - locs.coords[:, 0][None, :]
    dy = locs.coords[:, 1][:, None] - locs.coords[:, 1][None, :]
    errs = np.empty(grid.size)
    for gi, h in enumerate(grid):
        if family == "gaussian":
            k = np.exp(-0.5 * (dist / h) ** 2)
        else:
            k = (np.maximum(1.0 - (dx / h) ** 2, 0.0)
                 * np.maximum(1.0 - (dy / h) ** 2, 0.0))
        np.fill_diagonal(k, 0.0)
        tot = k.sum(axis=0)
        errs[gi] = (np.inf if np.any(tot <= 0.0)
                    else np.mean((latent @ k / tot - latent) ** 2))
    tol = 1e-12 * max(float(np.mean(latent ** 2)), 1e-300)
    return float(grid[int(np.nonzero(errs <= np.min(errs) + tol)[0][0])])


@pytest.mark.parametrize("family, metric", [
    ("gaussian", "euclidean"), ("gaussian", "great_circle"),
    ("epanechnikov_2d", "euclidean")])
def test_select_bandwidth_matches_inline_formulas(family, metric):
    rng = np.random.default_rng(17)
    scale = 40.0 if metric == "great_circle" else 1.0
    for _ in range(5):
        coords = rng.uniform(-scale, scale, (35, 2))
        locs = LocationSet(ids=tuple(f"s{i}" for i in range(35)),
                           coords=coords, distance_metric=metric)
        latent = (np.outer(rng.standard_normal(8), np.sin(coords[:, 0] / scale * 3))
                  + 0.3 * rng.standard_normal((8, 35)))
        assert (select_bandwidth(latent, locs, family=family)
                == _select_bandwidth_inline(latent, locs, family))


# ---- tau selection ----

def test_select_tau_returns_grid_member_deterministically():
    frame, *_ = rank_k_frame(40, 20, k=2, seed=9, noise=0.6)
    grid = [0.0, 0.25, 1.0]
    tau = select_tau(frame, grid=grid, rng_seed=4)
    assert tau in grid
    assert select_tau(frame, grid=grid, rng_seed=4) == tau


def test_select_tau_guards():
    frame, *_ = rank_k_frame(30, 12, k=1, seed=10, noise=0.5)
    with pytest.raises(ValueError):
        select_tau(frame, grid=[])
    with pytest.raises(ValueError):
        select_tau(frame, grid=[-1.0, 0.0])
    with pytest.raises(ValueError):
        select_tau(frame, grid=[0.0], folds=1)
    with pytest.raises(TooFewLocations):
        select_tau(frame, grid=[0.0], folds=7)  # p < 2*folds
    assert default_tau_grid().shape == (101,)
    assert default_tau_grid()[0] == 0.0 and default_tau_grid()[-1] == 10.0


def _cv_scores_per_site(frame, grid, folds, rng_seed, k0, family):
    """Reference fold x tau scores: the full latent field at every tau,
    kriged one held-out site at a time."""
    from latentkrig import KernelSpec, fit_factors, krige_space, random_partition
    from latentkrig._util import member_seeds
    p = frame.p
    groups = np.array_split(np.random.default_rng(rng_seed).permutation(p),
                            folds)
    fold_seeds = member_seeds(rng_seed, folds)
    scores = np.zeros((folds, len(grid)))
    for f, grp in enumerate(groups):
        test_idx = sorted(int(i) for i in grp)
        sub = frame.subframe([i for i in range(p) if i not in test_idx])
        part = random_partition(sub.p, fold_seeds[f])

        def latent_at(tau):
            return fit_factors(sub, part, tau, k0).xi_hat

        kernel = KernelSpec(family, select_bandwidth(
            latent_at(0.0), sub.locations, family=family))
        for gi, tau in enumerate(grid):
            latent = latent_at(tau)
            for i in test_idx:
                pred = krige_space(latent, sub.locations,
                                   frame.locations.coords[i], kernel)
                scores[f, gi] += np.mean(
                    (pred - frame.obs[:, i]) ** 2) / len(test_idx)
    return scores


@pytest.mark.parametrize("family, k0", [("gaussian", 0), ("gaussian", 1),
                                        ("epanechnikov_2d", 0)])
def test_cv_scores_match_per_site_kriging(family, k0):
    from latentkrig.simbench import _cv_scores
    frame = simulate(SimConfig(n=60, p=40, seed=3)).frame
    grid = np.array([0.0, 0.5, 2.0, 10.0])
    fast = _cv_scores(frame, grid, 5, 11, k0, None, family)
    slow = _cv_scores_per_site(frame, grid, 5, 11, k0, family)
    assert fast.shape == (5, 4)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0.0)
    tau = select_tau(frame, grid=grid, rng_seed=11, k0=k0, family=family)
    assert tau == grid[int(np.argmin(slow.sum(axis=0)))]


def test_cv_product_kernel_empty_window_raises():
    # one far site: held out, no training site shares its kernel window
    rng = np.random.default_rng(5)
    coords = np.vstack([rng.uniform(-1.0, 1.0, (29, 2)), [[50.0, 50.0]]])
    locs = LocationSet(ids=tuple(f"s{i}" for i in range(30)), coords=coords)
    frame = SpatioTemporalFrame(locations=locs,
                                obs=rng.standard_normal((40, 30)))
    with pytest.raises(EmptyKernelWindow, match=r"\(50, 50\)"):
        select_tau(frame, grid=[0.0, 1.0], family="epanechnikov_2d")


def test_cv_scores_solve_tau_zero_once_per_fold(monkeypatch):
    import latentkrig.simbench as sb
    real_eigh, solved = np.linalg.eigh, []

    def counting(a, *args, **kwargs):
        solved.append(1 if np.ndim(a) == 2 else len(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    frame = simulate(SimConfig(n=40, p=30, seed=6)).frame
    with_zero = sb._cv_scores(frame, np.array([0.0, 0.5, 2.0]), 5, 2, 0,
                              None, "gaussian")
    # per fold and side, one stacked solve over {0} u grid: tau = 0 picks
    # the bandwidth and is reused as grid point 0
    assert solved == [3] * (2 * 5)
    solved.clear()
    without = sb._cv_scores(frame, np.array([0.5, 2.0]), 5, 2, 0, None,
                            "gaussian")
    assert solved == [3] * (2 * 5)
    assert with_zero[:, 1:].tobytes() == without.tobytes()


@pytest.mark.parametrize("family, metric", [
    ("gaussian", "euclidean"), ("gaussian", "great_circle"),
    ("epanechnikov_2d", "euclidean")])
def test_factored_bandwidth_matches_the_field_scorer(family, metric):
    from latentkrig.simbench import _loo_bandwidth
    rng = np.random.default_rng(31)
    scale = 40.0 if metric == "great_circle" else 1.0
    for _ in range(10):
        p, n, d = int(rng.integers(12, 60)), int(rng.integers(20, 80)), 3
        coords = rng.uniform(-scale, scale, (p, 2))
        locs = LocationSet(ids=tuple(f"s{i}" for i in range(p)),
                           coords=coords, distance_metric=metric)
        # a split-panel field: two d-column blocks of a random site split
        side = rng.permutation(p) < p // 2
        vt = np.zeros((2 * d, p))
        vt[:d, side] = rng.standard_normal((d, side.sum()))
        vt[d:, ~side] = rng.standard_normal((d, (~side).sum()))
        vt[:, :] += np.sin(coords[:, 0] / scale * 3) * (vt != 0)
        u = rng.standard_normal((n, 2 * d))
        field = u @ vt
        assert (_loo_bandwidth(locs, vt, u, family)
                == select_bandwidth(field, locs, family=family))


def test_cv_scores_peak_memory_stays_flat():
    import tracemalloc
    from latentkrig.simbench import _cv_scores
    frame = simulate(SimConfig(n=320, p=200, seed=1)).frame
    tracemalloc.start()
    try:
        _cv_scores(frame, default_tau_grid(), 5, 1, 0, None, "gaussian")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the eigensolves run in stacks of at most 16 matrices per side
    assert peak <= 8 * 2 ** 20


@pytest.mark.parametrize("quoted", [False, True])
def test_load_frame_peak_memory_stays_flat(tmp_path, monkeypatch, quoted):
    import tracemalloc
    from latentkrig import load_frame, save_frame, stdata
    monkeypatch.setattr(stdata, "_CSV_BLOCK", 512)
    frame = simulate(SimConfig(n=320, p=200, seed=1)).frame
    paths = save_frame(frame, tmp_path)
    if quoted:  # an R write.csv-style file: quoted header and ids
        with open(paths["observations"], encoding="utf-8", newline="") as src:
            text = "".join('"t","id","value"\r\n' if k == 0 else
                           '{},"{}",{}'.format(*line.split(",", 2))
                           for k, line in enumerate(src))
        paths["observations"].write_text(text, encoding="utf-8", newline="")
    tracemalloc.start()
    try:
        back = load_frame(paths["locations"], paths["observations"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.obs.tobytes() == frame.obs.tobytes()
    # 64,000 rows are read 512 at a time; each keeps two integer codes and
    # a float. A reader that holds every row's tokens peaks near 20 MB
    # plain and 27 MB quoted.
    assert peak <= 8 * 2 ** 20


# ---- experiment harness ----

def test_run_table_guards():
    with pytest.raises(ValueError):
        run_table("nonexistent", 3, seed=0)
    with pytest.raises(ValueError):
        run_table("fig1_distance", 2, seed=0)
    with pytest.raises(ValueError):
        run_table("fig1_distance", 3, seed=0, scale_factor=0.0)


def test_run_table_artifacts_and_determinism(tmp_path):
    reports, summary = run_table(
        "fig1_distance", replicates=3, seed=11, settings=[(40, 16)],
        tau_grid=[0.0, 0.5], out_dir=tmp_path, workers=1)
    assert len(reports) == 3
    assert summary["table"] == "fig1_distance"
    assert summary["replicates"] == 3
    block = summary["settings"][0]
    assert block["n"] == 40 and block["p"] == 16
    assert "mean_half_distance" in block["metrics"]
    stat = block["metrics"]["mean_half_distance"]
    assert 0.0 <= stat["mean"] <= 1.0
    assert stat["count"] == 3
    csv_path = tmp_path / "fig1_distance.csv"
    json_path = tmp_path / "fig1_distance_summary.json"
    assert csv_path.exists() and json_path.exists()
    assert json.loads(json_path.read_text())["seed"] == 11
    assert len(csv_path.read_text().strip().splitlines()) == 4  # header + reps
    # same seed, parallel workers: identical metric values
    again, _ = run_table("fig1_distance", replicates=3, seed=11,
                         settings=[(40, 16)], tau_grid=[0.0, 0.5], workers=4)
    for a, b in zip(reports, again):
        assert a.subspace_distances == b.subspace_distances
        assert a.tau == b.tau


def test_run_table_mse_variants(tmp_path):
    reports, summary = run_table(
        "mse_table1", replicates=3, seed=12, settings=[(40, 16)],
        tau_grid=[0.0, 0.5], workers=1)
    variants = {r.variant for r in reports}
    assert variants == {"tau_cv", "tau_zero"}
    assert len(reports) == 6  # two rows per replicate
    by_variant = {b["variant"]: b for b in summary["settings"]}
    assert set(by_variant) == variants
    for block in by_variant.values():
        assert block["metrics"]["mse_xi_hat"]["count"] == 3
    zero_rows = [r for r in reports if r.variant == "tau_zero"]
    assert all(r.tau == 0.0 for r in zero_rows)


def _table_oracle(table, draw, tau, fit_seed, J):
    """One replicate's report fields from the public calls: the documented
    pipeline each table is meant to run."""
    frame, truth = draw.frame, draw.xi
    if table == "mse_table1":
        part = random_partition(frame.p, fit_seed)
        fits = [fit_factors(frame, part, t) for t in (tau, 0.0)]
        return [dict(variant=v, tau=t, mse_xi_hat=mse_xi(fit.xi_hat, truth),
                     d_hat_mean=float(fit.d_hat))
                for v, t, fit in zip(("tau_cv", "tau_zero"), (tau, 0.0), fits)]
    if table == "fig1_distance":
        fit = fit_factors(frame, random_partition(frame.p, fit_seed), tau)
        dists = tuple(subspace_distance(a, draw.loadings[list(s)])
                      for a, s in ((fit.A1_hat, fit.partition.set1),
                                   (fit.A2_hat, fit.partition.set2)))
        return [dict(tau=tau, d_hat_mean=float(fit.d_hat),
                     subspace_distances=dists)]
    # member 0 is the one-member ensemble of the same seed
    one, ens = (aggregate_fit(frame, j, tau, rng_seed=fit_seed) for j in (1, J))
    if table == "fig2_mse":
        return [dict(tau=tau, mse_xi_hat=mse_xi(one.xi_tilde, truth),
                     mse_xi_tilde=mse_xi(ens.xi_tilde, truth),
                     d_hat_mean=float(np.mean(ens.d_hats)))]
    row = dict(tau=tau, d_hat_mean=float(ens.d_hats[0]))
    for j, latent, space, time in ((1, one.xi_tilde, "mspe_space_hat", "mspe_time"),
                                   (J, ens.xi_tilde, "mspe_space_tilde",
                                    "mspe_time_tilde")):
        kernel = KernelSpec("gaussian", select_bandwidth(latent, frame.locations))
        row[space] = mspe_space(krige_space(
            latent, frame.locations, draw.holdout_locations.coords, kernel),
            draw.holdout_y)
        preds = forecast_ensemble(frame, j, [1, 2], 6, tau, rng_seed=fit_seed)
        row[time] = tuple(float(np.mean((pred - future) ** 2))
                          for pred, future in zip(preds, draw.future_y))
    return [row]


@pytest.mark.parametrize("table", ["mse_table1", "fig1_distance", "fig2_mse",
                                   "kriging_table2"])
def test_run_table_is_the_library_pipeline(table):
    # each replicate simulates from sim_seed, cross-validates tau from
    # cv_seed and fits from fit_seed, all derived from the table seed
    (n, p), seed, replicates = (80, 50), 13, 3
    reports, _ = run_table(table, replicates, seed, scale_factor=0.05,
                           settings=[(n, p)], workers=1)
    extra = (dict(n_future=2, holdout_sites=50) if table == "kriging_table2"
             else {})
    rep_seeds = member_seeds(member_seeds(seed, 1)[0], replicates)
    want = []
    for rep, rep_seed in enumerate(rep_seeds):
        sim_seed, pipe_seed = member_seeds(rep_seed, 2)
        cv_seed, fit_seed = member_seeds(pipe_seed, 2)
        draw = simulate(SimConfig(n, p, sim_seed, **extra))
        tau = select_tau(draw.frame, rng_seed=cv_seed)
        want += [MetricReport(n=n, p=p, replicate=rep, **row)
                 for row in _table_oracle(table, draw, tau, fit_seed, J=5)]
    assert reports == want


def test_summarize_reports_means():
    rows = [
        MetricReport(n=10, p=4, replicate=0, tau=0.0, mse_xi_hat=1.0),
        MetricReport(n=10, p=4, replicate=1, tau=0.5, mse_xi_hat=3.0),
    ]
    summary = summarize_reports("mse_table1", rows)
    stat = summary["settings"][0]["metrics"]["mse_xi_hat"]
    assert stat["mean"] == 2.0
    assert stat["sd"] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert stat["count"] == 2
    assert summary["settings"][0]["metrics"]["tau"]["mean"] == 0.25
