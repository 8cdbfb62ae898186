"""Synthetic benchmark: generator, accuracy metrics, tuning, experiments.

The generator draws p sites uniformly on [-1, 1]^2 and builds a rank-3
latent field from three fixed loading functions

    a1(s) = s1/2,  a2(s) = s2/2,  a3(s) = (s1^2 + s2^2)/2

driven by one AR(1), one MA(1), and one ARMA(1,1) factor series, plus a
unit-variance Gaussian nugget on every observed cell. Ground truth is
retained so estimates can be scored exactly.

Tuning searches live here too: the roughness weight tau by five-fold
cross-validation over locations (fit on four fifths, spatially krige
the held-out fifth, score against the observed panel) and the kernel
bandwidth by leave-one-location-out reconstruction of the latent field.

run_table drives the full pipeline over replicated settings: it
simulates each replicate and cross-validates its tau once, hands both to
the table's replicate function, and writes CSV/JSON artifacts with
per-setting means and spread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _util
from .errors import EmptyKernelWindow, TooFewLocations
from .factors import _fit_grid, fit_factors, subspace_distance
from .ensemble import aggregate_fit
from .forecast import _forecasts
from .kriging import KernelSpec, _raw_kernel, kernel_weights, krige_space
from .stdata import (LocationSet, SpatioTemporalFrame, _write_csv,
                     pairwise_distances, random_partition)

# Stationary variances of the three factor recursions:
# AR(1), phi=-0.8:            1 / (1 - 0.8^2)
# MA(1), theta=-0.5:          1 + 0.5^2
# ARMA(1,1), (-0.6, 0.3):     (1 + 0.3^2 + 2*(-0.6)(0.3)) / (1 - 0.6^2)
FACTOR_STATIONARY_VARS = (1.0 / 0.36, 1.25, 0.73 / 0.64)

DEFAULT_BURNIN = 500
BANDWIDTH_GRID_SIZE = 30
DEFAULT_HOLDOUT_SITES = 50
DEFAULT_SETTINGS = tuple((n, p) for n in (80, 160, 320) for p in (50, 100, 200))


@dataclass(frozen=True)
class SimConfig:
    """Size, seed, and optional evaluation extras of one synthetic draw."""

    n: int
    p: int
    seed: int
    n_future: int = 0
    holdout_sites: int = 0


@dataclass
class SimulationDraw:
    """A generated panel with its ground truth.

    frame holds the observed training panel (n x p). xi is the true
    latent field on the training block; future_y / future_xi extend the
    training sites n_future steps past the sample, and holdout_y /
    holdout_xi cover the extra sites over the training times.
    """

    config: SimConfig
    frame: SpatioTemporalFrame
    loadings: np.ndarray
    factors: np.ndarray
    xi: np.ndarray
    future_y: np.ndarray | None = None
    future_xi: np.ndarray | None = None
    holdout_locations: LocationSet | None = None
    holdout_y: np.ndarray | None = None
    holdout_xi: np.ndarray | None = None


def loading_values(coords) -> np.ndarray:
    """True loading matrix (len x 3) at the given planar coordinates."""
    c = np.asarray(coords, dtype=np.float64)
    s1, s2 = c[:, 0], c[:, 1]
    return np.column_stack([s1 / 2.0, s2 / 2.0, (s1 ** 2 + s2 ** 2) / 2.0])


def simulate_factors(steps: int, burnin: int, rng) -> np.ndarray:
    """The three factor series after burn-in, as a (steps x 3) array."""
    total = burnin + steps
    e = rng.standard_normal((total + 1, 3))
    x = np.zeros((total, 3))
    x1 = x3 = 0.0
    for t in range(total):
        x1 = -0.8 * x1 + e[t + 1, 0]
        x3 = -0.6 * x3 + e[t + 1, 2] + 0.3 * e[t, 2]
        x[t, 0] = x1
        x[t, 1] = e[t + 1, 1] - 0.5 * e[t, 1]
        x[t, 2] = x3
    return x[burnin:]


def simulate(config: SimConfig) -> SimulationDraw:
    """One synthetic draw; all randomness flows from config.seed.

    Draw order is fixed (training coordinates, hold-out coordinates,
    factor shocks, training nugget, hold-out nugget), so a fixed config
    reproduces exactly. Extending n_future keeps the factor paths and
    the training latent block unchanged (the extra shocks land at the
    end of the stream); the nugget draws shift, so observed panels are
    comparable only within one config.
    """
    n, p = config.n, config.p
    if n < 4 or p < 4:
        raise ValueError("need n >= 4 and p >= 4")
    if config.n_future < 0 or config.holdout_sites < 0:
        raise ValueError("n_future, holdout_sites must be >= 0")
    rng = np.random.default_rng(config.seed)
    coords = rng.uniform(-1.0, 1.0, size=(p, 2))
    h = config.holdout_sites
    coords_h = rng.uniform(-1.0, 1.0, size=(h, 2)) if h else None
    steps = n + config.n_future
    x = simulate_factors(steps, DEFAULT_BURNIN, rng)
    a = loading_values(coords)
    xi_all = x @ a.T
    y_all = xi_all + rng.standard_normal((steps, p))
    locs = LocationSet(ids=tuple(f"s{i + 1:04d}" for i in range(p)),
                       coords=coords)
    draw = SimulationDraw(
        config=config,
        frame=SpatioTemporalFrame(locations=locs, obs=y_all[:n]),
        loadings=a, factors=x, xi=xi_all[:n])
    if config.n_future:
        draw.future_y = y_all[n:]
        draw.future_xi = xi_all[n:]
    if h:
        a_h = loading_values(coords_h)
        xi_h = x @ a_h.T
        y_h = xi_h + rng.standard_normal((steps, h))
        draw.holdout_locations = LocationSet(
            ids=tuple(f"h{i + 1:04d}" for i in range(h)), coords=coords_h)
        draw.holdout_y = y_h[:n]
        draw.holdout_xi = xi_h[:n]
    return draw


def _mean_sq(a, b, what: str) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"{what}: shapes {a.shape} and {b.shape} disagree")
    return float(np.mean((a - b) ** 2))


def mse_xi(estimate, truth) -> float:
    """Mean squared entrywise deviation of a latent-field estimate."""
    return _mean_sq(estimate, truth, "mse_xi")


def mspe_space(preds, truth_y) -> float:
    """Mean squared predictive error at hold-out sites, against observed y.

    The target is y, not the latent field, so the unit nugget variance
    floors the value near 1 even for a perfect latent predictor.
    """
    return _mean_sq(preds, truth_y, "mspe_space")


def default_tau_grid() -> np.ndarray:
    return np.linspace(0.0, 10.0, 101)


def select_bandwidth(latent: np.ndarray, locs: LocationSet,
                     family: str = "gaussian") -> float:
    """Bandwidth by leave-one-location-out reconstruction of the latent field.

    Scans a 30-point log grid from 0.1 x the median nearest-neighbour
    spacing to 2 x the domain diameter; each location's latent series is
    predicted from all others and the squared error averaged. Smallest
    near-optimal grid point wins, so exact ties (constant fields) give
    the smallest h. No randomness.
    """
    return _loo_bandwidth(locs, np.asarray(latent, dtype=np.float64), None, family)


def _loo_bandwidth(locs, vt, u, family) -> float:
    """select_bandwidth's checks, grid and tie rule for the field u @ vt,
    or vt when u is None. Per h the LOO residual is u @ g with g = vt K /
    tot - vt, so with u its mean square is sum((u'u) * (g g')) / (n p)
    and the n x p field is never formed."""
    p = locs.p
    if p < 3:
        raise TooFewLocations("bandwidth selection needs p >= 3")
    if vt.ndim != 2 or vt.shape[1] != p:
        raise ValueError("latent must be n x p for these locations")
    dist = pairwise_distances(locs)
    raw = _raw_kernel(locs, locs.coords, family, dist)
    mean_sq = ((lambda g: np.mean(g ** 2)) if u is None
               else lambda g: np.sum((u.T @ u) * (g @ g.T)) / (u.shape[0] * p))
    np.fill_diagonal(dist, np.inf)  # nearest other site, without a second p x p
    med_nn = float(np.median(dist.min(axis=1)))
    np.fill_diagonal(dist, 0.0)
    diam = float(dist.max())
    if med_nn <= 0.0 or diam <= 0.0:
        raise ValueError("degenerate geometry: coincident locations")
    if not np.isfinite(diam):
        raise ValueError("degenerate geometry: the domain diameter "
                         "overflows a float")
    grid = np.geomspace(0.1 * med_nn, 2.0 * diam, BANDWIDTH_GRID_SIZE)
    errs = np.empty(grid.size)
    for gi, h in enumerate(grid):
        k = raw(h)
        np.fill_diagonal(k, 0.0)
        tot = k.sum(axis=0)
        errs[gi] = np.inf if np.any(tot <= 0.0) else mean_sq(vt @ k / tot - vt)
        del k  # the next h's weights do not sit beside this one's
    best = float(np.min(errs))
    if not np.isfinite(best):
        raise EmptyKernelWindow("every grid bandwidth left some location "
                                "with zero kernel mass")
    tol = 1e-12 * max(float(mean_sq(vt)), 1e-300)
    return float(grid[int(np.nonzero(errs <= best + tol)[0][0])])


def select_tau(frame: SpatioTemporalFrame, grid=None, folds: int = 5,
               rng_seed: int = 0, k0: int = 0, p_star: int | None = None,
               family: str = "gaussian", d_override: int | None = None) -> float:
    """Roughness weight by k-fold cross-validation over locations.

    Locations are shuffled into folds of (near) equal size by rng_seed.
    Per fold, the model is fitted on the remaining locations at every
    grid value through the same path as fit_factors, with the same k0,
    p_star and d_override, and the held-out locations are predicted by
    spatial kriging; the score is the squared error against their
    observed series. The bandwidth is chosen once per fold from the
    tau = 0 fit, so one p_train x p_test kernel-weight matrix W serves
    the whole grid, and that fit is grid point 0 when the grid holds 0.
    Every grid point then costs the d-dimensional readouts y A times
    A' W. Smallest tau wins ties because the grid is scanned in
    ascending order. Folds are fitted on LATENT_KRIG_THREADS threads and
    scored in fold order, so the choice is the same for every count.
    """
    tau_grid = np.unique(np.asarray(
        default_tau_grid() if grid is None else grid, dtype=np.float64))
    if tau_grid.size < 1:
        raise ValueError("tau grid must be nonempty")
    if np.any(tau_grid < 0) or not np.all(np.isfinite(tau_grid)):
        raise ValueError("tau grid values must be finite and >= 0")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if frame.p < 2 * folds:
        raise TooFewLocations(f"{folds}-fold CV needs p >= {2 * folds}")
    scores = _cv_scores(frame, tau_grid, folds, rng_seed, k0, p_star, family, d_override)
    return float(tau_grid[int(np.argmin(scores.sum(axis=0)))])


def _cv_scores(frame, tau_grid, folds, rng_seed, k0, p_star, family,
               d_override=None) -> np.ndarray:
    """(folds, grid) matrix of held-out mean squared errors for select_tau;
    tau_grid is ascending and unique, as select_tau passes it. One row
    per fold, fitted on LATENT_KRIG_THREADS threads, in fold order."""
    p = frame.p
    rng = np.random.default_rng(rng_seed)
    groups = np.array_split(rng.permutation(p), folds)

    def one(fold) -> np.ndarray:
        grp, fold_seed = fold
        test_idx = sorted(int(i) for i in grp)
        sub = frame.subframe(sorted(set(range(p)) - set(test_idx)))
        part = random_partition(sub.p, fold_seed)
        set1, set2 = list(part.set1), list(part.set2)
        # tau = 0 picks the bandwidth
        fits = _fit_grid(sub, part, np.union1d(0.0, tau_grid), k0, p_star,
                         d_override)
        y1, y2 = sub.obs[:, set1], sub.obs[:, set2]
        a1, a2, d = fits[0].A1_hat, fits[0].A2_hat, fits[0].d_hat
        vt = np.zeros((2 * d, sub.p))
        vt[:d, set1], vt[d:, set2] = a1.T, a2.T
        kernel = KernelSpec(family=family, h=_loo_bandwidth(
            sub.locations, vt, np.hstack([y1 @ a1, y2 @ a2]), family))
        w = kernel_weights(sub.locations, frame.locations.coords[test_idx],
                           kernel)
        w1, w2 = w[set1], w[set2]
        y_test = frame.obs[:, test_idx]
        row = np.empty(tau_grid.size)
        for gi, fit in enumerate(fits[len(fits) - tau_grid.size:]):
            a1, a2 = fit.A1_hat, fit.A2_hat
            pred = (y1 @ a1) @ (a1.T @ w1) + (y2 @ a2) @ (a2.T @ w2)
            row[gi] = np.mean((pred - y_test) ** 2)
        return row

    return np.stack(list(_util.ordered_map(
        one, list(zip(groups, _util.member_seeds(rng_seed, folds))))))


@dataclass
class MetricReport:
    """Metrics of one replicate at one (n, p) setting.

    variant distinguishes rows the same replicate produced under
    different tuning rules (e.g. cross-validated tau vs tau = 0);
    mspe_time holds one value per forecast horizon. Fields not computed
    by a given experiment stay None / empty.
    """

    n: int
    p: int
    replicate: int
    tau: float
    variant: str = ""
    mse_xi_hat: float | None = None
    mse_xi_tilde: float | None = None
    mspe_space_hat: float | None = None
    mspe_space_tilde: float | None = None
    mspe_time: tuple[float, ...] = ()
    mspe_time_tilde: tuple[float, ...] = ()
    d_hat_mean: float | None = None
    subspace_distances: tuple[float, float] | None = None


# Each replicate function gets the simulated draw, its cross-validated tau
# and the seed its fits draw from, and returns its report rows as dicts.

def _replicate_mse_table1(draw, tau_cv, seed, J, j0) -> list[dict]:
    # both variants fit one partition, so one Gram build serves both
    fits = _fit_grid(draw.frame, random_partition(draw.frame.p, seed),
                     [tau_cv, 0.0])
    return [dict(tau=fit.tau, variant=variant, d_hat_mean=float(fit.d_hat),
                 mse_xi_hat=mse_xi(fit.xi_hat, draw.xi))
            for variant, fit in zip(("tau_cv", "tau_zero"), fits)]


def _replicate_fig2(draw, tau_cv, seed, J, j0) -> list[dict]:
    ens = aggregate_fit(draw.frame, J, tau_cv, rng_seed=seed)
    xi_hat, xi_tilde = ens._first_and_mean()  # member 0's field, and the mean
    return [dict(tau=tau_cv, mse_xi_hat=mse_xi(xi_hat, draw.xi),
                 mse_xi_tilde=mse_xi(xi_tilde, draw.xi),
                 d_hat_mean=float(np.mean(ens.d_hats)))]


def _replicate_fig1(draw, tau_cv, seed, J, j0) -> list[dict]:
    fit = fit_factors(draw.frame, random_partition(draw.frame.p, seed), tau_cv)
    d1 = subspace_distance(fit.A1_hat, draw.loadings[list(fit.partition.set1)])
    d2 = subspace_distance(fit.A2_hat, draw.loadings[list(fit.partition.set2)])
    return [dict(tau=tau_cv, d_hat_mean=float(fit.d_hat),
                 subspace_distances=(d1, d2))]


def _replicate_table2(draw, tau_cv, seed, J, j0) -> list[dict]:
    frame = draw.frame
    horizons = tuple(range(1, draw.config.n_future + 1))
    ens = aggregate_fit(frame, J, tau_cv, rng_seed=seed)
    space, time = [], []
    # member 0, then the aggregate; each member is assembled and forecast once
    for latent, rows in zip(ens._first_and_mean(),
                            _forecasts(frame, ens, horizons, j0, 0.0)):
        kernel = KernelSpec(family="gaussian",
                            h=select_bandwidth(latent, frame.locations))
        pred = krige_space(latent, frame.locations,
                           draw.holdout_locations.coords, kernel)
        space.append(mspe_space(pred, draw.holdout_y))
        time.append(tuple(_mean_sq(rows[k], draw.future_y[ell - 1], "mspe_time")
                          for k, ell in enumerate(horizons)))
    return [dict(tau=tau_cv, mspe_space_hat=space[0], mspe_space_tilde=space[1],
                 mspe_time=time[0], mspe_time_tilde=time[1],
                 d_hat_mean=float(ens.d_hats[0]))]


# table id -> (replicate function, the SimConfig extras of its draws)
_TABLES = {
    "mse_table1": (_replicate_mse_table1, {}),
    "kriging_table2": (_replicate_table2,
                       {"n_future": 2, "holdout_sites": DEFAULT_HOLDOUT_SITES}),
    "fig1_distance": (_replicate_fig1, {}),
    "fig2_mse": (_replicate_fig2, {}),
}
TABLE_IDS = tuple(_TABLES)

_SCALAR_METRICS = ("mse_xi_hat", "mse_xi_tilde", "mspe_space_hat",
                   "mspe_space_tilde", "d_hat_mean")


def _spread(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd,
            "se": sd / float(np.sqrt(arr.size)), "count": int(arr.size)}


def summarize_reports(table_id: str, reports: list[MetricReport]) -> dict:
    """Per-(n, p, variant) means and spreads of every populated metric."""
    keys = dict.fromkeys((r.n, r.p, r.variant) for r in reports)
    settings = []
    for n, p, variant in keys:
        rows = [r for r in reports
                if (r.n, r.p, r.variant) == (n, p, variant)]
        metrics: dict = {}
        for name in _SCALAR_METRICS:
            vals = [getattr(r, name) for r in rows
                    if getattr(r, name) is not None]
            if vals:
                metrics[name] = _spread(vals)
        for name in ("mspe_time", "mspe_time_tilde"):
            series = [getattr(r, name) for r in rows if getattr(r, name)]
            if series:
                metrics[name] = [_spread([s[i] for s in series])
                                 for i in range(len(series[0]))]
        dists = [r.subspace_distances for r in rows
                 if r.subspace_distances is not None]
        if dists:
            metrics["mean_half_distance"] = _spread(
                [0.5 * (d1 + d2) for d1, d2 in dists])
        metrics["tau"] = _spread([r.tau for r in rows])
        settings.append({"n": n, "p": p, "variant": variant,
                         "metrics": metrics})
    return {"table": table_id, "settings": settings}


def _reports_csv(reports: list[MetricReport], path: Path) -> None:
    horizons = max((len(r.mspe_time) for r in reports), default=0)
    head = ["n", "p", "replicate", "variant", "tau", *_SCALAR_METRICS]
    head += [f"mspe_time_{i + 1}" for i in range(horizons)]
    head += [f"mspe_time_tilde_{i + 1}" for i in range(horizons)]
    head += ["dist_set1", "dist_set2"]
    rows = []
    for r in reports:
        row = [r.n, r.p, r.replicate, r.variant, repr(r.tau)]
        row += ["" if getattr(r, m) is None else repr(getattr(r, m))
                for m in _SCALAR_METRICS]
        for series in (r.mspe_time, r.mspe_time_tilde):
            row += [repr(v) for v in series]
            row += [""] * (horizons - len(series))
        if r.subspace_distances is None:
            row += ["", ""]
        else:
            row += [repr(v) for v in r.subspace_distances]
        rows.append(row)
    _write_csv(path, head, rows)


def run_table(table_id: str, replicates: int, seed: int,
              scale_factor: float = 1.0, settings=None, out_dir=None,
              j0: int = 6, tau_grid=None) -> tuple[list[MetricReport], dict]:
    """Run one benchmark experiment over replicated settings.

    scale_factor shrinks the aggregation size J (nominally 100) without
    touching any estimator setting, so desk-scale runs remain faithful.
    Replicates are independent seeded tasks on LATENT_KRIG_THREADS
    threads, each running its own maps inline, reduced in index order;
    artifacts (CSV of per-replicate rows, JSON summary) are written when
    out_dir is given. Returns (reports, summary).
    """
    if table_id not in _TABLES:
        raise ValueError(f"unknown table id {table_id!r}; "
                         f"choose from {', '.join(TABLE_IDS)}")
    if replicates < 3:
        raise ValueError("need replicates >= 3 for mean/spread reporting")
    if not 0 < scale_factor < np.inf:
        raise ValueError("scale_factor must be finite and > 0")
    settings = [(int(n), int(p)) for n, p in
                (DEFAULT_SETTINGS if settings is None else settings)]
    J = max(1, round(100 * scale_factor))
    fn, extra = _TABLES[table_id]
    setting_seeds = _util.member_seeds(seed, len(settings))
    tasks = []
    for si, setting in enumerate(settings):
        rep_seeds = _util.member_seeds(setting_seeds[si], replicates)
        for rep in range(replicates):
            sim_seed, pipe_seed = _util.member_seeds(rep_seeds[rep], 2)
            tasks.append((setting, rep, sim_seed, pipe_seed))

    def one(task) -> list[MetricReport]:
        (n, p), rep, sim_seed, pipe_seed = task
        draw = simulate(SimConfig(n, p, sim_seed, **extra))
        cv_seed, fit_seed = _util.member_seeds(pipe_seed, 2)
        tau_cv = select_tau(draw.frame, grid=tau_grid, rng_seed=cv_seed)
        return [MetricReport(n=n, p=p, replicate=rep, **row)
                for row in fn(draw, tau_cv, fit_seed, J, j0)]

    reports = [r for batch in _util.ordered_map(one, tasks) for r in batch]
    summary = summarize_reports(table_id, reports)
    summary["replicates"] = replicates
    summary["J"] = J
    summary["seed"] = seed
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _reports_csv(reports, out / f"{table_id}.csv")
        (out / f"{table_id}_summary.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return reports, summary
