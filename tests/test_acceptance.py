"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test prints "CRITERION <k>: PASS ..." or "CRITERION <k>: FAIL ..."
before asserting, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Seeds are frozen; numbers quoted in comments were measured on
the frozen seeds and are repeatable bit-for-bit on one platform.

Criterion 4 carries two thresholds. The cross-validated-vs-flat
comparison at (80, 50) passes. The absolute latent-field MSE target of
0.006 at (320, 200) does not: the latent estimate is a rank-d_hat
projection applied to the raw panel, so its error per cell is floored by
2 * d_hat / p (the nugget energy the projector keeps), which is 0.03 at
d_hat = 3, p = 200, five times the target. The suite asserts the target
faithfully and the test fails honestly rather than substituting a
different estimator to chase the number.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import latentkrig
from latentkrig import (
    LocationSet,
    Partition,
    SimConfig,
    SpatioTemporalFrame,
    KernelSpec,
    aggregate_over_partitions,
    build_laplacian,
    fit_factors,
    impute_missing,
    random_partition,
    recursive_toeplitz_inverse,
    simulate,
    simulate_factors,
    subspace_distance,
)
from latentkrig._util import member_seeds
from latentkrig.ensemble import _fit_members
from latentkrig.simbench import FACTOR_STATIONARY_VARS, loading_values, run_table

from oracles import (assemble_block_toeplitz, enumerate_partitions,
                     partitioned_inverse, penalized_eigvecs, snr_estimate,
                     verify_dual_route, woodbury_identity_check)

MASTER_SEED = 314159

# Every criterion counts as slow; `pytest -m "not slow"` runs the unit
# tests alone for a quick loop.
pytestmark = pytest.mark.slow


def _verdict(k, ok, detail):
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---- criterion 1: exact-algebra oracles, fast and deterministic ----

def test_criterion_1_exact_algebra_suite():
    t0 = time.perf_counter()
    msgs = []

    # partitioned inversion and the two Schur routes on 50 random SPD
    rng = np.random.default_rng(MASTER_SEED)
    worst_part = worst_wood = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        b = rng.standard_normal((m, m))
        h = b @ b.T + m * np.eye(m)
        k = int(rng.integers(1, m))
        blocks = (h[:k, :k], h[:k, k:], h[k:, :k], h[k:, k:])
        gap = np.max(np.abs(partitioned_inverse(*blocks) - np.linalg.inv(h)))
        worst_part = max(worst_part, float(gap))
        worst_wood = max(worst_wood, woodbury_identity_check(*blocks))
    ok_inv = worst_part <= 1e-10 and worst_wood <= 1e-10
    msgs.append(f"partitioned {worst_part:.1e}, schur-routes {worst_wood:.1e}")

    # block-Toeplitz recursion vs dense inverse
    worst_toep = 0.0
    for d in (1, 2, 3, 5):
        for j0 in (0, 1, 6, 10):
            rg = np.random.default_rng(1000 + 10 * d + j0)
            phi = rg.standard_normal((d, d))
            phi *= 0.6 / max(np.abs(np.linalg.eigvals(phi)))
            q = rg.standard_normal((d, d))
            q = q @ q.T + d * np.eye(d)
            s0, term = np.zeros((d, d)), q
            for _ in range(200):
                s0 += term
                term = phi @ term @ phi.T
            sig = [0.5 * (s0 + s0.T)]
            for _ in range(j0):
                sig.append(phi @ sig[-1])
            dense = np.linalg.inv(assemble_block_toeplitz(sig, j0))
            gap = np.max(np.abs(recursive_toeplitz_inverse(sig, j0) - dense))
            worst_toep = max(worst_toep, float(gap / max(np.abs(dense).max(), 1.0)))
    ok_toep = worst_toep <= 1e-10
    msgs.append(f"toeplitz {worst_toep:.1e}")

    # weighted-kriging vs dense best-linear-predictor route, 10 frames
    worst_krig = 0.0
    for rep in range(10):
        draw = simulate(SimConfig(n=300, p=20, seed=2000 + rep))
        fit = fit_factors(draw.frame, random_partition(20, 3000 + rep), 0.0)
        kernel = KernelSpec(family="gaussian", h=0.6)
        s0 = (float(np.cos(rep)), float(np.sin(rep)))
        gap = verify_dual_route(fit, draw.frame, s0, kernel)
        scale = float(np.max(np.abs(fit.xi_hat)))
        worst_krig = max(worst_krig, gap / max(scale, 1.0))
    ok_krig = worst_krig <= 1e-8
    msgs.append(f"kriging-routes {worst_krig:.1e}")

    # aggregation never loses to the member average, every partition of
    # a small panel enumerated, both reference panels
    draw = simulate(SimConfig(n=10, p=4, seed=77))
    parts = enumerate_partitions(4)
    fits = _fit_members(draw.frame, parts, tau=0.0, p_star=2)
    ens = aggregate_over_partitions(draw.frame, parts, tau=0.0, p_star=2)
    stack = np.stack([f.xi_hat for f in fits])
    ok_agg = True
    for reference in (draw.frame.obs, draw.xi):
        agg_sq = (ens.xi_tilde - reference) ** 2
        mean_sq = np.mean((stack - reference) ** 2, axis=0)
        ok_agg = ok_agg and bool(np.all(agg_sq <= mean_sq + 1e-12))
    msgs.append("enumeration inequality holds" if ok_agg else
                "enumeration inequality VIOLATED")

    # Laplacian quadratic identity and penalized eigenvector Gram error
    locs = LocationSet(
        ids=tuple(f"q{i}" for i in range(12)),
        coords=np.random.default_rng(5).uniform(-1, 1, (12, 2)))
    lap = build_laplacian(locs, range(12))
    w = np.diag(np.diag(lap)) - lap
    worst_quad = 0.0
    rg = np.random.default_rng(6)
    for _ in range(5):
        a = rg.standard_normal(12)
        quad = float(a @ lap @ a)
        double = 0.5 * float(np.sum(w * (a[:, None] - a[None, :]) ** 2))
        worst_quad = max(worst_quad, abs(quad - double) / max(abs(quad), 1.0))
    b = rg.standard_normal((12, 12))
    m = b @ b.T
    worst_gram = 0.0
    for tau in (0.0, 1.0, 100.0):
        vecs, _ = penalized_eigvecs(m, lap, tau, 6)
        worst_gram = max(worst_gram, float(np.max(np.abs(
            vecs.T @ vecs - np.eye(6)))))
    ok_lap = worst_quad <= 1e-12 and worst_gram <= 1e-10
    msgs.append(f"laplacian {worst_quad:.1e}, gram {worst_gram:.1e}")

    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 10.0
    msgs.append(f"{elapsed:.1f}s")
    _verdict(1, ok_inv and ok_toep and ok_krig and ok_agg and ok_lap and ok_time,
             "exact-algebra suite: " + "; ".join(msgs))


# ---- criterion 2: subspace recovery ----

def test_criterion_2_subspace_recovery():
    t0 = time.perf_counter()
    # noiseless rank-3 panel: recovery to numerical precision
    rng = np.random.default_rng(11)
    coords = rng.uniform(-1.0, 1.0, size=(60, 2))
    locs = LocationSet(ids=tuple(f"s{i}" for i in range(60)), coords=coords)
    x = simulate_factors(200, 500, rng)
    a = loading_values(coords)
    frame = SpatioTemporalFrame(locations=locs, obs=x @ a.T)
    part = random_partition(60, 1)
    fit = fit_factors(frame, part, tau=0.0)
    d_clean = 0.5 * (subspace_distance(fit.A1_hat, a[list(part.set1)])
                     + subspace_distance(fit.A2_hat, a[list(part.set2)]))
    ok_clean = fit.d_hat == 3 and d_clean <= 1e-6

    # unit nugget: mean distance over 20 replicates per panel length,
    # decreasing in n and ending at or below 0.15
    means = {}
    for n in (80, 160, 320):
        sim_seeds = member_seeds(MASTER_SEED + n, 20)
        part_seeds = member_seeds(271828 + n, 20)
        vals = []
        for rep in range(20):
            draw = simulate(SimConfig(n=n, p=200, seed=sim_seeds[rep]))
            rep_part = random_partition(200, part_seeds[rep])
            rep_fit = fit_factors(draw.frame, rep_part, tau=0.0)
            d1 = subspace_distance(rep_fit.A1_hat,
                                   draw.loadings[list(rep_part.set1)])
            d2 = subspace_distance(rep_fit.A2_hat,
                                   draw.loadings[list(rep_part.set2)])
            vals.append(0.5 * (d1 + d2))
        means[n] = float(np.mean(vals))
    # measured on the frozen seeds: 0.2988 > 0.2113 > 0.1471
    ok_trend = means[80] > means[160] > means[320]
    ok_level = means[320] <= 0.15
    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 120.0
    _verdict(2, ok_clean and ok_trend and ok_level and ok_time,
             f"noiseless D={d_clean:.2e} (d_hat={fit.d_hat}); noisy means "
             f"{means[80]:.4f} > {means[160]:.4f} > {means[320]:.4f}, "
             f"final <= 0.15; {elapsed:.0f}s")


# ---- criterion 3: joint space/time prediction benchmark ----

def test_criterion_3_prediction_benchmark(monkeypatch):
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    t0 = time.perf_counter()
    reports, summary = run_table("kriging_table2", replicates=10,
                                 seed=MASTER_SEED, scale_factor=0.2,
                                 settings=[(320, 200)])
    metrics = summary["settings"][0]["metrics"]
    d_mean = metrics["d_hat_mean"]["mean"]
    space_hat = metrics["mspe_space_hat"]["mean"]
    space_tilde = metrics["mspe_space_tilde"]["mean"]
    one_step = metrics["mspe_time"][0]["mean"]
    # measured: d 3.0, space 1.0199, tilde 1.0186, one-step 1.4856
    ok = (d_mean == 3.0
          and 1.00 <= space_hat <= 1.08
          and space_tilde <= space_hat
          and 1.0 <= one_step <= 2.1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1200.0
    _verdict(3, ok,
             f"(320,200) x10, J=20: mean d_hat={d_mean:.1f}, "
             f"spatial MSPE {space_hat:.4f} in [1.00, 1.08], aggregated "
             f"{space_tilde:.4f} <= single, one-step {one_step:.4f} in "
             f"[1.0, 2.1]; {elapsed:.0f}s")


# ---- criterion 4: latent-field error benchmark ----

def test_criterion_4a_cv_tau_beats_flat_tau(monkeypatch):
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    t0 = time.perf_counter()
    reports, summary = run_table("mse_table1", replicates=20,
                                 seed=MASTER_SEED, settings=[(80, 50)])
    by_variant = {b["variant"]: b["metrics"] for b in summary["settings"]}
    cv = by_variant["tau_cv"]["mse_xi_hat"]["mean"]
    flat = by_variant["tau_zero"]["mse_xi_hat"]["mean"]
    elapsed = time.perf_counter() - t0
    # measured: 0.1698 <= 0.1807
    _verdict("4a", cv <= flat and elapsed < 900.0,
             f"(80,50) x20: latent MSE {cv:.4f} with cross-validated tau "
             f"<= {flat:.4f} with tau=0; {elapsed:.0f}s")


def test_criterion_4b_absolute_latent_mse_target(monkeypatch):
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    t0 = time.perf_counter()
    reports, summary = run_table("mse_table1", replicates=20,
                                 seed=MASTER_SEED, settings=[(320, 200)])
    by_variant = {b["variant"]: b["metrics"] for b in summary["settings"]}
    cv = by_variant["tau_cv"]["mse_xi_hat"]["mean"]
    elapsed = time.perf_counter() - t0
    # measured: 0.0396. The projector keeps 2 * d_hat / p of the unit
    # nugget energy (0.03 at d_hat=3, p=200), so 0.006 is unreachable
    # for this estimator; asserted anyway, fails honestly.
    _verdict("4b", cv <= 0.006 and elapsed < 900.0,
             f"(320,200) x20: latent MSE {cv:.4f} vs target 0.006 "
             f"(projection noise floor 2*d/p = 0.03); {elapsed:.0f}s")


# ---- criterion 5: generator fidelity ----

def test_criterion_5_generator_fidelity():
    snr = snr_estimate()
    ok_snr = abs(snr - 0.72) <= 0.05

    x = simulate_factors(5000, 500, np.random.default_rng(MASTER_SEED))
    r1 = float(np.corrcoef(x[1:, 0], x[:-1, 0])[0, 1])
    ok_r1 = abs(r1 - (-0.8)) <= 0.05

    coords = np.random.default_rng(MASTER_SEED).uniform(-1, 1, (200, 2))
    a = loading_values(coords)
    sigma0 = a @ np.diag(FACTOR_STATIONARY_VARS) @ a.T
    sv = np.linalg.svd(sigma0, compute_uv=False)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    ok_rank = rank == 3

    _verdict(5, ok_snr and ok_r1 and ok_rank,
             f"SNR {snr:.4f} in 0.72+-0.05; factor-1 lag-1 autocorr "
             f"{r1:.4f} in -0.8+-0.05; latent covariance rank {rank} == 3")


# ---- criterion 6: aggregation dominance ----

def test_criterion_6_aggregation_dominance(monkeypatch):
    monkeypatch.setenv("LATENT_KRIG_THREADS", "1")
    t0 = time.perf_counter()
    reports, _ = run_table("fig2_mse", replicates=30, seed=MASTER_SEED,
                           scale_factor=0.5, settings=[(160, 100)])
    wins = sum(1 for r in reports if r.mse_xi_tilde <= r.mse_xi_hat)
    rate = wins / len(reports)
    elapsed = time.perf_counter() - t0
    # measured: rate 1.0
    _verdict(6, rate >= 0.9,
             f"(160,100) x30, J=50: aggregated latent MSE at or below the "
             f"single fit in {wins}/30 replicates (rate {rate:.2f} >= 0.9); "
             f"{elapsed:.0f}s")


# ---- criterion 7: imputation quality ----

def test_criterion_7_imputation_beats_baseline():
    seeds = member_seeds(MASTER_SEED, 20)
    n, p = 200, 50
    wins = 0
    bit_ok = True
    for rep in range(20):
        rng = np.random.default_rng(int(seeds[rep]))
        coords = rng.uniform(-1.0, 1.0, size=(p, 2))
        a = 1.0 + coords[:, 0] ** 2 + coords[:, 1] ** 2
        e = rng.standard_normal(700)
        f = np.zeros(700)
        for t in range(1, 700):
            f[t] = 0.7 * f[t - 1] + e[t]
        f = f[500:]
        y = np.outer(f, a) + rng.standard_normal((n, p))
        mask = rng.random((n, p)) < 0.05
        holed = np.array(y)
        holed[mask] = np.nan
        locs = LocationSet(ids=tuple(f"s{i}" for i in range(p)),
                           coords=coords)
        frame = SpatioTemporalFrame(locations=locs, obs=holed)
        filled = impute_missing(frame)
        bit_ok = bit_ok and np.array_equal(filled.obs[~mask], y[~mask])
        col_means = np.nanmean(holed, axis=0)
        base = np.broadcast_to(col_means, (n, p))
        rmse_model = float(np.sqrt(np.mean((filled.obs[mask] - y[mask]) ** 2)))
        rmse_base = float(np.sqrt(np.mean((base[mask] - y[mask]) ** 2)))
        if rmse_model < rmse_base:
            wins += 1
    rate = wins / 20
    # measured: rate 1.0
    _verdict(7, rate >= 0.95 and bit_ok,
             f"5% missing cells, 20 replicates: model RMSE below the "
             f"column-mean baseline in {wins}/20 (rate {rate:.2f} >= 0.95); "
             f"observed cells bit-preserved: {bit_ok}")


# ---- criterion 8: reproducibility across worker counts ----

_DIGEST_SCRIPT = r"""
import hashlib
import numpy as np
from latentkrig import (SimConfig, aggregate_fit, forecast_ensemble,
                        select_tau, simulate)
from latentkrig.simbench import run_table

draw = simulate(SimConfig(n=160, p=100, seed=12))
tau = select_tau(draw.frame, rng_seed=9)
ens = aggregate_fit(draw.frame, J=24, tau=tau, rng_seed=9)
fc = forecast_ensemble(draw.frame, J=8, j=1, j0=3, rng_seed=4)
reports, summary = run_table("fig1_distance", replicates=3, seed=7,
                             settings=[(80, 50)])
h = hashlib.sha256()
h.update(ens.xi_tilde.tobytes())
h.update(repr(ens.d_hats).encode())
h.update(repr(ens.tau).encode())
h.update(fc.tobytes())
h.update(repr([r.subspace_distances for r in reports]).encode())
h.update(repr([r.tau for r in reports]).encode())
print(h.hexdigest())
"""


def test_criterion_8_thread_count_reproducibility():
    t0 = time.perf_counter()
    digests = {}
    # the subprocesses import latentkrig from where this test did
    src = os.path.dirname(os.path.dirname(latentkrig.__file__))
    for threads in (1, 4, 8):
        env = dict(os.environ)
        env["LATENT_KRIG_THREADS"] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT],
            capture_output=True, text=True, env=env, check=True)
        digests[threads] = proc.stdout.strip()
    same = len(set(digests.values())) == 1
    elapsed = time.perf_counter() - t0
    _verdict(8, same,
             f"ensemble fit + ensemble forecast + benchmark digest "
             f"identical for 1/4/8 worker threads "
             f"({digests[1][:12]}...); {elapsed:.0f}s")
