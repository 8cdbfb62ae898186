"""The benchmark's workloads: inputs, CLI commands per pass, output checks.

Each workload is one user pipeline. Inputs are generated from the
workload seed with the package's own ``simulate`` and ``save_frame`` and
written as CSV; ground truth goes to ``truth.npz`` beside them, which the
program never reads. A pass runs the listed ``latentkrig`` commands; the
checker then parses what they wrote and scores it against the truth.

Why these three (they stress different layers, so a change to one layer
shows on one workload and leaves the others alone):

* paper-cv: the paper's (n, p) = (320, 200) with tau cross-validation
  and a 50-member ensemble, then kriging at 50 hold-out sites. Tuning
  and the shared eigen/kriging code do most of the work; ingest is
  light. BLAS threads are left at their default, as users get them.
* wide-forecast: p = 800, four times the paper's p. Ingest-heavy
  (256k rows) and eigen-heavy at 400 x 400, with lag-1 covariances and
  the Toeplitz recursion, on two pool workers with single-threaded BLAS.
* gappy-impute: p = 100 with 2% of cells missing, half scattered and
  half in outage blocks where several sites miss the same times. It
  never fits factors; it stresses the masked covariances, the
  per-cell eigensolves and the CSV write path, single-threaded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Thread settings recorded with every result; None in a workload's env
# means the variable is unset, as a user who never set it has it.
BLAS_VARS = ("LATENT_KRIG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Accuracy against the simulator's truth, lower is better; n/a where a
# workload has no such output.
ACCURACY = ("latent_mse", "mspe_space", "mspe_time", "impute_rmse")

GAPPY_MISSING = 640          # 2% of 320 x 100
GAPPY_OUTAGES = 4            # blocks of OUTAGE_SITES sites x OUTAGE_STEPS times
OUTAGE_SITES = 5
OUTAGE_STEPS = 16


@dataclass(frozen=True)
class Workload:
    env: dict                # variable -> value for the pass interpreter
    bounds: dict             # accuracy metric -> sanity bound; above fails


# Sanity bounds sit well above what trial seeds gave (latent_mse 0.024-0.027,
# mspe_space 1.02-1.04, mspe_time 1.02-1.72, impute_rmse 1.17-1.26) and
# below what a broken estimator gives (a zero latent field scores about
# 0.5 latent MSE and 1.5 MSPE at hold-out sites).
WORKLOADS = {
    "paper-cv": Workload(
        env={"LATENT_KRIG_THREADS": None, "OPENBLAS_NUM_THREADS": None,
             "OMP_NUM_THREADS": None},
        bounds={"latent_mse": 0.1, "mspe_space": 1.3}),
    "wide-forecast": Workload(
        env={"LATENT_KRIG_THREADS": "2", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": None},
        bounds={"mspe_time": 3.0}),
    "gappy-impute": Workload(
        env={"LATENT_KRIG_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": None},
        bounds={"impute_rmse": 1.6}),
}


def apply_env(workload: Workload, env: dict) -> dict:
    out = dict(env)
    for key, value in workload.env.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


# ---- input generation ----

def _gappy_mask(n: int, p: int, seed: int) -> np.ndarray:
    """Outage blocks plus scattered cells, GAPPY_MISSING cells in total."""
    rng = np.random.default_rng([seed, 2])
    mask = np.zeros((n, p), dtype=bool)
    for _ in range(GAPPY_OUTAGES):
        sites = rng.choice(p, OUTAGE_SITES, replace=False)
        start = int(rng.integers(0, n - OUTAGE_STEPS))
        mask[start:start + OUTAGE_STEPS, sites] = True
    free = np.flatnonzero(~mask.ravel())
    extra = rng.choice(free, GAPPY_MISSING - int(mask.sum()), replace=False)
    mask.ravel()[extra] = True
    return mask


def generate(name: str, seed: int, out: Path) -> dict:
    """Write the workload's input panel under ``out/data`` and its truth.

    Returns the workload properties (sizes and counts) for the report.
    """
    import latentkrig as lk

    data = out / "data"
    if name == "paper-cv":
        draw = lk.simulate(lk.SimConfig(n=320, p=200, seed=seed,
                                        holdout_sites=50))
        lk.save_frame(draw.frame, data)
        np.savez(out / "truth.npz", xi=draw.xi, holdout_y=draw.holdout_y,
                 holdout_coords=draw.holdout_locations.coords)
        props = {"n": 320, "p": 200, "J": 50, "holdout_sites": 50,
                 "tau_grid": 101, "folds": 5, "cv_fits": 101 * 5}
    elif name == "wide-forecast":
        draw = lk.simulate(lk.SimConfig(n=320, p=800, seed=seed, n_future=3))
        lk.save_frame(draw.frame, data)
        np.savez(out / "truth.npz", future_y=draw.future_y)
        props = {"n": 320, "p": 800, "J": 10, "horizons": 3, "j0": 6,
                 "k0": 1}
    elif name == "gappy-impute":
        draw = lk.simulate(lk.SimConfig(n=320, p=100, seed=seed))
        y = draw.frame.obs
        mask = _gappy_mask(*y.shape, seed)
        frame = lk.SpatioTemporalFrame(locations=draw.frame.locations,
                                       obs=np.where(mask, np.nan, y))
        lk.save_frame(frame, data)
        np.savez(out / "truth.npz", y=y, mask=mask)
        groups = {(int(i), mask[t].tobytes()) for t, i in zip(*np.nonzero(mask))}
        props = {"n": 320, "p": 100, "missing_cells": int(mask.sum()),
                 "avail_groups": len(groups)}
    else:
        raise KeyError(name)
    return props


# ---- commands ----

def commands(name: str, seed: int, data: Path, out: Path, truth) -> list[list[str]]:
    """The ``latentkrig`` argv lists one pass runs, in order."""
    if name == "paper-cv":
        sites = [f"--at={float(x)!r},{float(y)!r}"
                 for x, y in truth["holdout_coords"]]
        return [
            ["fit", str(data), "--tau-grid", "0:10:101", "--ensemble", "50",
             "--seed", str(seed), "--out", str(out / "fit.json")],
            ["krige-space", str(out / "fit.json"), "--h", "auto",
             "--format", "json", "--out", str(out / "pred.json"), *sites],
        ]
    if name == "wide-forecast":
        return [["forecast", str(data), "--j", "1,2,3", "--j0", "6",
                 "--J", "10", "--tau", "1", "--k0", "1", "--seed", str(seed),
                 "--out", str(out / "forecast.csv")]]
    if name == "gappy-impute":
        return [["impute", str(data), "--out", str(out / "filled")]]
    raise KeyError(name)


# ---- output checks ----

class CheckFailed(Exception):
    pass


def tree_hash(path: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _printed(stdout: str) -> dict:
    """key=value lines the CLI printed, numbers parsed."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in ("tau", "h", "d_hat_mean", "J", "filled", "seed"):
            out[key] = float(value)
    return out


def _finite(arr: np.ndarray, shape: tuple, what: str) -> None:
    if arr.shape != shape:
        raise CheckFailed(f"{what}: shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{what}: non-finite values")


def _read_long(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]}, expected {header}")
    return rows[1:]


def check(name: str, out: Path, stdout: str, truth, corrupt: bool = False) -> dict:
    """Parse a pass's outputs, score them, and raise CheckFailed if wrong.

    ``corrupt`` puts a NaN into the parsed primary output before the
    checks, to show that a bad pass is counted and not dropped.
    Returns the accuracy metrics and the values the CLI printed.
    """
    printed = _printed(stdout)
    if name == "paper-cv":
        doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        block = doc["xi_tilde"]
        xi = np.asarray(block["data"], dtype=np.float64).reshape(
            block["rows"], block["cols"])
        if corrupt:
            xi[0, 0] = math.nan
        _finite(xi, truth["xi"].shape, "xi_tilde")
        pred = json.loads((out / "pred.json").read_text(encoding="utf-8"))
        series = np.array([s["values"] for s in pred["sites"]],
                          dtype=np.float64).T
        _finite(series, truth["holdout_y"].shape, "kriged hold-out series")
        if doc["J"] != 50 or not pred["h"] > 0:
            raise CheckFailed("ensemble size or bandwidth out of range")
        acc = {"latent_mse": float(np.mean((xi - truth["xi"]) ** 2)),
               "mspe_space": float(np.mean((series - truth["holdout_y"]) ** 2))}
    elif name == "wide-forecast":
        rows = _read_long(out / "forecast.csv", ["horizon", "id", "value"])
        future = truth["future_y"]
        pred = np.array([float(r[2]) for r in rows]).reshape(-1, future.shape[1])
        if corrupt:
            pred[0, 0] = math.nan
        _finite(pred, future.shape, "forecast")
        if [int(r[0]) for r in rows[::future.shape[1]]] != [1, 2, 3]:
            raise CheckFailed("forecast horizons out of order")
        acc = {"mspe_time": float(np.mean((pred - future) ** 2))}
    elif name == "gappy-impute":
        rows = _read_long(out / "filled" / "observations.csv",
                          ["t", "id", "value"])
        y, mask = truth["y"], truth["mask"]
        filled = np.array([float(r[2]) for r in rows]).reshape(y.shape)
        if corrupt:
            filled[tuple(np.argwhere(mask)[0])] = math.nan
        _finite(filled, y.shape, "filled panel")
        if not np.array_equal(filled[~mask], y[~mask]):
            raise CheckFailed("observed cells changed")
        if printed.get("filled") != mask.sum():
            raise CheckFailed(f"filled={printed.get('filled')}, "
                              f"expected {int(mask.sum())}")
        acc = {"impute_rmse": float(np.sqrt(np.mean((filled[mask] - y[mask]) ** 2)))}
    else:
        raise KeyError(name)
    for metric, bound in WORKLOADS[name].bounds.items():
        if not acc[metric] <= bound:
            raise CheckFailed(f"{metric}={acc[metric]:.4g} exceeds sanity "
                              f"bound {bound}")
    return {"accuracy": acc, "printed": printed}
