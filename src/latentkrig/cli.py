"""Command line front end.

Subcommands bind the library end to end: simulate writes a synthetic
panel as CSV, fit estimates the latent structure (single split or
aggregated) into a JSON model document, krige-space and forecast read
artifacts back and emit predictions, impute fills missing cells, bench
drives the experiment harness, and deseason removes a periodic component
from an observation table. fit and forecast tune the roughness weight
by cross-validation under --tau-grid.

A single split is member 0 of the ensemble drawn from --seed, so fit
and fit --ensemble 1 fit the same partition, forecast is forecast
--J 1, and krige-space reads a fit as an ensemble of one.

Exit codes: 0 on success, 2 for anything the user can fix (bad flags,
malformed files, contract violations), 3 for numerical failures inside
an estimate. Randomized subcommands print "seed=N" so runs can be
reproduced. LATENT_KRIG_THREADS sizes every worker pool and is read on
every call; a map started inside a pooled task runs inline. Unset or
empty, it is the usable CPUs when OpenBLAS can be pinned to one thread
per task, and 1 otherwise; results are the same for every value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .ensemble import aggregate_fit, load_ensemble, save_ensemble
from .errors import (EXIT_NUMERICAL, EXIT_VALIDATION, LatentKrigError,
                     ParseError, PeriodTooLarge)
from .factors import save_fit
from .forecast import _forecast_args, forecast_ensemble
from .kriging import _FAMILIES, KernelSpec, impute_missing, krige_space
from .simbench import (TABLE_IDS, SimConfig, run_table, select_bandwidth,
                       select_tau)
from .simbench import simulate as simulate_op
from .stdata import (_METRICS, SpatioTemporalFrame, _fmt, _write_csv,
                     _write_long_form, load_frame, load_observation_table,
                     save_frame)


def _parse_point(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a coordinate pair 'x,y', got {text!r}")
    try:
        point = np.array([float(parts[0]), float(parts[1])])
    except ValueError:
        raise ParseError(f"non-numeric coordinate in {text!r}") from None
    if not np.all(np.isfinite(point)):
        raise ParseError(f"non-finite coordinate in {text!r}")
    return point


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"expected comma-separated integers, got {text!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec: 'lo:hi:count' for a linear grid, else comma values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid spec must be lo:hi:count, got {text!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"bad grid spec {text!r}") from None
        if count < 1 or hi < lo:
            raise ParseError(f"bad grid spec {text!r}")
        return np.linspace(lo, hi, count)
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad grid values {text!r}") from None
    if not values:
        raise ParseError("empty grid")
    return np.asarray(values)


def _load_dir(args) -> SpatioTemporalFrame:
    d = Path(args.data)
    return load_frame(d / "locations.csv", d / "observations.csv",
                      distance_metric=args.metric)


def _load_for_fit(args) -> SpatioTemporalFrame:
    """The panel, once --folds, --d and --p-star are known to suit it, so
    a bad flag fails before any cross-validation runs. A fit splits its
    sites in two halves, and under --tau-grid each fold fits the panel
    less a held-out group of up to ceil(p/folds) sites, so --d and
    --p-star are bounded by half the fewest sites any fit sees."""
    frame = _load_dir(args)
    p = width = frame.p
    where = f"p={p}"
    if args.tau_grid is not None:
        if not 2 <= args.folds <= p // 2:
            raise ParseError(f"--folds must be in 2..{p // 2} for p={p}, "
                             f"got {args.folds}")
        width = p - -(-p // args.folds)
        where += f" with {args.folds}-fold --tau-grid"
    for flag, value, low in (("--d", args.d, 1), ("--p-star", args.p_star, 2)):
        if value is not None and not low <= value <= width // 2:
            raise ParseError(f"{flag} must be in {low}..{width // 2} for "
                             f"{where}, got {value}")
    return frame


def _resolve_cli_tau(frame: SpatioTemporalFrame, args) -> float:
    """--tau, or the --tau-grid point cross-validated with the fit's own
    --k0, --p-star and --d."""
    if args.tau_grid is not None:
        return select_tau(frame, grid=_parse_grid(args.tau_grid),
                          folds=args.folds, rng_seed=args.seed, k0=args.k0,
                          p_star=args.p_star, family=args.kernel,
                          d_override=args.d)
    return args.tau if args.tau is not None else 0.0


# ---- subcommands ----

def cmd_simulate(args) -> int:
    cfg = SimConfig(n=args.n, p=args.p, seed=args.seed,
                    n_future=args.n_future, holdout_sites=args.holdout_sites)
    draw = simulate_op(cfg)
    print(f"seed={args.seed}")
    out = Path(args.out)
    paths = save_frame(draw.frame, out)
    written = [paths["locations"], paths["observations"]]
    ids = draw.frame.locations.ids

    def long_form(name: str, first: int, site_ids, values: np.ndarray) -> None:
        written.append(out / name)
        _write_long_form(out / name, ["t", "id", "value"],
                         range(first, first + len(values)), site_ids,
                         values[:, :, None])

    long_form("truth_xi.csv", 1, ids, draw.xi)
    if draw.future_y is not None:
        long_form("future_y.csv", cfg.n + 1, ids, draw.future_y)
    if draw.holdout_locations is not None:
        hl = out / "holdout_locations.csv"
        hids = draw.holdout_locations.ids
        _write_csv(hl, ["id", "x1", "x2"],
                   ((hids[i], _fmt(c[0]), _fmt(c[1]))
                    for i, c in enumerate(draw.holdout_locations.coords)))
        written.append(hl)
        long_form("holdout_y.csv", 1, hids, draw.holdout_y)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fit(args) -> int:
    if args.ensemble is not None and args.ensemble < 1:
        raise ParseError("--ensemble must be >= 1")
    frame = _load_for_fit(args)
    print(f"seed={args.seed}")
    tau = _resolve_cli_tau(frame, args)
    ens = aggregate_fit(frame, J=args.ensemble or 1, tau=tau, k0=args.k0,
                        p_star=args.p_star, rng_seed=args.seed,
                        d_override=args.d)
    if args.ensemble is not None:
        save_ensemble(ens, args.out, frame.locations)
        print(f"tau={_fmt(tau)}")
        print(f"J={ens.J}")
        print(f"d_hat_mean={_fmt(float(np.mean(ens.d_hats)))}")
    else:
        save_fit(ens.members[0], args.out, frame.locations)
        print(f"tau={_fmt(tau)}")
        print(f"d_hat={ens.d_hats[0]}")
    print(f"wrote {args.out}")
    return 0


def cmd_krige_space(args) -> int:
    model, locs = load_ensemble(args.model)
    latent = model.xi_tilde
    if locs is None:
        raise ParseError(f"{args.model}: model has no embedded locations")
    if args.h == "auto":
        h = select_bandwidth(latent, locs, family=args.kernel)
    else:
        try:
            h = float(args.h)
        except ValueError:
            raise ParseError(f"--h must be a number or 'auto', got {args.h!r}") from None
    kernel = KernelSpec(family=args.kernel, h=h)
    sites = np.array([_parse_point(text) for text in args.at])
    preds = krige_space(latent, locs, sites, kernel)

    if args.format == "json":
        payload = json.dumps({
            "h": h,
            "kernel": args.kernel,
            "sites": [{"x1": float(s0[0]), "x2": float(s0[1]),
                       "values": [float(v) for v in pred]}
                      for s0, pred in zip(sites, preds.T)],
        }, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "x1", "x2", "value"])
        w.writerows((t + 1, _fmt(s0[0]), _fmt(s0[1]), _fmt(value))
                    for s0, pred in zip(sites, preds.T)
                    for t, value in enumerate(pred))
        payload = buf.getvalue()
    if not args.out:
        sys.stdout.write(payload)
        return 0
    Path(args.out).write_text(payload, encoding="utf-8", newline="")
    print(f"h={_fmt(h)}")
    print(f"wrote {args.out}")
    return 0


def cmd_forecast(args) -> int:
    if args.J < 1:
        raise ParseError("--J must be >= 1")
    frame = _load_for_fit(args)
    print(f"seed={args.seed}")
    horizons = _parse_ints(args.j)
    if not horizons:
        raise ParseError("--j must list at least one horizon")
    _forecast_args(frame.n, horizons, args.j0, args.ridge)
    tau = _resolve_cli_tau(frame, args)
    preds = forecast_ensemble(frame, args.J, horizons, args.j0, tau=tau,
                              k0=args.k0, p_star=args.p_star,
                              d_override=args.d, rng_seed=args.seed,
                              ridge=args.ridge)
    _write_long_form(Path(args.out), ["horizon", "id", "value"], horizons,
                     frame.locations.ids, preds[:, :, None])
    print(f"tau={_fmt(tau)}")
    print(f"wrote {args.out}")
    return 0


def cmd_impute(args) -> int:
    d = Path(args.data)  # unlike fit and forecast, carries covariates.csv through
    covariates = d / "covariates.csv"
    frame = load_frame(d / "locations.csv", d / "observations.csv",
                       covariates if covariates.exists() else None,
                       distance_metric=args.metric)
    filled = impute_missing(frame)
    paths = save_frame(filled, Path(args.out))
    print(f"filled={len(filled.filled_cells or ())}")
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    settings = None
    if args.n is not None or args.p is not None:
        if args.n is None or args.p is None:
            raise ParseError("--n and --p must be given together")
        settings = [(n, p) for n in _parse_ints(args.n)
                    for p in _parse_ints(args.p)]
    print(f"seed={args.seed}")
    grid = _parse_grid(args.tau_grid) if args.tau_grid is not None else None
    reports, summary = run_table(args.table, args.replicates, args.seed,
                                 scale_factor=args.scale_factor,
                                 settings=settings, out_dir=args.out,
                                 j0=args.j0, tau_grid=grid)
    for block in summary["settings"]:
        bits = [f"n={block['n']}", f"p={block['p']}"]
        if block["variant"]:
            bits.append(block["variant"])
        for name, stat in block["metrics"].items():
            if isinstance(stat, dict):
                bits.append(f"{name}={stat['mean']:.4f}")
        print(" ".join(bits))
    print(f"wrote {Path(args.out) / (args.table + '.csv')}")
    print(f"wrote {Path(args.out) / (args.table + '_summary.json')}")
    return 0


def cmd_deseason(args) -> int:
    period = args.period
    if period < 2:
        raise ParseError("--period must be >= 2")
    stamps, ids, obs = load_observation_table(args.observations)
    n = len(stamps)
    if n < 2 * period:
        raise PeriodTooLarge(
            f"period {period} needs >= {2 * period} time points, found {n}")
    out = obs.copy()
    for r in range(period):
        block = obs[r::period]
        counts = (~np.isnan(block)).sum(axis=0)
        # a site never seen in this phase stays NaN whatever its mean
        out[r::period] = block - np.nansum(block, axis=0) / np.maximum(counts, 1)
    _write_long_form(Path(args.out), ["t", "id", "value"], stamps, ids,
                     out[:, :, None])
    print(f"wrote {args.out}")
    return 0


# ---- parser ----

def _add_metric(p) -> None:
    p.add_argument("--metric", choices=_METRICS, default="euclidean",
                   help="distance metric for the location coordinates")


def _add_kernel(p) -> None:
    p.add_argument("--kernel", choices=_FAMILIES, default="gaussian")


def _add_tau_flags(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None,
                       help="fixed roughness weight (default 0)")
    group.add_argument("--tau-grid", default=None,
                       help="cross-validate tau over 'lo:hi:count' or a comma list")
    p.add_argument("--folds", type=int, default=5,
                   help="folds for --tau-grid cross-validation")


def _add_estimator_flags(p) -> None:
    p.add_argument("--k0", type=int, default=0,
                   help="extra lags folded into the eigenanalysis")
    p.add_argument("--p-star", type=int, default=None,
                   help="scan width for the factor-count ratio estimator")
    p.add_argument("--d", type=int, default=None,
                   help="fix the factor count instead of estimating it")


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, required=True,
                   help="seed for every random choice in this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentkrig",
        description="Latent-factor kriging for spatio-temporal panels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic benchmark panel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _add_seed(p)
    p.add_argument("--n-future", type=int, default=0)
    p.add_argument("--holdout-sites", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate the latent factor structure")
    p.add_argument("data", help="directory with locations.csv and observations.csv")
    _add_metric(p)
    _add_tau_flags(p)
    _add_estimator_flags(p)
    _add_kernel(p)
    _add_seed(p)
    p.add_argument("--ensemble", type=int, default=None, metavar="J",
                   help="aggregate over J random partitions instead of "
                        "member 0 of --seed alone")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("krige-space", help="predict at unobserved sites")
    p.add_argument("model", help="model JSON from fit")
    p.add_argument("--at", action="append", required=True, metavar="X,Y",
                   help="prediction site; repeatable")
    p.add_argument("--h", default="auto",
                   help="kernel bandwidth, or 'auto' for leave-one-out choice")
    _add_kernel(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_krige_space)

    p = sub.add_parser("forecast", help="predict future time points")
    p.add_argument("data")
    _add_metric(p)
    p.add_argument("--j", required=True, help="comma list of horizons >= 1")
    p.add_argument("--j0", type=int, default=6,
                   help="number of trailing readouts used by the predictor")
    _add_tau_flags(p)
    _add_estimator_flags(p)
    _add_kernel(p)
    p.add_argument("--J", type=int, default=1,
                   help="aggregate forecasts over J random partitions "
                        "(default 1: member 0 of --seed)")
    p.add_argument("--ridge", type=float, default=0.0,
                   help="opt-in ridge added to the lag-0 factor covariance")
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("impute", help="fill missing cells by kriging")
    p.add_argument("data")
    _add_metric(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("bench", help="run a benchmark experiment")
    p.add_argument("--table", required=True, choices=TABLE_IDS)
    p.add_argument("--replicates", type=int, required=True)
    _add_seed(p)
    p.add_argument("--n", default=None, help="comma list of panel lengths")
    p.add_argument("--p", default=None, help="comma list of location counts")
    p.add_argument("--scale-factor", type=float, default=1.0,
                   help="scales the aggregation size J (nominally 100)")
    p.add_argument("--j0", type=int, default=6)
    p.add_argument("--tau-grid", default=None)
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("deseason",
                       help="subtract per-location periodic means")
    p.add_argument("observations", help="observation CSV (t,id,value)")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_deseason)

    return parser


def _merge_coordinate_flags(argv: list[str]) -> list[str]:
    """Join '--at' with a following negative coordinate pair.

    argparse reads '-0.5,0.5' as an option name; '--at=-0.5,0.5' always
    works, and this keeps the two-token spelling usable too.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--at" and tok.startswith("-") and "," in tok:
            out[-1] = f"--at={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_coordinate_flags(list(argv)))
    try:
        if getattr(args, "seed", 0) < 0:
            raise ParseError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except LatentKrigError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
