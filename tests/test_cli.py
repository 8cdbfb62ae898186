import csv
import io
import json
import warnings

import numpy as np
import pytest

from latentkrig import (SimConfig, forecast_ensemble, load_ensemble, load_fit,
                        load_frame, select_tau, simulate)
from latentkrig import cli
from latentkrig import _util
from latentkrig._util import worker_count
from latentkrig.cli import main
from latentkrig.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def data_dir(tmp_path, capsys):
    out = tmp_path / "panel"
    code, stdout, _ = run(capsys, "simulate", "--n", "60", "--p", "16",
                          "--seed", "11", "--out", str(out))
    assert code == 0
    assert "seed=11" in stdout
    return out


def test_simulate_writes_panel(data_dir):
    frame = load_frame(data_dir / "locations.csv",
                       data_dir / "observations.csv")
    assert frame.n == 60 and frame.p == 16
    truth = (data_dir / "truth_xi.csv").read_text().splitlines()
    assert truth[0] == "t,id,value"
    assert len(truth) == 1 + 60 * 16


def test_simulate_evaluation_extras(tmp_path, capsys):
    out = tmp_path / "panel"
    code, stdout, _ = run(capsys, "simulate", "--n", "30", "--p", "10",
                          "--seed", "2", "--n-future", "3",
                          "--holdout-sites", "4", "--out", str(out))
    assert code == 0
    future = (out / "future_y.csv").read_text().splitlines()
    assert len(future) == 1 + 3 * 10
    holdout_locs = (out / "holdout_locations.csv").read_text().splitlines()
    assert len(holdout_locs) == 1 + 4


def _csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer writes for these rows, as the CLI's per-row
    generators wrote them before the one long-form writer."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def test_long_form_outputs_are_csv_writer_bytes(tmp_path, capsys):
    out = tmp_path / "panel"
    code, stdout, _ = run(capsys, "simulate", "--n", "30", "--p", "10",
                          "--seed", "2", "--n-future", "3",
                          "--holdout-sites", "4", "--out", str(out))
    assert code == 0
    assert [line.rsplit("/", 1)[-1] for line in stdout.splitlines()[1:]] == [
        "locations.csv", "observations.csv", "truth_xi.csv", "future_y.csv",
        "holdout_locations.csv", "holdout_y.csv"]
    draw = simulate(SimConfig(n=30, p=10, seed=2, n_future=3, holdout_sites=4))
    ids = draw.frame.locations.ids
    for name, first, site_ids, values in (
            ("truth_xi", 1, ids, draw.xi), ("future_y", 31, ids, draw.future_y),
            ("holdout_y", 1, draw.holdout_locations.ids, draw.holdout_y)):
        rows = [(first + t, loc, repr(float(values[t, i])))
                for t in range(len(values)) for i, loc in enumerate(site_ids)]
        assert (out / f"{name}.csv").read_bytes() == _csv_writer_bytes(
            ["t", "id", "value"], rows)

    fc = tmp_path / "fc.csv"
    code, _, _ = run(capsys, "forecast", str(out), "--j", "2,1", "--j0", "3",
                     "--tau", "0.5", "--J", "3", "--seed", "5", "--out", str(fc))
    assert code == 0
    frame = load_frame(out / "locations.csv", out / "observations.csv")
    preds = forecast_ensemble(frame, 3, [2, 1], 3, tau=0.5, rng_seed=5)
    rows = [(j, loc, repr(float(preds[r, i])))
            for r, j in enumerate((2, 1)) for i, loc in enumerate(ids)]
    assert fc.read_bytes() == _csv_writer_bytes(["horizon", "id", "value"], rows)

    # ISO dates, an id that needs quoting, and an empty cell, which is omitted
    src, ds = tmp_path / "obs.csv", tmp_path / "ds.csv"
    src.write_text('t,id,value\n2020-01-01,"q,1",1\n2020-01-01,b,5\n'
                   '2020-01-02,"q,1",2\n2020-01-02,b,\n2020-01-03,"q,1",3\n'
                   '2020-01-03,b,7\n2020-01-04,"q,1",4\n2020-01-04,b,10\n')
    code, _, _ = run(capsys, "deseason", str(src), "--period", "2",
                     "--out", str(ds))
    assert code == 0
    assert ds.read_bytes() == (
        b't,id,value\r\n2020-01-01,"q,1",-1.0\r\n2020-01-01,b,-1.0\r\n'
        b'2020-01-02,"q,1",-1.0\r\n2020-01-03,"q,1",1.0\r\n'
        b'2020-01-03,b,1.0\r\n2020-01-04,"q,1",1.0\r\n2020-01-04,b,0.0\r\n')


def test_fit_single_and_krige(data_dir, tmp_path, capsys):
    model = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, "fit", str(data_dir), "--tau", "0.0",
                          "--seed", "3", "--out", str(model))
    assert code == 0
    assert "tau=0.0" in stdout
    assert any(line.startswith("d_hat=") for line in stdout.splitlines())
    fit, locs = load_fit(model)
    assert locs is not None

    # kriging to stdout, negative coordinate after --at
    code, stdout, _ = run(capsys, "krige-space", str(model),
                          "--at", "-0.5,0.25", "--h", "0.4")
    assert code == 0
    rows = stdout.strip().splitlines()
    assert rows[0] == "t,x1,x2,value"
    assert len(rows) == 1 + 60
    assert rows[1].split(",")[1] == "-0.5"

    # file output with bandwidth selection and two sites
    out_csv = tmp_path / "pred.csv"
    code, stdout, _ = run(capsys, "krige-space", str(model),
                          "--at", "0.0,0.0", "--at", "0.3,-0.7",
                          "--out", str(out_csv))
    assert code == 0
    assert "h=" in stdout and f"wrote {out_csv}" in stdout
    with open(out_csv, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * 60


def test_fit_ensemble_and_krige_json(data_dir, tmp_path, capsys):
    model = tmp_path / "ens.json"
    code, stdout, _ = run(capsys, "fit", str(data_dir), "--tau", "0.0",
                          "--ensemble", "4", "--seed", "9",
                          "--out", str(model))
    assert code == 0
    assert "J=4" in stdout
    ens, locs = load_ensemble(model)
    assert ens.J == 4

    code, stdout, _ = run(capsys, "krige-space", str(model),
                          "--at", "0.1,0.1", "--h", "0.5",
                          "--format", "json")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["h"] == 0.5
    assert len(doc["sites"]) == 1
    assert len(doc["sites"][0]["values"]) == 60


def test_fit_tau_grid_cv(data_dir, tmp_path, capsys):
    model = tmp_path / "cvfit.json"
    code, stdout, _ = run(capsys, "fit", str(data_dir),
                          "--tau-grid", "0,0.5", "--seed", "4",
                          "--out", str(model))
    assert code == 0
    tau_line = [l for l in stdout.splitlines() if l.startswith("tau=")][0]
    assert float(tau_line.split("=")[1]) in (0.0, 0.5)


def test_forecast_csv(data_dir, tmp_path, capsys):
    out = tmp_path / "fc.csv"
    code, stdout, _ = run(capsys, "forecast", str(data_dir), "--j", "1,2",
                          "--j0", "3", "--tau", "0.0", "--J", "3",
                          "--seed", "5", "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["horizon", "id", "value"]
    assert len(rows) == 1 + 2 * 16
    assert {r[0] for r in rows[1:]} == {"1", "2"}


def test_forecast_single_fit_csv(data_dir, tmp_path, capsys):
    # without --J the one fit forecasts every horizon
    out = tmp_path / "fc.csv"
    code, stdout, _ = run(capsys, "forecast", str(data_dir), "--j", "3,1",
                          "--j0", "2", "--tau", "0.0", "--seed", "5",
                          "--out", str(out))
    assert code == 0
    assert stdout.splitlines() == ["seed=5", "tau=0.0", f"wrote {out}"]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["3"] * 16 + ["1"] * 16
    assert [r[1] for r in rows[1:17]] == [r[1] for r in rows[17:]]


def _forecast_values(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([float(r[2]) for r in rows]).reshape(-1, 16)


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("k0", [0, 1])
@pytest.mark.parametrize("tau", ["0", "0.7"])
def test_single_fit_is_member_zero_of_its_seed(data_dir, tmp_path, capsys,
                                               seed, k0, tau):
    flags = ["--tau", tau, "--k0", str(k0), "--seed", str(seed)]
    fit_path, ens_path = tmp_path / "fit.json", tmp_path / "ens.json"
    assert run(capsys, "fit", str(data_dir), *flags,
               "--out", str(fit_path))[0] == 0
    assert run(capsys, "fit", str(data_dir), *flags, "--ensemble", "1",
               "--out", str(ens_path))[0] == 0
    assert np.array_equal(load_fit(fit_path)[0].xi_hat,
                          load_ensemble(ens_path)[0].xi_tilde)

    plain, j_one = tmp_path / "plain.csv", tmp_path / "j_one.csv"
    fc = ["forecast", str(data_dir), "--j", "1,2", "--j0", "3", *flags]
    assert run(capsys, *fc, "--out", str(plain))[0] == 0
    assert run(capsys, *fc, "--J", "1", "--out", str(j_one))[0] == 0
    frame = load_frame(data_dir / "locations.csv",
                       data_dir / "observations.csv")
    want = forecast_ensemble(frame, 1, [1, 2], 3, tau=float(tau), k0=k0,
                             rng_seed=seed)
    assert np.array_equal(_forecast_values(plain), want)
    assert np.array_equal(_forecast_values(j_one), want)


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_bad_thread_count_exits_2(data_dir, tmp_path, capsys, monkeypatch,
                                  value):
    monkeypatch.setenv("LATENT_KRIG_THREADS", value)
    code, _, err = run(capsys, "forecast", str(data_dir), "--j", "1",
                       "--j0", "2", "--tau", "0.0", "--J", "2",
                       "--seed", "5", "--out", str(tmp_path / "fc.csv"))
    assert code == 2
    assert err.startswith("error: forecast: LATENT_KRIG_THREADS=")
    assert "Traceback" not in err


FORECAST_J = ["forecast", "--j", "1", "--j0", "2", "--J"]


@pytest.mark.parametrize("command, value", [
    (FORECAST_J, "0"), (FORECAST_J, "-2"),
    (["fit", "--ensemble"], "0"), (["fit", "--ensemble"], "-2"),
], ids=["0", "-2", "fit-ensemble-0", "fit-ensemble--2"])
def test_forecast_rejects_nonpositive_member_count(data_dir, tmp_path, capsys,
                                                   command, value):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command[0], str(data_dir), *command[1:],
                            value, "--tau", "0.0", "--seed", "5",
                            "--out", str(out))
    assert code == 2
    assert err == f"error: {command[0]}: {command[-1]} must be >= 1\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "20", "--p", "8"],
    ["fit", "DATA"],
    ["forecast", "DATA", "--j", "1"],
    ["bench", "--table", "mse_table1", "--replicates", "1"],
], ids=lambda command: command[0])
def test_negative_seed_exits_2_before_any_output(data_dir, tmp_path, capsys,
                                                 command):
    out = tmp_path / "out"
    argv = [str(data_dir) if tok == "DATA" else tok for tok in command]
    code, stdout, err = run(capsys, *argv, "--seed", "-1", "--out", str(out))
    assert code == 2
    assert err == f"error: {command[0]}: --seed must be >= 0, got -1\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", [["fit"], ["fit", "--ensemble", "2"],
                                     ["forecast", "--j", "1"],
                                     ["forecast", "--j", "1", "--J", "2"]],
                         ids=["fit", "fit-ensemble", "forecast", "forecast-J"])
@pytest.mark.parametrize("flag", [["--tau", "nan"], ["--tau", "inf"],
                                  ["--k0", "-1"]],
                         ids=["tau-nan", "tau-inf", "k0-negative"])
def test_bad_tau_or_k0_exits_2(data_dir, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    code, _, err = run(capsys, command[0], str(data_dir), *command[1:], *flag,
                       "--seed", "3", "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: {command[0]}: ") and err.count("\n") == 1
    assert ("tau must be finite and >= 0" if flag[0] == "--tau"
            else "k0 must be an integer >= 0") in err
    assert not out.exists()


def _no_cv(*args, **kwargs):
    raise AssertionError("select_tau ran before a bad flag was rejected")


@pytest.mark.parametrize("argv, named", [
    (["forecast", "--j", "1", "--j0", "-1"], "j0 must be"),
    (["forecast", "--j", "100"], "j + j0 = 106"),
    (["forecast", "--j", "1", "--ridge", "nan"], "ridge must be"),
    (["forecast", "--j", "2,1,2", "--d", "2"], "j repeats a horizon: [2, 1, 2]"),
    # p = 16 under 5-fold --tau-grid: a fold fits 12 sites, so 6 per side
    (["forecast", "--j", "1", "--d", "9"], "--d must be in 1..6"),
    (["forecast", "--j", "1", "--p-star", "1"], "--p-star must be in 2..6"),
    (["fit", "--p-star", "1"], "--p-star must be in 2..6"),
    (["fit", "--d", "0"], "--d must be in 1..6"),
    (["fit", "--ensemble", "2", "--d", "9"], "--d must be in 1..6"),
    (["fit", "--d", "7"], "--d must be in 1..6"),
    (["forecast", "--j", "1", "--p-star", "7"], "--p-star must be in 2..6"),
    (["fit", "--folds", "1"], "--folds must be in 2..8"),
    (["fit", "--folds", "9"], "--folds must be in 2..8"),
], ids=["forecast-j0", "forecast-j", "forecast-ridge", "forecast-repeated-j",
        "forecast-d", "forecast-p-star", "fit-p-star", "fit-d", "fit-ensemble-d",
        "fit-d-over-fold", "forecast-p-star-over-fold", "fit-folds-1",
        "fit-folds-9"])
def test_bad_estimator_flag_exits_2_before_cv(data_dir, tmp_path, capsys,
                                              monkeypatch, argv, named):
    monkeypatch.setattr(cli, "select_tau", _no_cv)
    out = tmp_path / "out"
    code, _, err = run(capsys, argv[0], str(data_dir), *argv[1:],
                       "--tau-grid", "0:5:21", "--seed", "3",
                       "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_forecast_rejects_a_repeated_horizon_before_fitting(data_dir, tmp_path,
                                                             capsys, monkeypatch):
    # one (horizon, id) cell per row: --j 1,1 would write every site twice
    monkeypatch.setattr(cli, "forecast_ensemble", _no_cv)
    out = tmp_path / "f.csv"
    code, _, err = run(capsys, "forecast", str(data_dir), "--j", "1,1", "--d", "2",
                       "--seed", "1", "--out", str(out))
    assert code == 2
    assert err == "error: forecast: j repeats a horizon: [1, 1]\n"
    assert not out.exists()


def test_d_bound_follows_the_folds(data_dir, tmp_path, capsys):
    # p = 16: a single fit takes --d up to 8, a 5-fold CV up to 6
    out = tmp_path / "out"
    code, stdout, _ = run(capsys, "fit", str(data_dir), "--tau-grid", "0,1",
                          "--d", "6", "--seed", "1", "--out", str(out))
    assert code == 0 and "d_hat=6" in stdout.splitlines()
    code, stdout, err = run(capsys, "fit", str(data_dir), "--p-star", "9",
                            "--seed", "1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "--p-star must be in 2..8 for p=16, got 9" in err
    assert run(capsys, "fit", str(data_dir), "--d", "8", "--seed", "1",
               "--out", str(out))[0] == 0


def test_tau_grid_cross_validates_with_the_fits_p_star(tmp_path, capsys):
    # a wide panel on which p_star changes the tau that CV selects
    data = tmp_path / "wide"
    assert run(capsys, "simulate", "--n", "80", "--p", "400", "--seed", "1",
               "--out", str(data))[0] == 0
    frame = load_frame(data / "locations.csv", data / "observations.csv")
    grid = [0, 0.5, 1, 2, 5]
    want = select_tau(frame, grid, rng_seed=1, p_star=10)
    assert want != select_tau(frame, grid, rng_seed=1)
    flags = ["--tau-grid", "0,0.5,1,2,5", "--p-star", "10", "--seed", "1"]
    for command in (["fit"], ["forecast", "--j", "1"]):
        code, stdout, _ = run(capsys, command[0], str(data), *command[1:],
                              *flags, "--out", str(tmp_path / "out"))
        assert code == 0
        assert f"tau={want!r}" in stdout.splitlines()


def test_tau_grid_cross_validates_with_the_fits_d(tmp_path, capsys):
    # every fold holds --d factors, as the fit after it does
    data = tmp_path / "wide"
    assert run(capsys, "simulate", "--n", "80", "--p", "400", "--seed", "1",
               "--out", str(data))[0] == 0
    frame = load_frame(data / "locations.csv", data / "observations.csv")
    grid = [0, 0.5, 1, 2, 5]
    assert select_tau(frame, grid, rng_seed=1, d_override=3) == 0.0
    assert select_tau(frame, grid, rng_seed=1) == 0.5
    code, stdout, _ = run(capsys, "fit", str(data), "--tau-grid", "0,0.5,1,2,5",
                          "--d", "3", "--seed", "1", "--out", str(tmp_path / "out"))
    assert code == 0
    assert "tau=0.0" in stdout.splitlines()


@pytest.mark.parametrize("pinned", [True, False])
def test_worker_count_reads_environment(monkeypatch, pinned):
    # unset or empty: the usable CPUs when OpenBLAS can be pinned to one
    # thread per task, else 1
    monkeypatch.setattr(_util, "_openblas", lambda: [None] if pinned else [])
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 6)
    default = 6 if pinned else 1
    for raw, expect in (("", default), ("  ", default), ("1", 1), ("3", 3),
                        (" 2 ", 2)):
        monkeypatch.setenv("LATENT_KRIG_THREADS", raw)
        assert worker_count() == expect
    monkeypatch.delenv("LATENT_KRIG_THREADS")
    assert worker_count() == default
    for raw in ("abc", "1.5", "0", "-4"):
        monkeypatch.setenv("LATENT_KRIG_THREADS", raw)
        with pytest.raises(ConfigError, match="LATENT_KRIG_THREADS"):
            worker_count()


def test_impute_fills_and_reports(tmp_path, capsys):
    # panel with holes, written by hand through simulate + masking
    src = tmp_path / "panel"
    run(capsys, "simulate", "--n", "40", "--p", "12", "--seed", "7",
        "--out", str(src))
    frame = load_frame(src / "locations.csv", src / "observations.csv")
    obs = np.array(frame.obs)
    rng = np.random.default_rng(1)
    mask = rng.random(obs.shape) < 0.04
    obs[mask] = np.nan
    from latentkrig import SpatioTemporalFrame, save_frame
    holed_dir = tmp_path / "holed"
    save_frame(SpatioTemporalFrame(locations=frame.locations, obs=obs),
               holed_dir)
    out = tmp_path / "filled"
    code, stdout, _ = run(capsys, "impute", str(holed_dir),
                          "--out", str(out))
    assert code == 0
    assert f"filled={int(mask.sum())}" in stdout
    back = load_frame(out / "locations.csv", out / "observations.csv")
    assert back.is_complete
    np.testing.assert_array_equal(back.obs[~mask], frame.obs[~mask])


def test_impute_carries_covariates_through(tmp_path, capsys):
    from latentkrig import SpatioTemporalFrame, save_frame
    frame = simulate(SimConfig(n=40, p=12, seed=7)).frame
    obs = np.array(frame.obs)
    obs[np.random.default_rng(2).random(obs.shape) < 0.04] = np.nan
    z = np.random.default_rng(3).normal(size=(40, 12, 1))
    with_z, without_z = tmp_path / "with", tmp_path / "without"
    save_frame(SpatioTemporalFrame(locations=frame.locations, obs=obs,
                                   covariates=z), with_z)
    save_frame(SpatioTemporalFrame(locations=frame.locations, obs=obs),
               without_z)
    for data, wrote in ((with_z, 3), (without_z, 2)):
        out = tmp_path / f"{data.name}-filled"
        code, stdout, _ = run(capsys, "impute", str(data), "--out", str(out))
        assert code == 0
        assert stdout.count("wrote ") == wrote
        assert sorted(f.name for f in out.iterdir()) == sorted(
            f.name for f in data.iterdir())
    assert ((tmp_path / "with-filled" / "covariates.csv").read_bytes()
            == (with_z / "covariates.csv").read_bytes())
    back = load_frame(tmp_path / "with-filled" / "locations.csv",
                      tmp_path / "with-filled" / "observations.csv",
                      tmp_path / "with-filled" / "covariates.csv")
    assert back.is_complete and back.covariates.tobytes() == z.tobytes()


def test_fit_tau_grid_prints_and_stores_the_cv_tau(data_dir, tmp_path, capsys):
    model = tmp_path / "fit.json"
    code, stdout, _ = run(capsys, "fit", str(data_dir), "--tau-grid", "0,1",
                          "--seed", "6", "--out", str(model))
    assert code == 0
    tau = float(stdout.splitlines()[1].removeprefix("tau="))
    frame = load_frame(data_dir / "locations.csv", data_dir / "observations.csv")
    assert tau == json.loads(model.read_text())["tau"] \
        == select_tau(frame, [0.0, 1.0], rng_seed=6)


def test_cv_subcommand_exits_2(data_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cv", str(data_dir), "--seed", "6"])
    assert exc.value.code == 2
    assert "invalid choice: 'cv'" in capsys.readouterr().err


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "bench"
    code, stdout, _ = run(capsys, "bench", "--table", "fig1_distance",
                          "--replicates", "3", "--seed", "8",
                          "--n", "40", "--p", "16",
                          "--tau-grid", "0,0.5", "--scale-factor", "0.02",
                          "--out", str(out))
    assert code == 0
    assert (out / "fig1_distance.csv").exists()
    assert (out / "fig1_distance_summary.json").exists()
    assert "n=40 p=16" in stdout
    # --n without --p is refused
    code, _, err = run(capsys, "bench", "--table", "fig1_distance",
                       "--replicates", "3", "--seed", "8", "--n", "40",
                       "--out", str(out))
    assert code == 2
    assert "error: bench" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bench_rejects_nonfinite_scale_factor(tmp_path, capsys, value):
    out = tmp_path / "bench"
    code, _, err = run(capsys, "bench", "--table", "fig1_distance",
                       "--replicates", "3", "--seed", "8",
                       "--n", "40", "--p", "16", "--scale-factor", value,
                       "--out", str(out))
    assert code == 2
    assert err == "error: bench: scale_factor must be finite and > 0\n"
    assert not out.exists()


def test_deseason_removes_periodic_means(tmp_path, capsys):
    src = tmp_path / "obs.csv"
    n, period = 8, 2
    values = {("a", t): 10.0 + (t % period) + 0.1 * t for t in range(n)}
    values.update({("b", t): 5.0 - (t % period) for t in range(n)})
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "id", "value"])
        for (loc, t), v in sorted(values.items()):
            w.writerow([t + 1, loc, repr(v)])
    out = tmp_path / "deseason.csv"
    code, stdout, _ = run(capsys, "deseason", str(src), "--period", "2",
                          "--out", str(out))
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "id", "value"]
    got = {(r[1], int(r[0])): float(r[2]) for r in rows[1:]}
    # per (id, phase) means are zero after the pass
    for loc in ("a", "b"):
        for phase in range(period):
            vals = [got[(loc, t + 1)] for t in range(n) if t % period == phase]
            assert abs(np.mean(vals)) < 1e-12
    # original timestamps preserved
    assert {int(r[0]) for r in rows[1:]} == set(range(1, n + 1))


def test_deseason_period_guard(tmp_path, capsys):
    src = tmp_path / "obs.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "id", "value"])
        for t in range(4):
            w.writerow([t, "a", "1.0"])
    code, _, err = run(capsys, "deseason", str(src), "--period", "3",
                       "--out", str(src.with_suffix(".out")))
    assert code == 2
    assert "period" in err


def test_error_exit_codes(tmp_path, capsys):
    # validation problem: directory does not exist
    code, _, err = run(capsys, "fit", str(tmp_path / "nope"), "--tau", "0",
                       "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert err.startswith("error: fit:")


def _oversized(path):
    with open(path, "a", newline="") as fh:
        fh.write("1,g," + "x" * (csv.field_size_limit() + 1) + "\n")


def _not_utf8(path):
    with open(path, "ab") as fh:
        fh.write(b"1,s\xff,1\n")


def _unterminated_quote(path):
    with open(path, "a", newline="") as fh:
        fh.write('1,"g,1\n')


def _header_only(path):
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _directory(path):
    path.unlink()
    path.mkdir()


def _one_location(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))


def _latitude_95(path):
    lines = path.read_text().splitlines(keepends=True)
    loc, x1, _ = lines[1].split(",")
    path.write_text("".join([lines[0], f"{loc},{x1},95\n", *lines[2:]]))
    return ["--metric", "great_circle"]  # latitude is checked on the sphere


# a spoil returns the flags the commands need to meet it, if any
_MALFORMED = [("locations.csv", _oversized), ("observations.csv", _oversized),
              ("locations.csv", _not_utf8), ("observations.csv", _not_utf8),
              ("locations.csv", _header_only), ("observations.csv", _unterminated_quote),
              ("locations.csv", _unterminated_quote), ("locations.csv", _directory),
              ("locations.csv", _one_location), ("locations.csv", _latitude_95)]


@pytest.mark.parametrize("name, spoil", _MALFORMED)
def test_malformed_panel_files_exit_2_naming_the_file(data_dir, tmp_path, capsys, name, spoil):
    bad = data_dir / name
    flags = spoil(bad) or []
    commands = [("impute", str(data_dir), *flags, "--out", str(tmp_path / "filled")),
                ("fit", str(data_dir), *flags, "--tau", "0", "--seed", "1",
                 "--out", str(tmp_path / "fit.json"))]
    if name == "observations.csv":
        commands.append(("deseason", str(bad), "--period", "2",
                         "--out", str(tmp_path / "d.csv")))
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1, err
        assert str(bad) in err and "Traceback" not in err, err
        assert out == ""


def test_numerical_exit_code(data_dir, tmp_path, capsys):
    model = tmp_path / "fit.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        "--out", str(model))
    # compactly supported kernel far from every site: empty window
    code, _, err = run(capsys, "krige-space", str(model),
                       "--at", "99.0,99.0", "--h", "0.5",
                       "--kernel", "epanechnikov_2d")
    assert code == 3
    assert "no kernel mass" in err


@pytest.mark.parametrize("far, argv, want", [
    (False, ("krige-space", "{model}", "--at", "0,0", "--h", "1e-160"), 3),
    (False, ("krige-space", "{model}", "--at", "0,0", "--h", "1e-310"), 3),
    (False, ("krige-space", "{model}", "--at", "0,0", "--h", "1e-160",
             "--kernel", "epanechnikov_2d"), 3),
    (False, ("krige-space", "{model}", "--at", "1e200,0", "--h", "0.5"), 3),
    (True, ("fit", "{data}", "--tau", "1", "--seed", "1", "--out", "{out}"), 0),
    (True, ("fit", "{data}", "--tau-grid", "0:1:3", "--seed", "1",
            "--out", "{out}"), 2),
    (True, ("krige-space", "{model}", "--at", "0,0", "--h", "auto"), 2),
], ids=["gaussian-square", "gaussian-divide", "epanechnikov", "far-site",
        "far-location-fit", "far-location-tau-grid", "far-location-auto-h"])
def test_overflowing_distances_write_at_most_one_stderr_line(
        tmp_path, capsys, far, argv, want):
    """An overflowing distance or kernel argument weighs 0 without a numpy
    warning; a domain whose diameter overflows is degenerate geometry."""
    data, model = tmp_path / "panel", tmp_path / "fit.json"
    assert run(capsys, "simulate", "--n", "40", "--p", "12", "--seed", "1",
               "--out", str(data))[0] == 0
    if far:  # site 1 at x1 = 1e300
        rows = (data / "locations.csv").read_text().splitlines()
        loc, _, x2 = rows[2].split(",")
        rows[2] = f"{loc},1e300,{x2}"
        (data / "locations.csv").write_text("\n".join(rows) + "\n")
    assert run(capsys, "fit", str(data), "--tau", "0", "--seed", "1",
               "--out", str(model))[0] == 0
    argv = [a.format(data=data, model=model, out=tmp_path / "out.json")
            for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code == want
    assert err.count("\n") == (0 if want == 0 else 1), err
    if want == 2:
        assert err.endswith("degenerate geometry: the domain diameter "
                            "overflows a float\n")


def test_bad_point_spec(data_dir, tmp_path, capsys):
    model = tmp_path / "fit.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        "--out", str(model))
    code, _, err = run(capsys, "krige-space", str(model),
                       "--at", "1.0", "--h", "0.5")
    assert code == 2
    for h in ("-2", "inf"):
        code, stdout, err = run(capsys, "krige-space", str(model),
                                "--at", "0,0", "--h", h)
        assert code == 2 and stdout == ""
        assert err.startswith("error: krige-space: ") and err.count("\n") == 1
    for point in ("nan,0", "0,inf", "1e400,0"):
        code, stdout, err = run(capsys, "krige-space", str(model),
                                "--at", point, "--h", "0.5")
        assert code == 2 and stdout == ""
        assert err == (f"error: krige-space: non-finite coordinate in "
                       f"{point!r}\n")


def _small_partition(doc):
    doc["partition"] = {"set1": [0, 1], "set2": [2, 3]}
    return f"A1_hat is 8 x {doc['d_hat']}, expected 2 x {doc['d_hat']}"


def _short_spectrum(doc):
    doc["eigenvalues"] = doc["eigenvalues"][:-1]
    return "eigenvalues must hold 8 numbers"


def _short_readout(doc):
    block = doc["x_star_hat"]
    block["rows"] -= 1
    del block["data"][-block["cols"]:]
    return f"x_star_hat is 59 x {doc['d_hat']}, expected 60 x {doc['d_hat']}"


def _lose_a_site(doc):
    locs = doc["locations"]
    locs["ids"], locs["coords"] = locs["ids"][1:], locs["coords"][1:]
    return "the latent field has 16 columns for 15 locations"


def _null_field(doc):
    doc["xi_hat"] = None
    return "xi_hat is not a matrix block"


def _no_field(doc):
    del doc["xi_hat"]
    return "model document lacks key 'xi_hat'"


@pytest.mark.parametrize("ensemble, edit", [
    # the first two loaded, and krige-space exited 0; the ensemble's lost
    # site exited 2 without naming the file, and a missing xi_hat read as
    # a field with no rows
    (False, _small_partition), (False, _short_spectrum),
    (False, _short_readout), (False, _lose_a_site), (True, _lose_a_site),
    (False, _null_field), (False, _no_field),
], ids=["fit-partition", "fit-eigenvalues", "fit-readout", "fit-lost-site",
        "ensemble-lost-site", "fit-null-field", "fit-no-field"])
def test_krige_space_rejects_a_document_at_odds_with_itself(
        data_dir, tmp_path, capsys, ensemble, edit):
    model = tmp_path / "model.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        *(["--ensemble", "2"] if ensemble else []), "--out", str(model))
    doc = json.loads(model.read_text())
    message = edit(doc)
    model.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "krige-space", str(model),
                            "--at", "0,0", "--h", "0.5")
    assert (code, stdout) == (2, "")
    assert err == f"error: krige-space: {model}: {message}\n"


@pytest.mark.parametrize("kind", ["latentkrig-frame", None, 1])
def test_krige_space_rejects_another_kind_of_document(data_dir, tmp_path,
                                                      capsys, kind):
    model = tmp_path / "fit.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        "--out", str(model))
    doc = json.loads(model.read_text())
    doc["format"] = kind
    model.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "krige-space", str(model),
                            "--at", "0,0", "--h", "0.5")
    assert (code, stdout) == (2, "")
    assert err == (f"error: krige-space: {model}: expected a latentkrig-fit "
                   f"or latentkrig-ensemble document\n")


def _repeat_an_id(locs):
    locs["ids"][1] = locs["ids"][0]


def _negative_radius(locs):
    locs["distance_metric"], locs["radius"] = "great_circle", -1.0


def _keep_one_site(locs):
    locs["ids"], locs["coords"] = locs["ids"][:1], locs["coords"][:1]


@pytest.mark.parametrize("ensemble, edit, message", [
    (False, _repeat_an_id, "location ids must be unique"),
    (True, _negative_radius, "radius must be positive"),
    (False, _keep_one_site, "need at least 2 locations"),
], ids=["fit-repeated-id", "ensemble-radius", "fit-one-site"])
def test_krige_space_names_the_model_in_location_errors(data_dir, tmp_path,
                                                        capsys, ensemble,
                                                        edit, message):
    model = tmp_path / "model.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        *(["--ensemble", "2"] if ensemble else []), "--out", str(model))
    doc = json.loads(model.read_text())
    edit(doc["locations"])
    model.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "krige-space", str(model),
                            "--at", "0,0", "--h", "0.5")
    assert (code, stdout) == (2, "")
    assert err == f"error: krige-space: {model}: {message}\n"


@pytest.mark.parametrize("ensemble, key, value, h", [
    # each was read as a number: the first exited 3 ("zero kernel mass"),
    # the others 0, with the loadings of the last never read
    (True, "xi_tilde", "NaN", "auto"),
    (False, "xi_hat", "Infinity", "0.5"),
    (False, "A1_hat", "NaN", "0.5"),
], ids=["ensemble-xi_tilde-nan", "fit-xi_hat-infinity", "fit-A1_hat-nan"])
def test_krige_space_rejects_a_non_finite_model_entry(data_dir, tmp_path,
                                                      capsys, ensemble, key,
                                                      value, h):
    model = tmp_path / "model.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        *(["--ensemble", "2"] if ensemble else []), "--out", str(model))
    doc = json.loads(model.read_text())
    doc[key]["data"][1] = float(value)
    model.write_text(json.dumps(doc))
    assert f", {value}, " in model.read_text()
    code, stdout, err = run(capsys, "krige-space", str(model),
                            "--at", "0,0", "--h", h)
    assert (code, stdout) == (2, "")
    assert err == f"error: krige-space: {model}: {key} holds a non-finite number\n"


@pytest.mark.parametrize("case", ["array", "string", "number",
                                  "fit without d_hat",
                                  "ensemble without xi_tilde"])
def test_krige_space_rejects_malformed_model(data_dir, tmp_path, capsys, case):
    fit_path, ens_path = tmp_path / "fit.json", tmp_path / "ens.json"
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--seed", "3",
        "--out", str(fit_path))
    run(capsys, "fit", str(data_dir), "--tau", "0.0", "--ensemble", "2",
        "--seed", "3", "--out", str(ens_path))
    fit_doc = json.loads(fit_path.read_text())
    ens_doc = json.loads(ens_path.read_text())
    del fit_doc["d_hat"], ens_doc["xi_tilde"]
    docs = {"array": [1, 2], "string": "latentkrig-fit", "number": 3.5,
            "fit without d_hat": fit_doc, "ensemble without xi_tilde": ens_doc}
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(docs[case]))
    code, stdout, err = run(capsys, "krige-space", str(model),
                            "--at", "0,0", "--h", "0.5")
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: krige-space: {model}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    if case.startswith("fit") or case.startswith("ensemble"):
        assert "lacks key" in err and repr(case.split()[-1]) in err
