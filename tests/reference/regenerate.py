"""Regenerate the reference outputs that tests/test_reference.py pins.

A seeded (60, 20) panel runs through the command line: simulate, fit,
fit --ensemble 3 under --tau-grid, krige-space on both model documents,
forecast --J 1 and --J 3, and impute on a copy with 4% of its cells
masked. A seeded wide (30, 120) panel, p = 4n, runs through
fit --ensemble 2, krige-space on that document, forecast --d 3 --J 2
and forecast --J 2; the last fails, and is pinned failing. Every value
the commands write goes into outputs.npz, one array per (file, field) or
(file, CSV column); what each command prints goes into stdout.txt after
a "$ latentkrig <args>" line, followed for a command in EXPECTED_EXIT by
an "exit=<code>" line and what it wrote to stderr. Commands run in a
scratch directory with relative paths, so nothing machine-specific is
printed.

After an intended output change, regenerate the set from the repository
root and name every array that changed, and why, in CHANGES.md:

    PYTHONPATH=src python tests/reference/regenerate.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ARRAYS = HERE / "outputs.npz"
STDOUT = HERE / "stdout.txt"

WIDE_FORECAST = ["forecast", "wide", "--j", "1,2", "--j0", "3", "--J", "2",
                 "--seed", "6", "--out", "wide_forecast.csv"]

COMMANDS = (
    ["simulate", "--n", "60", "--p", "20", "--seed", "7", "--out", "panel"],
    ["fit", "panel", "--tau", "0.5", "--k0", "1", "--seed", "3",
     "--out", "fit.json"],
    ["fit", "panel", "--tau-grid", "0:2:5", "--ensemble", "3", "--seed", "4",
     "--out", "ensemble.json"],
    ["krige-space", "fit.json", "--at", "0.1,0.2", "--at", "-0.5,0.3",
     "--out", "krige_fit.csv"],
    ["krige-space", "ensemble.json", "--at", "0.1,0.2", "--at", "-0.5,0.3",
     "--kernel", "epanechnikov_2d", "--format", "json",
     "--out", "krige_ensemble.json"],
    ["forecast", "panel", "--j", "1,2", "--j0", "3", "--tau", "0.5",
     "--k0", "1", "--J", "1", "--seed", "3", "--out", "forecast_J1.csv"],
    ["forecast", "panel", "--j", "1,2", "--j0", "3", "--tau", "0.5",
     "--J", "3", "--seed", "5", "--out", "forecast_J3.csv"],
    ["impute", "masked", "--out", "filled"],
    ["simulate", "--n", "30", "--p", "120", "--seed", "8", "--out", "wide"],
    ["fit", "wide", "--ensemble", "2", "--seed", "6",
     "--out", "wide_ensemble.json"],
    ["krige-space", "wide_ensemble.json", "--at", "0.1,0.2",
     "--at", "-0.5,0.3", "--out", "wide_krige.csv"],
    ["forecast", "wide", "--j", "1,2", "--j0", "3", "--d", "3", "--J", "2",
     "--seed", "6", "--out", "wide_forecast_d3.csv"],
    WIDE_FORECAST,
)

# Commands pinned with a non-zero exit: their exit code and stderr line
# are part of the reference, so a change that mends one shows in both
# stdout.txt and outputs.npz. WIDE_FORECAST's members have d_hat = 29
# = n - 1, the rank edge of a centered panel of 30 readouts, and their
# innovation block is singular.
EXPECTED_EXIT = {tuple(WIDE_FORECAST): 3}


def _mask_copy(src: Path, out: Path) -> None:
    """The panel in ``src`` with a seeded 4% of its cells missing."""
    from latentkrig import SpatioTemporalFrame, load_frame, save_frame
    frame = load_frame(src / "locations.csv", src / "observations.csv")
    obs = frame.obs.copy()
    obs[np.random.default_rng(11).random(obs.shape) < 0.04] = np.nan
    save_frame(SpatioTemporalFrame(locations=frame.locations, obs=obs), out)


def _json_arrays(prefix: str, value, out: dict) -> None:
    """Every number, list of numbers and matrix block of a JSON value."""
    if isinstance(value, dict) and set(value) == {"rows", "cols", "data"}:
        out[prefix] = np.array(value["data"], dtype=np.float64).reshape(
            value["rows"], value["cols"])
    elif isinstance(value, dict):
        for key, item in value.items():
            _json_arrays(f"{prefix}.{key}", item, out)
    elif isinstance(value, list) and value and all(
            isinstance(v, dict) for v in value):
        for k, item in enumerate(value):
            _json_arrays(f"{prefix}.{k}", item, out)
    elif isinstance(value, (list, int, float, str)):
        out[prefix] = np.array(value)


def _csv_arrays(prefix: str, path: Path, out: dict) -> None:
    """One array per CSV column: floats where every cell parses, else text."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for k, name in enumerate(header):
        column = [row[k] for row in rows]
        try:
            out[f"{prefix}:{name}"] = np.array([float(v) for v in column])
        except ValueError:
            out[f"{prefix}:{name}"] = np.array(column)


def run_pipeline(workdir: Path) -> tuple[dict[str, np.ndarray], str]:
    """Run COMMANDS in ``workdir``; return the arrays and the stdout log."""
    from latentkrig.cli import main
    log = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in COMMANDS:
            if argv[0] == "impute":
                _mask_copy(Path("panel"), Path("masked"))
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = main(list(argv))
            want = EXPECTED_EXIT.get(tuple(argv), 0)
            if code != want:
                raise RuntimeError(f"latentkrig {' '.join(argv)} exited {code}, "
                                   f"expected {want}: {err.getvalue()}")
            log.write(f"$ latentkrig {' '.join(argv)}\n{buf.getvalue()}")
            if want:
                log.write(f"exit={code}\n{err.getvalue()}")
        arrays: dict[str, np.ndarray] = {}
        for path in sorted(Path(".").rglob("*")):
            if path.suffix == ".json":
                _json_arrays(path.as_posix(),
                             json.loads(path.read_text(encoding="utf-8")), arrays)
            elif path.suffix == ".csv":
                _csv_arrays(path.as_posix(), path, arrays)
    finally:
        os.chdir(cwd)
    return arrays, log.getvalue()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        arrays, stdout = run_pipeline(Path(tmp))
    np.savez_compressed(ARRAYS, **arrays)
    STDOUT.write_text(stdout, encoding="utf-8")
    print(f"wrote {len(arrays)} arrays to {ARRAYS} "
          f"({ARRAYS.stat().st_size} bytes) and {STDOUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
