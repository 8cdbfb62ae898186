"""Outputs pinned against the committed reference set in tests/reference/.

The pipeline in tests/reference/regenerate.py runs afresh here; every
float array it collects must match the committed one within 1e-12
relative, entry by entry, every integer and text array exactly, and
what the commands print must match stdout.txt exactly. A failure names
every array outside tolerance, with its largest relative deviation. An
intended output change regenerates the set with that script.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "reference_regenerate", Path(__file__).parent / "reference" / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return regenerate.run_pipeline(tmp_path_factory.mktemp("reference"))


def test_stdout_matches_the_reference(fresh):
    _, stdout = fresh
    assert stdout == regenerate.STDOUT.read_text(encoding="utf-8")


def _mismatches(arrays: dict, want: dict) -> list[str]:
    """One line per array of ``want`` that ``arrays`` fails to match: a
    float array beyond 1e-12 relative (atol 0) with its largest relative
    deviation, any other array not exactly equal."""
    out = []
    for name, expected in want.items():
        got = arrays[name]
        if got.shape != expected.shape:
            out.append(f"{name}: shape {got.shape}, expected {expected.shape}")
        elif expected.dtype.kind == "f":
            off = ~np.isclose(got, expected, rtol=1e-12, atol=0, equal_nan=True)
            if off.any():
                with np.errstate(divide="ignore", invalid="ignore"):
                    rel = np.abs(got - expected) / np.abs(expected)
                worst = np.max(np.nan_to_num(rel[off], nan=np.inf, posinf=np.inf))
                out.append(f"{name}: {off.sum()} of {off.size} entries off, "
                           f"largest relative deviation {worst:.3g}")
        elif got.dtype.kind != expected.dtype.kind:
            out.append(f"{name}: dtype kind {got.dtype.kind!r}, "
                       f"expected {expected.dtype.kind!r}")
        elif not np.array_equal(got, expected):
            out.append(f"{name}: {np.sum(got != expected)} of {got.size} "
                       f"entries differ")
    return out


def test_arrays_match_the_reference(fresh):
    arrays, _ = fresh
    with np.load(regenerate.ARRAYS) as stored:
        want = {name: stored[name] for name in stored.files}
    assert sorted(arrays) == sorted(want)
    failing = _mismatches(arrays, want)
    assert not failing, "arrays outside tolerance:\n" + "\n".join(failing)


def test_every_failing_array_is_named():
    want = {"a": np.array([1.0, 2.0, 4.0]), "b": np.array([1.0, np.nan]),
            "c": np.array([1, 2]), "d": np.array(["x", "y"]),
            "e": np.array([1.0, 0.0])}
    got = {"a": np.array([1.0, 2.0 * (1 + 1e-13), 4.0 * (1 + 3e-9)]),
           "b": np.array([1.0, 1.0]), "c": np.array([1, 3]),
           "d": np.array(["x", "y"]), "e": np.array([1.0, 1e-300])}
    assert _mismatches(got, want) == [
        "a: 1 of 3 entries off, largest relative deviation 3e-09",
        "b: 1 of 2 entries off, largest relative deviation inf",
        "c: 1 of 2 entries differ",
        "e: 1 of 2 entries off, largest relative deviation inf",
    ]
