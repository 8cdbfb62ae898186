"""Outputs pinned against the committed reference set in tests/reference/.

The pipeline in tests/reference/regenerate.py runs afresh here; every
float array it collects must match the committed one within 1e-12
relative, entry by entry, every integer and text array exactly, and
what the commands print must match stdout.txt exactly. An intended
output change regenerates the set with that script.
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


def test_arrays_match_the_reference(fresh):
    arrays, _ = fresh
    with np.load(regenerate.ARRAYS) as stored:
        want = {name: stored[name] for name in stored.files}
    assert sorted(arrays) == sorted(want)
    for name, expected in want.items():
        got = arrays[name]
        assert got.shape == expected.shape, name
        if expected.dtype.kind == "f":
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0,
                                       err_msg=name)
        else:
            assert got.dtype.kind == expected.dtype.kind, name
            assert np.array_equal(got, expected), name
