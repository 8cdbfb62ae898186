import datetime
import math

import numpy as np
import pytest

from latentkrig import (
    LocationSet,
    Partition,
    SpatioTemporalFrame,
    distance_matrix,
    load_frame,
    load_locations,
    random_partition,
    save_frame,
)
from latentkrig.errors import (
    DuplicateCell,
    InsufficientOverlap,
    InvalidCoordinate,
    ParseError,
    TooFewLocations,
    UnknownLocation,
)
from latentkrig.stdata import (
    load_observation_table,
    locations_from_doc,
    locations_to_doc,
    pairwise_distances,
)

from conftest import grid_locations


# ---- LocationSet ----

def test_location_set_basic():
    locs = LocationSet(ids=("a", "b"), coords=[[0.0, 0.0], [3.0, 4.0]])
    assert locs.p == 2
    assert locs.index_of("b") == 1
    with pytest.raises(UnknownLocation):
        locs.index_of("zzz")


def test_location_set_coords_read_only():
    locs = LocationSet(ids=("a", "b"), coords=[[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        locs.coords[0, 0] = 9.0


def test_location_set_validation():
    with pytest.raises(DuplicateCell):
        LocationSet(ids=("a", "a"), coords=[[0, 0], [1, 1]])
    with pytest.raises(TooFewLocations):
        LocationSet(ids=("a",), coords=[[0, 0]])
    with pytest.raises(InvalidCoordinate):
        LocationSet(ids=("a", "b"), coords=[[0, 0, 0], [1, 1, 1]])
    with pytest.raises(InvalidCoordinate):
        LocationSet(ids=("a", "b"), coords=[[0, np.nan], [1, 1]])
    with pytest.raises(ValueError):
        LocationSet(ids=("a", "b"), coords=[[0, 0], [1, 1]],
                    distance_metric="manhattan")
    # sphere: latitude bounds checked, planar: not
    with pytest.raises(InvalidCoordinate):
        LocationSet(ids=("a", "b"), coords=[[0, 91.0], [1, 1]],
                    distance_metric="great_circle")
    LocationSet(ids=("a", "b"), coords=[[0, 91.0], [1, 1]])


def test_location_subset_keeps_metric():
    locs = LocationSet(ids=("a", "b", "c"),
                       coords=[[0, 0], [10, 20], [30, 40]],
                       distance_metric="great_circle", radius=2.0)
    sub = locs.subset([2, 0])
    assert sub.ids == ("c", "a")
    assert sub.distance_metric == "great_circle"
    assert sub.radius == 2.0
    np.testing.assert_array_equal(sub.coords, locs.coords[[2, 0]])


# ---- distances ----

def test_euclidean_distance_345():
    d = distance_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(5.0, abs=1e-15)


def test_great_circle_known_arcs():
    # unit sphere: quarter arc along the equator, and antipodal points
    a = np.array([[0.0, 0.0]])
    quarter = distance_matrix(a, np.array([[90.0, 0.0]]),
                              metric="great_circle", radius=1.0)
    anti = distance_matrix(a, np.array([[180.0, 0.0]]),
                           metric="great_circle", radius=1.0)
    pole = distance_matrix(a, np.array([[0.0, 90.0]]),
                           metric="great_circle", radius=1.0)
    assert quarter[0, 0] == pytest.approx(math.pi / 2, abs=1e-12)
    assert anti[0, 0] == pytest.approx(math.pi, abs=1e-12)
    assert pole[0, 0] == pytest.approx(math.pi / 2, abs=1e-12)


def test_pairwise_distances_symmetric_zero_diag():
    locs = grid_locations(7)
    d = pairwise_distances(locs)
    np.testing.assert_allclose(d, d.T, atol=0)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)


# ---- Partition ----

def test_partition_validation():
    part = Partition(set1=(0, 2), set2=(1, 3))
    assert part.p == 4
    with pytest.raises(ValueError):
        Partition(set1=(0, 1), set2=(1, 2))  # overlap
    with pytest.raises(ValueError):
        Partition(set1=(0, 1), set2=(3,))  # hole at 2
    with pytest.raises(TooFewLocations):
        Partition(set1=(), set2=(0, 1))


def test_random_partition():
    part = random_partition(9, rng_seed=3)
    assert len(part.set1) == 4
    assert len(part.set2) == 5
    assert sorted(part.set1 + part.set2) == list(range(9))
    assert list(part.set1) == sorted(part.set1)
    again = random_partition(9, rng_seed=3)
    assert again.set1 == part.set1 and again.set2 == part.set2
    assert random_partition(9, rng_seed=4).set1 != part.set1
    with pytest.raises(TooFewLocations):
        random_partition(3, rng_seed=0)


# ---- SpatioTemporalFrame ----

def test_frame_mask_from_nan():
    locs = grid_locations(4)
    obs = np.ones((5, 4))
    obs[2, 1] = np.nan
    frame = SpatioTemporalFrame(locations=locs, obs=obs)
    assert frame.missing[2, 1]
    assert frame.missing.sum() == 1
    assert not frame.is_complete
    assert frame.n == 5 and frame.p == 4 and frame.m == 0


def test_frame_mask_must_match_nan_pattern():
    locs = grid_locations(3)
    obs = np.ones((4, 3))
    bad = np.zeros((4, 3), dtype=bool)
    bad[0, 0] = True  # mask says missing, value says observed
    with pytest.raises(ParseError):
        SpatioTemporalFrame(locations=locs, obs=obs, missing=bad)


def test_frame_rejects_inf():
    locs = grid_locations(3)
    obs = np.ones((4, 3))
    obs[1, 1] = np.inf
    with pytest.raises(ParseError):
        SpatioTemporalFrame(locations=locs, obs=obs)


def test_frame_coverage_floors():
    locs = grid_locations(4)
    obs = np.ones((4, 4))
    obs[0, :3] = np.nan  # one observed location at t=0, floor is 2
    with pytest.raises(InsufficientOverlap):
        SpatioTemporalFrame(locations=locs, obs=obs)
    obs = np.ones((4, 4))
    obs[:3, 0] = np.nan  # one observed time at location 0, floor is 2
    with pytest.raises(InsufficientOverlap):
        SpatioTemporalFrame(locations=locs, obs=obs)


def test_subframe_keeps_order_and_values():
    locs = grid_locations(5)
    obs = np.arange(20, dtype=float).reshape(4, 5)
    frame = SpatioTemporalFrame(locations=locs, obs=obs)
    sub = frame.subframe([3, 1])
    assert sub.locations.ids == (locs.ids[3], locs.ids[1])
    np.testing.assert_array_equal(sub.obs, obs[:, [3, 1]])


# ---- CSV round trip ----

def test_save_load_round_trip_bit_exact(tmp_path):
    locs = grid_locations(4)
    # awkward values: non-representable decimals, tiny, large
    obs = np.array([
        [0.1 + 0.2, -1234567.25, 1e-17, 3.0],
        [np.nan, 2.0, -0.0, 4.5],
        [1.0, np.nan, 7.25, -2.0],
        [0.5, 1.5, 2.5, np.nan],
    ])
    frame = SpatioTemporalFrame(locations=locs, obs=obs)
    paths = save_frame(frame, tmp_path)
    back = load_frame(paths["locations"], paths["observations"])
    assert back.locations.ids == frame.locations.ids
    np.testing.assert_array_equal(back.locations.coords, frame.locations.coords)
    np.testing.assert_array_equal(back.missing, frame.missing)
    np.testing.assert_array_equal(back.obs[~back.missing], frame.obs[~frame.missing])


def test_save_load_covariates_round_trip(tmp_path):
    locs = grid_locations(3)
    rng = np.random.default_rng(8)
    obs = rng.standard_normal((4, 3))
    z = rng.standard_normal((4, 3, 2))
    frame = SpatioTemporalFrame(locations=locs, obs=obs, covariates=z)
    paths = save_frame(frame, tmp_path)
    back = load_frame(paths["locations"], paths["observations"],
                      paths["covariates"])
    np.testing.assert_array_equal(back.covariates, z)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_locations_errors(tmp_path):
    bad_header = _write(tmp_path / "a.csv", "id,lon,lat\ns1,0,0\n")
    with pytest.raises(ParseError):
        load_locations(bad_header)
    dup = _write(tmp_path / "b.csv", "id,x1,x2\ns1,0,0\ns1,1,1\n")
    with pytest.raises(DuplicateCell):
        load_locations(dup)
    non_numeric = _write(tmp_path / "c.csv", "id,x1,x2\ns1,zero,0\ns2,1,1\n")
    with pytest.raises(ParseError):
        load_locations(non_numeric)
    with pytest.raises(ParseError):
        load_locations(tmp_path / "missing.csv")


def test_load_frame_errors(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    dup = _write(tmp_path / "obs1.csv",
                 "t,id,value\n1,s1,1.0\n1,s1,\n1,s2,1\n2,s1,1\n2,s2,1\n")
    with pytest.raises(DuplicateCell):
        load_frame(locs, dup)
    unknown = _write(tmp_path / "obs2.csv", "t,id,value\n1,s9,1.0\n")
    with pytest.raises(UnknownLocation):
        load_frame(locs, unknown)
    mixed = _write(tmp_path / "obs3.csv",
                   "t,id,value\n1,s1,1.0\n2020-01-01,s2,2.0\n")
    with pytest.raises(ParseError):
        load_frame(locs, mixed)
    bad_stamp = _write(tmp_path / "obs4.csv", "t,id,value\n1.5,s1,1.0\n")
    with pytest.raises(ParseError):
        load_frame(locs, bad_stamp)


def test_load_frame_date_stamps_ranked(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    obs = _write(tmp_path / "obs.csv", "\n".join([
        "t,id,value",
        "2020-02-01,s1,21.0", "2020-02-01,s2,22.0",
        "2020-01-01,s1,11.0", "2020-01-01,s2,12.0",
        "2020-03-01,s1,31.0", "2020-03-01,s2,32.0", ""]))
    frame = load_frame(locs, obs)
    # rows follow date order, not file order
    np.testing.assert_array_equal(frame.obs[:, 0], [11.0, 21.0, 31.0])


def test_load_frame_empty_value_is_missing(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\ns3,2,0\n")
    obs = _write(tmp_path / "obs.csv", "\n".join([
        "t,id,value",
        "1,s1,1.0", "1,s2,", "1,s3,0.5", "2,s1,2.0", "2,s2,4.0", "2,s3,1.5",
        "3,s1,3.0", "3,s2,5.0", "3,s3,2.5", ""]))
    frame = load_frame(locs, obs)
    assert frame.missing[0, 1]
    assert frame.missing.sum() == 1


def test_load_frame_maps_ids_out_of_location_order(tmp_path):
    # the location file is not sorted, and each time step lists its rows
    # in a different order from the location file and from each other
    ids = ["m", "c", "x", "a", "q"]
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\n" + "".join(
        f"{loc},{k},{k % 2}\n" for k, loc in enumerate(ids)))
    rng = np.random.default_rng(3)
    expect = rng.standard_normal((4, len(ids)))
    lines = ["t,id,value"]
    for t in (3, 1, 4, 2):
        for col in rng.permutation(len(ids)):
            lines.append(f"{t},{ids[col]},{float(expect[t - 1, col])!r}")
    frame = load_frame(locs, _write(tmp_path / "obs.csv", "\n".join(lines)))
    assert frame.locations.ids == tuple(ids)
    np.testing.assert_array_equal(frame.obs, expect)


def test_long_form_errors_keep_messages_and_lines(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    dup = _write(tmp_path / "dup.csv", "t,id,value\n1,s1,1\n1,s2,2\n1,s1,\n")
    short = _write(tmp_path / "short.csv", "t,id,value\n1,s1,1\n2,s1\n")
    empty = _write(tmp_path / "empty.csv", "t,id,value\n")
    for load in (lambda obs: load_frame(locs, obs), load_observation_table):
        with pytest.raises(DuplicateCell, match=r"dup\.csv:4: duplicate cell "
                           r"\(t=1, id=s1\)"):
            load(dup)
        with pytest.raises(ParseError, match=r"short\.csv:3: expected 3 fields"):
            load(short)
        with pytest.raises(ParseError, match="no observation rows"):
            load(empty)
    unknown = _write(tmp_path / "unknown.csv", "t,id,value\n1,s1,1\n1,s9,2\n")
    with pytest.raises(UnknownLocation, match="unknown location id 's9'"):
        load_frame(locs, unknown)


def test_long_form_parses_each_timestamp_token_once(tmp_path, monkeypatch):
    import latentkrig.stdata as stdata
    tokens = []
    real = stdata._parse_timestamp
    monkeypatch.setattr(stdata, "_parse_timestamp",
                        lambda tok, path, line: tokens.append(tok)
                        or real(tok, path, line))
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    obs = _write(tmp_path / "obs.csv", "t,id,value\n1,s1,1\n 1,s2,2\n"
                 "2,s1,3\n2,s2,4\n1,s2,5\n")
    # " 1" and "1" are distinct tokens for the same time point
    with pytest.raises(DuplicateCell, match=r"obs\.csv:6: duplicate cell "
                       r"\(t=1, id=s2\)"):
        load_frame(locs, obs)
    assert tokens == ["1", " 1", "2"]
    bad = _write(tmp_path / "bad.csv", "t,id,value\n1,s1,1\n1,s2,2\n"
                 "x,s1,3\n")
    for load in (lambda path: load_frame(locs, path), load_observation_table):
        with pytest.raises(ParseError, match=r"bad\.csv:4: timestamp 'x' is "
                           "neither an integer nor an ISO-8601 date"):
            load(bad)


def test_covariate_timestamps_parsed_once_per_token(tmp_path, monkeypatch):
    import latentkrig.stdata as stdata
    rng = np.random.default_rng(3)
    frame = SpatioTemporalFrame(locations=grid_locations(50),
                                obs=rng.standard_normal((100, 50)),
                                covariates=rng.standard_normal((100, 50, 2)))
    paths = save_frame(frame, tmp_path / "panel")
    calls = []
    real = stdata._parse_timestamp
    monkeypatch.setattr(stdata, "_parse_timestamp",
                        lambda tok, path, line: calls.append(tok)
                        or real(tok, path, line))
    back = load_frame(paths["locations"], paths["observations"],
                      paths["covariates"])
    np.testing.assert_array_equal(back.covariates, frame.covariates)
    assert len(calls) <= 200
    # messages and line numbers are those of the unmemoized parser
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    obs = _write(tmp_path / "obs.csv",
                 "t,id,value\n1,s1,1\n1,s2,2\n2,s1,3\n2,s2,4\n")
    for body, message in [
            ("1,s1,0\n1,s2,0\nx,s1,0\n", r"z\.csv:4: timestamp 'x' is "
             "neither an integer nor an ISO-8601 date"),
            ("1,s1,0\n3,s2,0\n", r"z\.csv:3: timestamp '3' not in panel"),
            ("1,s1,0\n1,s1,0\n", r"z\.csv:3: duplicate covariate cell")]:
        z = _write(tmp_path / "z.csv", "t,id,z1\n" + body)
        with pytest.raises((ParseError, DuplicateCell), match=message):
            load_frame(locs, obs, z)


def test_load_observation_table(tmp_path):
    obs = _write(tmp_path / "obs.csv", "\n".join([
        "t,id,value",
        "3,b,6.0", "1,b,2.0", "1,a,1.0", "2,a,3.0", "3,a,5.0", "2,b,4.0", ""]))
    stamps, ids, values = load_observation_table(obs)
    assert stamps == [1, 2, 3]
    assert ids == ("b", "a")  # first seen order
    np.testing.assert_array_equal(values, [[2.0, 1.0], [4.0, 3.0], [6.0, 5.0]])


def test_covariates_must_cover_panel(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    obs = _write(tmp_path / "obs.csv",
                 "t,id,value\n1,s1,1\n1,s2,2\n2,s1,3\n2,s2,4\n")
    partial = _write(tmp_path / "z.csv", "t,id,z1\n1,s1,0.5\n")
    with pytest.raises(ParseError):
        load_frame(locs, obs, partial)


def test_locations_doc_round_trip():
    locs = LocationSet(ids=("a", "b"), coords=[[0.25, -1.5], [3.0, 4.0]],
                       distance_metric="great_circle", radius=10.0)
    back = locations_from_doc(locations_to_doc(locs))
    assert back.ids == locs.ids
    assert back.distance_metric == "great_circle"
    assert back.radius == 10.0
    np.testing.assert_array_equal(back.coords, locs.coords)
