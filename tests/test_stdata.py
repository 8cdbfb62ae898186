import datetime
import math
import re

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
from latentkrig.ensemble import locations_from_doc, locations_to_doc
from latentkrig.stdata import load_observation_table, pairwise_distances

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


@pytest.mark.parametrize("r, c", [(800, 800), (300, 50), (1, 7)])
def test_euclidean_distance_is_bitwise_the_stacked_sum(r, c):
    rng = np.random.default_rng(r + c)
    a = rng.uniform(-50.0, 50.0, (r, 2))
    b = a if r == c else rng.uniform(-50.0, 50.0, (c, 2))
    diff = a[:, None, :] - b[None, :, :]
    assert (distance_matrix(a, b).tobytes()
            == np.sqrt(np.sum(diff * diff, axis=2)).tobytes())


@pytest.mark.parametrize("metric", ["euclidean", "great_circle"])
def test_distance_coordinates_must_be_pairs(metric):
    pair = np.zeros((3, 2))
    for bad in (np.zeros((3, 3)), np.zeros((3, 1)), np.zeros(2)):
        for a, b in ((bad, pair), (pair, bad)):
            with pytest.raises(InvalidCoordinate, match=r"\(r, 2\) arrays"):
                distance_matrix(a, b, metric)


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
    # the mask is derived from the NaNs and cannot be passed in
    locs = grid_locations(3)
    obs = np.ones((4, 3))
    obs[1, 2] = np.nan
    with pytest.raises(TypeError, match="missing"):
        SpatioTemporalFrame(locations=locs, obs=obs,
                            missing=np.isnan(obs))
    frame = SpatioTemporalFrame(locations=locs, obs=obs)
    np.testing.assert_array_equal(frame.missing, np.isnan(obs))
    assert frame.missing.dtype == bool
    with pytest.raises(ValueError, match="read-only"):
        frame.missing[0, 0] = True


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


def test_frame_copies_every_array_a_caller_can_write():
    locs = grid_locations(5)
    rng = np.random.default_rng(9)
    obs, z = rng.standard_normal((6, 5)), rng.standard_normal((6, 5, 2))
    ro_obs, ro_z = obs[:], z[:]  # read-only views of writable arrays
    for a in (ro_obs, ro_z):
        a.setflags(write=False)
    frames = [SpatioTemporalFrame(locations=locs, obs=o, covariates=c)
              for o, c in ((obs, z), (ro_obs, ro_z), (obs.tolist(), z.tolist()),
                           (np.asfortranarray(obs), z.astype(np.float32)))]
    kept = [(f.obs.tobytes(), f.covariates.tobytes()) for f in frames]
    for f in frames:
        assert not np.shares_memory(f.obs, obs) and not np.shares_memory(f.covariates, z)
        assert not (f.obs.flags.writeable or f.covariates.flags.writeable)
    obs += 1.0
    z += 1.0
    assert [(f.obs.tobytes(), f.covariates.tobytes()) for f in frames] == kept


def test_frame_keeps_arrays_nothing_can_write(tmp_path, monkeypatch):
    import latentkrig.stdata as stdata
    locs = grid_locations(5)
    rng = np.random.default_rng(10)
    obs, z = rng.standard_normal((6, 5)), rng.standard_normal((6, 5, 2))
    for a in (obs, z):
        a.setflags(write=False)
    frame = SpatioTemporalFrame(locations=locs, obs=obs[:], covariates=z)
    assert np.shares_memory(frame.obs, obs) and frame.covariates is z
    # load_frame hands over the arrays its reader builds
    read, real_read = [], stdata._read_long_form
    monkeypatch.setattr(stdata, "_read_long_form",
                        lambda *args: read.append(real_read(*args)) or read[-1])
    paths = save_frame(frame, tmp_path)
    back = load_frame(paths["locations"], paths["observations"], paths["covariates"])
    assert np.shares_memory(back.obs, read[0][1]) and back.covariates is read[1][1]
    assert back.obs.tobytes() == obs.tobytes() and back.covariates.tobytes() == z.tobytes()


def test_subframe_copies_once():
    import tracemalloc
    frame = SpatioTemporalFrame(locations=grid_locations(200),
                                obs=np.random.default_rng(11).standard_normal((2000, 200)))
    tracemalloc.start()
    try:
        sub = frame.subframe(range(0, 200, 2))  # 1.6 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.obs.tobytes() == frame.obs[:, ::2].tobytes()
    assert not np.shares_memory(sub.obs, frame.obs) and not sub.obs.flags.writeable
    assert peak < 1.5 * sub.obs.nbytes


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


@pytest.mark.parametrize("quoted", [False, True])
def test_byte_order_mark_is_skipped(tmp_path, quoted):
    """Excel's "CSV UTF-8" export starts each file with EF BB BF; a marked
    file, plain or read by csv.reader, loads as the unmarked one."""
    rng = np.random.default_rng(8)
    frame = SpatioTemporalFrame(locations=grid_locations(3),
                                obs=rng.standard_normal((4, 3)),
                                covariates=rng.standard_normal((4, 3, 2)))
    paths = save_frame(frame, tmp_path / "plain")
    marked = {}
    for name, path in paths.items():
        text = path.read_text(encoding="utf-8")
        if quoted:
            head, _, rest = text.partition(",")
            text = f'"{head}",{rest}'
        _write(path, text)
        marked[name] = tmp_path / f"marked_{path.name}"
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want = load_frame(paths["locations"], paths["observations"], paths["covariates"])
    got = load_frame(marked["locations"], marked["observations"], marked["covariates"])
    assert got.locations.ids == want.locations.ids
    for a, b in ((got.locations.coords, want.locations.coords),
                 (got.obs, want.obs), (got.covariates, want.covariates)):
        assert a.tobytes() == b.tobytes()
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbf" + (b'"id",x1,x2' if quoted else b"id,x1,x2")
                    + b"\ns0,0,0\ns1,x,0\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(bad))}:3: "):
        load_locations(bad)


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
    header_only = _write(tmp_path / "d.csv", "id,x1,x2\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(header_only))}: no location rows$"):
        load_locations(header_only)


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


# ---- column reader against the row-by-row reader it replaced ----

def _per_row_reference(path, column_of, min_width):
    """The row-by-row long-form reader, kept as the column reader's oracle."""
    import csv
    from latentkrig import stdata
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    if [h.strip() for h in rows[0]] != ["t", "id", "value"]:
        raise ParseError(f"{path}: expected header t,id,value")
    cells, stamp_of = {}, {}
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path}:{k}: expected 3 fields")
        if row[0] not in stamp_of:
            stamp_of[row[0]] = stdata._parse_timestamp(row[0], path, k)
        t = stamp_of[row[0]]
        loc = row[1].strip()
        key = (t, column_of(loc))
        if key in cells:
            raise DuplicateCell(f"{path}:{k}: duplicate cell (t={row[0]}, id={loc})")
        raw = row[2].strip()
        cells[key] = math.nan if raw == "" else stdata._parse_float(raw, path, k)
    if not cells:
        raise ParseError(f"{path}: no observation rows")
    rank = stdata._rank_timestamps({t for t, _ in cells}, path)
    width = max(min_width, 1 + max(col for _, col in cells))
    obs = np.full((len(rank), width), np.nan)
    for (t, col), value in cells.items():
        obs[rank[t], col] = value
    return rank, obs


_PARITY_IDS = ("s0", "s1", "s2", "s3", "Zürich", "s5")


def _outcomes(read, path):
    """What a reader makes of a file, with a location table and without:
    ranks in order, obs bytes and first-seen ids, or the error raised."""
    # "unused" never appears in a file, so its column is all NaN
    locs = LocationSet(ids=_PARITY_IDS + ("unused",),
                       coords=[[k, k % 2] for k in range(7)])
    out = []
    for mode in ("locations", "table"):
        seen: dict[str, int] = {}
        column_of = (locs.index_of if mode == "locations"
                     else lambda loc: seen.setdefault(loc, len(seen)))
        try:
            rank, obs = read(path, column_of, locs.p if mode == "locations" else 0)
            out.append((list(rank.items()), obs.shape, obs.tobytes(), tuple(seen)))
        except Exception as exc:  # compared by type and message
            out.append((type(exc), str(exc)))
    return out


def _random_long_form(rng, dates, crlf, trailing, quoted):
    n = int(rng.integers(2, 9))
    stamps = ([str(datetime.date(2021, 1, 1) + datetime.timedelta(days=7 * k))
               for k in range(n)] if dates else
              [str(int(s)) for s in rng.choice(500, n, replace=False) - 100])
    rows = []
    for stamp in stamps:
        for loc in _PARITY_IDS:
            roll = rng.random()
            if roll < 0.15:
                continue  # absent cell
            value = "" if roll < 0.25 else repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))
            pad = lambda tok: rng.choice(["", " ", "  "]) + tok + rng.choice(["", " "])
            rows.append([pad(stamp) if rng.random() < 0.2 else stamp,
                         pad(loc) if rng.random() < 0.2 else loc,
                         pad(value) if rng.random() < 0.3 else value])
    order = rng.permutation(len(rows))
    lines = [",".join(rows[k]) for k in order]
    if quoted:
        t, loc, value = rows[order[0]]
        lines[0] = f'{t},"{loc}",{value}'
        if rng.random() < 0.5:  # a comma inside quotes changes the field count
            lines.append(f'{stamps[0]},"x,y",1.5')
    eol = "\r\n" if crlf else "\n"
    return eol.join([" t , id ,value"] + lines) + (eol if trailing else "")


def _plain_blocks_only(monkeypatch):
    """Record each block the long-form reader refuses to split as plain
    text, which csv.reader then tokenizes; returns the record."""
    from latentkrig import stdata
    real, refused = stdata._plain_columns, []

    def plain_columns(raw, w):
        columns = real(raw, w)
        if columns is None:
            refused.append(raw)
        return columns

    monkeypatch.setattr(stdata, "_plain_columns", plain_columns)
    return refused


def test_column_reader_matches_per_row_reader(tmp_path, monkeypatch):
    from latentkrig import stdata
    rng = np.random.default_rng(20260)
    for case in range(48):
        dates, crlf, trailing, quoted = (bool(case >> b & 1) for b in range(4))
        path = _write(tmp_path / f"obs{case}.csv",
                      _random_long_form(rng, dates, crlf, trailing, quoted))
        with monkeypatch.context() as patch:
            # an unquoted file never reaches csv.reader
            refused = [] if quoted else _plain_blocks_only(patch)
            got = _outcomes(stdata._read_long_form, path)
        assert refused == [], case
        assert got == _outcomes(_per_row_reference, path), case
        assert all(len(o) == 4 for o in got[int(quoted):]), case


_OBS_ERRORS = [
    ("1,s0,1\n2,s1\n", 3),                       # short row
    ("1,s0,1\n2,s1,2,9\n", 3),                   # four fields
    ("1,s0,1\n\n2,s1,2\n", 3),                   # blank middle line
    ("1,s0,1\n1,s1,2\n1, s0 ,\n", 4),            # duplicate, one empty
    ("1,s0,1\n2,s9,2\n", None),                  # unknown id
    ("1,s0,1\n1.5,s1,2\n", 3),                   # bad stamp
    ("1,s0,1\n2020-01-01,s1,2\n", None),         # mixed stamp kinds
    ("1,s0,1\n1,s1,nan\n", 3),
    ("1,s0,1\n1,s1, -inf\n", 3),
    ("1,s0,1\n1,s1,1e999\n", 3),
    ("1,s0,abc\n1,s1,2\n", 2),                   # non-numeric
    ("", None),                                  # header only
    ("1,s0,1\n2,s0,x\n2,s1\n1,s0,3\n", 3),       # first of three errors
    ("1,s0,1\n2,s9,1\n2,s1,zz\n", None),         # unknown id before a bad value
    ("1,s0,1\n2,s1,zz\n2,s9,1\n", 3),            # bad value before an unknown id
    ("1,s0,1\nx,s1,1\n1,s0,2\n", 3),             # bad stamp before a duplicate
    ('1,s0,1\n"2,s1",2\n', 3),                   # quoted field: read by csv.reader
    ("1,s0,1\n2,s1\r,2\n", 3),                    # a lone CR ends a csv row
    # a duplicate on line 3 comes before any other error on line 4
    ("1,s0,1\n1,s0,2\n1,s1,x\n", 3),
    ("1,s0,1\n1,s0,2\n1,s9,3\n", 3),
    ("1,s0,1\n1,s0,2\n1,s1\n", 3),
    ("1,s0,1\n1,s0,2\nx,s1,3\n", 3),
    ("1,s0,1\n1,s0,x\n", 3),                    # a duplicate with a bad value
    ("1,s0,1\n 1,s0,2\n", 3),                   # " 1" is the stamp 1
]


@pytest.mark.parametrize("body, line", _OBS_ERRORS)
def test_column_reader_errors_match_per_row_reader(tmp_path, body, line):
    from latentkrig import stdata
    path = _write(tmp_path / "obs.csv", "t,id,value\n" + body)
    got = _outcomes(stdata._read_long_form, path)
    assert got == _outcomes(_per_row_reference, path)
    assert isinstance(got[0][0], type) and issubclass(got[0][0], Exception)
    if line is not None:
        assert got[0][1].startswith(f"{path}:{line}: ")


def test_column_reader_bad_headers_and_oversized_field(tmp_path):
    import csv
    from latentkrig import stdata
    for name, text in [("empty", ""), ("blank", "\n"), ("header", "t,id,val\n1,s0,1\n"),
                       ("wide", "t,id,value,z\n1,s0,1,2\n")]:
        path = _write(tmp_path / f"{name}.csv", text)
        got = _outcomes(stdata._read_long_form, path)
        assert got == _outcomes(_per_row_reference, path), name
        assert got[0][0] is ParseError, name
    # csv.reader refuses a field over its size limit, so the column reader
    # must too, with a ParseError naming the file
    path = _write(tmp_path / "long.csv", "t,id,value\n1,s0,1\n1,"
                  + "x" * (csv.field_size_limit() + 1) + ",2\n")
    want = _outcomes(_per_row_reference, path)
    assert want[1][0] is csv.Error
    assert _outcomes(stdata._read_long_form, path) == [(ParseError, f"{path}: {want[1][1]}")] * 2


def test_saved_panel_is_read_by_column(tmp_path, monkeypatch):
    from latentkrig import stdata
    rng = np.random.default_rng(5)
    obs = rng.standard_normal((30, 12))
    obs[rng.random(obs.shape) < 0.1] = np.nan
    frame = SpatioTemporalFrame(locations=grid_locations(12), obs=obs)
    paths = save_frame(frame, tmp_path / "panel")
    tokens, ids = [], []
    refused = _plain_blocks_only(monkeypatch)
    real_parse = stdata._parse_timestamp
    monkeypatch.setattr(stdata, "_parse_timestamp",
                        lambda tok, path, line: tokens.append(tok)
                        or real_parse(tok, path, line))
    back = load_frame(paths["locations"], paths["observations"])
    np.testing.assert_array_equal(back.obs, frame.obs)
    assert tokens == [str(t + 1) for t in range(30)]
    stamps, table_ids, _ = load_observation_table(paths["observations"])
    assert stamps == list(range(1, 31))
    # column_of runs once per distinct id, in first-seen order
    stdata._read_long_form(paths["observations"],
                           lambda loc: ids.append(loc) or len(ids) - 1, 0)
    lines = paths["observations"].read_text(encoding="utf-8").splitlines()
    assert ids == list(table_ids) == list(dict.fromkeys(
        line.split(",")[1] for line in lines[1:]))
    assert refused == []


# ---- covariate files through the column reader ----

def _per_row_covariates(path, rank, locs):
    """The row-by-row covariate reader, kept as the column reader's oracle."""
    import csv
    from latentkrig import stdata
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[:2] != ["t", "id"]:
        raise ParseError(f"{path}: expected header t,id,z1,...")
    m = len(header) - 2
    z = np.full((len(rank), locs.p, m), np.nan)
    stamp_of = {}
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != m + 2:
            raise ParseError(f"{path}:{k}: expected {m + 2} fields")
        if row[0] not in stamp_of:
            stamp_of[row[0]] = stdata._parse_timestamp(row[0], path, k)
        t = stamp_of[row[0]]
        if t not in rank:
            raise ParseError(f"{path}:{k}: timestamp {row[0]!r} not in panel")
        col = locs.index_of(row[1].strip())
        if not np.isnan(z[rank[t], col, 0]):
            raise DuplicateCell(f"{path}:{k}: duplicate covariate cell")
        z[rank[t], col, :] = [stdata._parse_float(v, path, k) for v in row[2:]]
    if np.any(np.isnan(z)):
        raise ParseError(f"{path}: covariates must cover every (t, id) cell")
    return z


def _covariate_outcome(read, path, rank, locs):
    try:
        z = read(path, rank, locs)
        return z.shape, z.tobytes()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _column_covariates(path, rank, locs):
    from latentkrig import stdata
    return stdata._read_long_form(path, locs.index_of, locs.p, rank)[1]


def _random_covariates(rng, stamps, ids, m, crlf, quoted):
    rows = []
    for stamp in stamps:
        for loc in ids:
            pad = lambda tok: rng.choice(["", " "]) + tok + rng.choice(["", "  "])
            values = [repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))
                      for _ in range(m)]
            rows.append([pad(stamp) if rng.random() < 0.2 else stamp,
                         pad(loc) if rng.random() < 0.2 else loc,
                         *[pad(v) if rng.random() < 0.2 else v for v in values]])
    lines = [",".join(rows[k]) for k in rng.permutation(len(rows))]
    if quoted:
        first = lines[0].split(",")
        lines[0] = ",".join([first[0], f'"{first[1]}"', *first[2:]])
    header = ",".join(["t", " id "] + [f"z{j + 1}" for j in range(m)])
    eol = "\r\n" if crlf else "\n"
    return eol.join([header] + lines) + eol


def test_covariate_reader_matches_per_row_reader(tmp_path, monkeypatch):
    locs = LocationSet(ids=_PARITY_IDS, coords=[[k, k % 2] for k in range(6)])
    rng = np.random.default_rng(4242)
    for case in range(24):
        m, crlf, quoted = 1 + case % 3, bool(case >> 2 & 1), bool(case >> 3 & 1)
        stamps = [str(s) for s in sorted(rng.choice(90, 5, replace=False) - 20)]
        rank = {int(s): k for k, s in enumerate(stamps)}
        path = _write(tmp_path / f"z{case}.csv",
                      _random_covariates(rng, stamps, _PARITY_IDS, m, crlf, quoted))
        with monkeypatch.context() as patch:
            # an unquoted file that covers the panel never reaches csv.reader
            refused = [] if quoted else _plain_blocks_only(patch)
            got = _covariate_outcome(_column_covariates, path, rank, locs)
        assert refused == [], case
        assert got == _covariate_outcome(_per_row_covariates, path, rank, locs), case
        assert got[0] == (5, 6, m), case


_COVARIATE_ERRORS = [
    ("1,s0,1\n1,s1,2\n2,s0,3\n", None),         # a cell not covered
    ("1,s0,1\n1,s1,2\n2,s0,3\n2,s1,\n", 5),      # an empty value
    ("1,s0,1\n1,s1,2\n2,s0,3\n2,s1, \n", 5),     # a blank value
    ("1,s0,1\n1,s1,2\n2,s0,3\n2,s1,nan\n", 5),
    ("1,s0,1\n1,s1,2\n2,s0,3\n2,s1,x\n", 5),
    ("1,s0,1\n1,s1,2\n3,s0,3\n2,s1,4\n", 4),     # a stamp not in the panel
    ("1,s0,1\n1,s0,2\n2,s0,3\n2,s1,4\n", 3),     # a duplicate
    ("1,s0,1\n1,s9,2\n2,s0,3\n2,s1,4\n", None),  # an unknown id
    ("1,s0,1\n1,s1\n2,s0,3\n2,s1,4\n", 3),       # a short row
    ("1,s0,1\n1,s1,2\n2020-01-01,s0,3\n2,s1,4\n", 4),
    ("1,s0,1\n1,s1,2\n2,s0,3\n2,s1,4\n2,s1,5\n", 6),
    ("", None),                                   # header only
    ('1,s0,1\n1,"s1",2\n2,s0,3\n2,s1,4\n', None),  # quoted and valid
    # a duplicate on line 3 comes before any other error on line 4
    ("1,s0,1\n1,s0,2\n1,s1,x\n2,s0,3\n2,s1,4\n", 3),
    ("1,s0,1\n1,s0,2\n1,s9,3\n2,s0,3\n2,s1,4\n", 3),
    ("1,s0,1\n1,s0,2\n1,s1\n2,s0,3\n2,s1,4\n", 3),
    ("1,s0,1\n1,s0,2\nx,s1,3\n2,s0,3\n2,s1,4\n", 3),
    ("1,s0,1\n1,s0,x\n1,s1,2\n2,s0,3\n2,s1,4\n", 3),  # a duplicate with a bad value
    ("1,s0,1\n 1,s0,2\n1,s1,2\n2,s0,3\n2,s1,4\n", 3),  # " 1" is the stamp 1
    ("1,s0,1\r\n1,s1,x\r\n2,s0,3\r\n2,s1,4\r\n", 3),  # named without its CR
]


@pytest.mark.parametrize("body, line", _COVARIATE_ERRORS)
def test_covariate_errors_match_per_row_reader(tmp_path, body, line):
    locs = LocationSet(ids=("s0", "s1", "s2"), coords=[[0, 0], [1, 0], [0, 1]])
    locs = locs.subset([0, 1])
    rank = {1: 0, 2: 1}
    path = _write(tmp_path / "z.csv", "t,id,z1\n" + body)
    got = _covariate_outcome(_column_covariates, path, rank, locs)
    assert got == _covariate_outcome(_per_row_covariates, path, rank, locs)
    if line is not None:
        assert got[1].startswith(f"{path}:{line}: ")


def test_covariate_reader_bad_headers(tmp_path):
    locs = LocationSet(ids=("s0", "s1"), coords=[[0, 0], [1, 0]])
    for name, text in [("empty", ""), ("blank", "\n"), ("short", "t,id\n1,s0\n"),
                       ("names", "time,id,z1\n1,s0,1\n")]:
        path = _write(tmp_path / f"{name}.csv", text)
        got = _covariate_outcome(_column_covariates, path, {1: 0}, locs)
        assert got == _covariate_outcome(_per_row_covariates, path, {1: 0}, locs)
        assert got[0] is ParseError, name


# ---- location files through the same reader ----

def _per_row_locations(path):
    """The whole-file location reader, kept as load_locations' oracle."""
    import csv
    from latentkrig import stdata
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    if [h.strip() for h in rows[0]] != ["id", "x1", "x2"]:
        raise ParseError(f"{path}: expected header id,x1,x2")
    ids, coords = [], []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path}:{k}: expected 3 fields")
        ids.append(row[0].strip())
        coords.append([stdata._parse_float(row[1], path, k),
                       stdata._parse_float(row[2], path, k)])
    if len(set(ids)) != len(ids):
        raise DuplicateCell(f"{path}: duplicate location id")
    return LocationSet(ids=tuple(ids), coords=np.array(coords))


def _location_outcome(read, path):
    try:
        locs = read(path)
        return locs.ids, locs.coords.tobytes()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


_LOCATION_ERRORS = [
    ("s0,0,0\ns1,x,0\ns2,1\n", 3),              # a bad float before a short row
    ("s0,0,0\ns1,1\ns2,x,0\n", 3),              # a short row before a bad float
    ("s0,0,0\n\ns1,1,1\n", 3),                  # blank middle line
    ("s0,0,0\ns1,1,nan\n", 3),
    ("s0,0,0\ns1,1,1\n s0 ,2,2\n", None),       # a duplicate id
    ("s0,0,0\r\ns1,1,x\r\n", 3),                # named without its CR
]


@pytest.mark.parametrize("body, line", _LOCATION_ERRORS)
def test_location_errors_match_per_row_reader(tmp_path, body, line):
    path = _write(tmp_path / "locs.csv", "id,x1,x2\n" + body)
    got = _location_outcome(load_locations, path)
    assert got == _location_outcome(_per_row_locations, path)
    assert isinstance(got[0], type) and issubclass(got[0], Exception)
    if line is not None:
        assert got[1].startswith(f"{path}:{line}: ")


# ---- the same files read a few rows at a time ----

@pytest.fixture(params=[1, 2, 3])
def small_blocks(request, monkeypatch):
    """The long-form reader's block cut to 1, 2 or 3 rows, so the files
    above cross block boundaries, the header's among them."""
    from latentkrig import stdata
    monkeypatch.setattr(stdata, "_CSV_BLOCK", request.param)


def _quote_ids(text):
    """text with the second field of each line quoted; csv.reader reads
    it alike, but the column reader must hand it to csv.reader."""
    return re.sub(r'(?m)^([^,\r\n"]*),([^,\r\n"]*)', r'\1,"\2"', text)


def test_small_blocks_match_per_row_reader(tmp_path, monkeypatch, small_blocks):
    test_column_reader_matches_per_row_reader(tmp_path, monkeypatch)
    test_column_reader_bad_headers_and_oversized_field(tmp_path)
    test_covariate_reader_matches_per_row_reader(tmp_path, monkeypatch)
    test_covariate_reader_bad_headers(tmp_path)
    test_saved_panel_is_read_by_column(tmp_path, monkeypatch)


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("body, line", _OBS_ERRORS)
def test_small_block_errors_match_per_row_reader(tmp_path, small_blocks, quote, body, line):
    test_column_reader_errors_match_per_row_reader(
        tmp_path, _quote_ids(body) if quote else body, line)


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("body, line", _LOCATION_ERRORS)
def test_small_block_location_errors_match_per_row_reader(tmp_path, small_blocks, quote,
                                                          body, line):
    test_location_errors_match_per_row_reader(
        tmp_path, _quote_ids(body) if quote else body, line)


@pytest.mark.parametrize("quote", [False, True])
@pytest.mark.parametrize("body, line", _COVARIATE_ERRORS)
def test_small_block_covariate_errors_match_per_row_reader(tmp_path, small_blocks,
                                                           quote, body, line):
    test_covariate_errors_match_per_row_reader(
        tmp_path, _quote_ids(body) if quote else body, line)


def test_small_blocks_parse_each_timestamp_token_once(tmp_path, monkeypatch, small_blocks):
    test_long_form_parses_each_timestamp_token_once(tmp_path, monkeypatch)
    test_covariate_timestamps_parsed_once_per_token(tmp_path, monkeypatch)
    # a quoted file whose duplicate spans blocks: naming it parses no
    # stamp token a second time
    from latentkrig import stdata
    tokens = []
    real = stdata._parse_timestamp
    monkeypatch.setattr(stdata, "_parse_timestamp",
                        lambda tok, path, line: tokens.append(tok)
                        or real(tok, path, line))
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    obs = _write(tmp_path / "quoted.csv", _quote_ids(
        "t,id,value\n1,s1,1\n 1,s2,2\n2,s1,3\n2,s2,4\n1,s2,5\n"))
    with pytest.raises(DuplicateCell, match=r"quoted\.csv:6: duplicate cell "
                       r"\(t=1, id=s2\)"):
        load_frame(locs, obs)
    assert tokens == ["1", " 1", "2"]


def test_csv_and_decoding_errors_anywhere_come_first(tmp_path, small_blocks):
    import csv
    from latentkrig import stdata
    # a bad value on line 3 refuses the first blocks; what follows decides
    head = "t,id,value\n1,s0,1\n1,s1,x\n" + "".join(
        f"{t},s{k},{t}.5\n" for t in range(2, 600) for k in (0, 1))
    path = _write(tmp_path / "long.csv", head + "600,"
                  + "x" * (csv.field_size_limit() + 1) + ",2\n")
    want = _outcomes(_per_row_reference, path)
    assert want[0][0] is csv.Error
    assert _outcomes(stdata._read_long_form, path) == [(ParseError, f"{path}: {want[0][1]}")] * 2
    path = tmp_path / "bad.csv"
    path.write_bytes(head.encode() + b"600,s\xff0,2\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_bytes().decode("utf-8")
    assert len(head) > 8192  # past the first chunk a text stream decodes
    assert _outcomes(stdata._read_long_form, path) == [
        (ParseError, f"{path}: not UTF-8 text: {whole.value}")] * 2


@pytest.mark.parametrize("quote", [False, True])
def test_valid_files_are_not_reread_row_by_row(tmp_path, monkeypatch, small_blocks, quote):
    rng = np.random.default_rng(11)
    obs = rng.standard_normal((6, 5))
    obs[[0, 2, 4], [1, 3, 0]] = np.nan
    frame = SpatioTemporalFrame(locations=grid_locations(5), obs=obs,
                                covariates=rng.standard_normal((6, 5, 2)))
    paths = save_frame(frame, tmp_path)
    if quote:
        for name in ("observations", "covariates"):
            _write(paths[name], _quote_ids(paths[name].read_text(encoding="utf-8")))
    refused = _plain_blocks_only(monkeypatch)
    back = load_frame(paths["locations"], paths["observations"], paths["covariates"])
    assert back.obs.tobytes() == frame.obs.tobytes()
    assert back.covariates.tobytes() == frame.covariates.tobytes()
    assert bool(refused) == quote


# ---- save_frame against csv.writer ----

def _save_frame_reference(frame, out):
    """The csv.writer form save_frame writes, one row at a time."""
    import csv
    out.mkdir(parents=True, exist_ok=True)

    def write(name, header, rows):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    ids = frame.locations.ids
    write("locations.csv", ["id", "x1", "x2"],
          ([loc] + [repr(float(c)) for c in frame.locations.coords[i]]
           for i, loc in enumerate(ids)))
    write("observations.csv", ["t", "id", "value"],
          ([t + 1, loc, repr(float(frame.obs[t, i]))] for t in range(frame.n)
           for i, loc in enumerate(ids) if not frame.missing[t, i]))
    if frame.covariates is not None:
        write("covariates.csv", ["t", "id"] + [f"z{j + 1}" for j in range(frame.m)],
              ([t + 1, loc] + [repr(float(v)) for v in frame.covariates[t, i]]
               for t in range(frame.n) for i, loc in enumerate(ids)))


@pytest.mark.parametrize("m", [0, 1, 3])
def test_save_frame_bytes_match_csv_writer(tmp_path, m):
    ids = ("plain", "a,b", 'say "hi"', "two\nlines", " padded ", "cr\rhere",
           "", "Zürich")
    rng = np.random.default_rng(7 + m)
    p, n = len(ids), 12
    locs = LocationSet(ids=ids, coords=rng.uniform(-1, 1, (p, 2)))
    obs = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-8, 9, (n, p))
    obs[np.arange(0, n, 2), rng.integers(0, p, n // 2)] = np.nan
    obs[1, [2, 5]] = np.nan
    obs[0, 1] = -0.0
    frame = SpatioTemporalFrame(
        locations=locs, obs=obs,
        covariates=rng.standard_normal((n, p, m)) if m else None)
    got = save_frame(frame, tmp_path / "got")
    _save_frame_reference(frame, tmp_path / "want")
    assert sorted(got) == (["covariates"] if m else []) + ["locations", "observations"]
    for path in got.values():
        assert path.read_bytes() == (tmp_path / "want" / path.name).read_bytes(), path.name
    back = load_frame(got["locations"], got["observations"], got.get("covariates"))
    assert back.locations.ids == tuple(i.strip() for i in ids)  # readers strip ids
    assert back.obs.tobytes() == frame.obs.tobytes()


def test_non_ascii_ids_round_trip_as_utf8(tmp_path):
    locs = LocationSet(ids=("Zürich", "東京", "São Paulo", "plain"),
                       coords=[[0, 0], [1, 0], [0, 1], [1, 1]])
    frame = SpatioTemporalFrame(locations=locs,
                                obs=np.arange(12.0).reshape(3, 4) / 7.0)
    paths = save_frame(frame, tmp_path)
    back = load_frame(paths["locations"], paths["observations"])
    assert back.locations.ids == locs.ids
    np.testing.assert_array_equal(back.obs, frame.obs)


def test_invalid_utf8_is_a_parse_error_naming_the_file(tmp_path):
    locs = _write(tmp_path / "locs.csv", "id,x1,x2\ns1,0,0\ns2,1,0\n")
    bad = tmp_path / "obs.csv"
    bad.write_bytes(b"t,id,value\n1,s1,1\n1,s\xff2,2\n")
    for load in (lambda path: load_frame(locs, path), load_observation_table,
                 load_locations):
        with pytest.raises(ParseError, match=r"obs\.csv: not UTF-8 text"):
            load(bad)
