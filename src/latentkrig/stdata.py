"""Spatio-temporal panel data model and CSV ingestion.

A panel holds observations y_t(s_i) for p irregular planar (or spherical)
locations at n common time points. Time points are ranked: the index is
the rank of the distinct timestamps, so regular spacing is assumed but
never checked against wall-clock gaps. Missing cells are represented as
NaN in the value matrix plus a boolean mask; no sentinel numbers.

CSV formats (headers mandatory, exact):

* locations: ``id,x1,x2`` with string ids and numeric coordinates. For
  the great-circle metric x1 is longitude and x2 latitude, in degrees.
* observations, long form: ``t,id,value``. Timestamps are either all
  integers or all ISO-8601 dates. An empty value field, or an absent
  (t, id) row, marks the cell missing.
* covariates, long form: ``t,id,z1,...,zm``. When supplied the file must
  cover every (t, id) cell with numeric entries.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DuplicateCell,
    InsufficientOverlap,
    InvalidCoordinate,
    ParseError,
    TooFewLocations,
    UnknownLocation,
)

EARTH_RADIUS_KM = 6371.0

_METRICS = ("euclidean", "great_circle")


@dataclass
class LocationSet:
    """Immutable set of p >= 2 distinct sampling sites.

    coords is a (p, 2) float array. distance_metric selects planar
    euclidean distance or great-circle distance on a sphere of the given
    radius (kilometres by default).
    """

    ids: tuple[str, ...]
    coords: np.ndarray
    distance_metric: str = "euclidean"
    radius: float = EARTH_RADIUS_KM
    _column: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ids = tuple(str(i) for i in self.ids)
        coords = np.array(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise InvalidCoordinate("coords must be a (p, 2) array")
        if len(self.ids) != coords.shape[0]:
            raise InvalidCoordinate("ids and coords disagree on p")
        if len(self.ids) < 2:
            raise TooFewLocations("need at least 2 locations")
        if len(set(self.ids)) != len(self.ids):
            raise DuplicateCell("location ids must be unique")
        if not np.all(np.isfinite(coords)):
            raise InvalidCoordinate("coordinates must be finite")
        if self.distance_metric not in _METRICS:
            raise ValueError(f"unknown metric {self.distance_metric!r}")
        if self.distance_metric == "great_circle":
            if np.any(np.abs(coords[:, 1]) > 90.0):
                raise InvalidCoordinate("latitude outside [-90, 90]")
            if not self.radius > 0:
                raise InvalidCoordinate("radius must be positive")
        coords.setflags(write=False)
        self.coords = coords
        self._column = {loc: k for k, loc in enumerate(self.ids)}

    @property
    def p(self) -> int:
        return len(self.ids)

    def index_of(self, location_id: str) -> int:
        try:
            return self._column[location_id]
        except KeyError:
            raise UnknownLocation(f"unknown location id {location_id!r}") from None

    def subset(self, indices) -> "LocationSet":
        idx = list(indices)
        return LocationSet(
            ids=tuple(self.ids[i] for i in idx),
            coords=self.coords[idx],
            distance_metric=self.distance_metric,
            radius=self.radius,
        )


def _haversine_matrix(a: np.ndarray, b: np.ndarray, radius: float) -> np.ndarray:
    # a: (r, 2), b: (c, 2) in degrees, columns (lon, lat)
    lon1 = np.radians(a[:, 0])[:, None]
    lat1 = np.radians(a[:, 1])[:, None]
    lon2 = np.radians(b[:, 0])[None, :]
    lat2 = np.radians(b[:, 1])[None, :]
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    h = s_lat**2 + np.cos(lat1) * np.cos(lat2) * s_lon**2
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * radius * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def distance_matrix(coords_a: np.ndarray, coords_b: np.ndarray,
                    metric: str = "euclidean",
                    radius: float = EARTH_RADIUS_KM) -> np.ndarray:
    """Distances between two coordinate arrays under the chosen metric."""
    a = np.asarray(coords_a, dtype=np.float64)
    b = np.asarray(coords_b, dtype=np.float64)
    if metric == "euclidean":
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt(np.sum(diff * diff, axis=2))
    if metric == "great_circle":
        if np.any(np.abs(a[:, 1]) > 90.0) or np.any(np.abs(b[:, 1]) > 90.0):
            raise InvalidCoordinate("latitude outside [-90, 90]")
        return _haversine_matrix(a, b, radius)
    raise ValueError(f"unknown metric {metric!r}")


def pairwise_distances(locations: LocationSet) -> np.ndarray:
    """Symmetric (p, p) distance matrix with zero diagonal."""
    d = distance_matrix(locations.coords, locations.coords,
                        locations.distance_metric, locations.radius)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass
class Partition:
    """Disjoint split of location indices {0..p-1} into two nonempty sets."""

    set1: tuple[int, ...]
    set2: tuple[int, ...]

    def __post_init__(self) -> None:
        s1 = tuple(int(i) for i in self.set1)
        s2 = tuple(int(i) for i in self.set2)
        if not s1 or not s2:
            raise TooFewLocations("both partition sets must be nonempty")
        joint = s1 + s2
        if len(set(joint)) != len(joint):
            raise ValueError("partition sets overlap or repeat indices")
        if set(joint) != set(range(len(joint))):
            raise ValueError("partition must cover exactly 0..p-1")
        self.set1, self.set2 = s1, s2

    @property
    def p(self) -> int:
        return len(self.set1) + len(self.set2)


def random_partition(p: int, rng_seed: int) -> Partition:
    """Uniform random split with |set1| = floor(p/2), indices sorted."""
    if p < 4:
        raise TooFewLocations("random_partition needs p >= 4")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(p)
    half = p // 2
    return Partition(set1=tuple(sorted(int(i) for i in perm[:half])),
                     set2=tuple(sorted(int(i) for i in perm[half:])))


@dataclass
class SpatioTemporalFrame:
    """Panel of n time points over a LocationSet.

    obs is (n, p) float64 with NaN at masked cells; missing is the matching
    boolean mask. covariates, if present, is (n, p, m) and fully observed.
    Instances are treated as immutable after construction; operations that
    change data return new frames. filled_cells records imputation
    provenance as (time_index, location_id) pairs and is None for frames
    that were never imputed.
    """

    locations: LocationSet
    obs: np.ndarray
    covariates: np.ndarray | None = None
    missing: np.ndarray | None = None
    filled_cells: tuple[tuple[int, str], ...] | None = None

    def __post_init__(self) -> None:
        obs = np.array(self.obs, dtype=np.float64)
        if obs.ndim != 2:
            raise ParseError("obs must be a 2-d array")
        n, p = obs.shape
        if p != self.locations.p:
            raise ParseError("obs width disagrees with location count")
        if n < 2:
            raise ParseError("need at least 2 time points")
        nan_mask = np.isnan(obs)
        if self.missing is None:
            miss = nan_mask
        else:
            miss = np.array(self.missing, dtype=bool)
            if miss.shape != obs.shape:
                raise ParseError("mask shape disagrees with obs")
            if not np.array_equal(miss, nan_mask):
                raise ParseError("mask and NaN pattern disagree")
        if np.any(np.isinf(obs)):
            raise ParseError("observations must be finite or missing")
        observed = ~miss
        row_need = max(2, math.ceil(p / 2))
        col_need = max(2, math.ceil(n / 2))
        if np.any(observed.sum(axis=1) < row_need):
            raise InsufficientOverlap(
                f"each time point needs >= {row_need} observed locations")
        if np.any(observed.sum(axis=0) < col_need):
            raise InsufficientOverlap(
                f"each location needs >= {col_need} observed time points")
        if self.covariates is not None:
            z = np.array(self.covariates, dtype=np.float64)
            if z.ndim != 3 or z.shape[:2] != (n, p):
                raise ParseError("covariates must be (n, p, m)")
            if not np.all(np.isfinite(z)):
                raise ParseError("covariates must be fully observed")
            z.setflags(write=False)
            self.covariates = z
        obs.setflags(write=False)
        miss.setflags(write=False)
        self.obs = obs
        self.missing = miss

    @property
    def n(self) -> int:
        return self.obs.shape[0]

    @property
    def p(self) -> int:
        return self.obs.shape[1]

    @property
    def m(self) -> int:
        return 0 if self.covariates is None else self.covariates.shape[2]

    @property
    def is_complete(self) -> bool:
        return not bool(self.missing.any())

    def subframe(self, indices) -> "SpatioTemporalFrame":
        """New frame restricted to the given location indices, order kept."""
        idx = list(indices)
        return SpatioTemporalFrame(
            locations=self.locations.subset(idx),
            obs=self.obs[:, idx],
            covariates=None if self.covariates is None else self.covariates[:, idx, :],
        )


# ---- CSV ingestion ----

def _read_rows(path: Path, expected_header: list[str] | None) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if expected_header is not None and header != expected_header:
        raise ParseError(f"{path}: expected header {','.join(expected_header)}")
    return header, rows[1:]


def _parse_float(token: str, path: Path, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{path}:{line}: non-numeric field {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{line}: non-finite value {token!r}")
    return value


def _parse_timestamp(token: str, path: Path, line: int):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return datetime.date.fromisoformat(token)
    except ValueError:
        raise ParseError(
            f"{path}:{line}: timestamp {token!r} is neither an integer "
            "nor an ISO-8601 date") from None


def _memo_stamp(memo: dict, token: str, path: Path, line: int):
    """Parse each distinct raw token once; panels repeat a stamp per site."""
    if token not in memo:
        memo[token] = _parse_timestamp(token, path, line)
    return memo[token]


def load_locations(path, distance_metric: str = "euclidean",
                   radius: float = EARTH_RADIUS_KM) -> LocationSet:
    path = Path(path)
    _, rows = _read_rows(path, ["id", "x1", "x2"])
    ids: list[str] = []
    coords: list[list[float]] = []
    for k, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ParseError(f"{path}:{k}: expected 3 fields")
        ids.append(row[0].strip())
        coords.append([_parse_float(row[1], path, k), _parse_float(row[2], path, k)])
    if len(set(ids)) != len(ids):
        raise DuplicateCell(f"{path}: duplicate location id")
    return LocationSet(ids=tuple(ids), coords=np.array(coords),
                       distance_metric=distance_metric, radius=radius)


def _rank_timestamps(stamps: set, path: Path) -> dict:
    kinds = {type(s) for s in stamps}
    if len(kinds) > 1:
        raise ParseError(f"{path}: mixed integer and date timestamps")
    ordered = sorted(stamps)
    return {s: k for k, s in enumerate(ordered)}


def _read_long_form(path: Path, column_of: Callable[[str], int],
                    min_width: int) -> tuple[dict, np.ndarray]:
    """Parse a ``t,id,value`` file into timestamp ranks and an n x width
    array, NaN where a cell is empty or absent; column_of maps a site id
    to its column and raises for an unknown id."""
    _, rows = _read_rows(path, ["t", "id", "value"])
    cells: dict[tuple, float] = {}
    stamp_of: dict[str, object] = {}
    for k, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ParseError(f"{path}:{k}: expected 3 fields")
        t = _memo_stamp(stamp_of, row[0], path, k)
        loc = row[1].strip()
        key = (t, column_of(loc))
        if key in cells:
            raise DuplicateCell(f"{path}:{k}: duplicate cell (t={row[0]}, id={loc})")
        raw = row[2].strip()
        cells[key] = math.nan if raw == "" else _parse_float(raw, path, k)
    if not cells:
        raise ParseError(f"{path}: no observation rows")
    rank = _rank_timestamps({t for t, _ in cells}, path)
    width = max(min_width, 1 + max(col for _, col in cells))
    obs = np.full((len(rank), width), np.nan)
    for (t, col), value in cells.items():
        obs[rank[t], col] = value
    return rank, obs


def load_frame(locations_path, observations_path, covariates_path=None,
               distance_metric: str = "euclidean",
               radius: float = EARTH_RADIUS_KM) -> SpatioTemporalFrame:
    """Load a panel from CSV files.

    Cells never mentioned in the observation file, and rows with an empty
    value field, are missing. Duplicate (t, id) rows raise DuplicateCell
    even when one of them is empty.
    """
    locs = load_locations(locations_path, distance_metric, radius)
    rank, obs = _read_long_form(Path(observations_path), locs.index_of, locs.p)
    n = len(rank)

    covariates = None
    if covariates_path is not None:
        cov_path = Path(covariates_path)
        header, zrows = _read_rows(cov_path, None)
        if len(header) < 3 or header[:2] != ["t", "id"]:
            raise ParseError(f"{cov_path}: expected header t,id,z1,...")
        m = len(header) - 2
        covariates = np.full((n, locs.p, m), np.nan)
        stamp_of: dict[str, object] = {}
        for k, row in enumerate(zrows, start=2):
            if len(row) != m + 2:
                raise ParseError(f"{cov_path}:{k}: expected {m + 2} fields")
            t = _memo_stamp(stamp_of, row[0], cov_path, k)
            if t not in rank:
                raise ParseError(f"{cov_path}:{k}: timestamp {row[0]!r} not in panel")
            col = locs.index_of(row[1].strip())
            if not np.isnan(covariates[rank[t], col, 0]):  # cells parse finite
                raise DuplicateCell(f"{cov_path}:{k}: duplicate covariate cell")
            covariates[rank[t], col, :] = [
                _parse_float(z, cov_path, k) for z in row[2:]]
        if np.any(np.isnan(covariates)):
            raise ParseError(f"{cov_path}: covariates must cover every (t, id) cell")

    return SpatioTemporalFrame(locations=locs, obs=obs, covariates=covariates)


def load_observation_table(path) -> tuple[list, tuple[str, ...], np.ndarray]:
    """Observation CSV alone, without a location table.

    Returns (timestamps in ascending order, ids in first-seen order,
    n x k value array with NaN for missing cells). For operations that
    need no coordinates, e.g. seasonal demeaning.
    """
    id_index: dict[str, int] = {}
    rank, obs = _read_long_form(
        Path(path), lambda loc: id_index.setdefault(loc, len(id_index)), 0)
    return sorted(rank), tuple(id_index), obs


# ---- location serialization (shared by the model document formats) ----

def locations_to_doc(locs: LocationSet) -> dict:
    return {
        "ids": list(locs.ids),
        "coords": [[float(c) for c in row] for row in locs.coords],
        "distance_metric": locs.distance_metric,
        "radius": float(locs.radius),
    }


def locations_from_doc(doc: dict) -> LocationSet:
    return LocationSet(ids=tuple(doc["ids"]),
                       coords=np.array(doc["coords"], dtype=np.float64),
                       distance_metric=doc["distance_metric"],
                       radius=float(doc["radius"]))


# ---- CSV output ----

def _fmt(value: float) -> str:
    # repr of a float round-trips exactly, keeping save/load bit-stable
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_frame(frame: SpatioTemporalFrame, out_dir) -> dict[str, Path]:
    """Write a panel in canonical CSV form; returns the file paths.

    Times are written as the dense integer index 1..n. Missing cells are
    omitted rather than written empty, so save -> load round-trips both
    values (bit-exact) and the mask.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"locations": out / "locations.csv",
             "observations": out / "observations.csv"}
    _write_csv(paths["locations"], ["id", "x1", "x2"],
               ([loc_id] + [_fmt(c) for c in frame.locations.coords[i]]
                for i, loc_id in enumerate(frame.locations.ids)))
    _write_csv(paths["observations"], ["t", "id", "value"],
               ([t + 1, loc_id, _fmt(frame.obs[t, i])] for t in range(frame.n)
                for i, loc_id in enumerate(frame.locations.ids)
                if not frame.missing[t, i]))
    if frame.covariates is not None:
        paths["covariates"] = out / "covariates.csv"
        z = frame.covariates
        _write_csv(paths["covariates"],
                   ["t", "id"] + [f"z{j + 1}" for j in range(frame.m)],
                   ([t + 1, loc_id] + [_fmt(v) for v in z[t, i]]
                    for t in range(frame.n)
                    for i, loc_id in enumerate(frame.locations.ids)))
    return paths
