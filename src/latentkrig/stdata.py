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

One reader serves all three: it reads a file once, a block of rows at a
time, and raises the error of the first bad row as ``path:line``.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import datetime
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ._util import Memo
from .errors import (
    DuplicateCell,
    InsufficientOverlap,
    InvalidCoordinate,
    LatentKrigError,
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
    radius (kilometres by default). The set keeps no matrix derived from
    its sites: a Laplacian is built from its own sites' coordinates.
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
    """(r, c) distances between an (r, 2) and a (c, 2) coordinate array
    under the chosen metric."""
    a = np.asarray(coords_a, dtype=np.float64)
    b = np.asarray(coords_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 2 or b.shape[1] != 2:
        raise InvalidCoordinate("coordinates must be (r, 2) arrays")
    if metric == "euclidean":
        # two (r, c) arrays in place of (r, c, 2) ones; bitwise the same
        # sum. A distance too large for a float is inf, without a warning.
        with np.errstate(over="ignore"):
            d2 = a[:, None, 0] - b[None, :, 0]
            dy = a[:, None, 1] - b[None, :, 1]
            d2 *= d2
            dy *= dy
            d2 += dy
        return np.sqrt(d2, out=d2)
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

    obs is (n, p) float64 with NaN at masked cells; missing is its
    read-only boolean mask, np.isnan(obs), derived here and never passed in.
    covariates, if present, is (n, p, m) and fully observed.
    Instances are treated as immutable after construction; operations that
    change data return new frames. filled_cells records imputation
    provenance as (time_index, location_id) pairs and is None for frames
    that were never imputed. Panel statistics derived from the frame
    (the centered panel and its lag covariances) are kept in a private
    memo and shared by every fit of the frame; a subframe is a new frame
    with its own. obs and covariates are read-only: an array that nothing
    can write to is kept as given, and any other is copied.
    """

    locations: LocationSet
    obs: np.ndarray
    covariates: np.ndarray | None = None
    missing: np.ndarray = field(init=False)
    filled_cells: tuple[tuple[int, str], ...] | None = None
    _memo: Memo = field(init=False, repr=False, compare=False, default_factory=Memo)

    def __post_init__(self) -> None:
        obs = _kept(self.obs)
        if obs.ndim != 2:
            raise ParseError("obs must be a 2-d array")
        n, p = obs.shape
        if p != self.locations.p:
            raise ParseError("obs width disagrees with location count")
        if n < 2:
            raise ParseError("need at least 2 time points")
        miss = np.isnan(obs)
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
            z = _kept(self.covariates)
            if z.ndim != 3 or z.shape[:2] != (n, p):
                raise ParseError("covariates must be (n, p, m)")
            if not np.all(np.isfinite(z)):
                raise ParseError("covariates must be fully observed")
            self.covariates = z
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
            obs=_sealed(np.take(self.obs, idx, axis=1)),
            covariates=None if self.covariates is None else
            _sealed(np.take(self.covariates, idx, axis=1)),
        )


def _kept(a) -> np.ndarray:
    """A frame's read-only float64 copy of ``a``, or ``a`` itself when it
    is C-contiguous float64 and nothing can write to it: it and the array
    it views are read-only. A caller who later writes to an array they
    passed in therefore never changes a frame."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.c_contiguous:
        owner = a
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return a
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _sealed(a: np.ndarray) -> np.ndarray:
    """``a`` and the array it views marked read-only: for an array built
    here and shared with nothing, which a frame then keeps uncopied."""
    for arr in (a.base, a):
        if arr is not None:
            arr.setflags(write=False)
    return a


# ---- CSV ingestion ----

# Rows the CSV reader tokenizes and checks at a time. Its memory is one
# block's tokens plus the panel's cells, whose values are written as each
# block passes its checks.
_CSV_BLOCK = 8192


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; a file that is not UTF-8 is named as such."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _parse_float(token: str, path: Path, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{path}:{line}: non-numeric field {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{line}: non-finite value {token!r}")
    return value


def _float_or_nan(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        return math.nan


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


def _rank_timestamps(stamps, path: Path) -> dict:
    if len({type(s) for s in stamps}) > 1:
        raise ParseError(f"{path}: mixed integer and date timestamps")
    return {s: k for k, s in enumerate(sorted(stamps))}


def _plain_columns(raw: bytes, w: int | None) -> list[list[str]] | None:
    """Token columns of whole lines of UTF-8 bytes; None unless every line
    holds w fields (the first line's count when w is None) and csv.reader
    would split alike: no quote, lone CR or over-long line. A CR before a
    newline is dropped, as csv.reader drops it."""
    if not raw.endswith(b"\n"):
        raw += b"\n"
    b = np.frombuffer(raw, np.uint8)
    sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    kinds, cr = b[sep], np.flatnonzero(b == ord("\r"))
    w = w or int(np.argmax(kinds == ord("\n"))) + 1
    if (b'"' in raw or kinds.size % w
            or np.any(kinds.reshape(-1, w) != tuple(b"," * (w - 1) + b"\n"))
            or np.any(b[cr + 1] != ord("\n"))
            or np.diff(sep[w - 1::w], prepend=-1).max() > csv.field_size_limit()):
        return None
    raw = raw.replace(b"\r", b"") if cr.size else raw  # every CR ends a line; csv.reader drops it
    tokens = raw.decode("utf-8").replace("\n", ",").split(",")[:-1]
    return [tokens[j::w] for j in range(w)]


def _csv_blocks(fh, path: Path) -> Iterator[list]:
    """The rows of a CSV file open as bytes, at most _CSV_BLOCK at a time,
    each block as its token columns; the first block starts with the
    header. Plain lines are split on commas. From the first block that
    csv.reader would split otherwise on, one csv.reader tokenizes the rest
    of the file. A row of another width than the header's ends the block
    before it; the next request reads the rest of the file, so a csv
    error further down comes first, and then names the row's line. A
    UTF-8 byte-order mark at the start of the file is skipped."""
    if fh.peek(3).startswith(codecs.BOM_UTF8):  # as Excel's "CSV UTF-8" writes
        fh.read(3)
    w, records = None, 0
    while lines := list(itertools.islice(fh, _CSV_BLOCK)):
        if (columns := _plain_columns(b"".join(lines), w)) is None:
            break
        w, records = len(columns), records + len(lines)
        yield columns
    else:
        return
    # the refused block ends a line, so its text lines run on into fh's
    with io.TextIOWrapper(fh, encoding="utf-8", newline="") as rest:
        rows = csv.reader(itertools.chain(
            io.StringIO(b"".join(lines).decode("utf-8"), newline=""), rest))
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            w = len(block[0]) if w is None else w
            k = next((k for k, row in enumerate(block) if len(row) != w), len(block))
            if k:
                yield list(zip(*block[:k]))
            if k < len(block):
                for _ in rows:
                    pass
                raise ParseError(f"{path}:{records + k + 1}: expected {w} fields")
            records += k


def _read_csv(path: Path, read):
    """read(blocks) of the CSV file at path, given its _csv_blocks; csv
    and decoding errors are ParseErrors naming the path. Such an error
    anywhere in the file comes before any error read raises: the blocks
    left are read first."""
    try:
        with open(path, "rb") as fh:
            blocks = _csv_blocks(fh, path)
            try:
                return read(blocks)
            except LatentKrigError:
                with contextlib.suppress(LatentKrigError):
                    for _ in blocks:
                        pass
                raise
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        _read_text(path)  # a file that is not UTF-8 is named as such first
        raise ParseError(f"{path}: {exc}") from None


def _data_blocks(path: Path, blocks, names: str) -> Iterator[list]:
    """blocks without the header, whose stripped fields must be names;
    ``t,id,z1,...`` stands for t, id and one or more further fields."""
    first = next(blocks, None)
    if first is None:
        raise ParseError(f"{path}: empty file")
    header = [h[0].strip() for h in first]
    if header != names.split(",") and not (
            names.endswith("...") and len(header) > 2 and header[:2] == ["t", "id"]):
        raise ParseError(f"{path}: expected header {names}")
    return itertools.chain([[c[1:] for c in first]], blocks)


def load_locations(path, distance_metric: str = "euclidean",
                   radius: float = EARTH_RADIUS_KM) -> LocationSet:
    path = Path(path)

    def read(blocks):
        ids, coords = [], []
        rows = (row for block in _data_blocks(path, blocks, "id,x1,x2") for row in zip(*block))
        for k, (loc, x1, x2) in enumerate(rows, start=2):
            ids.append(loc.strip())
            coords.append([_parse_float(x1, path, k), _parse_float(x2, path, k)])
        if not ids:
            raise ParseError(f"{path}: no location rows")
        if len(set(ids)) != len(ids):
            raise DuplicateCell(f"{path}: duplicate location id")
        return ids, coords

    ids, coords = _read_csv(path, read)
    try:
        return LocationSet(ids=tuple(ids), coords=np.array(coords),
                           distance_metric=distance_metric, radius=radius)
    except LatentKrigError as exc:  # the set's own checks, named like the reader's
        raise type(exc)(f"{path}: {exc}") from None


def _block_panel(path, blocks, column_of, min_width, panel_rank):
    """Ranks and n x width x m panel (n x width without panel_rank) of a
    long-form file's token blocks. New stamp and id tokens are parsed or
    mapped once, in first-seen order; a row marks its (stamp, column) cell
    in a table, and once its block passes its checks its m floats go to
    that cell of a value table that grows with it. The first bad row
    raises, rules checked in the order stamp (one of panel_rank's if
    given), id, duplicate cell, value; then the whole file's rules. The
    value table's rows are gathered into rank order at the end."""
    cov = panel_rank is not None
    stamps, t_code, col_of, line = {}, {}, {}, 2
    seen, table = np.zeros((0, min_width), bool), None
    header = "t,id,z1,..." if cov else "t,id,value"
    for t_tok, id_tok, *v_cols in _data_blocks(path, blocks, header):
        n = len(t_tok)
        if table is None:
            table = np.empty((0, min_width, len(v_cols)))
        bad = [n] * 4  # the first row that breaks each rule, in rule order
        for tok in dict.fromkeys(t_tok):
            if tok not in t_code:
                try:
                    stamp = _parse_timestamp(tok, path, line)
                except ParseError:
                    stamp = None
                if stamp is None or cov and stamp not in panel_rank:
                    bad[0] = t_tok.index(tok)
                    break
                t_code[tok] = stamps.setdefault(stamp, len(stamps))
        for raw in dict.fromkeys(id_tok):
            if raw not in col_of:
                try:
                    col_of[raw] = column_of(raw.strip())
                except LatentKrigError:
                    bad[1] = id_tok.index(raw)
                    break
        coded = min(bad[:2])  # the rows before it have both codes
        t = np.fromiter(map(t_code.__getitem__, t_tok[:coded]), np.intp, coded)
        col = np.fromiter(map(col_of.__getitem__, id_tok[:coded]), np.intp, coded)
        if coded:
            pad = [(0, max(need, 2 * have) - have if need > have else 0)  # grow by doubling
                   for need, have in zip((len(stamps), int(col.max()) + 1), seen.shape)]
            if any(g for _, g in pad):
                seen = np.pad(seen, pad)
                table = np.pad(table, pad + [(0, 0)], constant_values=np.nan)
            cell, flat = t * seen.shape[1] + col, seen.reshape(-1)  # a view of seen
            again, ordered = flat[cell], np.sort(cell)
            flat[cell] = True
            if again.any() or np.any(ordered[1:] == ordered[:-1]):
                later = np.ones(coded, bool)  # a cell's repeats in this block
                later[np.unique(cell, return_index=True)[1]] = False
                bad[2] = int(np.argmax(again | later))
        vals = np.empty((n, len(v_cols)))
        for j, v_tok in enumerate(v_cols):
            try:
                vals[:, j] = np.fromiter(map(float, v_tok), np.float64, n)
            except ValueError:  # empty cells, or a non-numeric one
                vals[:, j] = list(map(_float_or_nan, v_tok))
        bad[3] = next((int(k) for k, j in np.argwhere(~np.isfinite(vals))  # empty, nan or inf
                       if cov or v_cols[j][k].strip()), n)
        if (row := min(bad)) < n:  # raised by the first rule it breaks
            at, tok, loc = line + row, t_tok[row], id_tok[row].strip()
            if bad[0] == row:
                _parse_timestamp(tok, path, at)  # raises, or the stamp is not the panel's
                raise ParseError(f"{path}:{at}: timestamp {tok!r} not in panel")
            if bad[1] == row:
                column_of(loc)
            if bad[2] == row:
                raise DuplicateCell(f"{path}:{at}: duplicate covariate cell" if cov else
                                    f"{path}:{at}: duplicate cell (t={tok}, id={loc})")
            for v in (v_tok[row] for v_tok in v_cols):
                if cov or v.strip():
                    _parse_float(v if cov else v.strip(), path, at)
        if coded:
            table.reshape(-1, table.shape[2])[cell] = vals  # a view of table
        line += n
    rank = _rank_timestamps(stamps, path)
    if cov and (rank != panel_rank or line - 2 < len(rank) * min_width):
        raise ParseError(f"{path}: covariates must cover every (t, id) cell")
    if line == 2:
        raise ParseError(f"{path}: no observation rows")
    width = max(min_width, 1 + max(col_of.values()))
    order = np.fromiter(map(stamps.__getitem__, rank), np.intp, len(rank))
    panel = np.take(table[:, :width], order, axis=0)
    return rank, panel if cov else panel[:, :, 0]


def _read_long_form(path: Path, column_of: Callable[[str], int], min_width: int,
                    rank: dict | None = None) -> tuple[dict, np.ndarray]:
    """Timestamp ranks and n x width array (NaN where a cell is empty or
    absent) of a ``t,id,value`` file; column_of maps a site id to its
    column or raises. Given the panel's ranks instead, the n x width x m
    array of a ``t,id,z1,...,zm`` covariate file, which must cover every
    cell. The file is read once, _CSV_BLOCK rows at a time, and its first
    bad row raises with its ``path:line``."""
    return _read_csv(path, lambda blocks: _block_panel(path, blocks, column_of, min_width, rank))


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
    covariates = None if covariates_path is None else _read_long_form(
        Path(covariates_path), locs.index_of, locs.p, rank)[1]
    return SpatioTemporalFrame(locations=locs, obs=_sealed(obs), covariates=
                               None if covariates is None else _sealed(covariates))


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
        "coords": locs.coords.tolist(),
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


def _csv_field(value: str) -> str:
    """value as csv.writer writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]


def _write_long_form(path: Path, header: list[str], stamps, ids,
                     values: np.ndarray) -> None:
    """csv.writer's bytes for the rows (stamp, id, *values[t, i]) in time
    order, one time step at a time; values is (len(stamps), len(ids), m)
    and a cell whose first value is NaN is omitted."""
    keep, m = ~np.isnan(values[:, :, 0]), values.shape[2]
    mids = [f",{_csv_field(loc_id)}," for loc_id in ids]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, stamp in enumerate(stamps):  # ints and dates need no quoting
            cells = map(",".join, zip(*[map(repr, values[t, keep[t]].ravel().tolist())] * m))
            fh.write("".join(f"{stamp}{mid}{z}\r\n" for mid, z in
                             zip(itertools.compress(mids, keep[t]), cells)))


def save_frame(frame: SpatioTemporalFrame, out_dir) -> dict[str, Path]:
    """Write a panel in canonical CSV form; returns the file paths.

    Times are written as the dense integer index 1..n. Missing cells are
    omitted rather than written empty, so save -> load round-trips both
    values (bit-exact, by repr) and the mask. The bytes are csv.writer's.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"locations": out / "locations.csv",
             "observations": out / "observations.csv"}
    _write_csv(paths["locations"], ["id", "x1", "x2"],
               ([loc_id] + [_fmt(c) for c in frame.locations.coords[i]]
                for i, loc_id in enumerate(frame.locations.ids)))
    stamps = range(1, frame.n + 1)
    _write_long_form(paths["observations"], ["t", "id", "value"], stamps,
                     frame.locations.ids, frame.obs[:, :, None])
    if frame.covariates is not None:
        paths["covariates"] = out / "covariates.csv"
        _write_long_form(paths["covariates"],
                         ["t", "id"] + [f"z{j + 1}" for j in range(frame.m)],
                         stamps, frame.locations.ids, frame.covariates)
    return paths
