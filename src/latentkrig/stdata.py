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
    radius (kilometres by default). Values derived from the sites, such
    as the Laplacian weights, are built once per set in a private memo;
    a subset is a new set with its own.
    """

    ids: tuple[str, ...]
    coords: np.ndarray
    distance_metric: str = "euclidean"
    radius: float = EARTH_RADIUS_KM
    _column: dict[str, int] = field(init=False, repr=False, compare=False)
    _memo: Memo = field(init=False, repr=False, compare=False, default_factory=Memo)

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
        # two (r, c) arrays in place of (r, c, 2) ones; bitwise the same sum
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

    obs is (n, p) float64 with NaN at masked cells; missing is the matching
    boolean mask. covariates, if present, is (n, p, m) and fully observed.
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
    missing: np.ndarray | None = None
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

# Rows the long-form reader tokenizes and checks at a time. Its memory is
# one block's tokens plus two integer codes and the floats of each row.
_CSV_BLOCK = 8192


def _read_text(path: Path) -> str:
    """The file's UTF-8 text; errors name the path."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _open_bytes(path: Path):
    """The file opened for reading as bytes; errors name the path."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _text(fh) -> io.TextIOWrapper:
    """fh from where it stands as UTF-8 text, lines as csv.reader wants."""
    return io.TextIOWrapper(fh, encoding="utf-8", newline="")


def _read_rows(path: Path, expected_header: list[str] | None) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
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
    if len({type(s) for s in stamps}) > 1:
        raise ParseError(f"{path}: mixed integer and date timestamps")
    return {s: k for k, s in enumerate(sorted(stamps))}


def _plain_columns(raw: bytes, w: int | None) -> list[list[str]] | None:
    """Token columns of whole lines of UTF-8 bytes; None unless every line
    holds w fields (the first line's count when w is None) and csv.reader
    would split alike: no quote, lone CR or over-long line. A CR before a
    newline stays on the last token, where float() and strip() drop it."""
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
    tokens = raw.decode("utf-8").replace("\n", ",").split(",")[:-1]
    return [tokens[j::w] for j in range(w)]


def _header_ok(header: list[str], cov: bool) -> bool:
    """Whether stripped header fields are ``t,id,value``, or with cov
    ``t,id,z1,...,zm`` for some m >= 1."""
    if cov:
        return len(header) > 2 and header[:2] == ["t", "id"]
    return header == ["t", "id", "value"]


def _csv_blocks(fh) -> Iterator[list | None]:
    """The rows of a CSV file open as bytes, at most _CSV_BLOCK at a time,
    each block as its token columns; the first block starts with the
    header. Plain lines are split on commas. From the first block that
    csv.reader would split otherwise on, one csv.reader tokenizes the rest
    of the file, and a block holding a row of another width than the
    header's is None."""
    w = None
    while lines := list(itertools.islice(fh, _CSV_BLOCK)):
        if (columns := _plain_columns(b"".join(lines), w)) is None:
            break
        w = len(columns)
        yield columns
    else:
        return
    # the refused block ends a line, so its text lines run on into fh's
    with _text(fh) as rest:
        rows = csv.reader(itertools.chain(
            io.StringIO(b"".join(lines).decode("utf-8"), newline=""), rest))
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            w = len(block[0]) if w is None else w
            yield list(zip(*block)) if all(len(row) == w for row in block) else None


def _block_panel(path, blocks, column_of, min_width, stamp_of, panel_rank):
    """Ranks and n x width x m panel from a long-form file's token blocks;
    None when a block, or the file as a whole, breaks a rule the row loop
    names. Each distinct stamp token is parsed once into stamp_of and
    each distinct id token mapped once, in first-seen order; a row keeps
    two integer codes and its m floats. Given panel_rank, the file's
    ranks must equal it and its rows must cover every cell."""
    cov, first = panel_rank is not None, next(blocks, None)
    if not first or not _header_ok([h[0].strip() for h in first], cov):
        return None
    m = len(first) - 2
    t_code, col_of, parts = {}, {}, []
    for block in itertools.chain([[c[1:] for c in first]], blocks):
        if block is None:
            return None
        t_tok, id_tok, *v_cols = block
        n = len(t_tok)
        vals = np.empty((n, m))
        try:
            for tok in dict.fromkeys(t_tok):  # the row loop names a bad one's line
                if tok not in t_code:
                    stamp = _memo_stamp(stamp_of, tok, path, 0)
                    if cov and stamp not in panel_rank:
                        return None
                    t_code[tok] = len(t_code)
            for raw in dict.fromkeys(id_tok):
                if raw not in col_of:
                    col_of[raw] = column_of(raw.strip())
            for j, v_tok in enumerate(v_cols):
                try:
                    vals[:, j] = np.fromiter(map(float, v_tok), np.float64, n)
                except ValueError:  # empty cells, or a non-numeric one
                    vals[:, j] = [float(v) if v.strip() else math.nan for v in v_tok]
        except (LatentKrigError, ValueError):
            return None
        bad = np.argwhere(~np.isfinite(vals))  # empty, or nan or inf spelled out
        if bad.size and (cov or any(v_cols[j][k].strip() for k, j in bad)):
            return None
        if n:
            parts.append((np.fromiter(map(t_code.__getitem__, t_tok), np.intp, n),
                          np.fromiter(map(col_of.__getitem__, id_tok), np.intp, n), vals))
    try:
        rank = _rank_timestamps(set(stamp_of.values()), path)
    except ParseError:
        return None
    if not parts or (cov and rank != panel_rank):
        return None
    width = max(min_width, 1 + max(int(col.max()) for _, col, _ in parts))
    t_rank = np.array([rank[stamp_of[tok]] for tok in t_code], np.intp)
    panel = np.full((len(rank), width, m), np.nan)
    hit = np.zeros(len(rank) * width, bool)
    for t, col, vals in parts:
        cell = t_rank[t] * width + col
        hit[cell] = True
        panel.reshape(-1, m)[cell] = vals
    rows = sum(len(t) for t, _, _ in parts)
    if np.count_nonzero(hit) < rows or (cov and rows < hit.size):  # a duplicate, or a gap
        return None
    return rank, panel


def _raise_row_error(path, column_of, stamp_of, panel_rank):
    """Raise the error of a long-form file the block reader refused: the
    first bad row as csv.reader splits the file, else what only the whole
    file shows. The file is read to its end first, so a csv error further
    down still comes before any row's."""
    cov, cells, error = panel_rank is not None, set(), None
    with _text(_open_bytes(path)) as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            error = ParseError(f"{path}: empty file")
        elif not _header_ok([h.strip() for h in header], cov):
            error = ParseError(f"{path}: expected header t,id,{'z1,...' if cov else 'value'}")
        for k, row in enumerate(rows, start=2):
            if error is not None:
                continue
            try:
                if len(row) != len(header):
                    raise ParseError(f"{path}:{k}: expected {len(header)} fields")
                t = _memo_stamp(stamp_of, row[0], path, k)
                if cov and t not in panel_rank:
                    raise ParseError(f"{path}:{k}: timestamp {row[0]!r} not in panel")
                loc = row[1].strip()
                key = (t, column_of(loc))
                if key in cells:
                    raise DuplicateCell(f"{path}:{k}: duplicate covariate cell" if cov else
                                        f"{path}:{k}: duplicate cell (t={row[0]}, id={loc})")
                cells.add(key)
                for z in row[2:]:
                    if cov or z.strip():
                        _parse_float(z if cov else z.strip(), path, k)
            except LatentKrigError as exc:
                error = exc
    if error is None and cells and not cov:
        _rank_timestamps({t for t, _ in cells}, path)  # mixed kinds: all that is left
    raise error or ParseError(f"{path}: covariates must cover every (t, id) cell" if cov
                              else f"{path}: no observation rows")


def _read_long_form(path: Path, column_of: Callable[[str], int], min_width: int,
                    rank: dict | None = None) -> tuple[dict, np.ndarray]:
    """Timestamp ranks and n x width array (NaN where a cell is empty or
    absent) of a ``t,id,value`` file; column_of maps a site id to its
    column or raises. Given the panel's ranks instead, the n x width x m
    array of a ``t,id,z1,...,zm`` covariate file, which must cover every
    cell. The file is read _CSV_BLOCK rows at a time; when a block is
    refused, the file is read again row by row through csv.reader to name
    the first bad ``path:line``."""
    stamp_of: dict = {}
    try:
        with _open_bytes(path) as fh:
            read = _block_panel(path, _csv_blocks(fh), column_of, min_width, stamp_of, rank)
        if read is None:
            _raise_row_error(path, column_of, stamp_of, rank)
    except (csv.Error, UnicodeDecodeError):
        _read_text(path)  # a file that is not UTF-8 is named as such first
        raise
    ranks, values = read
    return ranks, values if rank is not None else values[:, :, 0]


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
