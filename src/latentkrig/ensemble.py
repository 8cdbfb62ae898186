"""Aggregation of latent-field estimates over random location partitions.

A single fit depends on an arbitrary split of the locations into two
halves. Averaging the latent field over J independent random splits
removes that arbitrariness and, by convexity of squared loss, the
aggregate never has larger mean squared deviation than the average
member (exactly, conditional on the data). For large p, divide and
conquer fits each block of q sites J times against q companions sampled
from its complement and keeps only the block's own estimates, so no
eigenanalysis ever exceeds 2q x 2q.

There is one model type: an EnsembleFit keeps its members, each a
FactorModelFit, and a single fit is an ensemble of one. One engine,
``_fit_members``, fits every member (a Partition of all the sites, or a
(sites, Partition) pair fitted on those sites' subframe), and one
in-order reducer, ``_mean_in_order``, averages member fields and
forecasts, handing back member 0's as it passes. Members of one frame
share its panel statistics: the centered panel, its lag covariances and
their partition-free Gram products are built once per frame, by
whichever member asks first, and every other member slices them. Each
side builds its Laplacian from its own sites' coordinates. A subframe
member builds its own statistics, so it is bitwise a fit of the subframe.

This module owns the model-document format. One writer appends the
locations block as the last key, and ``load_ensemble``, the one reader,
reads a fit document as an ensemble of one. Every field passes one
keyed reader of its JSON type and range, every numeric array one reader
of its shape and finiteness, and each names the key it rejects.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import _util
from .errors import BlockTooLarge, LatentKrigError, ParseError
from .factors import FactorModelFit, assemble_latent, fit_factors
from .stdata import (_METRICS, LocationSet, Partition, SpatioTemporalFrame,
                     random_partition)

DEFAULT_J = 100


@dataclass
class EnsembleFit:
    """Partition replicates of one panel and their mean latent field.

    members holds the J member fits (partition, loadings and d_hat), in
    member order, with no readout formed. xi_tilde, the mean of the
    member fields, is derived the first time it is read: each field is
    assembled from the member's frame inside ``_util.ordered_map`` and
    summed in member order, and no member keeps it. An ensemble loaded
    from an ensemble document, or built by divide_and_conquer_fit, has no
    members and carries a stored xi_tilde, as a loaded fit carries its
    readouts; one loaded from a fit document keeps that fit as its one
    member and carries its stored xi_hat.
    per_location_counts is derived: J at every site.
    """

    J: int
    member_seeds: tuple[int, ...]
    d_hats: tuple[int, ...]
    tau: float
    members: tuple[FactorModelFit, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        self.tau = float(self.tau)
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if self.members and len(self.members) != self.J:
            raise ValueError("an ensemble keeps all J members or none")

    @cached_property
    def xi_tilde(self) -> np.ndarray:
        return self._first_and_mean()[1]

    def _first_and_mean(self) -> tuple[np.ndarray, np.ndarray]:
        """Member 0's field and the mean field, each member's assembled once."""
        if not self.members:
            raise ValueError("an ensemble without members needs a stored xi_tilde")
        return _mean_in_order(_util.ordered_map(lambda m: assemble_latent(
            m._frame, m.partition, m.A1_hat, m.A2_hat), self.members))

    @property
    def per_location_counts(self) -> np.ndarray:
        """Members averaged at each site: J at every one."""
        return np.full(self.xi_tilde.shape[1], self.J, dtype=np.int64)


def _mean_in_order(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The first of arrays and their mean, summed in order as they arrive:
    the mean is bitwise np.mean of their stack, without holding it. No
    input is written."""
    arrays = iter(arrays)
    first = next(arrays)
    total, count = first.copy(), 1
    for a in arrays:
        total += a
        count += 1
    return first, total / count


def _fit_members(frame: SpatioTemporalFrame,
                 members: list[Partition | tuple], tau: float, k0: int = 0,
                 p_star: int | None = None,
                 d_override: int | None = None) -> Iterator[FactorModelFit]:
    """Fit one factor model per member, yielding in member order as the
    result is iterated. A member is a Partition of all the frame's
    sites, or a (sites, Partition) pair fitted on
    ``frame.subframe(sites)``, built on the worker. No fit forms its
    readouts until they are read.
    """

    def one(member) -> FactorModelFit:
        sub, part = ((frame, member) if isinstance(member, Partition)
                     else (frame.subframe(member[0]), member[1]))
        return fit_factors(sub, part, tau, k0=k0, p_star=p_star,
                           d_override=d_override)

    return _util.ordered_map(one, members)


def _check_members(J: int, tau: float) -> None:
    if J < 1:
        raise ValueError("J must be >= 1")
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and >= 0")


def aggregate_over_partitions(frame: SpatioTemporalFrame,
                              partitions: list[Partition], tau: float,
                              k0: int = 0, p_star: int | None = None,
                              d_override: int | None = None,
                              member_seeds: tuple[int, ...] = ()) -> EnsembleFit:
    """The ensemble of one fit per partition, kept in list order, so
    xi_tilde is the same for every LATENT_KRIG_THREADS. Used directly by
    the enumeration-based exactness checks."""
    if not partitions:
        raise ValueError("need at least one partition")
    members = tuple(_fit_members(frame, partitions, tau, k0=k0, p_star=p_star,
                                 d_override=d_override))
    return EnsembleFit(J=len(members), member_seeds=tuple(member_seeds),
                       d_hats=tuple(m.d_hat for m in members), tau=tau,
                       members=members)


def aggregate_fit(frame: SpatioTemporalFrame, J: int = DEFAULT_J,
                  tau: float = 0.0, k0: int = 0,
                  p_star: int | None = None, rng_seed: int = 0,
                  d_override: int | None = None) -> EnsembleFit:
    """The J random-partition fits of the full location set drawn from
    rng_seed, checked before any member is fitted.

    Member j fits the partition of the j-th seed derived from rng_seed,
    so member 0 is the single fit of that seed, and aggregate_fit(J=1)
    is that fit as an ensemble of one.
    """
    _check_members(J, tau)
    seeds = _util.member_seeds(rng_seed, J)
    return aggregate_over_partitions(
        frame, [random_partition(frame.p, s) for s in seeds], tau, k0=k0,
        p_star=p_star, d_override=d_override, member_seeds=tuple(seeds))


def assign_blocks(p: int, q: int, rng_seed: int) -> list[tuple[int, ...]]:
    """Split 0..p-1 into ceil(p/q) blocks of size <= q by a seeded shuffle."""
    if q < 2 or 2 * q > p:
        raise BlockTooLarge(f"block size q={q} needs 4 <= 2q <= p (p={p})")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(p)
    return [tuple(sorted(int(i) for i in chunk))
            for chunk in np.array_split(perm, -(-p // q))]


def divide_and_conquer_fit(frame: SpatioTemporalFrame, q: int,
                           J: int = DEFAULT_J, tau: float = 0.0,
                           rng_seed: int = 0, k0: int = 0,
                           p_star: int | None = None,
                           d_override: int | None = None) -> EnsembleFit:
    """Blockwise aggregation so eigenanalysis stays at 2q x 2q.

    Locations are shuffled into ceil(p/q) blocks. For each block and
    each of J rounds, q companion locations are sampled from the
    block's complement, a model is fitted on the combined subframe with
    the block as one side of the split and the companions as the other,
    and only the block's own latent estimates are kept. Every location
    is therefore estimated exactly J times.

    Each (block, round) member draws its companions from its own seed
    derived from rng_seed, so results are the same for every LATENT_KRIG_THREADS.
    """
    _check_members(J, tau)
    p = frame.p
    blocks = assign_blocks(p, q, rng_seed)
    if sorted(i for block in blocks for i in block) != list(range(p)):
        raise AssertionError("block scheme must estimate every location J times")
    # seeds[0] is reserved; the (block, round) members use seeds[1:]
    seeds = _util.member_seeds(rng_seed, 1 + len(blocks) * J)

    members = []
    for b, block in enumerate(blocks):
        complement = np.setdiff1d(np.arange(p), block)
        part = Partition(set1=tuple(range(len(block))),
                         set2=tuple(range(len(block), len(block) + q)))
        for seed in seeds[1 + b * J:1 + (b + 1) * J]:
            companions = np.random.default_rng(seed).choice(complement, q, replace=False)
            members.append((list(block) + sorted(companions.tolist()), part))
    fits = _fit_members(frame, members, tau, k0=k0, p_star=p_star,
                        d_override=d_override)
    xi_tilde = np.empty((frame.n, p))
    d_hats = []

    def block_fields(k: int) -> Iterator[np.ndarray]:  # the next J, as they arrive
        for fit in islice(fits, J):
            d_hats.append(fit.d_hat)
            yield fit.xi_hat[:, :k]

    for block in blocks:
        xi_tilde[:, list(block)] = _mean_in_order(block_fields(len(block)))[1]
    ens = EnsembleFit(J=J, member_seeds=tuple(seeds), d_hats=tuple(d_hats), tau=tau)
    ens.xi_tilde = xi_tilde
    return ens


# ---- the model document ----

def _matrix_doc(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "data": a.reshape(-1).tolist()}


def locations_to_doc(locs: LocationSet) -> dict:
    return {"ids": list(locs.ids), "coords": locs.coords.tolist(),
            "distance_metric": locs.distance_metric, "radius": float(locs.radius)}


def fit_to_document(fit: FactorModelFit) -> dict:
    """JSON-ready dict for a fit and its latent field."""
    return {"format": "latentkrig-fit", "version": 1,
            "partition": {"set1": list(fit.partition.set1),
                          "set2": list(fit.partition.set2)},
            "d_hat": int(fit.d_hat), "tau": float(fit.tau), "k0": int(fit.k0),
            "eigenvalues": [float(v) for v in fit.eigenvalues],
            **{key: _matrix_doc(getattr(fit, key)) for key in
               ("A1_hat", "A2_hat", "x_hat", "x_star_hat", "xi_hat")}}


def ensemble_to_document(ens: EnsembleFit) -> dict:
    return {"format": "latentkrig-ensemble", "version": 1, "J": ens.J,
            "tau": ens.tau, "member_seeds": list(ens.member_seeds),
            "d_hats": list(ens.d_hats),
            "per_location_counts": [int(c) for c in ens.per_location_counts],
            "xi_tilde": _matrix_doc(ens.xi_tilde)}


def _write_document(path, doc: dict, locations: LocationSet | None) -> None:
    """The one writer of model documents: compact UTF-8 JSON plus a newline,
    with the locations block, when given, as the last key."""
    if locations is not None:
        doc = {**doc, "locations": locations_to_doc(locations)}
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def save_fit(fit: FactorModelFit, path, locations: LocationSet | None = None) -> None:
    _write_document(path, fit_to_document(fit), locations)


def save_ensemble(ens: EnsembleFit, path, locations: LocationSet | None = None) -> None:
    _write_document(path, ensemble_to_document(ens), locations)


def _int(low: float):
    return lambda v: type(v) is int and v >= low


def _list(item):
    return lambda v: type(v) is list and all(map(item, v))


_KINDS = ("latentkrig-fit", "latentkrig-ensemble")
_MAX = sys.float_info.max  # a JSON number no larger converts to a finite float

# What each field of a model document must be, and the test of its JSON
# value; the ranges are those the estimator enforces.
_FIELDS = {
    "version": ("1", lambda v: type(v) is int and v == 1),
    "partition": ("an object", lambda v: type(v) is dict),
    "set1": ("a list of sites", _list(_int(0))),
    "set2": ("a list of sites", _list(_int(0))),
    "d_hat": ("an integer >= 1", _int(1)),
    "tau": ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v <= _MAX),
    "k0": ("an integer >= 0", _int(0)),
    "J": ("an integer >= 1", _int(1)),
    "member_seeds": ("a list of integers", _list(lambda v: type(v) is int)),
    "d_hats": ("a list of integers >= 1", _list(_int(1))),
    "locations": ("an object", lambda v: type(v) is dict),
    "ids": ("a list of strings", _list(lambda v: type(v) is str)),
    "distance_metric": (" or ".join(_METRICS), lambda v: v in _METRICS),
    "radius": ("a finite number > 0", lambda v: type(v) in (int, float) and 0 < v <= _MAX),
}


def _field(doc: dict, key: str, what: str | None = None, ok=None):
    """doc[key], which must pass key's test in _FIELDS, or ok when given;
    else ValueError("<key> must be <what>"). A missing key stays a KeyError."""
    value = doc[key]
    what, ok = _FIELDS[key] if ok is None else (what, ok)
    if not ok(value):
        raise ValueError(f"{key} must be {what}")
    return value


def _array(doc: dict, key: str, shape: tuple, block: bool = False) -> np.ndarray:
    """doc[key], a list of numbers or of equal-length rows of them, or with
    block a matrix block of rows * cols numbers row by row, parsed by one
    numpy call into a float array of ``shape`` (None matches any length)
    whose every entry is finite; else a ValueError naming key."""
    value, what = doc[key], "a matrix block" if block else "an array of numbers"
    try:
        if block:
            dims = value["rows"], value["cols"]
            if not all(map(_int(0), dims)):
                raise ValueError
            value = np.reshape(value["data"], dims)
        a = np.asarray(value)
        if a.dtype.kind not in "iuf" or a.ndim != len(shape):
            raise ValueError
    except (TypeError, KeyError, ValueError):  # ragged, not a block, not numbers
        raise ValueError(f"{key} is not {what}") from None
    want = tuple(g if w is None else w for g, w in zip(a.shape, shape))
    if a.shape != want:
        got, want = (" x ".join(map(str, s)) if len(s) > 1 else f"{s[0]} long"
                     for s in (a.shape, want))
        raise ValueError(f"{key} is {got}, expected {want}")
    if not np.isfinite(a).all():
        raise ValueError(f"{key} holds a non-finite number")
    return a.astype(np.float64, copy=False)


def fit_from_document(doc: dict) -> FactorModelFit:
    """A fit document's fit, its blocks checked against one another."""
    sets = _field(doc, "partition")
    part = Partition(set1=_field(sets, "set1"), set2=_field(sets, "set2"))
    d, p1 = _field(doc, "d_hat"), len(part.set1)
    fit = FactorModelFit(
        partition=part, A1_hat=_array(doc, "A1_hat", (p1, d), block=True),
        A2_hat=_array(doc, "A2_hat", (part.p - p1, d), block=True), d_hat=d,
        eigenvalues=_array(doc, "eigenvalues", (p1,)),
        tau=float(_field(doc, "tau")), k0=_field(doc, "k0"))
    fit.xi_hat = _array(doc, "xi_hat", (None, part.p), block=True)
    n = fit.xi_hat.shape[0]
    fit.x_hat = _array(doc, "x_hat", (n, d), block=True)
    fit.x_star_hat = _array(doc, "x_star_hat", (n, d), block=True)
    return fit


def ensemble_from_document(doc: dict) -> EnsembleFit:
    ens = EnsembleFit(J=_field(doc, "J"),
                      member_seeds=tuple(_field(doc, "member_seeds")),
                      d_hats=tuple(_field(doc, "d_hats")), tau=_field(doc, "tau"))
    ens.xi_tilde = _array(doc, "xi_tilde", (None, None), block=True)
    _field(doc, "per_location_counts", f"J={ens.J} at every site",
           lambda v: _list(_int(1))(v) and v == ens.per_location_counts.tolist())
    return ens


def locations_from_doc(doc: dict) -> LocationSet:
    ids = _field(doc, "ids")
    return LocationSet(ids=tuple(ids), coords=_array(doc, "coords", (len(ids), 2)),
                       distance_metric=_field(doc, "distance_metric"),
                       radius=float(_field(doc, "radius")))


def load_ensemble(path: str | Path) -> tuple[EnsembleFit, LocationSet | None]:
    """The model and embedded locations of a fit or an ensemble document,
    as an ensemble: a fit is an ensemble of one, whose member is the fit
    and whose xi_tilde is its xi_hat. Any other kind or version, a field
    that fails its check, or locations not numbering the field's columns
    is a ParseError naming the file; a package error keeps its class."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or doc.get("format") not in _KINDS:
            raise ValueError(f"expected a {' or '.join(_KINDS)} document")
        _field(doc, "version")
        if doc["format"] == "latentkrig-ensemble":
            ens = ensemble_from_document(doc)
        else:
            fit = fit_from_document(doc)
            ens = EnsembleFit(J=1, member_seeds=(), d_hats=(fit.d_hat,),
                              tau=fit.tau, members=(fit,))
            ens.xi_tilde = fit.xi_hat
        locs = (locations_from_doc(_field(doc, "locations"))
                if "locations" in doc else None)
        if locs is not None and locs.p != (width := ens.xi_tilde.shape[1]):
            raise ValueError(f"the latent field has {width} columns for {locs.p} locations")
        return ens, locs
    except LatentKrigError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except KeyError as exc:
        raise ParseError(f"{path}: model document lacks key {exc}") from None
    except (TypeError, ValueError, RecursionError) as exc:  # JSON nested too deep
        raise ParseError(f"{path}: {exc}") from None
