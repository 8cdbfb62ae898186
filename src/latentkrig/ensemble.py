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
forecasts. Members of one frame share its panel statistics: the
centered panel, its lag covariances and their partition-free Gram
products are built once per frame, by whichever member asks first, and
every other member slices them. Each side builds its Laplacian from its
own sites' coordinates. A subframe member builds its own statistics, so
it is bitwise a fit of the subframe.

``load_ensemble`` is the one model-document reader: it reads an
ensemble document, or a fit document as an ensemble of one whose member
is the loaded fit and whose xi_tilde is the stored xi_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import _util
from .errors import BlockTooLarge
from .factors import (FactorModelFit, _matrix_doc, _matrix_from_doc,
                      _read_document, _write_document, assemble_latent,
                      fit_factors, fit_from_document)
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
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
        if not self.members:
            raise ValueError("an ensemble without members needs a stored xi_tilde")
        return _mean_in_order(_util.ordered_map(lambda m: assemble_latent(
            m._frame, m.partition, m.A1_hat, m.A2_hat), self.members))

    @property
    def per_location_counts(self) -> np.ndarray:
        """Members averaged at each site: J at every one."""
        return np.full(self.xi_tilde.shape[1], self.J, dtype=np.int64)


def _mean_in_order(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """The mean of arrays summed in order as they arrive: bitwise np.mean
    of their stack, without holding it. No input is written."""
    total, count = None, 0
    for a in arrays:
        if total is None:
            total = a.copy()
        else:
            total += a
        count += 1
    return total / count


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
        xi_tilde[:, list(block)] = _mean_in_order(block_fields(len(block)))
    ens = EnsembleFit(J=J, member_seeds=tuple(seeds), d_hats=tuple(d_hats), tau=tau)
    ens.xi_tilde = xi_tilde
    return ens


def ensemble_to_document(ens: EnsembleFit) -> dict:
    return {
        "format": "latentkrig-ensemble",
        "version": 1,
        "J": ens.J,
        "tau": ens.tau,
        "member_seeds": list(ens.member_seeds),
        "d_hats": list(ens.d_hats),
        "per_location_counts": [int(c) for c in ens.per_location_counts],
        "xi_tilde": _matrix_doc(ens.xi_tilde),
    }


def ensemble_from_document(doc: dict) -> EnsembleFit:
    ens = EnsembleFit(J=int(doc["J"]),
                      member_seeds=tuple(int(s) for s in doc["member_seeds"]),
                      d_hats=tuple(int(d) for d in doc["d_hats"]),
                      tau=float(doc["tau"]))
    ens.xi_tilde = _matrix_from_doc(doc, "xi_tilde")
    if doc["per_location_counts"] != ens.per_location_counts.tolist():
        raise ValueError(f"per_location_counts must be J={ens.J} at every site")
    return ens


def _one_fit_from_document(doc: dict) -> EnsembleFit:
    """A fit document's fit as an ensemble of one, whose xi_tilde is the
    stored xi_hat."""
    fit = fit_from_document(doc)
    ens = EnsembleFit(J=1, member_seeds=(), d_hats=(fit.d_hat,), tau=fit.tau,
                      members=(fit,))
    ens.xi_tilde = fit.xi_hat
    return ens


def save_ensemble(ens: EnsembleFit, path: str | Path,
                  locations: LocationSet | None = None) -> None:
    _write_document(path, ensemble_to_document(ens), locations)


def load_ensemble(path: str | Path) -> tuple[EnsembleFit, LocationSet | None]:
    """The model and embedded locations of a fit or an ensemble document,
    as an ensemble: a fit is an ensemble of one. Any other kind of
    document is a ParseError."""
    return _read_document(path, {"latentkrig-fit": _one_fit_from_document,
                                 "latentkrig-ensemble": ensemble_from_document})
