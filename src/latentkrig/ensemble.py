"""Aggregation of latent-field estimates over random location partitions.

A single fit depends on an arbitrary split of the locations into two
halves. Averaging the latent field over J independent random splits
removes that arbitrariness and, by convexity of squared loss, the
aggregate never has larger mean squared deviation than the average
member (exactly, conditional on the data). For large p, divide and
conquer fits each block of q sites J times against q companions sampled
from its complement and keeps only the block's own estimates, so no
eigenanalysis ever exceeds 2q x 2q.

One engine, ``_fit_members``, fits every member (a Partition of all the
sites, or a (sites, Partition) pair fitted on those sites' subframe),
and one in-order reducer, ``_first_and_mean``, averages the members.
Members of one frame share its panel statistics: the centered panel,
its lag covariances and their partition-free Gram products are built
once per frame, by whichever member asks first, and every other member
slices them. Each side builds its Laplacian from its own sites'
coordinates, which costs about as much as slicing shared weights would.
A subframe member builds its own statistics, so it is bitwise a fit of
the subframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from . import _util
from .errors import BlockTooLarge
from .factors import (FactorModelFit, _matrix_doc, _matrix_from_doc,
                      _read_document, _write_document, fit_factors)
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
                     locations_from_doc, locations_to_doc, random_partition)

DEFAULT_J = 100

R = TypeVar("R")


@dataclass
class EnsembleFit:
    """Aggregated latent field over partition replicates.

    xi_tilde[t, i] is the arithmetic mean of J member estimates at every
    location i, in full-partition mode and in block mode (each block is
    refitted J times), so per_location_counts is derived: J at every site.
    """

    J: int
    member_seeds: tuple[int, ...]
    xi_tilde: np.ndarray
    d_hats: tuple[int, ...]
    tau: float

    def __post_init__(self) -> None:
        self.xi_tilde = np.asarray(self.xi_tilde, dtype=np.float64)
        self.tau = float(self.tau)
        if self.J < 1:
            raise ValueError("J must be >= 1")

    @property
    def per_location_counts(self) -> np.ndarray:
        """Members averaged at each site: J at every one."""
        return np.full(self.xi_tilde.shape[1], self.J, dtype=np.int64)


def _member_partitions(p: int, seeds: list[int]) -> list[Partition]:
    """One random split of the p sites per member seed, in seed order."""
    return [random_partition(p, s) for s in seeds]


def _identity(fit: FactorModelFit) -> FactorModelFit:
    return fit


def _fit_members(frame: SpatioTemporalFrame,
                 partitions: list[Partition | tuple], tau: float, k0: int = 0,
                 p_star: int | None = None, d_override: int | None = None,
                 read: Callable[[FactorModelFit], R] = _identity) -> Iterator[R]:
    """Fit one factor model per member, yielding in member order.

    A member is a Partition of all the frame's sites, or a (sites,
    Partition) pair fitted on ``frame.subframe(sites)``, built on the
    worker. Each fit is passed through ``read`` on its worker and only
    what ``read`` returns is kept (by default the fit), so a caller need
    not hold J full fits; a fit's readouts are formed only if ``read``
    uses them. Members are fitted as the result is iterated.
    """

    def one(member) -> R:
        sub, part = ((frame, member) if isinstance(member, Partition)
                     else (frame.subframe(member[0]), member[1]))
        return read(fit_factors(sub, part, tau, k0=k0, p_star=p_star,
                                d_override=d_override))

    return _util.ordered_map(one, partitions)


def _check_members(J: int, tau: float) -> None:
    if J < 1:
        raise ValueError("J must be >= 1")
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and >= 0")


def _seeded_members(frame: SpatioTemporalFrame, J: int, rng_seed: int,
                    tau: float, k0: int = 0, p_star: int | None = None,
                    d_override: int | None = None,
                    read: Callable[[FactorModelFit], R] = _identity) -> Iterator[R]:
    """The J members drawn from rng_seed, checked before any is fitted:
    member j fits the partition of the j-th seed derived from rng_seed,
    so member 0 is the single fit of that seed."""
    _check_members(J, tau)
    partitions = _member_partitions(frame.p, _util.member_seeds(rng_seed, J))
    return _fit_members(frame, partitions, tau, k0=k0, p_star=p_star,
                        d_override=d_override, read=read)


def _first_and_mean(members) -> tuple:
    """Member 0's field, the mean field (a running sum in member order,
    bitwise np.mean of the stack), then each further reading per member."""
    total, rest = None, []
    for xi, *other in members:
        if total is None:
            first, total = xi, xi.copy()
        else:
            total += xi
        rest.append(other)
    return (first, total / len(rest), *zip(*rest))


def aggregate_over_partitions(frame: SpatioTemporalFrame,
                              partitions: list[Partition], tau: float,
                              k0: int = 0, p_star: int | None = None,
                              d_override: int | None = None,
                              member_seeds: tuple[int, ...] = ()) -> EnsembleFit:
    """Mean latent field over an explicit partition list.

    The aggregation backbone: members are summed in list order as they
    arrive, so the result is the same for every LATENT_KRIG_THREADS.
    Used directly by the enumeration-based exactness checks.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    _, xi_tilde, d_hats = _first_and_mean(_fit_members(
        frame, partitions, tau, k0=k0, p_star=p_star, d_override=d_override,
        read=lambda fit: (fit.xi_hat, fit.d_hat)))
    return EnsembleFit(J=len(partitions), member_seeds=tuple(member_seeds),
                       xi_tilde=xi_tilde, d_hats=d_hats, tau=tau)


def aggregate_fit(frame: SpatioTemporalFrame, J: int = DEFAULT_J,
                  tau: float = 0.0, k0: int = 0,
                  p_star: int | None = None, rng_seed: int = 0,
                  d_override: int | None = None) -> EnsembleFit:
    """Aggregate J random-partition fits of the full location set.

    Member seeds derive deterministically from rng_seed by replicate
    index; each member draws its own partition and contributes its full
    latent-field estimate (each location sits on one side or the other
    of every partition, so counts equal J everywhere).
    """
    _check_members(J, tau)
    seeds = _util.member_seeds(rng_seed, J)
    return aggregate_over_partitions(frame, _member_partitions(frame.p, seeds),
                                     tau, k0=k0, p_star=p_star, d_override=d_override,
                                     member_seeds=tuple(seeds))


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
    fits = _fit_members(
        frame, members, tau, k0=k0, p_star=p_star, d_override=d_override,
        read=lambda fit: (fit.xi_hat[:, :len(fit.partition.set1)], fit.d_hat))
    xi_tilde = np.empty((frame.n, p))
    counts = np.zeros(p, dtype=np.int64)
    d_hats = []
    for block in blocks:  # the block's J members, reduced as they arrive
        _, mean, block_d_hats = _first_and_mean(islice(fits, J))
        xi_tilde[:, list(block)] = mean
        counts[list(block)] += len(block_d_hats)
        d_hats += block_d_hats
    if np.any(counts != J):
        raise AssertionError("block scheme must estimate every location J times")
    return EnsembleFit(J=J, member_seeds=tuple(seeds), xi_tilde=xi_tilde,
                       d_hats=tuple(d_hats), tau=tau)


def ensemble_to_document(ens: EnsembleFit,
                         locations: LocationSet | None = None) -> dict:
    doc = {
        "format": "latentkrig-ensemble",
        "version": 1,
        "J": ens.J,
        "tau": ens.tau,
        "member_seeds": list(ens.member_seeds),
        "d_hats": list(ens.d_hats),
        "per_location_counts": [int(c) for c in ens.per_location_counts],
        "xi_tilde": _matrix_doc(ens.xi_tilde),
    }
    if locations is not None:
        doc["locations"] = locations_to_doc(locations)
    return doc


def ensemble_from_document(doc: dict) -> tuple[EnsembleFit, LocationSet | None]:
    ens = EnsembleFit(J=int(doc["J"]),
                      member_seeds=tuple(int(s) for s in doc["member_seeds"]),
                      xi_tilde=_matrix_from_doc(doc["xi_tilde"]),
                      d_hats=tuple(int(d) for d in doc["d_hats"]),
                      tau=float(doc["tau"]))
    if doc["per_location_counts"] != ens.per_location_counts.tolist():
        raise ValueError(f"per_location_counts must be J={ens.J} at every site")
    locs = locations_from_doc(doc["locations"]) if "locations" in doc else None
    return ens, locs


def save_ensemble(ens: EnsembleFit, path: str | Path,
                  locations: LocationSet | None = None) -> None:
    _write_document(path, ensemble_to_document(ens, locations))


def load_ensemble(path: str | Path) -> tuple[EnsembleFit, LocationSet | None]:
    return _read_document(path, {"latentkrig-ensemble": ensemble_from_document})
