"""Aggregation of latent-field estimates over random location partitions.

A single fit depends on an arbitrary split of the locations into two
halves. Averaging the latent field over J independent random splits
removes that arbitrariness and, by convexity of squared loss, the
aggregate never has larger mean squared deviation than the average
member (exactly, conditional on the data). The same averaging drives a
divide-and-conquer mode for large p: locations are grouped into blocks
of size q, each block is repeatedly fitted together with q companion
locations sampled from its complement, and only the block's own
estimates are kept, so no eigenanalysis ever exceeds 2q x 2q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from . import _util
from .errors import BlockTooLarge
from .factors import FactorModelFit, _matrix_doc, _matrix_from_doc, fit_factors
from .stdata import (LocationSet, Partition, SpatioTemporalFrame,
                     locations_from_doc, locations_to_doc, random_partition)

TauPolicy = float | str

DEFAULT_J = 100

R = TypeVar("R")


@dataclass
class EnsembleFit:
    """Aggregated latent field over partition replicates.

    xi_tilde[t, i] is the arithmetic mean of per_location_counts[i]
    member estimates at location i; counts equal J in full-partition
    mode and in block mode (each block is refitted J times).
    """

    J: int
    member_seeds: tuple[int, ...]
    xi_tilde: np.ndarray
    per_location_counts: np.ndarray
    d_hats: tuple[int, ...]
    tau: float

    def __post_init__(self) -> None:
        self.xi_tilde = np.asarray(self.xi_tilde, dtype=np.float64)
        self.per_location_counts = np.asarray(self.per_location_counts,
                                              dtype=np.int64)
        if self.J < 1:
            raise ValueError("J must be >= 1")
        if self.per_location_counts.shape != (self.xi_tilde.shape[1],):
            raise ValueError("per_location_counts must have one entry per location")
        if np.any(self.per_location_counts < 1):
            raise ValueError("every location needs at least one contributing member")


def resolve_tau(frame: SpatioTemporalFrame, tau_policy: TauPolicy,
                rng_seed: int, k0: int = 0,
                p_star: int | None = None) -> float:
    """Turn a tau policy into a number.

    A float is used as-is. "cv-once" runs five-fold location
    cross-validation on the default grid, seeded by rng_seed, and the
    selected value is reused for every member; re-validating per member
    would cost a full grid of eigendecompositions per replicate without
    making members comparable.
    """
    if isinstance(tau_policy, str):
        if tau_policy != "cv-once":
            raise ValueError(f"unknown tau policy {tau_policy!r}")
        from .simbench import default_tau_grid, select_tau
        return select_tau(frame, default_tau_grid(), folds=5,
                          rng_seed=rng_seed, k0=k0, p_star=p_star)
    tau = float(tau_policy)
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return tau


def _member_partitions(p: int, seeds: list[int]) -> list[Partition]:
    """One random split of the p sites per member seed, in seed order."""
    return [random_partition(p, s) for s in seeds]


def _identity(fit: FactorModelFit) -> FactorModelFit:
    return fit


def fit_members(frame: SpatioTemporalFrame, partitions: list[Partition],
                tau: float, k0: int = 0, p_star: int | None = None,
                d_override: int | None = None, workers: int | None = None,
                read: Callable[[FactorModelFit], R] = _identity) -> list[R]:
    """Fit one factor model per partition, in partition order.

    Each fit is passed through ``read`` on the worker that made it and
    only what ``read`` returns is kept, so a caller that needs a small
    summary per member never holds J full fits. The default keeps the
    fit itself.
    """

    def one(part: Partition) -> R:
        return read(fit_factors(frame, part, tau, k0=k0, p_star=p_star,
                                d_override=d_override))

    return _util.ordered_map(one, partitions, workers)


def enumerate_partitions(p: int) -> list[Partition]:
    """Every partition with |set1| = p // 2, as C(p, p//2) labeled splits.

    Small p only; the count grows combinatorially.
    """
    if p < 4:
        raise ValueError("need p >= 4 to enumerate partitions")
    if p > 16:
        raise ValueError("enumeration is only for small p (p <= 16)")
    p1 = p // 2
    universe = range(p)
    parts = []
    for set1 in combinations(universe, p1):
        set2 = tuple(i for i in universe if i not in set1)
        parts.append(Partition(set1=set1, set2=set2))
    return parts


def aggregate_over_partitions(frame: SpatioTemporalFrame,
                              partitions: list[Partition], tau: float,
                              k0: int = 0, p_star: int | None = None,
                              d_override: int | None = None,
                              member_seeds: tuple[int, ...] = (),
                              workers: int | None = None) -> EnsembleFit:
    """Mean latent field over an explicit partition list.

    The aggregation backbone: members are averaged in list order, so
    the result is reproducible for any worker count. Used directly by
    the enumeration-based exactness checks.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    fits = fit_members(frame, partitions, tau, k0=k0, p_star=p_star,
                       d_override=d_override, workers=workers)
    total = np.zeros((frame.n, frame.p))
    for fit in fits:
        total += fit.xi_hat
    j = len(fits)
    counts = np.full(frame.p, j, dtype=np.int64)
    return EnsembleFit(J=j, member_seeds=tuple(member_seeds),
                       xi_tilde=total / j, per_location_counts=counts,
                       d_hats=tuple(fit.d_hat for fit in fits), tau=tau)


def aggregate_fit(frame: SpatioTemporalFrame, J: int = DEFAULT_J,
                  tau_policy: TauPolicy = 0.0, k0: int = 0,
                  p_star: int | None = None, rng_seed: int = 0,
                  d_override: int | None = None,
                  workers: int | None = None) -> EnsembleFit:
    """Aggregate J random-partition fits of the full location set.

    Member seeds derive deterministically from rng_seed by replicate
    index; each member draws its own partition and contributes its full
    latent-field estimate (each location sits on one side or the other
    of every partition, so counts equal J everywhere).
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    seeds = _util.member_seeds(rng_seed, J)
    tau = resolve_tau(frame, tau_policy, seeds[0], k0=k0, p_star=p_star)
    return aggregate_over_partitions(frame, _member_partitions(frame.p, seeds),
                                     tau, k0=k0, p_star=p_star,
                                     d_override=d_override,
                                     member_seeds=tuple(seeds), workers=workers)


def assign_blocks(p: int, q: int, rng_seed: int) -> list[tuple[int, ...]]:
    """Split 0..p-1 into ceil(p/q) blocks of size <= q by a seeded shuffle."""
    if q < 2 or 2 * q > p:
        raise BlockTooLarge(f"block size q={q} needs 4 <= 2q <= p (p={p})")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(p)
    return [tuple(sorted(int(i) for i in chunk))
            for chunk in np.array_split(perm, -(-p // q))]


def divide_and_conquer_fit(frame: SpatioTemporalFrame, q: int,
                           J: int = DEFAULT_J, tau_policy: TauPolicy = 0.0,
                           rng_seed: int = 0, k0: int = 0,
                           p_star: int | None = None,
                           d_override: int | None = None,
                           workers: int | None = None) -> EnsembleFit:
    """Blockwise aggregation so eigenanalysis stays at 2q x 2q.

    Locations are shuffled into ceil(p/q) blocks. For each block and
    each of J rounds, q companion locations are sampled from the
    block's complement, a model is fitted on the combined subframe with
    the block as one side of the split and the companions as the other,
    and only the block's own latent estimates are kept. Every location
    is therefore estimated exactly J times.

    Each (block, round) task has its own seed derived from rng_seed, so
    results are reproducible for any worker count.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    p = frame.p
    blocks = assign_blocks(p, q, rng_seed)
    n_blocks = len(blocks)
    seeds = _util.member_seeds(rng_seed, 1 + n_blocks * J)
    tau = resolve_tau(frame, tau_policy, seeds[0], k0=k0, p_star=p_star)

    all_idx = np.arange(p)
    tasks = []
    for b, block in enumerate(blocks):
        complement = np.setdiff1d(all_idx, np.asarray(block, dtype=np.int64))
        for r in range(J):
            tasks.append((block, complement, seeds[1 + b * J + r]))

    def one(task) -> tuple[tuple[int, ...], np.ndarray, int]:
        block, complement, seed = task
        rng = np.random.default_rng(seed)
        companions = np.sort(rng.choice(complement, size=q, replace=False))
        sub_idx = list(block) + [int(i) for i in companions]
        sub = frame.subframe(sub_idx)
        part = Partition(set1=tuple(range(len(block))),
                         set2=tuple(range(len(block), len(sub_idx))))
        fit = fit_factors(sub, part, tau, k0=k0, p_star=p_star,
                          d_override=d_override)
        return block, fit.xi_hat[:, :len(block)], fit.d_hat

    results = _util.ordered_map(one, tasks, workers)
    total = np.zeros((frame.n, p))
    counts = np.zeros(p, dtype=np.int64)
    d_hats = []
    for block, xi_block, d_hat in results:
        cols = list(block)
        total[:, cols] += xi_block
        counts[cols] += 1
        d_hats.append(d_hat)
    if np.any(counts != J):
        raise AssertionError("block scheme must estimate every location J times")
    return EnsembleFit(J=J, member_seeds=tuple(seeds), xi_tilde=total / J,
                       per_location_counts=counts, d_hats=tuple(d_hats),
                       tau=tau)


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
    if doc.get("format") != "latentkrig-ensemble":
        raise ValueError("not an ensemble document")
    ens = EnsembleFit(J=int(doc["J"]),
                      member_seeds=tuple(int(s) for s in doc["member_seeds"]),
                      xi_tilde=_matrix_from_doc(doc["xi_tilde"]),
                      per_location_counts=np.asarray(
                          doc["per_location_counts"], dtype=np.int64),
                      d_hats=tuple(int(d) for d in doc["d_hats"]),
                      tau=float(doc["tau"]))
    locs = locations_from_doc(doc["locations"]) if "locations" in doc else None
    return ens, locs


def save_ensemble(ens: EnsembleFit, path: str | Path,
                  locations: LocationSet | None = None) -> None:
    Path(path).write_text(json.dumps(ensemble_to_document(ens, locations)) + "\n",
                          encoding="utf-8")


def load_ensemble(path: str | Path) -> tuple[EnsembleFit, LocationSet | None]:
    return ensemble_from_document(
        json.loads(Path(path).read_text(encoding="utf-8")))
