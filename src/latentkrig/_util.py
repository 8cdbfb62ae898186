"""Shared plumbing: worker pools and seed derivation.

Randomized pipelines derive one integer seed per replicate from the
caller's seed, run replicates through ``ordered_map``, and reduce in
replicate-index order. Results are therefore byte-identical for any
worker count: the pool only changes scheduling, never the arithmetic
or the reduction order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

THREADS_ENV = "LATENT_KRIG_THREADS"

T = TypeVar("T")
R = TypeVar("R")


def worker_count() -> int:
    """Worker threads from LATENT_KRIG_THREADS: unset or empty is 1, and
    anything but an integer >= 1 raises ConfigError."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV}={raw!r} is not an integer") from None
    if value < 1:
        raise ConfigError(f"{THREADS_ENV}={raw!r} must be >= 1")
    return value


def ordered_map(fn: Callable[[T], R], items: Sequence[T],
                workers: int | None = None) -> Iterator[R]:
    """Yield ``fn`` of each item in input order, as results arrive.

    ``workers=None`` reads the environment; 1 runs inline. Threads suit
    the workloads here because the heavy lifting releases the GIL inside
    BLAS calls.
    """
    if workers is None:
        workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def member_seeds(rng_seed: int, count: int) -> list[int]:
    """Derive ``count`` member seeds from one seed, stable across platforms."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ss = np.random.SeedSequence(rng_seed)
    return [int(s) for s in ss.generate_state(count, np.uint64)]

