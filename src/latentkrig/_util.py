"""Shared plumbing: worker pools, seed derivation and memos.

Randomized pipelines derive one integer seed per replicate from the
caller's seed, run replicates through ``ordered_map``, and reduce in
replicate-index order. Results are therefore byte-identical for any
worker count: the pool only changes scheduling, never the arithmetic
or the reduction order. ``ordered_map`` runs its tasks, inline or
pooled, with OpenBLAS at one thread when OpenBLAS is found, so the BLAS
arithmetic is the same for every worker count too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

THREADS_ENV = "LATENT_KRIG_THREADS"

T = TypeVar("T")
R = TypeVar("R")


# (setter, getter) symbol pairs: numpy 2.x wheels, numpy 1.24 wheels, builds
# without a symbol suffix
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_in_task = threading.local()  # .on: this thread runs an ordered_map task
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[int] = []


@functools.cache
def _openblas() -> list:
    """(setter, getter) of every loaded OpenBLAS, read from /proc/self/maps
    on first use, never at import; empty when there is none or the map
    cannot be read."""
    try:
        import ctypes
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            paths = dict.fromkeys(
                fields[5].strip() for fields in (line.split(None, 5) for line in f)
                if len(fields) == 6
                and "openblas" in os.path.basename(fields[5]).lower())
    except (OSError, ImportError):
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
                set_.argtypes, set_.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int
                controls.append((set_, get))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """OpenBLAS at one thread inside; the outermost exit restores the
    counts it saved, so nested and concurrent callers are safe. Does
    nothing when no OpenBLAS is found."""
    global _pin_depth
    with _pin_lock:
        controls = _openblas()
        if _pin_depth == 0:
            _pin_saved[:] = [get() for _, get in controls]
            for set_, _ in controls:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (set_, _), count in zip(controls, _pin_saved):
                    set_(count)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count() -> int:
    """Worker threads from LATENT_KRIG_THREADS; anything but an integer
    >= 1 raises ConfigError. Unset or empty is the usable CPUs when
    OpenBLAS can be pinned to one thread per task, and 1 otherwise, so a
    BLAS that cannot be pinned is never oversubscribed."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return _usable_cpus() if _openblas() else 1
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

    ``workers=None`` reads the environment; 1 runs inline, and so does a
    map started inside another map's task. More share the items between
    the caller and ``workers - 1`` pool threads (see ``_shared_map``),
    never more threads than items. Threads suit the workloads here
    because the heavy lifting releases the GIL inside BLAS calls. Until
    the iterator is exhausted or closed, OpenBLAS runs at one thread (see
    ``_one_blas_thread``), also inline.
    """
    nested = getattr(_in_task, "on", False)
    if workers is None and not nested:
        workers = worker_count()

    def task(item: T) -> R:
        outer, _in_task.on = getattr(_in_task, "on", False), True
        try:
            return fn(item)
        finally:
            _in_task.on = outer

    with _one_blas_thread():
        if nested or workers <= 1 or len(items) <= 1:
            yield from map(task, items)
        else:
            yield from _shared_map(task, items, min(workers, len(items)))


def _shared_map(fn: Callable[[T], R], items: Sequence[T],
                workers: int) -> Iterator[R]:
    """ordered_map on the calling thread and ``workers - 1`` pool threads.

    Each thread claims the next item from a shared counter. While the
    result due next is still being computed, the caller runs the next
    unclaimed item rather than wait. Tasks that run on the caller free
    their memory into its own malloc arena, which its later work reuses;
    an idle caller would leave every task's memory to pool arenas.
    """
    lock = threading.Lock()
    claimed = 0
    done = [threading.Event() for _ in items]
    results: list = [None] * len(items)

    def claim() -> int | None:
        nonlocal claimed
        with lock:
            if claimed == len(items):
                return None
            claimed += 1
            return claimed - 1

    def run(i: int) -> None:
        try:
            results[i] = (True, fn(items[i]))
        except Exception as exc:
            results[i] = (False, exc)
        finally:
            done[i].set()

    def drain() -> None:
        while (i := claim()) is not None:
            run(i)

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        try:
            for i in range(len(items)):
                while not done[i].is_set() and (j := claim()) is not None:
                    run(j)
                done[i].wait()
                if results[i] is None:  # a pool thread died; result() raises
                    break
                ok, value = results[i]
                results[i] = None
                if not ok:
                    raise value
                yield value
        finally:
            with lock:
                claimed = len(items)  # hand out no more items
            for helper in helpers:
                helper.result()


class Memo:
    """Arrays derived from an immutable owner, each built once and kept
    read-only.

    A build runs under the memo's lock, so pool workers that ask for the
    same array wait for the first build and never repeat it. The lock is
    reentrant: a build may read other arrays of the same memo.
    """

    def __init__(self) -> None:
        self._values: dict = {}
        self._lock = threading.RLock()

    def get(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        with self._lock:
            if key not in self._values:
                value = build()
                value.setflags(write=False)
                self._values[key] = value
            return self._values[key]


def member_seeds(rng_seed: int, count: int) -> list[int]:
    """Derive ``count`` member seeds from one seed, stable across platforms."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ss = np.random.SeedSequence(rng_seed)
    return [int(s) for s in ss.generate_state(count, np.uint64)]

