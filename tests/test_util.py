import os
import subprocess
import sys
import threading

import pytest

import latentkrig
from latentkrig import _util
from latentkrig._util import ordered_map

_CONTROLS = _util._openblas()
pinnable = pytest.mark.skipif(not _CONTROLS, reason="no OpenBLAS thread setter")


@pytest.fixture
def blas_threads():
    """OpenBLAS at two threads for the test, so a pin to one shows; the
    count found before the test is restored after it."""
    (set_, get), *_ = _CONTROLS
    before = get()
    set_(2)
    yield get
    set_(before)


def _seen(get):
    """A task that returns the BLAS thread count it ran under."""
    return lambda _: get()


@pinnable
@pytest.mark.parametrize("workers", [1, 2])
def test_map_runs_tasks_at_one_blas_thread_and_restores(blas_threads, workers):
    get = blas_threads
    assert list(ordered_map(_seen(get), range(4), workers)) == [1] * 4
    assert get() == 2


@pinnable
@pytest.mark.parametrize("workers", [1, 2])
def test_map_restores_after_an_exception(blas_threads, workers):
    get = blas_threads

    def fail_on_two(x):
        if x == 2:
            raise ValueError("boom")
        return get()

    with pytest.raises(ValueError, match="boom"):
        list(ordered_map(fail_on_two, range(4), workers))
    assert get() == 2


@pinnable
@pytest.mark.parametrize("workers", [1, 2])
def test_map_restores_when_abandoned(blas_threads, workers):
    get = blas_threads
    results = ordered_map(_seen(get), range(4), workers)
    assert next(results) == 1
    assert get() == 1  # still pinned while the caller holds the iterator
    del results
    assert get() == 2


@pinnable
def test_nested_maps_restore_only_at_the_outermost_exit(blas_threads):
    get = blas_threads

    def outer(x):
        inner = list(ordered_map(_seen(get), range(3), 2))
        return inner + [get()]  # the inner map's exit leaves the pin on

    assert list(ordered_map(outer, range(2), 2)) == [[1, 1, 1, 1]] * 2
    assert get() == 2


@pinnable
def test_concurrent_maps_restore_only_when_both_end(blas_threads):
    get = blas_threads
    first_in, second_done = threading.Event(), threading.Event()
    seen = {}

    def hold(x):
        first_in.set()
        assert second_done.wait(30)
        return get()

    first = threading.Thread(
        target=lambda: seen.update(first=list(ordered_map(hold, [0], 1))))
    first.start()
    assert first_in.wait(30)
    seen["second"] = list(ordered_map(_seen(get), range(3), 2))
    assert get() == 1  # the first map still runs
    second_done.set()
    first.join(30)
    assert seen == {"first": [1], "second": [1, 1, 1]}
    assert get() == 2


@pinnable
def test_many_concurrent_maps_keep_the_pin_count(blas_threads):
    # eight callers, more threads than cores, each pinning and restoring
    # twenty times: a task never runs unpinned, and the count ends at zero
    get = blas_threads
    seen, in_order = [], []

    def caller():
        for _ in range(20):
            seen.extend(ordered_map(_seen(get), range(3), 2))
            in_order.append(list(ordered_map(abs, range(10), 4))
                            == list(range(10)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert seen == [1] * (8 * 20 * 3)
    assert in_order == [True] * (8 * 20)
    assert _util._pin_depth == 0
    assert get() == 2


def test_caller_and_pool_threads_never_outnumber_items(monkeypatch):
    import concurrent.futures
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def recorded(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(_util, "ThreadPoolExecutor", recorded)
    assert list(ordered_map(lambda x: x * x, range(3), 8)) == [0, 1, 4]
    assert sizes == [2]  # the calling thread is the third


def _recorded_pools(monkeypatch) -> list:
    """The max_workers of every pool ordered_map opens from now on."""
    import concurrent.futures
    sizes = []
    real = concurrent.futures.ThreadPoolExecutor

    def recorded(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(_util, "ThreadPoolExecutor", recorded)
    return sizes


def test_a_map_started_inside_a_task_runs_inline_on_its_thread(monkeypatch):
    sizes = _recorded_pools(monkeypatch)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "4")

    def outer(x):
        inner = list(ordered_map(lambda y: threading.get_ident(), range(3)))
        return inner == [threading.get_ident()] * 3

    assert list(ordered_map(outer, range(2))) == [True, True]
    assert sizes == [1]  # the outer map's pool; the caller is its second thread


def test_code_between_yields_and_later_maps_still_pool(monkeypatch):
    sizes = _recorded_pools(monkeypatch)
    monkeypatch.setenv("LATENT_KRIG_THREADS", "4")

    def fail(x):
        raise ValueError("inner")

    def outer(x):
        with pytest.raises(ValueError, match="inner"):
            list(ordered_map(fail, range(3)))  # inline, and the flag survives
        return list(ordered_map(abs, range(3)))

    for got in ordered_map(outer, range(2)):
        assert got == [0, 1, 2]
        assert list(ordered_map(abs, range(2))) == [0, 1]  # not a task: pools
    assert list(ordered_map(abs, range(3))) == [0, 1, 2]
    assert sizes == [1, 1, 1, 2]


def test_the_caller_runs_items_while_it_waits():
    # item 0 waits until item 1 has started, so the two run at once: on
    # the one pool thread and on the caller, in either order
    started = threading.Event()

    def where(x):
        if x == 0:
            assert started.wait(30)
        else:
            started.set()
        return threading.get_ident()

    ran_on = list(ordered_map(where, range(2), 2))
    assert threading.get_ident() in ran_on and len(set(ran_on)) == 2


def test_a_closed_map_starts_no_more_items():
    import time
    calls = []

    def slow(x):
        calls.append(x)
        time.sleep(0.002)
        return x

    results = ordered_map(slow, range(50), 2)
    assert next(results) == 0
    results.close()  # waits for the items already running
    assert len(calls) < 10


def test_results_before_a_failed_item_are_yielded_in_order():
    def fail_on_three(x):
        if x == 3:
            raise ValueError("three")
        return x * 10

    got = []
    with pytest.raises(ValueError, match="three"):
        for value in ordered_map(fail_on_three, range(6), 2):
            got.append(value)
    assert got == [0, 10, 20]


_DIGEST_SCRIPT = r"""
import hashlib
import numpy as np
from latentkrig import SimConfig, aggregate_fit, select_tau, simulate
frame = simulate(SimConfig(n=200, p=200, seed=5)).frame
tau = select_tau(frame, grid=np.linspace(0.0, 2.0, 9), rng_seed=3)
ens = aggregate_fit(frame, J=6, tau=1.0, rng_seed=4)
h = hashlib.sha256(repr(tau).encode())
h.update(ens.xi_tilde.tobytes())
h.update(repr(ens.d_hats).encode())
print(h.hexdigest())
"""


@pinnable
def test_pinned_results_do_not_depend_on_blas_threads():
    # at this size an unpinned tau cross-validation and ensemble differ in
    # the last bits between one and two BLAS threads
    # the subprocesses import latentkrig from where this test did
    src = os.path.dirname(os.path.dirname(latentkrig.__file__))
    digests = set()
    for blas in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("LATENT_KRIG_THREADS", "OMP_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = blas
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                              capture_output=True, text=True, env=env,
                              check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests
