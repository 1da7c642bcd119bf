"""Ordered maps on a small thread pool.

numpy releases the GIL while LAPACK or BLAS works on a large matrix, so
threads can overlap that work (``spectra``'s eigensolves and
``sampled_moments``' matrix products).  Each task reads only its own inputs
(its own matrix), and results come back in input order, so no output
depends on the number of workers or on how the threads interleave.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """The cores this process may run on: its affinity set where the platform
    has one (Linux), else every core the machine reports (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int,
                name: str) -> Iterator[R]:
    """``fn(item)`` for each of ``items``, yielded in input order.

    With one worker (or fewer) each call runs on the calling thread when its
    result is asked for, and no thread is started.  With more, the calls run
    on that many threads named ``name``, and at most ``workers`` of them are
    in flight: ``items`` is read on the calling thread, one item each time a
    result is taken.  When the map ends, is closed early, or raises, the
    calls not yet started are cancelled and every thread is joined before
    it returns; an exception raised by a call or by ``items`` reaches the
    caller unchanged.  Close a map that may be left unfinished (for example
    with ``contextlib.closing``), so that its threads are joined then and
    not when it is garbage-collected.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    # imported here: at module level it would add to every command's start-up
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(workers, thread_name_prefix=name)
    pending: deque = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        pool.shutdown(wait=True)
