"""Deterministic worker-pool mapping for parameter sweeps.

Sweeps partition across processes; pool.map preserves input order, so a
fixed seed and config give byte-identical reports at any worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    env = os.environ.get("DYNCTL_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def map_chunks(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """Ordered map over items, fanning out to `workers` processes when asked.

    The pool never has more processes than the machine has CPUs; output does
    not depend on the worker count. fn must be picklable (a module-level
    function or functools.partial of one).
    """
    items = list(items)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(items) < 2 * workers:
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    chunksize = max(1, len(items) // (workers * 4))
    with ctx.Pool(workers) as pool:
        return pool.map(fn, items, chunksize=chunksize)
