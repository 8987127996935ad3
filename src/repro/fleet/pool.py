"""Shared process-pool sizing and a small parallel map.

Every pool in the repo routes its worker count through
:func:`resolve_workers` so nested pools cannot oversubscribe: code
already running *inside* a fleet worker (detected via the worker env
flag) always resolves to 1 and runs serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.fleet.worker import in_worker

__all__ = ["resolve_workers", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(requested: int | None = None, *, items: int | None = None) -> int:
    """Effective worker count for a pool.

    ``requested=None`` means "use the machine": ``os.cpu_count()``,
    which also caps any explicit request — a worker beyond the core
    count only adds spawn and import time. Inside a fleet worker the answer
    is always 1 — the outer scheduler owns the hardware, a nested pool
    would only add oversubscription and spawn latency.
    """
    if in_worker():
        return 1
    cpus = os.cpu_count() or 1
    workers = min(requested, cpus) if requested and requested > 0 else cpus
    if items is not None:
        workers = min(workers, max(items, 1))
    return max(workers, 1)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    max_workers: int | None = None,
    threshold: int = 2,
) -> list[R]:
    """Map ``fn`` over ``items``, in a process pool when it pays off.

    ``fn`` must be a module-level (picklable) callable. Order of the
    results matches ``items``. Below ``threshold`` items, or with one
    effective worker, this is a plain serial loop.
    """
    workers = resolve_workers(max_workers, items=len(items))
    if workers <= 1 or len(items) < threshold:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
