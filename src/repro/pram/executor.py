"""Real-concurrency helpers: a thread-pool map and its worker count.

The algorithms themselves never run concurrently: ``kernel_backend=
"tracked"`` is sequential Python with exact per-element work/span
accounting, and ``kernel_backend="numpy"`` runs the same round structure
as whole-array kernels on one core. Brent's ``T_p`` is a *derived*
number from the tracked work and span (``pram/tracker.py``). What this
module offers is :func:`run_parallel`, an order-preserving thread-pool
map for blocking workloads (experiment E14), and :func:`default_workers`,
the ``REPRO_WORKERS``-controlled width it and the benchmarks use.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "run_parallel",
    "default_workers",
]


def default_workers() -> int:
    """Worker count for the pool: ``REPRO_WORKERS`` if set, else a cap.

    ``REPRO_WORKERS`` must be a positive integer; anything else raises a
    ``ValueError`` naming the variable (a silent fallback would bench the
    wrong width). Values above ``os.cpu_count()`` are capped — extra
    workers past the physical cores only add scheduling noise.
    """
    cores = os.cpu_count() or 1
    env = os.environ.get("REPRO_WORKERS")
    if env is None or env == "":
        return min(8, cores)
    try:
        w = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be a positive integer, got {env!r}"
        ) from None
    if w < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {w}")
    return min(w, cores)


def run_parallel(
    items: Sequence[T],
    fn: Callable[[T], R],
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Apply ``fn`` to each item using a thread pool, preserving order.

    Falls back to a plain loop for tiny inputs where pool overhead
    dominates. Work items are dispatched in chunks of
    ``ceil(n / (4 * workers))`` by default — enough slices for the pool
    to balance, few enough that per-item future overhead is amortized.
    Threads, not processes: right for blocking/IO-shaped maps.
    """
    n = len(items)
    if n == 0:
        return []
    w = workers if workers is not None else default_workers()
    if w <= 1 or n < 4:
        return [fn(it) for it in items]
    if chunksize is None:
        chunksize = max(1, math.ceil(n / (4 * w)))
    chunks = [items[i : i + chunksize] for i in range(0, n, chunksize)]

    def run_chunk(chunk: Sequence[T]) -> list[R]:
        return [fn(it) for it in chunk]

    with ThreadPoolExecutor(max_workers=w) as pool:
        out: list[R] = []
        for part in pool.map(run_chunk, chunks):
            out.extend(part)
        return out
