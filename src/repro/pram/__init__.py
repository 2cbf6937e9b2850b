"""PRAM work-depth substrate: cost tracking, primitives, a thread-pool map."""

from .tracker import Cost, Tracker, brent_time, brent_time_bounds, log2_ceil
from . import primitives
from .executor import default_workers, run_parallel
from .sorting import parallel_sort, parallel_merge

__all__ = [
    "Cost",
    "Tracker",
    "brent_time",
    "brent_time_bounds",
    "log2_ceil",
    "primitives",
    "run_parallel",
    "default_workers",
    "parallel_sort",
    "parallel_merge",
]
