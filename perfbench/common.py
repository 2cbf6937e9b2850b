"""Measurement helpers shared by the perfbench workloads."""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.sequential import sequential_dfs
from repro.core.dfs import DFSResult, parallel_dfs
from repro.core.verify import explain_dfs_tree
from repro.graph.graph import Graph
from repro.pram.tracker import Tracker
from repro.service import tree_bytes, tree_payload

#: every DFS call pins the engine and the absorption structure by
#: argument: the library default engine is the slow tracked reference
ENGINE = "numpy"
STRUCTURE = "flat"

#: sequential_dfs calls per graph (at least), and the least time they
#: fill; their median is the seq_s row
SEQ_REPS = 5
SEQ_MIN_S = 0.05
#: sequential_dfs calls (at least) right before and right after each
#: timed parallel_dfs, the x_sequential base
SEQ_BRACKET = 3


@dataclass
class Ledger:
    """Operations attempted, and the reason for each one that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class DFSCall:
    """One timed parallel_dfs call and its tracked cost."""

    seconds: float
    cpu_s: float
    work: int
    span: int
    result: DFSResult

    def digest(self) -> str:
        r = self.result
        return payload_digest(tree_payload(r.root, r.parent, r.depth))


def payload_digest(tree: dict) -> str:
    """Digest of a tree's canonical bytes, the service's comparison unit."""
    return hashlib.sha256(tree_bytes(tree)).hexdigest()


def timed_dfs(
    g: Graph, root: int, seed: int | None = None, call: Callable = parallel_dfs
) -> DFSCall:
    """Time one parallel_dfs; ``seed`` None keeps the library's default rng.

    A collection first starts every call from the same collector state,
    so garbage left by the previous call is not charged to this one."""
    t = Tracker()
    rng = random.Random(seed) if seed is not None else None
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    res = call(
        g, root, tracker=t, rng=rng, kernel_backend=ENGINE, backend=STRUCTURE
    )
    t1, c1 = time.perf_counter(), time.process_time()
    return DFSCall(t1 - t0, c1 - c0, t.work, t.span, res)


def tree_error(g: Graph, call: DFSCall) -> str | None:
    """None when the tree passes the DFS oracle and its depths agree."""
    r = call.result
    reason = explain_dfs_tree(g, r.root, r.parent)
    if reason is not None:
        return reason
    for v, p in r.parent.items():
        if r.depth.get(v) != (0 if p is None else r.depth.get(p, -2) + 1):
            return f"depth of {v} disagrees with its parent {p}"
    return None


def seq_seconds(g: Graph, root: int) -> float:
    """Median wall time of sequential_dfs: SEQ_REPS calls or more, until
    they fill SEQ_MIN_S, so that small graphs get enough samples."""
    times: list[float] = []
    gc.collect()
    while len(times) < SEQ_REPS or sum(times) < SEQ_MIN_S:
        t0 = time.perf_counter()
        sequential_dfs(g, root, Tracker())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def seq_cpu(g: Graph, root: int, min_s: float = 0.0) -> list[float]:
    """CPU times of sequential_dfs calls after one collection: at least
    SEQ_BRACKET calls, and more until they fill ``min_s``."""
    times: list[float] = []
    gc.collect()
    while len(times) < SEQ_BRACKET or sum(times) < min_s:
        c0 = time.process_time()
        sequential_dfs(g, root, Tracker())
        times.append(time.process_time() - c0)
    return times


def bracketed(
    g: Graph, root: int, call: Callable[[], DFSCall], min_s: float = 0.0
) -> tuple[DFSCall, list[float]]:
    """Run ``call`` between two brackets of sequential_dfs calls on ``g``
    (see :func:`seq_cpu`); return it and the brackets' CPU times.

    x_sequential divides the call's CPU time by these.  Both sides run on
    one thread under the pinned engine, so CPU time is their cost without
    the time a shared host takes the core away, and the brackets sample
    the host's speed in the same seconds as the call they divide."""
    before = seq_cpu(g, root, min_s)
    c = call()
    return c, before + seq_cpu(g, root, min_s)


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than eleven samples."""
    s = sorted(values)
    return s[-11] if len(s) >= 11 else s[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_accounting(tracer, measured_s: float, ledger: Ledger) -> None:
    """Self times must add up to the root's time, and the root's time to
    the wall time the caller measured around its traced calls."""
    root = tracer.root_s()
    ledger.check(
        abs(tracer.accounted_s() - root) <= 1e-6 * max(1.0, root),
        f"layer self times sum to {tracer.accounted_s():.6f}s, root {root:.6f}s",
    )
    ledger.check(
        abs(root - measured_s) <= 0.01 * measured_s,
        f"traced root spans {root:.4f}s but the calls took {measured_s:.4f}s",
    )
