"""Per-layer timing from outside the program.

Each layer is a public entry point that its caller looks up at call time,
as a module global or a class attribute.  :class:`LayerTracer` replaces
that attribute with a wrapper that times the call, subtracts the time of
traced calls nested inside it (self time) and reads the tracked-work
counter of the :class:`~repro.pram.tracker.Tracker` driving the current
``parallel_dfs`` before and after.  Nothing inside the program changes.

The root layer is ``parallel_dfs`` itself: its wrapper hands the call a
fresh Tracker when the caller passed none (the service's computes), so
every nested layer reads the same work counter the run reports.  The
root's self time is the driver's own time (``driver.self_s``): the
recursion, the per-vertex result assembly and everything no layer below
covers.

Stacks are per thread, because the service runs its computes on executor
threads; the totals are shared behind a lock.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.pram.tracker import Tracker

#: (row, module, attribute the caller looks up).  Each row is reported
#: with calls / s / self_s / work / ns_per_work per parallel_dfs call.
DFS_LAYERS: tuple[tuple[str, str, str], ...] = (
    # the driver's induce helper: it calls
    # kernels.subgraph.induced_subgraph_np and charges that kernel's scan
    ("induce", "repro.core.dfs", "_induced"),
    ("separator", "repro.core.dfs", "build_separator"),
    ("reduce", "repro.core.separator", "reduce_paths"),
    ("merge", "repro.core.reduction", "merge_paths"),
    ("luby", "repro.core.path_merge", "maximal_matching"),
    ("listrank", "repro.core.reduction", "prefix_sums_on_lists"),
    ("listrank", "repro.core.absorption", "prefix_sums_on_lists"),
    ("absorb", "repro.core.dfs", "absorb_separator"),
    ("flat.batch_delete", "repro.structures.flat_absorb",
     "FlatAbsorptionStructure.batch_delete"),
    ("components", "repro.core.dfs", "connected_components"),
    ("base_case", "repro.core.dfs", "sequential_dfs"),
)

#: service layers; their rows are stream totals, not per-DFS figures
SVC_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("svc.lookup", "repro.service.store", "ResidentGraph.lookup"),
    ("svc.compute", "repro.service.store", "ResidentGraph.compute"),
    ("svc.maint", "repro.service.dynamic", "DynamicGraph.apply_batch"),
)

#: the root: ResidentGraph.compute looks parallel_dfs up here; the DFS
#: workloads call :meth:`LayerTracer.dfs` instead
ROOT = ("dfs", "repro.service.store", "parallel_dfs")


def _outcome(row: str, result) -> str | None:
    """The outcome a layer call is classified by, where one matters."""
    if row == "svc.lookup":
        return "hit" if result is not None else "miss"
    if row == "svc.maint":
        return result.mode
    return None


@dataclass
class Row:
    """Totals of one layer."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    durations: list[float] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=dict)


class LayerTracer:
    """Wraps the layer entry points while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.rows: dict[str, Row] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        orig = getattr(importlib.import_module(ROOT[1]), ROOT[2])
        #: the traced parallel_dfs, for callers that run it directly
        self.dfs: Callable = self._wrap(ROOT[0], orig, root=True)

    def _wrap(self, row: str, fn: Callable, root: bool = False) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if root:
                # parallel_dfs(g, root, tracker=None, ...)
                if len(args) < 3 and kwargs.get("tracker") is None:
                    kwargs["tracker"] = Tracker()
                outer = getattr(local, "tracker", None)
                local.tracker = args[2] if len(args) > 2 else kwargs["tracker"]
            tracker = getattr(local, "tracker", None)
            w0 = tracker.work if tracker is not None else 0
            stack.append(0.0)
            outcome = "error"
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(row, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                work = tracker.work - w0 if tracker is not None else 0
                if root:
                    local.tracker = outer
                self._add(row, dt, dt - child, work, outcome)

        return traced

    def _add(
        self, row: str, dt: float, self_dt: float, work: int, outcome: str | None
    ) -> None:
        with self._lock:
            r = self.rows.setdefault(row, Row())
            r.calls += 1
            r.s += dt
            r.self_s += self_dt
            r.work += work
            r.durations.append(dt)
            if outcome is not None:
                r.outcomes[outcome] = r.outcomes.get(outcome, 0) + 1

    def reset(self) -> None:
        with self._lock:
            self.rows = {}

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every layer (and the root) for the duration of the block."""
        saved = []
        try:
            for row, modname, attr in DFS_LAYERS + SVC_LAYERS + (ROOT,):
                owner = importlib.import_module(modname)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                saved.append((owner, name, orig))
                new = self.dfs if (row, modname, attr) == ROOT else self._wrap(row, orig)
                setattr(owner, name, new)
            yield self
        finally:
            for owner, name, orig in reversed(saved):
                setattr(owner, name, orig)

    def dfs_metrics(self) -> dict[str, float]:
        """Per-layer rows of the DFS path, per traced parallel_dfs call."""
        root = self.rows.get(ROOT[0], Row())
        per = max(1, root.calls)
        out: dict[str, float] = {}
        for row in dict.fromkeys(name for name, _, _ in DFS_LAYERS):
            r = self.rows.get(row, Row())
            out[f"{row}.calls"] = r.calls / per
            out[f"{row}.s"] = r.s / per
            out[f"{row}.self_s"] = r.self_s / per
            out[f"{row}.work"] = r.work / per
            out[f"{row}.ns_per_work"] = r.s * 1e9 / r.work if r.work else 0.0
        out["driver.self_s"] = root.self_s / per
        return out

    def accounted_s(self) -> float:
        """Self time summed over the root and every DFS layer; by
        construction it equals the root's inclusive time when the stack
        bookkeeping is sound."""
        rows = [ROOT[0]] + [name for name, _, _ in DFS_LAYERS]
        return sum(self.rows[r].self_s for r in dict.fromkeys(rows) if r in self.rows)

    def root_s(self) -> float:
        return self.rows.get(ROOT[0], Row()).s
