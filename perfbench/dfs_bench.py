"""gnm-1e4 and tree-1e4: one parallel_dfs per timed call on seeded graphs.

A run builds a fixed set of graphs from the seed and times one
``parallel_dfs`` from root 0 on each, then repeats graphs until the run's
seconds are spent.  One DFS costs seconds and its cost differs between
graphs of one family, so a figure taken from a single graph would move
with the seed more than any change worth measuring; the set is as large
as one run's time allows.  The calls form a closed loop of one client: a
request is one DFS call and its latency is the call's wall time.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

from common import (
    Ledger,
    bracketed,
    check_accounting,
    peak_rss_mb,
    seq_seconds,
    tail,
    timed_dfs,
    tree_error,
)
from layers import LayerTracer
from repro.graph.generators import make_family

N = 10_000
ROOT = 0
#: workload -> (family, graphs per run); at 5-7 s (gnm) and 3.5-4.5 s
#: (tree) per call on a 2-vCPU shared host, the counts fill about 30 s
WORKLOADS = {"gnm-1e4": ("gnm", 5), "tree-1e4": ("tree", 7)}
#: a DFS call slower than this misses the workload's latency limit
DFS_LIMIT_S = 60.0
#: builds per graph; set-up time is the median over all of them
SETUP_REPS = 1
#: sequential_dfs CPU time (at least) before and after each timed call
SEQ_BRACKET_S = 0.25


def _graphs(family: str, seed: int, count: int):
    """The run's graphs, and the set-up CPU times: each graph (and its
    CSR view) is built SETUP_REPS times, and the last build is kept."""
    rng = random.Random(seed)
    graphs, setup = [], []
    for _ in range(count):
        graph_seed = rng.randrange(2**31)
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.process_time()
            g = make_family(family, N, seed=graph_seed)
            g.csr()
            setup.append(time.process_time() - t0)
        graphs.append(g)
    # first-call imports and kernel registration, outside every timing
    timed_dfs(make_family(family, 64, seed=seed), ROOT)
    return graphs, setup


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Ledger]:
    family, count = WORKLOADS[workload]
    graphs, setup = _graphs(family, seed, count)
    ledger = Ledger()
    if trace:
        return _run_traced(graphs, ledger), ledger

    dfs: list[list[float]] = [[] for _ in graphs]
    seq: list[list[float]] = [[] for _ in graphs]
    first: list[tuple | None] = [None] * len(graphs)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(graphs) or time.perf_counter() < deadline:
        gi = i % len(graphs)
        g = graphs[gi]
        call, base = bracketed(g, ROOT, lambda: timed_dfs(g, ROOT), SEQ_BRACKET_S)
        dfs[gi].append(call.cpu_s)
        seq[gi].extend(base)
        err = tree_error(g, call)
        ledger.check(err is None, f"graph {gi}: invalid tree: {err}")
        key = (call.digest(), call.work, call.span)
        if first[gi] is None:
            first[gi] = key
        else:
            ledger.check(
                key == first[gi],
                f"graph {gi}: repeated call returned another tree or cost",
            )
        i += 1

    # a ratio of means over the graph set: the sequential samples spread
    # over the whole run, as the calls they divide do
    x_seq = statistics.fmean(statistics.median(d) for d in dfs) / statistics.fmean(
        statistics.fmean(s) for s in seq
    )
    mn = sum(g.n + g.m for g in graphs)
    return {
        "setup_s": statistics.median(setup),
        "x_sequential": x_seq,
        "work_per_mn": sum(k[1] for k in first) / mn,
        "span": statistics.fmean(k[2] for k in first),
        "peak_rss_mb": peak_rss_mb(),
    }, ledger


def _run_traced(graphs, ledger: Ledger) -> dict:
    """Half the graph set, each graph run once untraced and once traced:
    the pair must agree on tree, work and span, and the traced layers must
    account for the traced wall time."""
    tracer = LayerTracer()
    plain, traced, seq = [], [], []
    for gi, g in enumerate(graphs[: math.ceil(len(graphs) / 2)]):
        # alternate the order so neither side always runs on a cold cache
        if gi % 2:
            with tracer.installed():
                b = timed_dfs(g, ROOT, call=tracer.dfs)
            a = timed_dfs(g, ROOT)
        else:
            a = timed_dfs(g, ROOT)
            with tracer.installed():
                b = timed_dfs(g, ROOT, call=tracer.dfs)
        plain.append(a.seconds)
        traced.append(b.seconds)
        for c in (a, b):
            err = tree_error(g, c)
            ledger.check(err is None, f"graph {gi}: invalid tree: {err}")
        ledger.check(
            (a.digest(), a.work, a.span) == (b.digest(), b.work, b.span),
            f"graph {gi}: traced call returned another tree or cost",
        )
        seq.append(seq_seconds(g, ROOT))
    check_accounting(tracer, sum(traced), ledger)
    return {
        **tracer.dfs_metrics(),
        "dfs_s": statistics.fmean(plain),
        "seq_s": statistics.fmean(seq),
        "trace_overhead": sum(traced) / sum(plain),
        "goodput_ops_s": sum(t <= DFS_LIMIT_S for t in traced) / sum(traced),
        "p50_ms": statistics.median(traced) * 1e3,
        "tail_ms": tail(traced) * 1e3,
    }

