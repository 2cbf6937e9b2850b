"""svc-mixed: an open-loop query/update stream through the in-process service.

The resident graph and the request mix follow E20: three seeded gnm
components of 120 vertices; 90% DFS queries over 4 (root, seed) keys, so
most of them hit the tree cache; 10% single-edge update batches, a fifth
of them toggling a bridge between two components so maintenance takes
both the incremental and the rebuild path.  Requests arrive on a seeded
Poisson schedule at a fixed offered rate whatever the service does
(independent users), and each latency counts from the request's due
time, so a stall also charges the requests queued behind it.

After the stream drains, the query keys and 20 more seeded keys are asked
once more, and each served tree is compared byte for byte with a fresh
``parallel_dfs`` on the final graph; those fresh calls are the run's
``dfs_s`` samples.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import statistics
import time

from common import (
    ENGINE,
    STRUCTURE,
    Ledger,
    bracketed,
    check_accounting,
    payload_digest,
    peak_rss_mb,
    seq_seconds,
    tail,
    timed_dfs,
    tree_error,
)
from layers import LayerTracer
from repro.graph.generators import make_family
from repro.graph.graph import Graph
from repro.service import ServiceConfig, ServiceHandle

PARTS = 3
N_EACH = 120
UPDATE_FRACTION = 0.1
BRIDGE_FRACTION = 0.2
#: (root, seed) query keys.  With 4 keys about 80% of the queries hit the
#: cache, so the median latency lies inside the hit mode.  With E20's 24
#: keys it sits on the edge between ~3 ms hits and ~40 ms misses and jumps
#: between them from run to run; with more keys misses queue behind each
#: other and the median swings with the host's speed.
QUERY_KEYS = 4
#: keys re-asked after the stream and checked against a fresh parallel_dfs:
#: the query keys and seeded extra ones
AUDITED_KEYS = 24
#: one component stays under this share of n (incremental maintenance);
#: the bridged pair lands over it (rebuild)
REBUILD_FRACTION = 1.35 / PARTS
#: offered load; the service sustained ~27 req/s on E20's closed-loop mix
RATE = 12.0
#: a request answered later than this after its due time is not good
LIMIT_S = 1.0
#: executor threads, never more than cores; the load comes from this
#: one process
WORKERS = min(2, os.cpu_count() or 1)
#: times the resident graph is loaded; set-up is their median CPU time
LOADS = 30
#: fresh parallel_dfs calls per audited key; dfs_s takes their median
AUDIT_REPS = 3


def _resident(seed: int) -> tuple[int, list[list[int]]]:
    edges, total = [], 0
    rng = random.Random(seed)
    for _ in range(PARTS):
        g = make_family("gnm", N_EACH, seed=rng.randrange(2**31))
        edges.extend([u + total, v + total] for u, v in g.edges)
        total += g.n
    return total, edges


def _stream(n: int, seed: int, count: int) -> tuple[list[dict], list[tuple[int, int]]]:
    """The seeded request mix.  The number of updates and of bridge toggles
    is fixed, not drawn, so every run does the same amount of maintenance;
    the toggle count is even, so the stream ends with the bridge down."""
    rng = random.Random(seed ^ 0x5EC)
    keys = [(rng.randrange(n), rng.randrange(4)) for _ in range(QUERY_KEYS)]
    update_at = rng.sample(range(count), round(UPDATE_FRACTION * count))
    toggles = 2 * round(BRIDGE_FRACTION * len(update_at) / 2)
    toggle_at = set(rng.sample(update_at, toggles))
    update_at = set(update_at)
    bridge, bridge_up = [0, N_EACH], False
    reqs = []
    for i in range(count):
        if i in toggle_at:
            side = "delete" if bridge_up else "insert"
            bridge_up = not bridge_up
            reqs.append({"op": "update", "graph": "g", side: [bridge], "id": f"u{i}"})
        elif i in update_at:
            base = rng.randrange(PARTS) * N_EACH
            u, v = base + rng.randrange(N_EACH), base + rng.randrange(N_EACH)
            if u == v:
                v = base + (v - base + 1) % N_EACH
            side = "insert" if rng.random() < 0.5 else "delete"
            pair = [min(u, v), max(u, v)]
            reqs.append({"op": "update", "graph": "g", side: [pair], "id": f"u{i}"})
        else:
            root, s = rng.choice(keys)
            reqs.append(
                {"op": "dfs", "graph": "g", "root": root, "seed": s, "id": f"q{i}"}
            )
    audited = set(keys)
    while len(audited) < AUDITED_KEYS:
        audited.add((rng.randrange(n), rng.randrange(4)))
    return reqs, sorted(audited)


def _schedule(seed: int, count: int, seconds: float) -> list[float]:
    """Due times of a Poisson stream with exactly ``count`` arrivals in
    ``seconds``: sorted uniform draws (the Poisson process conditioned on
    its count), so every run offers the same load."""
    rng = random.Random(seed ^ 0xA77)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


async def _drive(handle: ServiceHandle, reqs: list[dict], due: list[float]):
    async def one(req: dict, at: float):
        resp = await handle.request(dict(req))
        return resp, time.perf_counter() - at, time.perf_counter() - start

    start = time.perf_counter()
    tasks, late = [], []
    for req, d in zip(reqs, due):
        at = start + d
        wait = at - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        late.append(max(0.0, time.perf_counter() - at))
        tasks.append(asyncio.create_task(one(req, at)))
    return await asyncio.gather(*tasks), late


async def _session(n, edges, reqs, due, keys, ledger, tracer):
    cfg = ServiceConfig(
        kernel_backend=ENGINE,
        structure=STRUCTURE,
        executor_workers=WORKERS,
        rebuild_fraction=REBUILD_FRACTION,
        flight_dir=None,
    )
    async with ServiceHandle(cfg) as h:
        setup = []
        for _ in range(LOADS):
            gc.collect()
            t0 = time.process_time()
            resp = await h.op("load", graph="g", n=n, edges=edges)
            setup.append(time.process_time() - t0)
            ledger.check(resp.get("ok", False), f"load failed: {resp}")
        # first-call imports and the rebuild path, then a fresh copy
        for op, fields in (
            ("dfs", {"root": 0, "seed": 0}),
            ("update", {"insert": [[0, N_EACH]]}),
            ("load", {"n": n, "edges": edges}),
        ):
            resp = await h.op(op, graph="g", **fields)
            ledger.check(resp.get("ok", False), f"warm-up {op} failed: {resp}")
        before = (await h.op("stats"))["service"]
        if tracer is not None:
            tracer.reset()
        answered, late = await _drive(h, reqs, due)
        after = (await h.op("stats"))["service"]
        counters = {
            "batches": after["batches"] - before["batches"] - 1,
            "coalesced": after["coalesced"] - before["coalesced"],
            "max_queue_depth": after["max_queue_depth"],
        }
        rows = per_dfs = None
        if tracer is not None:
            rows, per_dfs = dict(tracer.rows), tracer.dfs_metrics()
        served = {}
        for root, s in keys:
            served[root, s] = await h.op("dfs", graph="g", root=root, seed=s)
        final = Graph(n, sorted(h.service.store.get("g").dyn.edge_pairs()))
        final.csr()
    return setup, answered, late, counters, rows, per_dfs, served, final


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Ledger]:
    n, edges = _resident(seed)
    count = round(RATE * seconds)
    reqs, keys = _stream(n, seed, count)
    due = _schedule(seed, count, seconds)
    ledger = Ledger()
    tracer = LayerTracer() if trace else None

    async def main():
        if tracer is None:
            return await _session(n, edges, reqs, due, keys, ledger, None)
        with tracer.installed():
            return await _session(n, edges, reqs, due, keys, ledger, tracer)

    setup, answered, late, counters, rows, per_dfs, served, final = asyncio.run(main())
    # the schedule runs from the first due time to the last response; a
    # failed request counts as missing the limit
    length = max(done for _, _, done in answered)
    latencies = [lat for _, lat, _ in answered]
    good = 0
    for req, (resp, lat, _) in zip(reqs, answered):
        ok = resp.get("ok", False) and resp.get("id") == req["id"]
        ledger.check(ok, f"request {req['id']} failed: {resp.get('error', resp)}")
        good += ok and lat <= LIMIT_S
    if tracer is not None:
        tracer.reset()

    # audit outside the timed stream: served trees vs fresh parallel_dfs
    plain, traced, seq, calls, ratios = [], [], [], [], []
    for (root, s), resp in served.items():
        reps, base = [], []
        for _ in range(AUDIT_REPS):
            c, b = bracketed(final, root, lambda: timed_dfs(final, root, seed=s))
            reps.append(c)
            base.extend(b)
        call = reps[0]
        calls.append(call)
        plain.append(statistics.median(c.seconds for c in reps))
        ratios.append(
            statistics.median(c.cpu_s for c in reps) / statistics.median(base)
        )
        err = tree_error(final, call)
        ledger.check(err is None, f"key {root},{s}: invalid fresh tree: {err}")
        ledger.check(
            len({(c.digest(), c.work, c.span) for c in reps}) == 1,
            f"key {root},{s}: repeated calls returned another tree or cost",
        )
        ledger.check(
            resp.get("ok", False) and payload_digest(resp["tree"]) == call.digest(),
            f"key {root},{s}: served tree differs from a fresh parallel_dfs",
        )
        if tracer is not None:
            seq.append(seq_seconds(final, root))
            with tracer.installed():
                b = timed_dfs(final, root, seed=s, call=tracer.dfs)
            traced.append(b.seconds)
            ledger.check(
                (call.digest(), call.work, call.span) == (b.digest(), b.work, b.span),
                f"key {root},{s}: traced call returned another tree or cost",
            )

    if tracer is not None:
        check_accounting(tracer, sum(traced), ledger)
        return {
            **per_dfs,
            **_svc_rows(rows, counters, late),
            "seq_s": statistics.median(seq),
            "trace_overhead": sum(traced) / sum(plain),
            "dfs_s": statistics.median(plain),
            "goodput_ops_s": good / length,
            "p50_ms": statistics.median(latencies) * 1e3,
            "tail_ms": tail(latencies) * 1e3,
        }, ledger

    return {
        "setup_s": statistics.median(setup),
        "x_sequential": statistics.median(ratios),
        "work_per_mn": sum(c.work for c in calls) / (len(calls) * (final.n + final.m)),
        "span": statistics.fmean(c.span for c in calls),
        "peak_rss_mb": peak_rss_mb(),
    }, ledger


def _svc_rows(rows: dict, counters: dict, late: list[float]) -> dict:
    lookup = rows.get("svc.lookup")
    compute = rows.get("svc.compute")
    maint = rows.get("svc.maint")
    hits = lookup.outcomes.get("hit", 0) if lookup else 0
    modes = maint.outcomes if maint else {}
    applied = modes.get("incremental", 0) + modes.get("rebuild", 0)
    return {
        "svc.cache_hit_frac": hits / lookup.calls if lookup else 0.0,
        "svc.compute.calls": compute.calls if compute else 0,
        "svc.compute.s": compute.s if compute else 0.0,
        "svc.compute.ms_p50": (
            statistics.median(compute.durations) * 1e3 if compute else 0.0
        ),
        "svc.maint.calls": maint.calls if maint else 0,
        "svc.maint.s": maint.s if maint else 0.0,
        "svc.rebuild_frac": modes.get("rebuild", 0) / applied if applied else 0.0,
        "svc.batches": counters["batches"],
        "svc.coalesced": counters["coalesced"],
        "svc.max_queue_depth": counters["max_queue_depth"],
        "svc.gen_late_ms": max(late) * 1e3,
    }
