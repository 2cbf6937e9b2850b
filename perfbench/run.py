"""The repository benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload gnm-1e4 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

Run it from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing patched; ``--trace 1`` wraps each layer's entry point
(perfbench/layers.py) and reports the per-layer metrics.  The metrics and
their units are declared in BENCHMARK.json, next to perfbench/.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
provenance stamp and a readable table.  A wrong tree, a failed request or
a failed audit makes the run exit 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: the default workload seed, and one no change may be tuned on
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231
#: DFS-workload rows that only the service exercises report 0 there
SERVICE_ONLY = "svc."


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _provenance() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    from common import ENGINE, STRUCTURE

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": ENGINE,
        "structure": STRUCTURE,
        "env": {
            k: os.environ[k]
            for k in ("REPRO_KERNEL_BACKEND", "REPRO_WORKERS")
            if k in os.environ
        },
    }


def _run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    declared = _declared()
    if workload not in declared["workloads"]:
        raise SystemExit(f"unknown workload {workload!r}")
    import dfs_bench
    import svc_bench

    bench = dfs_bench if workload in dfs_bench.WORKLOADS else svc_bench
    print("# provenance " + json.dumps(
        {**_provenance(), "workload": workload, "seed": seed,
         "seconds": seconds, "trace": trace}, sort_keys=True))
    values, ledger = bench.run(workload, seed, seconds, bool(trace))
    failed = len(ledger.failures)
    if trace:
        values["fail_frac"] = failed / max(1, ledger.attempted)
        if bench is dfs_bench:
            for name in declared[1]:
                if name.startswith(SERVICE_ONLY):
                    values.setdefault(name, 0)
    units = declared[trace]
    if set(values) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    for reason in ledger.failures[:20]:
        print(f"# FAILED {reason}")
    if failed > 20:
        print(f"# FAILED ... and {failed - 20} more")
    for name, unit in units.items():
        print(f"{workload:10s} {name:28s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


def _run_all(seed: int, seconds: float) -> int:
    """Each workload untraced and traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in _declared()["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            code = code or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                return proc.returncode or 1
            last = json.loads(lines[-1])
            merged["correct"] &= last["correct"]
            merged["attempted"] += last["attempted"]
            merged["failed"] += last["failed"]
            for name, metric in last["metrics"].items():
                merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)
    return _run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
