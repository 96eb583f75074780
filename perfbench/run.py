"""Benchmark command for streamkc: one seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  It writes the workload's seeded dataset under
``perfbench/_work/`` before any clock starts, then runs each measurement in
a fresh single-threaded child interpreter (``worker.py``):

* ``--trace 0``: several set-up-only children (the median is ``setup_s``)
  and one measured child; prints the end-to-end metrics.
* ``--trace 1``: one untraced and one traced measured child; prints the
  per-layer metrics of the traced one and the tracing overhead, and leaves
  the raw spans in ``perfbench/_work/spans-<workload>.npz``.

Every run checks the engine's outputs.  Earlier stdout lines carry the full
report (every metric that applies, the output digest, the environment); the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  Exit status 0 on a correct run, 1 if a check failed, 2 if the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py with args; returns (its result, perf_counter at spawn)."""
    timeout = max(1.0, deadline - time.monotonic())
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "streamkc" / "__init__.py").is_file():
        print(f"no streamkc sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    WORK.mkdir(exist_ok=True)
    data = WORK / f"{wl.name}-{args.seed}.csv"
    try:
        rows = wl.points(wl.cycles(args.seconds))
        diameter = workloads.write_dataset(wl, args.seed, rows, data)
        base = [wl.name, str(data), repr(diameter), str(args.seconds)]
        result, spawned = run_child(base + ["0"], deadline)
        if args.trace:
            traced, _ = run_child(base + ["1"], deadline)
        else:
            setups = [(result["setup_at"] - spawned, result["setup_factor"])]
            for _ in range(SETUP_PROBES):
                probe, spawned = run_child(base + ["0", "--setup-only"], deadline)
                setups.append((probe["setup_at"] - spawned, probe["setup_factor"]))
    finally:
        data.unlink(missing_ok=True)

    metrics = result["metrics"]
    if not args.trace:
        # set-up time at the reference speed, like update times (worker.py)
        metrics["setup_s"] = statistics.median(t * f for t, f in setups)
        metrics["raw"]["setup_s"] = statistics.median(t for t, _ in setups)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "digest": result["digest"],
        "checked_queries": result["checked_queries"],
        "points": result["points"],
        "fill_s": result["fill_s"],
        "metrics": metrics,
        "env": environment(),
    }
    checks = [result]
    if args.trace:
        layers = traced["layers"]
        tm = traced["metrics"]
        for key, name in (("update_p50_us", "update_p50"), ("query_p50_ms", "query_p50")):
            if metrics.get(key):
                layers[f"trace.{name}_overhead"] = tm[key] / metrics[key] - 1.0
        layers["trace.throughput_overhead"] = (
            metrics["throughput_pts_s"] / tm["throughput_pts_s"] - 1.0
        )
        report["traced_digest"] = traced["digest"]
        report["traced_metrics"] = tm
        report["layers"] = layers
        checks.append(traced)
    correct = all(r["failed"] == 0 for r in checks)
    if args.trace:
        # the traced run must compute exactly what the untraced one did
        correct = correct and traced["digest"] == result["digest"]
    print(json.dumps(report))

    if args.trace:
        out = {name: {"value": layers[name], "unit": unit} for name, unit in workloads.PER_LAYER}
    else:
        out = {name: {"value": metrics.get(name), "unit": unit}
               for name, unit in workloads.END_TO_END}
        correct = correct and all(m["value"] is not None for m in out.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in checks),
        "failed": sum(r["failed"] for r in checks),
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
