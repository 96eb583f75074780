"""Paired benchmark runs of two checkouts, summarized in a BENCH file.

Runs ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``
and every seed, once in a checkout of the base commit and once in this
checkout, alternating which of the two runs first.  Writes, per workload,
the median and quartiles of every end-to-end metric on each side, each
pair's values, how many pairs the change won, and whether the output
digests agreed, together with the seeds and the command::

    python3 tools/bench_pairs.py --base ../base-checkout --seeds 3-12 \\
        --seconds 15 --out BENCH_9.json

Runs are serial: two at once would share the cores they are timed on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The report line and the end-to-end metrics of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    report, summary = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": summary["correct"],
        "digest": report["digest"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def commit_of(checkout: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("3-12"), help="e.g. 3-12")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"base": args.base.resolve(), "change": ROOT}
    # the command as run, without this host's paths
    names = {str(args.base): "<base checkout>", str(args.out): args.out.name}
    shown = [names.get(a, a) for a in argv or sys.argv[1:]]
    result = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *shown]),
        "runner": "perfbench/run.py --trace 0, one run per side and seed",
        "base_commit": commit_of(sides["base"]),
        "change": "the commit this file is checked in with",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for wl in workloads:
        runs = {"base": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                runs[side].append(run_once(sides[side], wl, seed, args.seconds))
                print(wl, seed, side, runs[side][-1]["metrics"], file=sys.stderr, flush=True)
        summary = {}
        for name, meta in metrics.items():
            base = [r["metrics"][name] for r in runs["base"]]
            change = [r["metrics"][name] for r in runs["change"]]
            if meta["better"] == "higher":
                won = sum(c > b for b, c in zip(base, change))
            else:
                won = sum(c < b for b, c in zip(base, change))
            summary[name] = {
                "unit": meta["unit"],
                "better": meta["better"],
                "base": spread(base),
                "change": spread(change),
                "change_better_pairs": won,
            }
        result["workloads"][wl] = {
            "metrics": summary,
            "pairs": len(args.seeds),
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "digests_equal": all(
                b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"])
            ),
        }
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
