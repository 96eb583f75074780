"""Paired benchmark runs of two checkouts, summarized in a BENCH file.

Runs ``perfbench/run.py --trace 0`` for every workload of ``BENCHMARK.json``
(or those named by ``--workloads NAME,...``, any of
``perfbench/workloads.WORKLOADS``) and every seed, once in a checkout of
the base commit and once in this checkout, alternating which of the two
runs first.  A workload outside ``BENCHMARK.json`` gets the same medians,
pairs and verdicts, under the same bounds.  Writes, per workload, the
median and quartiles of every end-to-end metric on each side, each pair's
values, how many pairs the change won, a verdict, and whether the output
digests agreed, together with the seeds and the command, and prints one
summary line per workload, which also shows each side's median of the
``SHOWN`` report-line metrics, so an update-path cost reads without the
file.  Under ``src_lines`` it records, and prints on a last summary line,
the line count of each side's library source (``src/streamkc/*.py``), the
measure of size the roadmap's design aim reads.
Under ``reported`` it also keeps, for
information only and with no verdict, the median and quartiles on each side
of the report line's ``update_p50_us``, ``update_p99_us``, ``query_p50_ms``
and ``failed_share``, where every run of that side reports them::

    python3 tools/bench_pairs.py --base ../base-checkout --seeds 3-12 \\
        --seconds 15 --out BENCH_10.json

A metric's verdict, with its bound from ``BENCHMARK.json`` read as a
fraction of the base median:

- ``gain``: the change won at least nine tenths of the pairs (ties count
  for neither side) and its median is better by more than the distance
  between the base's quartiles;
- ``regression``: the change's median is worse by more than the bound;
- ``unresolved``: either side's quartile distance is wider than the bound
  and the runs do not separate (not every change run is better than every
  base run);
- ``unchanged``: none of these.

Runs are serial: two at once would share the cores they are timed on.

Both sides must measure with the same benchmark code: the tool refuses to
run, exiting with status 2 and naming the file, when ``BENCHMARK.json`` or
any file under ``perfbench/`` (its generated ``_work`` and ``__pycache__``
directories aside) differs between the two checkouts.  It also exits with
status 2, before any run, when git names no commit checked out at the base
checkout, so that every BENCH file records its base commit.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
# report-line metrics kept for information, beside the gated ones
REPORTED = ("update_p50_us", "update_p99_us", "query_p50_ms", "failed_share")
SHOWN = ("update_p50_us", "update_p99_us", "query_p50_ms")  # on the summary line


def benchmark_files(checkout: Path) -> set[str]:
    """BENCHMARK.json and the files under perfbench/, relative to checkout,
    without what runs generate there."""
    bench = checkout / "perfbench"
    files = {"BENCHMARK.json"}
    for path in bench.rglob("*"):
        if path.is_file() and not {"_work", "__pycache__"} & set(path.relative_to(bench).parts):
            files.add(path.relative_to(checkout).as_posix())
    return files


def benchmark_difference(base: Path, change: Path) -> Optional[str]:
    """The first benchmark file (``benchmark_files``) that is missing from
    either checkout or differs between them, or None."""
    for name in sorted(benchmark_files(base) | benchmark_files(change)):
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            return name
    return None


def src_lines(checkout: Path) -> int:
    """Lines of checkout's ``src/streamkc/*.py``, counted as ``wc -l`` does."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "streamkc").glob("*.py"))


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
        "reported": {k: report["metrics"].get(k) for k in REPORTED},
    }


def commit_of(checkout: Path) -> Optional[str]:
    """The commit checked out at checkout, or None when git names none there:
    not a directory, not in a git tree, or below the top of another one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=checkout,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    lines = out.stdout.split("\n")
    if out.returncode or len(lines) < 2 or Path(lines[0]).resolve() != checkout.resolve():
        return None
    return lines[1]


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def reported_spreads(runs: dict[str, list[dict]]) -> dict:
    """Each ``REPORTED`` metric's spread per side, for the sides on which
    every run reports it; a metric no side reports is left out."""
    out = {}
    for name in REPORTED:
        sides = {}
        for side, side_runs in runs.items():
            values = [r["reported"].get(name) for r in side_runs]
            if values and None not in values:
                sides[side] = spread(values)
        if sides:
            out[name] = sides
    return out


def pairs_won(base: list[float], change: list[float], better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """gain, regression, unresolved or unchanged (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    b, c = spread(base), spread(change)
    gap = sign * (c["median"] - b["median"])  # > 0: the change is better
    limit = bound * (abs(b["median"]) or 1.0)
    if pairs_won(base, change, better) >= 0.9 * len(base) and gap > b["q3"] - b["q1"]:
        return "gain"
    if -gap > limit:
        return "regression"
    wide = max(b["q3"] - b["q1"], c["q3"] - c["q1"]) > limit
    if better == "higher":
        separate = min(change) > max(base)
    else:
        separate = max(change) < min(base)
    return "unresolved" if wide and not separate else "unchanged"


def summary_line(name: str, workload: dict) -> str:
    """One line: each metric's verdict with both medians and the pairs won,
    then both medians of each ``SHOWN`` metric that a side reports ("n/a"
    for a side that does not)."""
    parts = []
    for metric, m in workload["metrics"].items():
        b, c = m["base"]["median"], m["change"]["median"]
        rel = f"{(c - b) / b:+.1%}" if b else "n/a"
        parts.append(f"{metric} {m['verdict']} ({b:.4g} -> {c:.4g}, {rel}, "
                     f"{m['change_better_pairs']}/{workload['pairs']})")
    for metric in SHOWN:
        sides = workload["reported"].get(metric)
        if sides:
            b, c = (f"{sides[s]['median']:.4g}" if s in sides else "n/a"
                    for s in ("base", "change"))
            parts.append(f"{metric} {b} -> {c}")
    checks = ("digests equal" if workload["digests_equal"] else "DIGESTS DIFFER") + (
        ", all correct" if workload["all_correct"] else ", SOME INCORRECT")
    return f"{name}: " + "; ".join(parts) + f"; {checks}"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


@functools.cache
def known_workloads() -> frozenset[str]:
    """The workload names of this checkout's ``perfbench/workloads.py``,
    which imports nothing from the library."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return frozenset(module.WORKLOADS)


def workload_list(text: str) -> list[str]:
    """NAME,... of workloads ``perfbench/run.py`` knows, in the order given."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in known_workloads()]
    if not names or unknown:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown or [text]}; known: {sorted(known_workloads())}")
    return names


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("3-12"), help="e.g. 3-12")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--workloads", type=workload_list, metavar="NAME,...",
                    help="any of perfbench/workloads.WORKLOADS; "
                    "default: every workload of BENCHMARK.json")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    differs = benchmark_difference(args.base.resolve(), ROOT)
    if differs is not None:
        print(f"bench_pairs: {differs} differs between the base checkout and this one; "
              "both sides must run the same benchmark code", file=sys.stderr)
        return 2
    base_commit = commit_of(args.base.resolve())
    if base_commit is None:
        print(f"bench_pairs: git names no commit checked out at {args.base}; "
              "give a clone or worktree of the base commit", file=sys.stderr)
        return 2

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
        "base_commit": base_commit,
        "change": "the commit this file is checked in with",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
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
            summary[name] = {
                "unit": meta["unit"],
                "better": meta["better"],
                "base": spread(base),
                "change": spread(change),
                "change_better_pairs": pairs_won(base, change, meta["better"]),
                "verdict": verdict(base, change, meta["better"], meta["bound"]),
            }
        result["workloads"][wl] = {
            "metrics": summary,
            "reported": reported_spreads(runs),
            "pairs": len(args.seeds),
            "all_correct": all(r["correct"] for side in runs.values() for r in side),
            "digests_equal": all(
                b["digest"] == c["digest"] for b, c in zip(runs["base"], runs["change"])
            ),
        }
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    for wl, summary in result["workloads"].items():
        print(summary_line(wl, summary))
    base, change = result["src_lines"]["base"], result["src_lines"]["change"]
    print(f"src_lines: {base} -> {change} ({change - base:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
