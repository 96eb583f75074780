"""Split a ladder arrival's update time into its parts, in process.

For each workload named (any of ``perfbench/workloads.WORKLOADS``; by
default sliding-k10-n10k and eff-fixed-n1k), builds the engine the
benchmark builds, from the workload's seeded dataset, fills its window
untimed, and times ``--arrivals`` further arrivals, with no queries, in two
passes per run: a plain one, and one with a timer around each part.  The
passes alternate which goes first from run to run.  Prints, per workload,
the median over the runs of the microseconds per arrival of:

- ``total``: the plain pass's ``process_point`` of the engine;
- ``row``: ``_PointStore.rows``, the arrival's distance row;
- ``estimates``: ``GuessLadder._estimates``, the ``d_t``/``D_t`` upkeep;
- ``upkeep``: ``GuessLadder.maintain_oblivious_ladder``, the ring and the
  retargets with their replays;
- ``prune``: ``GuessLadder.prune_by``, an effective-diameter engine's
  prune of the fine ladder by the validation ladder, with its cuts;
- ``sweep``: ``GuessState.sweep``;
- ``probe``: ``GuessLadder._hits``, split probes included;
- ``steps``: ``GuessState.process_point``, the run steps with their inserts
  and trims;
- ``merge``: ``GuessLadder._merge_runs``;
- ``other``: the timed pass's total less the parts: the step loop, the
  counting, the splits and the timers' own cost.

A call's time counts once, under the outermost part running, so a
retarget's replay counts as upkeep.  The timers add their own cost, which
the parts and ``other`` carry; ``timed`` is the timed pass's total.  Both
ladders of an effective-diameter engine are counted together.  The
numbers are a lead for where time goes, not a gate: a speedup is claimed
with ``tools/bench_pairs.py``::

    python3 tools/arrival_split.py --seed 1 --arrivals 3000 --runs 3

Run from anywhere; the library is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKLOADS = ("sliding-k10-n10k", "eff-fixed-n1k")
# (part, class in streamkc.coreset, method), in the order printed
PARTS = (
    ("row", "_PointStore", "rows"),
    ("estimates", "GuessLadder", "_estimates"),
    ("upkeep", "GuessLadder", "maintain_oblivious_ladder"),
    ("prune", "GuessLadder", "prune_by"),
    ("sweep", "GuessState", "sweep"),
    ("probe", "GuessLadder", "_hits"),
    ("steps", "GuessState", "process_point"),
    ("merge", "GuessLadder", "_merge_runs"),
)
COLUMNS = ("total", "timed", *(part for part, _, _ in PARTS), "other")

_now = time.perf_counter_ns


def _modules():
    """This checkout's ``streamkc.coreset`` and the benchmark's
    ``workloads`` and ``worker`` modules."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode under perfbench/
    try:
        import worker
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
    from streamkc import coreset

    return coreset, workloads, worker


class _Timers:
    """A timer around each part's method, on its class, for as long as the
    ``with`` block runs; ``ns[part]`` is the time of the outermost calls."""

    def __init__(self, coreset):
        self.coreset = coreset
        self.ns = dict.fromkeys((part for part, _, _ in PARTS), 0)
        self.inside = False
        self.undo: list[tuple[type, str, object]] = []

    def _timed(self, part: str, original):
        timers = self

        def timed(*args, **kwargs):
            if timers.inside:  # within another part: counted there
                return original(*args, **kwargs)
            timers.inside = True
            t0 = _now()
            try:
                return original(*args, **kwargs)
            finally:
                timers.ns[part] += _now() - t0
                timers.inside = False

        return timed

    def __enter__(self) -> "_Timers":
        for part, owner, name in PARTS:
            cls = getattr(self.coreset, owner)
            original = cls.__dict__[name]
            self.undo.append((cls, name, original))
            setattr(cls, name, self._timed(part, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self.undo):
            setattr(cls, name, original)
        self.undo.clear()


def one_pass(wl, data_path, diameter: float, arrivals: int, timed: bool) -> dict[str, float]:
    """µs per arrival of one pass: ``total`` alone for a plain pass, every
    column but ``total`` for a timed one."""
    coreset, _, worker = _modules()
    _, engine, points = worker.open_run(wl, data_path, diameter)
    worker.fill(wl, engine, points, next(points))
    batch = [next(points) for _ in range(arrivals)]
    update = engine.process_point
    timers = _Timers(coreset)
    total = 0
    with timers if timed else contextlib.nullcontext():
        for p in batch:
            t0 = _now()
            update(p)
            total += _now() - t0
    if not timed:
        return {"total": total / arrivals / 1e3}
    out = {"timed": total / arrivals / 1e3}
    out.update((part, ns / arrivals / 1e3) for part, ns in timers.ns.items())
    out["other"] = (total - sum(timers.ns.values())) / arrivals / 1e3
    return out


def measure(names, seed: int, arrivals: int, runs: int,
            window: Optional[int] = None) -> dict[str, dict[str, float]]:
    """Workload name -> column -> the median over runs of its µs per
    arrival.  window, if given, replaces each workload's window length."""
    _, workloads, _ = _modules()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wl = workloads.WORKLOADS[name]
            if window is not None:
                wl = dataclasses.replace(wl, window_len=window)
            data = Path(tmp) / f"{name}.csv"
            diameter = workloads.write_dataset(wl, seed, wl.window_len + arrivals + 1, data)
            samples: dict[str, list[float]] = {c: [] for c in COLUMNS}
            for r in range(runs):
                for timed in ((False, True) if r % 2 == 0 else (True, False)):
                    for column, us in one_pass(wl, data, diameter, arrivals, timed).items():
                        samples[column].append(us)
            out[name] = {c: statistics.median(v) for c, v in samples.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS), metavar="NAME,...")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--arrivals", type=int, default=3000, help="timed arrivals past the fill")
    ap.add_argument("--runs", type=int, default=3, help="runs of one plain and one timed pass")
    ap.add_argument("--window", type=int, help="a window length other than the workload's")
    args = ap.parse_args(argv)
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    _, workloads, _ = _modules()
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if not names or unknown or args.arrivals < 1 or args.runs < 1:
        ap.error(f"give known workloads (not {unknown}), --arrivals >= 1 and --runs >= 1")
    got = measure(names, args.seed, args.arrivals, args.runs, args.window)
    for name, cols in got.items():
        print(f"{name}: seed {args.seed}, {args.arrivals} arrivals past the fill, "
              f"medians of {args.runs} runs, µs per arrival")
        print("  " + "  ".join(f"{c} {cols[c]:.1f}" for c in COLUMNS))
    print(json.dumps(got))
    return 0


if __name__ == "__main__":
    sys.exit(main())
