"""Split a query's time into its parts, in process.

For each workload named (a sliding or charikar workload of
``perfbench/workloads.WORKLOADS``; by default sliding-k10-n10k and
charikar-n500), builds the engine the benchmark builds, from the
workload's seeded dataset, fills its window untimed, and runs ``--queries``
query cycles: ``query_every`` untimed arrivals, then one timed query, as
the benchmark asks it (``compute_solution`` of the ladder, or ``charikar``
of the window).  Each run makes two passes: a plain one, and one with a
timer around each part.  The passes alternate which goes first from run to
run.  Prints, per workload, the median over the runs of the microseconds
per query of:

- ``total``: the plain pass's query;
- ``coreset``: ``GuessLadder.extract_coreset``, the coreset extraction
  with the qualification of its guesses (0 on charikar, which has no
  ladder);
- ``distances``: ``solver._distances``, the query's distance reader, with
  the whole matrix of a set of at most ``core._MATRIX_POINTS`` points;
- ``extremes``: ``solver._extremes``, the grid's bounds where the query
  reads them from the set (charikar, and a ladder in warm-up);
- ``farthest``: ``solver._farthest_first``, the separation that skips
  radii without a run;
- ``greedy``: ``solver._greedy``, the greedy runs of the radius search;
- ``other``: the timed pass's total less the parts: the grid, the code
  between the parts, and the timers' own cost.

``runs`` is the plain pass's greedy runs per query, and ``timed`` is the
timed pass's total.  The timers add their own cost, which the parts and
``other`` carry.  The numbers are a lead for where time goes, not a gate:
a speedup is claimed with ``tools/bench_pairs.py``::

    python3 tools/query_split.py --seed 3 --queries 30 --runs 3

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
DEFAULT_WORKLOADS = ("sliding-k10-n10k", "charikar-n500")
ALGORITHMS = ("sliding", "charikar")  # the workloads whose query runs the radius search
# (part, owner in streamkc, name), in the order printed: a class of
# streamkc.coreset, or the solver module, whose names the query calls
PARTS = (
    ("coreset", "GuessLadder", "extract_coreset"),
    ("distances", "solver", "_distances"),
    ("extremes", "solver", "_extremes"),
    ("farthest", "solver", "_farthest_first"),
    ("greedy", "solver", "_greedy"),
)
COLUMNS = ("total", "timed", *(part for part, _, _ in PARTS), "other", "runs")

_now = time.perf_counter_ns


def _modules():
    """This checkout's ``streamkc`` package and the benchmark's
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
    import streamkc.coreset
    import streamkc.solver

    return streamkc, workloads, worker


class _Timers:
    """A timer around each part, on its owner, for as long as the ``with``
    block runs; ``ns[part]`` is the time of the outermost calls, and
    ``calls[part]`` counts every call."""

    def __init__(self, streamkc, timed: bool):
        self.owners = {"solver": streamkc.solver, "GuessLadder": streamkc.coreset.GuessLadder}
        self.timed = timed
        self.ns = dict.fromkeys((part for part, _, _ in PARTS), 0)
        self.calls = dict.fromkeys(self.ns, 0)
        self.inside = False
        self.undo: list[tuple[object, str, object]] = []

    def _wrapped(self, part: str, original):
        timers = self

        def counted(*args, **kwargs):
            timers.calls[part] += 1
            return original(*args, **kwargs)

        def timed(*args, **kwargs):
            timers.calls[part] += 1
            if timers.inside:  # within another part: counted there
                return original(*args, **kwargs)
            timers.inside = True
            t0 = _now()
            try:
                return original(*args, **kwargs)
            finally:
                timers.ns[part] += _now() - t0
                timers.inside = False

        return timed if self.timed else counted

    def __enter__(self) -> "_Timers":
        for part, owner, name in PARTS:
            target = self.owners[owner]
            original = vars(target)[name]
            self.undo.append((target, name, original))
            setattr(target, name, self._wrapped(part, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self.undo):
            setattr(target, name, original)
        self.undo.clear()


def one_pass(wl, data_path, diameter: float, queries: int, timed: bool) -> dict[str, float]:
    """µs per query of one pass: ``total`` and ``runs`` for a plain pass,
    the other columns for a timed one."""
    streamkc, workloads, worker = _modules()
    mods, engine, points = worker.open_run(wl, data_path, diameter)
    window = worker.fill(wl, engine, points, next(points))
    solver, view_of = mods["solver"], mods["core"].WindowView
    total = 0
    with _Timers(streamkc, timed) as timers:
        for _ in range(queries):
            for _ in range(wl.query_every):
                p = next(points)
                if engine is not None:
                    engine.process_point(p)
                window.append(p)
            if engine is None:
                view = view_of(points=tuple(window), t=p.arrival)
                t0 = _now()
                solver.charikar(view, wl.k, wl.z, workloads.BETA)
            else:
                t0 = _now()
                solver.compute_solution(engine)
            total += _now() - t0
    if not timed:
        return {"total": total / queries / 1e3, "runs": timers.calls["greedy"] / queries}
    out = {"timed": total / queries / 1e3}
    out.update((part, ns / queries / 1e3) for part, ns in timers.ns.items())
    out["other"] = (total - sum(timers.ns.values())) / queries / 1e3
    return out


def measure(names, seed: int, queries: int, runs: int,
            window: Optional[int] = None) -> dict[str, dict[str, float]]:
    """Workload name -> column -> the median over runs of its µs per query
    (greedy runs per query for ``runs``).  window, if given, replaces each
    workload's window length."""
    _, workloads, _ = _modules()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wl = workloads.WORKLOADS[name]
            if window is not None:
                wl = dataclasses.replace(wl, window_len=window)
            data = Path(tmp) / f"{name}.csv"
            rows = wl.window_len + queries * wl.query_every + 1
            diameter = workloads.write_dataset(wl, seed, rows, data)
            samples: dict[str, list[float]] = {c: [] for c in COLUMNS}
            for r in range(runs):
                for timed in ((False, True) if r % 2 == 0 else (True, False)):
                    for column, value in one_pass(wl, data, diameter, queries, timed).items():
                        samples[column].append(value)
            out[name] = {c: statistics.median(v) for c, v in samples.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS), metavar="NAME,...")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--queries", type=int, default=30, help="timed queries past the fill")
    ap.add_argument("--runs", type=int, default=3, help="runs of one plain and one timed pass")
    ap.add_argument("--window", type=int, help="a window length other than the workload's")
    args = ap.parse_args(argv)
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    _, workloads, _ = _modules()
    unknown = [n for n in names
               if n not in workloads.WORKLOADS or workloads.WORKLOADS[n].algorithm not in ALGORITHMS]
    if not names or unknown or args.queries < 1 or args.runs < 1:
        ap.error(f"give sliding or charikar workloads (not {unknown}), "
                 "--queries >= 1 and --runs >= 1")
    got = measure(names, args.seed, args.queries, args.runs, args.window)
    for name, cols in got.items():
        print(f"{name}: seed {args.seed}, {args.queries} queries past the fill, "
              f"medians of {args.runs} runs, µs per query ({cols['runs']:.1f} greedy runs)")
        print("  " + "  ".join(f"{c} {cols[c]:.1f}" for c in COLUMNS if c != "runs"))
    print(json.dumps(got))
    return 0


if __name__ == "__main__":
    sys.exit(main())
