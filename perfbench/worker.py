"""Child process of the benchmark: streams one workload through streamkc.

Run by ``run.py`` in a fresh interpreter, one workload per process:

    python3 perfbench/worker.py WORKLOAD DATA.csv DIAMETER SECONDS TRACE [--setup-only]

The closed loop has one caller: the next point is read only after
``process_point`` returns, and once the window is full a query runs inline
every ``query_every`` points, as in ``streamkc.experiment.run_experiment``.

The first ``window_len`` points fill the window untimed.  The next
``Workload.cycles(SECONDS)`` query cycles (``query_every`` points and one
query each) form the measured segment.  Its length depends only on the
workload and SECONDS, so a faster engine finishes the same work sooner and
never measures different work.  Harness scoring and the output checks run
outside every timed section.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path

import workloads
from workloads import ALPHA, BETA, EPS, ETA, INJECT_SEED, LAM, OUTLIER_SCALE, Workload

_now = time.perf_counter_ns

# Load from other tenants of a shared host moves wall-clock times of
# identical work by a quarter or more between runs, and within a run over a
# few seconds.  So after each query every run times fixed calibration
# kernels of its own: a pure-Python one shaped like the update path and,
# where the workload's query_kernel is "numpy", a numpy one shaped like a
# distance-sorting query.  Times are reported at the reference speed, at
# which the kernels take REF_PYTHON_NS and REF_NUMPY_NS: each query cycle's
# ingest and update times are multiplied by REF_PYTHON_NS over the Python
# kernel's median time in the cycles within SPEED_WINDOW of it, and its
# query time likewise by the query_kernel's; set-up times by a burst of the
# Python kernel right after set-up.  On same-seed reruns each kernel tracked
# the work it is paired with and not the other (perfbench/README.md).  The
# kernels are the benchmark's own code, so a change to streamkc cannot move
# them.  The raw wall-clock times are reported alongside.
REF_PYTHON_NS = 125_000
REF_NUMPY_NS = 3_500_000
PYTHON_PER_QUERY = 3
NUMPY_PER_QUERY = 2
SPEED_WINDOW = 2  # a cycle's speed is read over this many cycles on each side
_CAL_PTS = [tuple(((i * 37 + j * 11) % 101) / 101.0 for j in range(4)) for i in range(64)]


def setup_factor() -> float:
    """Python speed factor right after set-up, from a burst of kernel timings."""
    return REF_PYTHON_NS / statistics.median(calibrate() for _ in range(21))


def calibrate() -> int:
    """ns taken by a fixed pure-Python kernel shaped like the engine's update
    path: distance scans over 4-d tuples and histogram-style list rebuilds."""
    t0 = _now()
    hist = [(i, 40 - i) for i in range(12)]
    for t, a in enumerate(_CAL_PTS):
        for b in _CAL_PTS[:21]:
            if math.dist(a, b) <= 0.3:
                break
        bumped = [(ts, c + 1) for ts, c in hist]
        bumped.append((t + 100, 1))
        hist = bumped[-12:]
    return _now() - t0


@functools.cache
def _calibration_points():
    import numpy as np

    return np.random.default_rng(5).normal(size=(250, 4))


def calibrate_numpy() -> int:
    """ns taken by a fixed numpy kernel shaped like a query: pairwise
    distances of 250 4-d points, a stable sort and a cumulative search."""
    import numpy as np
    from scipy.spatial.distance import pdist

    points = _calibration_points()
    t0 = _now()
    d = pdist(points)
    cum = np.cumsum(d[np.argsort(d, kind="stable")])
    np.searchsorted(cum, cum[-1] / 2.0)
    return _now() - t0


def open_stream(wl: Workload, data_path, diameter: float):
    """The stream a ``streamkc run`` of the workload reads: the dataset file,
    with outliers injected from the fixed INJECT_SEED stream if the recipe
    has them."""
    from streamkc import experiment

    stream = experiment.ingest(data_path)
    if wl.inject:
        stream = experiment.inject_outliers(
            stream, experiment.injection_prob(wl.z, wl.window_len), OUTLIER_SCALE,
            INJECT_SEED, diameter,
        )
    return iter(stream)


def open_run(wl: Workload, data_path, diameter: float):
    """Set-up as a user pays it: import the library, build the engine (None
    for charikar, which keeps only the window) and open the stream.
    Returns (modules, engine, stream)."""
    from streamkc import core, coreset, effdiam, solver

    N = wl.window_len
    engine = None
    if wl.algorithm == "sliding":
        params = core.StreamParams(N, wl.k, wl.z, LAM, BETA)
        engine = coreset.GuessLadder(params, wl.mode, wl.d_min, wl.d_max)
    elif wl.algorithm == "eff-sliding":
        cfg = effdiam.EffDiameterConfig(ALPHA, EPS, ETA, LAM, BETA)
        engine = effdiam.FineCoresetState(cfg, N, wl.mode, wl.d_min, wl.d_max)
    mods = dict(core=core, solver=solver, effdiam=effdiam)
    return mods, engine, open_stream(wl, data_path, diameter)


def fill(wl: Workload, engine, points, p) -> deque:
    """Feed p and the following points until the window is full."""
    window: deque = deque(maxlen=wl.window_len)
    while True:
        if engine is not None:
            engine.process_point(p)
        window.append(p)
        if p.arrival >= wl.window_len:
            return window
        p = next(points)


def ladders(wl: Workload, engine) -> dict:
    """role -> GuessLadder ("" for the sliding engine's single ladder)."""
    if wl.algorithm == "sliding":
        return {"": engine}
    if wl.algorithm == "eff-sliding":
        return {"validation": engine.validation, "fine": engine.fine}
    return {}


class Run:
    """Samples, checks and the digest of one workload run.

    Every query gets the cheap checks and a reading of the memory gauge.
    Every ``check_every``-th query also gets the full checks (harness
    scoring and oracles) and gives the digest and the output metrics.
    """

    def __init__(self, wl: Workload, mods, check_every: int, tracer=None):
        self.wl = wl
        self.mods = mods
        self.check_every = check_every
        self.tracer = tracer
        # per query cycle (query_every points, then one query): ingest plus
        # update ns, the update ns alone, the query ns, and the calibration
        # kernel ns sampled after the query (see REF_PYTHON_NS)
        self.stream_ns: list[int] = []
        self.update_ns: list[list[int]] = []
        self.query_ns: list[int] = []
        self.cal_python: list[list[int]] = []
        self.cal_numpy: list[list[int]] = []
        self.points = 0
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.saturated = 0
        self.radius: list[float] = []
        self.memory: list[int] = []  # memory_floats(dim) at every query
        self.records: list[list] = []  # non-timing outputs of the checked queries
        self.gauges: list[dict] = []  # traced runs only

    def segment(self, engine, window: deque, points, cycles: int) -> None:
        """Stream cycles query cycles."""
        wl, tracer = self.wl, self.tracer
        charikar = engine is None
        update = window.append if charikar else engine.process_point
        if tracer is not None:
            tracer.set_roles(ladders(wl, engine))
            tracer.paused = False
        wall0 = _now()
        for _ in range(cycles):
            stream_ns = 0
            upd: list[int] = []
            for _ in range(wl.query_every):
                a = _now()
                p = next(points)
                b = _now()
                update(p)
                c = _now()
                if not charikar:
                    window.append(p)
                    upd.append(c - b)
                stream_ns += c - a
            self.stream_ns.append(stream_ns)
            self.update_ns.append(upd)
            self.query(engine, window, p.arrival, len(p.coords))
        self.wall_ns = _now() - wall0
        self.points = cycles * wl.query_every
        if tracer is not None:
            tracer.paused = True

    def query(self, engine, window: deque, t: int, dim: int) -> None:
        """One engine query plus its untimed checks and calibration samples."""
        wl, m = self.wl, self.mods
        view = m["core"].WindowView(points=tuple(window), t=t)
        full = self.attempted % self.check_every == 0
        self.attempted += 1
        q0 = _now()
        try:
            if wl.algorithm == "sliding":
                out = m["solver"].compute_solution(engine)
            elif wl.algorithm == "eff-sliding":
                out = engine.estimate()
            else:
                out = m["solver"].charikar(view, wl.k, wl.z, BETA)
            self.query_ns.append(_now() - q0)
            if wl.algorithm == "eff-sliding":
                ok = True
            else:
                ok = len(out.centers) <= wl.k and out.uncovered_weight <= wl.z
            if self.tracer is not None:
                self.tracer.paused = True
                self.gauges.append(self._gauges(engine, out))
            self.memory.append(len(view) * dim if engine is None else engine.memory_floats(dim))
            if self.tracer is not None:
                self.tracer.paused = False
            if full:  # harness scoring stays traced: its layers are reported
                ok = self._check(engine, out, view, t, dim) and ok
            self.failed += not ok
        except Exception:  # a raising query counts as failed and the run goes on
            traceback.print_exc(file=sys.stderr)
            if len(self.query_ns) < self.attempted:
                self.query_ns.append(_now() - q0)
            self.failed += 1
            self.records.append([t, "error"])
        if self.tracer is not None:
            self.tracer.paused = False
        self.cal_python.append([calibrate() for _ in range(PYTHON_PER_QUERY)])
        if wl.query_kernel == "numpy":
            self.cal_numpy.append([calibrate_numpy() for _ in range(NUMPY_PER_QUERY)])

    def _check(self, engine, out, view, t: int, dim: int) -> bool:
        """Full check of one query; records its non-timing outputs."""
        wl, m = self.wl, self.mods
        ok = True
        mem = self.memory[-1]
        if wl.algorithm == "eff-sliding":
            if not out.saturated:
                exact = m["effdiam"].exact_effective_diameter(view, ALPHA)
                diameter = m["effdiam"].exact_effective_diameter(view, 1.0)
                if exact >= ETA * diameter:
                    ok = out.lower <= exact <= out.upper
            self.saturated += out.saturated
            rec = [t, repr(out.lower), repr(out.upper), int(out.saturated), mem,
                   len(engine.validation.states), len(engine.fine.states)]
        else:
            grid = 0 if engine is None else len(engine.states)
            radius = m["core"].radius_excluding(out.centers, view, wl.z)
            self.radius.append(radius)
            rec = [t, [c.arrival for c in out.centers], repr(out.rho_min),
                   out.uncovered_weight, repr(radius), mem, grid]
        self.records.append(rec)
        return ok

    def _gauges(self, engine, out) -> dict:
        """Engine state read through public accessors at one query."""
        g = {}
        for role, lad in ladders(self.wl, engine).items():
            if role == "validation":
                size = len(lad.coreset_at(lad.selected_exponent()))
            else:
                size = out.coreset_size
            g[role] = dict(
                grid_len=len(lad.states),
                stored_points=lad.stored_points(),
                histogram_entries=lad.histogram_entries(),
                coreset_size=size,
                evictions=sum(st.evictions for st in lad.states.values()),
            )
        return g

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.records).encode()).hexdigest()[:16]


def stream(wl: Workload, data_path, diameter: float, seconds: float,
           trace: bool = False, cycles=None, check_every=None, spans=None) -> dict:
    """Set up, fill the window untimed, then measure one segment.

    The segment is ``wl.cycles(seconds)`` query cycles unless cycles is
    given, and check_every overrides the workload's (the cross-check runs
    a short, fully checked segment).  A traced run writes its spans to the
    spans path, if given.  Returns the child's result."""
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(alpha=ALPHA)
        tracer.install()  # before the stream opens, so its iterators are traced
    mods, engine, points = open_run(wl, data_path, diameter)
    first = next(points)
    setup_at = time.perf_counter()
    factor = setup_factor()

    fill0 = _now()
    window = fill(wl, engine, points, first)
    fill_ns = _now() - fill0

    run = Run(wl, mods, check_every or wl.check_every, tracer)
    run.segment(engine, window, points, cycles or wl.cycles(seconds))
    if tracer is not None:
        tracer.uninstall()

    res = {
        "setup_at": setup_at,
        "setup_factor": factor,
        "fill_s": fill_ns / 1e9,
        "points": run.points,
        "engine_s": (sum(run.stream_ns) + sum(run.query_ns)) / 1e9,
        "wall_s": run.wall_ns / 1e9,
        "attempted": run.attempted,
        "failed": run.failed,
        "digest": run.digest(),
        "checked_queries": len(run.records),
        "records": run.records,
        "metrics": end_to_end(run),
    }
    if tracer is not None:
        res["layers"] = per_layer(tracer, run)
        if spans is not None:
            tracer.save(spans)
    return res


def _pct(values, q: float) -> float:
    """q-th percentile by the nearest-rank rule."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def speed_factors(samples: list[list[int]], ref_ns: int) -> list[float]:
    """Per cycle, ref_ns over the kernel's median time in the cycles within
    SPEED_WINDOW of it: host speed follows load that changes within seconds."""
    n = len(samples)
    out = []
    for i in range(n):
        near = samples[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
        out.append(ref_ns / statistics.median(x for cycle in near for x in cycle))
    return out


def end_to_end(run: Run) -> dict:
    """Every metric that applies to the workload, by name (setup_s is added
    by run.py).  Times are at the reference speed (see REF_PYTHON_NS), with
    the raw wall-clock ones under "raw"."""
    m: dict = {}
    raw = m["raw"] = {}
    py = speed_factors(run.cal_python, REF_PYTHON_NS)
    qf = py if run.wl.query_kernel == "python" else speed_factors(run.cal_numpy, REF_NUMPY_NS)
    engine_ns = sum(run.stream_ns) + sum(run.query_ns)
    scaled_ns = sum(s * f for s, f in zip(run.stream_ns, py)) + sum(
        q * f for q, f in zip(run.query_ns, qf)
    )
    raw["throughput_pts_s"] = run.points * 1e9 / engine_ns
    m["throughput_pts_s"] = run.points * 1e9 / scaled_ns
    updates = [x for cycle in run.update_ns for x in cycle]
    if updates:  # not on charikar, whose engine keeps no state
        scaled = [x * f for cycle, f in zip(run.update_ns, py) for x in cycle]
        for name, q in (("update_p50_us", 50), ("update_p99_us", 99)):
            raw[name] = _pct(updates, q) / 1e3
            m[name] = _pct(scaled, q) / 1e3
    queries = [q * f for q, f in zip(run.query_ns, qf)]
    for name, values in (("query", queries), ("raw", run.query_ns)):
        out = m if name == "query" else raw
        out["query_mean_ms"] = statistics.mean(values) / 1e6
        out["query_p50_ms"] = statistics.median(values) / 1e6
        if len(values) >= 100:
            out["query_p90_ms"] = _pct(values, 90) / 1e6
    m["calibration_us"] = {
        kernel: statistics.median(x for cycle in cal for x in cycle) / 1e3
        for kernel, cal in (("python", run.cal_python), ("numpy", run.cal_numpy)) if cal
    }
    m["updates"] = len(updates)
    m["queries"] = len(run.query_ns)
    m["memory_floats_max"] = max(run.memory, default=0)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.radius:
        m["radius_p50"] = statistics.median(run.radius)
    if run.wl.algorithm == "eff-sliding" and run.records:
        m["eff_saturated_share"] = run.saturated / len(run.records)
    m["failed_share"] = run.failed / max(1, run.attempted)
    return m


def per_layer(tracer, run: Run) -> dict:
    """Per-layer metrics of the traced run, every name in PER_LAYER."""
    out = {name: 0.0 for name, _ in workloads.PER_LAYER}
    calls: dict[str, float] = {}
    self_ms: dict[str, float] = {}
    totals = tracer.span_totals()
    for (role, name), (n, ns) in totals.items():
        prefixes = [name]
        if name.startswith("coreset.") and role:
            prefixes.append(name.replace("coreset.", f"coreset.{role}.", 1))
        for key in prefixes:
            calls[key] = calls.get(key, 0) + n
            self_ms[key] = self_ms.get(key, 0.0) + ns / 1e6
    counts: dict[str, int] = {}
    for (role, stat), n in tracer.role_counts().items():
        counts[stat] = counts.get(stat, 0) + n
        if stat.startswith("coreset.") and role:
            key = stat.replace("coreset.", f"coreset.{role}.", 1)
            counts[key] = counts.get(key, 0) + n

    def ratio(a, b):
        return a / b if b else 0.0

    for name in out:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls.get(base, 0)
        elif stat == "self_ms":
            out[name] = self_ms.get(base, 0.0)
        elif stat in ("grid_changes", "guesses_added", "guesses_dropped"):
            out[name] = counts.get(name, 0)
    for pre in ["coreset"] + [f"coreset.{r}" for r in workloads.ROLES]:
        st = f"{pre}.GuessState.process_point"
        out[f"{st}.capture_ratio"] = ratio(counts.get(f"{st}.captures", 0), calls.get(st, 0))
        q = f"{pre}.GuessLadder.qualifies"
        out[f"{q}.reject_ratio"] = ratio(counts.get(f"{q}.rejects", 0), calls.get(q, 0))
    b = "histogram.bump_and_trim"
    out[f"{b}.kept_ratio"] = ratio(counts.get(f"{b}.kept", 0), counts.get(f"{b}.bumped", 0))
    out["solver.outliers_cluster.per_query"] = ratio(
        calls.get("solver.outliers_cluster", 0), calls.get("solver.compute_solution", 0)
    )
    for cause in ("overflow", "mass_low", "mass_up"):
        out[f"effdiam.saturation.{cause}"] = counts.get(f"effdiam.saturation.{cause}", 0)

    # gauges: median over queries, summed over ladders for the unprefixed name
    if run.gauges:
        for gauge in ("grid_len", "stored_points", "histogram_entries",
                      "coreset_size", "evictions"):
            out[f"coreset.{gauge}"] = statistics.median(
                sum(g[r][gauge] for r in g) for g in run.gauges
            )
            for role in workloads.ROLES:
                if role in run.gauges[0]:
                    out[f"coreset.{role}.{gauge}"] = statistics.median(
                        g[role][gauge] for g in run.gauges
                    )
    out["trace.spans"] = len(tracer.start)
    out["trace.self_ms"] = sum(ns for _, ns in totals.values()) / 1e6
    out["trace.wall_ms"] = run.wall_ns / 1e6
    return out


def main(argv) -> int:
    name, data_path, diameter, seconds, trace = argv[:5]
    wl = workloads.WORKLOADS[name]
    if "--setup-only" in argv:
        next(open_run(wl, data_path, float(diameter))[2])
        setup_at = time.perf_counter()
        print(json.dumps({"setup_at": setup_at, "setup_factor": setup_factor()}))
        return 0
    spans = Path(data_path).with_name(f"spans-{name}.npz")
    res = stream(wl, data_path, float(diameter), float(seconds), trace == "1", spans=spans)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
