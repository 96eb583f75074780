"""Experiment driver: dataset ingestion, outlier injection, and metrics
emission for the streaming algorithms and their sequential baselines.

Metrics file schema (version 1): a first comment line
``# streamkc-metrics-v1 algorithm=<name>`` followed by a CSV header and one
row per query.  Columns:

    timestep      query time step
    radius        clustering radius vs the full window, z largest excluded
                  (``radius_excluding`` of the query's centers, Euclidean)
    uncovered     weight/count left uncovered by the returned solution
    eff_lower     lower effective-diameter estimate
    eff_upper     upper effective-diameter estimate (for eff-sequential both
                  eff columns carry its single point estimate)
    memory_floats structure-size gauge: stored points * dimension
                  + 2 * histogram entries + bookkeeping scalars (the guess
                  per ladder rung plus two distance scalars); baselines count
                  their stored window as points * dimension
    update_ns     median per-point update time since the previous query, ns
    query_ns      wall-clock time of this query, ns: the engine's or
                  baseline's call alone; the run scores its centers
                  (the radius column) after the timer stops
    saturated     1 if an effective-diameter estimate lost its guarantee

Identical configs and seeds reproduce every column except the two timing
ones.  The gauge never reads process-level allocation counters.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import Point, StreamParams, WindowView, _require_count, radius_excluding
from .coreset import GuessLadder
from .effdiam import EffDiameterConfig, FineCoresetState, eff_sequential
from .solver import _check_step, charikar, compute_solution, gonzalez, samp_charikar

ALGORITHMS = (
    "sliding",
    "charikar",
    "samp-charikar",
    "gon",
    "eff-sliding",
    "eff-sequential",
)

METRICS_SCHEMA = "streamkc-metrics-v1"
COLUMNS = (
    "timestep",
    "radius",
    "uncovered",
    "eff_lower",
    "eff_upper",
    "memory_floats",
    "update_ns",
    "query_ns",
    "saturated",
)
TIMING_COLUMNS = ("update_ns", "query_ns")


@dataclass
class ExperimentConfig:
    input_path: str
    output_path: str
    algorithm: str
    window_len: int
    k: int = 10
    z: int = 10
    lam: float = 0.5
    beta: float = 0.5
    alpha: float = 0.9
    eps: float = 0.9
    eta: float = 0.05
    fine_cap: int = 4096
    query_every: int = 10_000
    inject_prob: float = 0.0
    outlier_scale: float = 100.0
    dataset_diameter: Optional[float] = None
    seed: int = 0
    mode: str = "oblivious"
    d_min: Optional[float] = None
    d_max: Optional[float] = None
    step: Optional[float] = None  # charikar grid step, defaults to beta
    sample_size: int = 1000
    bucket_step: float = 0.01
    raw_timings_path: Optional[str] = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("window_len", "query_every", "sample_size"):
            _require_count(name, getattr(self, name))
        if self.window_len < 2:
            raise ValueError("window_len must be >= 2")
        if self.query_every < 1:
            raise ValueError("query_every must be >= 1")
        if not 0.0 <= self.inject_prob <= 1.0:
            raise ValueError("inject_prob must be in [0, 1]")
        # an injected outlier has norm outlier_scale * dataset_diameter, which
        # is non-finite whenever either factor is
        diameter = 1.0 if self.dataset_diameter is None else self.dataset_diameter
        if not math.isfinite(self.outlier_scale * diameter):
            raise ValueError("outlier_scale, dataset_diameter and their product must be finite")
        if self.mode not in ("fixed", "oblivious"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "fixed" and self.algorithm in ("sliding", "eff-sliding"):
            d_min, d_max = self.d_min, self.d_max
            if d_min is None or d_max is None or not 0 < d_min <= d_max < math.inf:
                raise ValueError("fixed mode requires 0 < d_min <= d_max < inf")
        if self.algorithm in ("sliding", "charikar", "samp-charikar", "gon"):
            # surfaces bad k/z combinations before streaming starts
            StreamParams(self.window_len, self.k, self.z, self.lam, self.beta)
        if self.algorithm in ("eff-sliding", "eff-sequential"):
            EffDiameterConfig(
                self.alpha, self.eps, self.eta, self.lam, self.beta, self.fine_cap
            )
        if self.algorithm == "eff-sliding" and self.eps >= 1:
            raise ValueError("eff-sliding estimates require eps < 1")
        if self.step is not None:
            _check_step(self.step)
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if not 0 < self.bucket_step < math.inf:
            raise ValueError("bucket_step must be finite and positive")


def ingest(path: str | Path) -> Iterator[Point]:
    """Lazily read one point per line (comma or whitespace separated reals).

    A non-numeric first line is treated as a header and skipped; any other
    malformed, ragged, or non-finite row aborts with its line number.
    """
    dim = None
    arrival = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                coords = tuple(map(float, line.replace(",", " ").split()))
            except ValueError:
                coords = None
            # a leading or trailing comma leaves an empty field, which is no number
            if coords is None or line[0] == "," or line[-1] == ",":
                if lineno == 1:
                    continue  # header
                raise ValueError(f"{path}:{lineno}: non-numeric field")
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} fields, got {len(coords)}"
                )
            arrival += 1
            try:
                yield Point(arrival, coords)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def estimate_diameter(points: Iterable[Point]) -> float:
    """Twice the max distance from the centroid: exact for centrally
    symmetric sets, otherwise within a factor two of the true diameter."""
    coords = np.array([p.coords for p in points])
    if len(coords) == 0:
        raise ValueError("cannot estimate the diameter of an empty dataset")
    center = coords.mean(axis=0)
    return 2.0 * float(np.sqrt(((coords - center) ** 2).sum(axis=1).max()))


def inject_outliers(
    stream: Iterable[Point],
    prob: float,
    scale: float,
    seed: int,
    diameter: float,
) -> Iterator[Point]:
    """After each point, with probability prob, emit an extra point of norm
    scale * diameter in a uniformly random direction.  Arrivals are
    re-numbered so the output is a valid stream."""
    rng = np.random.default_rng(seed)
    arrival = 0
    norm = scale * diameter
    for p in stream:
        arrival += 1
        yield Point(arrival, p.coords)
        if prob > 0.0 and rng.random() < prob:
            direction = rng.normal(size=len(p.coords))
            while not np.linalg.norm(direction) > 0.0:
                direction = rng.normal(size=len(p.coords))
            direction *= norm / np.linalg.norm(direction)
            arrival += 1
            yield Point(arrival, tuple(float(c) for c in direction))


def injection_prob(z: int, window_len: int) -> float:
    """Probability yielding z/2 injected outliers per window in expectation."""
    return min(1.0, z / (2.0 * window_len))


def generate_ball_stream(
    n: int,
    dim: int = 4,
    outlier_rate: float = 0.0,
    outlier_norm: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic test data: norms uniform in [0, 1] along random directions,
    with each point replaced, at the given rate, by one on the sphere of
    radius outlier_norm."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = rng.random(n)
    if outlier_rate > 0.0:
        norms = np.where(rng.random(n) < outlier_rate, outlier_norm, norms)
    return dirs * norms[:, None]


def write_points(coords: np.ndarray, path: str | Path) -> None:
    np.savetxt(path, coords, delimiter=",", fmt="%.17g")


def run_experiment(cfg: ExperimentConfig) -> str:
    """Feed the stream point by point, querying the selected algorithm every
    query_every steps once the window has filled, and write the metrics file.
    Returns the output path."""
    cfg.validate()
    N = cfg.window_len
    alg = cfg.algorithm
    step = cfg.beta if cfg.step is None else cfg.step

    # built before the diameter scan reads a point: a ladder setting is refused first
    engine: GuessLadder | FineCoresetState | None = None
    if alg == "sliding":
        params = StreamParams(N, cfg.k, cfg.z, cfg.lam, cfg.beta)
        engine = GuessLadder(params, cfg.mode, cfg.d_min, cfg.d_max)
    elif alg == "eff-sliding":
        ecfg = EffDiameterConfig(
            cfg.alpha, cfg.eps, cfg.eta, cfg.lam, cfg.beta, cfg.fine_cap
        )
        engine = FineCoresetState(ecfg, N, cfg.mode, cfg.d_min, cfg.d_max)

    stream: Iterable[Point] = ingest(cfg.input_path)
    if cfg.inject_prob > 0.0:
        diameter = cfg.dataset_diameter
        if diameter is None:
            diameter = estimate_diameter(ingest(cfg.input_path))
            if not math.isfinite(cfg.outlier_scale * diameter):
                raise ValueError(f"outlier_scale times the estimated dataset diameter "
                                 f"{diameter!r} must be finite")
        stream = inject_outliers(
            stream, cfg.inject_prob, cfg.outlier_scale, cfg.seed, diameter
        )
    # every algorithm keeps the window for scoring; only the streaming
    # structures count toward the memory gauge of sliding/eff-sliding
    window: deque[Point] = deque(maxlen=N)

    rows: list[dict] = []
    raw_timings: list[list[int]] = []
    update_ns: list[int] = []
    dim = None
    t = 0
    for p in stream:
        t = p.arrival
        dim = len(p.coords)
        t0 = time.perf_counter_ns()
        if engine is not None:
            engine.process_point(p)
        window.append(p)
        update_ns.append(time.perf_counter_ns() - t0)
        if t >= N + cfg.query_every and (t - N) % cfg.query_every == 0:
            rows.append(_query(cfg, alg, step, engine, window, t, dim, update_ns))
            if cfg.raw_timings_path is not None:
                raw_timings.append(list(update_ns))
            update_ns.clear()

    _write_metrics(cfg, rows)
    if cfg.raw_timings_path is not None:
        with open(cfg.raw_timings_path, "w") as fh:
            for samples in raw_timings:
                fh.write(",".join(str(v) for v in samples) + "\n")
    return cfg.output_path


def _query(cfg, alg, step, engine, window, t, dim, update_ns) -> dict:
    view = WindowView(points=tuple(window), t=t)
    med_update = int(statistics.median(update_ns)) if update_ns else 0
    centers = None
    q0 = time.perf_counter_ns()
    if alg in ("sliding", "charikar", "samp-charikar"):
        if alg == "sliding":
            out = compute_solution(engine)
        elif alg == "charikar":
            out = charikar(view, cfg.k, cfg.z, step)
        else:
            out = samp_charikar(view, cfg.k, cfg.z, step, cfg.sample_size, cfg.seed)
        centers, vals = out.centers, dict(uncovered=out.uncovered_weight)
    elif alg == "gon":
        centers, vals = gonzalez(view, cfg.k), {}
    elif alg == "eff-sliding":
        est = engine.estimate()
        vals = dict(eff_lower=est.lower, eff_upper=est.upper, saturated=int(est.saturated))
    else:
        value = eff_sequential(view, cfg.alpha, cfg.bucket_step)
        vals = dict(eff_lower=value, eff_upper=value)
    q_ns = time.perf_counter_ns() - q0
    if centers is not None:  # scoring against the true window is evaluation, not query time
        vals["radius"] = radius_excluding(centers, view, cfg.z)
    mem = len(window) * dim if engine is None else engine.memory_floats(dim)
    return dict(timestep=t, memory_floats=mem, update_ns=med_update, query_ns=q_ns, **vals)


def _write_metrics(cfg: ExperimentConfig, rows: list[dict]) -> None:
    """The schema line, then the rows as CSV, a column a row lacks left empty."""
    with open(cfg.output_path, "w", newline="") as fh:
        fh.write(f"# {METRICS_SCHEMA} algorithm={cfg.algorithm}\n")
        writer = csv.DictWriter(fh, COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def read_metrics(path: str | Path) -> list[dict]:
    """Parse a metrics file back into a list of column -> string dicts."""
    with open(path, newline="") as fh:
        if not fh.readline().startswith(f"# {METRICS_SCHEMA}"):
            raise ValueError(f"{path}: unknown metrics schema")
        return list(csv.DictReader(fh))
