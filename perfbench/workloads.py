"""Seeded workloads and metric names of the streamkc benchmark.

Shared by the command (``run.py``), the per-workload child process
(``worker.py``) and the smoke test.  Importing this module imports nothing
from ``streamkc``; the functions that need the library import it lazily so
``run.py`` can check the checkout layout first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DIM = 4
LAM = 0.5
BETA = 0.5
ALPHA = 0.9
EPS = 0.9
ETA = 0.05
OUTLIER_SCALE = 100.0
FAR_RATE = 0.001  # the synth recipe's far points: rate and norm
FAR_NORM = 10.0
# Query cost follows the number of outliers in the window: injected ones for
# the solver, the synth recipe's far points for the effective diameter.
# Drawn from the run's seed, that Poisson count moved query time by up to a
# third between seeds.  So outliers are placed by a generator seeded with
# this constant, the same for every seed (inject_outliers' own seed, and the
# far points' positions in the stream); the seed picks the ball data and
# the far points' directions.
INJECT_SEED = 20_220_107
# --seconds for which segment_cycles is set (run_seconds in BENCHMARK.json)
RUN_SECONDS = 15


@dataclass(frozen=True)
class Workload:
    """One stream configuration.

    inject: the sliding recipe (plain ball data plus ``inject_outliers`` at
        ``injection_prob(z, N)``, scale 100).  Otherwise the synth recipe:
        ball data with built-in far points at rate 0.001, norm 10.
    segment_cycles: query cycles (query_every points and one query) in the
        measured segment of a RUN_SECONDS run.
    check_every: every this many-th query gets harness scoring (radius,
        exact effective diameter) and gives the output digest and the
        output metrics.
    query_kernel: the calibration kernel whose speed query times are read
        at: "python" for the pure-Python greedy solver, "numpy" for queries
        that sort distances in numpy (worker.REF_PYTHON_NS).
    """

    name: str
    algorithm: str  # "sliding", "eff-sliding" or "charikar"
    window_len: int
    query_every: int
    k: int = 10
    z: int = 10
    mode: str = "oblivious"
    d_min: Optional[float] = None
    d_max: Optional[float] = None
    inject: bool = True
    segment_cycles: int = 4
    check_every: int = 1
    query_kernel: str = "python"

    def cycles(self, seconds: float) -> int:
        """Query cycles in the measured segment of a run of that many seconds."""
        return max(1, round(self.segment_cycles * seconds / RUN_SECONDS))

    def points(self, cycles: int) -> int:
        """Dataset rows: the window fill plus the segment."""
        return self.window_len + cycles * self.query_every

    def experiment_config(self, input_path, output_path, diameter):
        """The ``streamkc run`` configuration that replays this workload."""
        from streamkc.experiment import ExperimentConfig, injection_prob

        return ExperimentConfig(
            input_path=str(input_path),
            output_path=str(output_path),
            algorithm=self.algorithm,
            window_len=self.window_len,
            k=self.k,
            z=self.z,
            lam=LAM,
            beta=BETA,
            alpha=ALPHA,
            eps=EPS,
            eta=ETA,
            query_every=self.query_every,
            inject_prob=injection_prob(self.z, self.window_len) if self.inject else 0.0,
            outlier_scale=OUTLIER_SCALE,
            dataset_diameter=diameter,
            seed=INJECT_SEED,
            mode=self.mode,
            d_min=self.d_min,
            d_max=self.d_max,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sliding-k10-n10k", "sliding", 10_000, 100,
            segment_cycles=350, check_every=10,
        ),
        Workload(
            "sliding-k40-n2k", "sliding", 2_000, 20, k=40, z=40,
            segment_cycles=150, check_every=5,
        ),
        Workload(
            "eff-fixed-n1k", "eff-sliding", 1_000, 20,
            mode="fixed", d_min=0.01, d_max=1e4, inject=False,
            segment_cycles=80, check_every=4, query_kernel="numpy",
        ),
        Workload(
            "charikar-n500", "charikar", 500, 25,
            segment_cycles=30, query_kernel="numpy",
        ),
    )
}


def write_dataset(wl: Workload, seed: int, n_points: int, path) -> float:
    """Write the workload's seeded ball stream as a CSV file and return the
    dataset diameter estimate that outlier injection scales by.

    Without injection this is the synth recipe, ``generate_ball_stream``
    with far points at rate FAR_RATE and norm FAR_NORM, except that the far
    points' positions come from INJECT_SEED."""
    import numpy as np
    from streamkc.core import Point
    from streamkc.experiment import estimate_diameter, generate_ball_stream, write_points

    coords = generate_ball_stream(n_points, DIM, seed=seed)
    if not wl.inject:
        far = np.random.default_rng(INJECT_SEED).random(n_points) < FAR_RATE
        coords[far] *= FAR_NORM / np.linalg.norm(coords[far], axis=1, keepdims=True)
    write_points(coords, path)
    return estimate_diameter(
        Point(i + 1, tuple(row)) for i, row in enumerate(coords.tolist())
    )


# -- metric names --------------------------------------------------------------

# (name, unit) of the gated end-to-end metrics every untraced run reports;
# the report line also carries update_p50_us, update_p99_us, query_mean_ms,
# query_p50_ms, query_p90_ms, radius_p50, eff_saturated_share and
# failed_share where they apply
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_pts_s", "points/s"),
    ("memory_floats_max", "floats"),
    ("peak_rss_mb", "MiB"),
)

# oblivious upkeep, reported over all ladders only: the effective-diameter
# ladders run in fixed mode, which never calls it
UPKEEP_STATS = (
    ("GuessLadder.maintain_oblivious_ladder.self_ms", "ms"),
    ("GuessLadder.maintain_oblivious_ladder.grid_changes", "count"),
    ("GuessLadder.maintain_oblivious_ladder.guesses_added", "count"),
    ("GuessLadder.maintain_oblivious_ladder.guesses_dropped", "count"),
)

# coreset metrics, reported over all ladders and, under the ladder's role
# (coreset.validation.* / coreset.fine.*), for the two effective-diameter ladders
CORESET_STATS = (
    ("GuessLadder.process_point.self_ms", "ms"),
    ("GuessState.process_point.calls", "count"),
    ("GuessState.process_point.self_ms", "ms"),
    ("GuessState.process_point.capture_ratio", "ratio"),
    ("GuessState.sweep.self_ms", "ms"),
    ("GuessLadder.qualifies.calls", "count"),
    ("GuessLadder.qualifies.self_ms", "ms"),
    ("GuessLadder.qualifies.reject_ratio", "ratio"),
    ("GuessLadder.extract_coreset.self_ms", "ms"),
    ("grid_len", "count"),
    ("stored_points", "count"),
    ("histogram_entries", "count"),
    ("coreset_size", "count"),
    ("evictions", "count"),
)
ROLES = ("validation", "fine")

PER_LAYER = (
    tuple((f"coreset.{s}", u) for s, u in CORESET_STATS[:1] + UPKEEP_STATS + CORESET_STATS[1:])
    + tuple((f"coreset.{r}.{s}", u) for r in ROLES for s, u in CORESET_STATS)
    + (
        ("histogram.bump_and_trim.calls", "count"),
        ("histogram.bump_and_trim.self_ms", "ms"),
        ("histogram.bump_and_trim.kept_ratio", "ratio"),
        ("solver.compute_solution.self_ms", "ms"),
        ("solver.outliers_cluster.calls", "count"),
        ("solver.outliers_cluster.self_ms", "ms"),
        ("solver.outliers_cluster.per_query", "count"),
        ("solver.charikar.self_ms", "ms"),
        ("effdiam.FineCoresetState.fine_coreset.self_ms", "ms"),
        ("effdiam.coreset_effective_diameter.calls", "count"),
        ("effdiam.coreset_effective_diameter.self_ms", "ms"),
        ("effdiam.saturation.overflow", "count"),
        ("effdiam.saturation.mass_low", "count"),
        ("effdiam.saturation.mass_up", "count"),
        ("experiment.ingest.self_ms", "ms"),
        ("experiment.inject_outliers.self_ms", "ms"),
        ("core.radius_excluding.calls", "count"),
        ("core.radius_excluding.self_ms", "ms"),
        ("effdiam.exact_effective_diameter.self_ms", "ms"),
        ("trace.spans", "count"),
        ("trace.self_ms", "ms"),
        ("trace.wall_ms", "ms"),
        ("trace.update_p50_overhead", "ratio"),
        ("trace.query_p50_overhead", "ratio"),
        ("trace.throughput_overhead", "ratio"),
    )
)
